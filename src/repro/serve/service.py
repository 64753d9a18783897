"""The inference tail every scoring configuration shares.

:class:`~repro.serve.cluster.ClusterScoringService` (and the single
:class:`~repro.serve.cluster.AddressScoringService`, a one-shard
cluster) plans, builds and caches encoded slice graphs per shard.
Everything after that point lives here, in one body, which is what
keeps the scores of every shard and worker configuration identical:

- **Embedding cache** — per-slice encoder embeddings are memoised in
  each shard's embedding :class:`~repro.serve.cache.SliceGraphCache`,
  keyed by ``(address, slice_index, pipeline fingerprint : model
  version)`` (:func:`~repro.serve.store.encoder_version`), so fully warm
  queries skip even the GNN forward and go straight to the sequence
  head.  Rebuilt slices outside the trusted coverage recompute their
  rows.
- **Batched inference** — all slice graphs of a query are embedded in
  block-diagonal batches and the sequence head runs over padded
  sequence batches, instead of per-graph / per-address forwards.
- **Results** — :class:`AddressScore` rows, the class-name mapping and
  the unknown-address error every entry point reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.gnn.data import EncodedGraph
from repro.seqmodels.trainer import predict_proba_sequences
from repro.serve.cache import CacheKey, SliceGraphCache

__all__ = ["AddressScore"]


@dataclass
class AddressScore:
    """One scored address: predicted class plus the full distribution.

    ``probabilities`` is the ``(num_classes,) float64`` softmax row for
    the address (sums to 1); ``label`` is its argmax and ``class_name``
    the human-readable mapping supplied at service construction (or
    ``class_<label>``).
    """

    address: str
    label: int
    class_name: str
    probabilities: np.ndarray


#: One flat slice graph awaiting embedding: ``(graph, embedding cache
#: or None, embedding cache key, trust_cached)`` — ``trust_cached`` is
#: False for slices rebuilt this query, whose memoised rows are stale
#: by construction.
EmbedEntry = Tuple[
    EncodedGraph, Optional[SliceGraphCache], CacheKey, bool
]


def _class_name_mapping(
    class_names: "Union[Mapping[int, str], Sequence[str], None]",
) -> Dict[int, str]:
    """Normalise a ``{label: name}`` mapping or label-indexed sequence."""
    if class_names is None:
        return {}
    if isinstance(class_names, Mapping):
        return {int(k): str(v) for k, v in class_names.items()}
    return {i: str(name) for i, name in enumerate(class_names)}


#: Cap on the number of addresses an unknown-address error spells out.
_UNKNOWN_SHOWN = 5
#: Cap on the characters shown per spelled-out address.
_UNKNOWN_PREFIX = 16


def _unknown_addresses_error(unknown: Sequence[str]) -> ValidationError:
    """The no-transactions-on-chain report of every scoring entry point.

    Long batches are summarised rather than dumped: the message always
    carries the *total* unknown count, spells out at most
    ``_UNKNOWN_SHOWN`` addresses truncated to ``_UNKNOWN_PREFIX``
    characters, and marks every truncation and elision explicitly — a
    caller reading the message can tell exactly how much it is not
    seeing.
    """
    shown = [
        a[:_UNKNOWN_PREFIX] + ("…" if len(a) > _UNKNOWN_PREFIX else "")
        for a in unknown[:_UNKNOWN_SHOWN]
    ]
    elided = len(unknown) - len(shown)
    detail = ", ".join(shown)
    if elided > 0:
        detail += f" (+{elided} more elided)"
    noun = "address" if len(unknown) == 1 else "addresses"
    return ValidationError(
        f"{len(unknown)} {noun} with no transactions on chain: {detail}"
    )


def _embed_entries(
    encoder, entries: Sequence[EmbedEntry], batch_size: int
) -> np.ndarray:
    """Embedding rows for flat slice graphs, embedding-cache-first.

    Rows found in an entry's embedding cache (and trusted) are reused;
    the remaining graphs run through ``encoder.embed_graphs`` in one
    batched pass, in input order, and their rows are memoised back.
    Returns the ``(len(entries), embedding_dim)`` float64 matrix.
    """
    rows = np.zeros((len(entries), encoder.embedding_dim), dtype=np.float64)
    to_compute: List[int] = []
    for position, (graph, cache, key, trust_cached) in enumerate(entries):
        cached = None
        if cache is not None:
            if trust_cached:
                cached = cache.get(key)
            else:
                cache.note_miss()
        if cached is None:
            to_compute.append(position)
        else:
            rows[position] = cached
    if to_compute:
        computed = encoder.embed_graphs(
            [entries[i][0] for i in to_compute], batch_size=batch_size
        )
        for offset, position in enumerate(to_compute):
            rows[position] = computed[offset]
            cache = entries[position][1]
            if cache is not None:
                cache.put(entries[position][2], computed[offset].copy())
    return rows


def _score_sequences(
    classifier,
    addresses: Sequence[str],
    sequences_by_address: Dict[str, List[EncodedGraph]],
    untrusted: "Set[Tuple[str, int]]",
    embedding_cache_of,
    embedding_fingerprint: str,
    graph_batch_size: int,
    sequence_batch_size: int,
    class_names: Dict[int, str],
) -> Dict[str, "AddressScore"]:
    """Shared inference tail: embed (cache-first), head, score dict.

    One block-diagonal GNN pass plus one padded sequence-head pass over
    the flattened slice sequences, in input address order — every shard
    and worker configuration routes through this one body, which is
    what keeps their scores identical.
    ``embedding_cache_of(address)`` supplies the owning embedding cache
    (or ``None``); ``untrusted`` lists the ``(address, slice_index)``
    pairs whose memoised rows must not be reused.
    """
    flat: List[EmbedEntry] = []
    spans: List[Tuple[int, int]] = []
    for address in addresses:
        graphs = sequences_by_address[address]
        spans.append((len(flat), len(flat) + len(graphs)))
        cache = embedding_cache_of(address)
        for graph in graphs:
            flat.append(
                (
                    graph,
                    cache,
                    (address, graph.slice_index, embedding_fingerprint),
                    (address, graph.slice_index) not in untrusted,
                )
            )
    with obs.span("serve.embed"):
        embeddings = _embed_entries(
            classifier.encoder, flat, graph_batch_size
        )
    with obs.span("serve.head"):
        probabilities = predict_proba_sequences(
            classifier.head,
            [embeddings[start:end] for start, end in spans],
            classifier.config.max_sequence_length,
            batch_size=sequence_batch_size,
        )
    labels = probabilities.argmax(axis=1)
    return {
        address: AddressScore(
            address=address,
            label=int(label),
            class_name=class_names.get(int(label), f"class_{int(label)}"),
            probabilities=row,
        )
        for address, label, row in zip(addresses, labels, probabilities)
    }
