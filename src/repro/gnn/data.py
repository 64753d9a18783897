"""Graph encoding and block-diagonal batching for GNN training.

An :class:`EncodedGraph` freezes an address graph into numeric form:
final node features plus the renormalised adjacency Ã (Eq. 12).

:func:`build_encoded` is the one production path from transactions to
GNN input: the pipeline builds a request's slice graphs through Stages
1–4 as one :class:`~repro.graphs.arrays.GraphPack`
(:meth:`~repro.graphs.pipeline.GraphConstructionPipeline.build_pack`),
and :func:`encode_pack` turns that pack into per-graph
:class:`EncodedGraph` s in one sweep over the block-diagonal adjacency
Stage 4 already built: node features from the pack's columns, Eq. 12
once over the whole pack and, for GFN, Eq. 13's ``[d, X, ÃX, …, ÃᵏX]``
propagated over the packed Ã, cut per graph into its ``gfn_k{k}``
cache entry.  Serving (inline and in worker processes) and the
classifier all call it; :func:`encode_graph` is its one-graph form.
A :class:`GraphBatch` stacks several encoded graphs into one
disconnected super-graph (block-diagonal Ã, concatenated features, and
a segment-id vector mapping nodes back to graphs for readout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.errors import ValidationError
from repro.features.sfe import sfe_matrix_segments, signed_log1p
from repro.graphs.arrays import ArrayGraph, GraphPack
from repro.graphs.matrices import symmetric_adjacency
from repro.graphs.model import _CENTRALITY_DIMS, NODE_KIND_ORDER

if TYPE_CHECKING:
    from repro.chain.explorer import ChainIndex
    from repro.graphs.pipeline import GraphConstructionPipeline

__all__ = [
    "EncodedGraph",
    "GraphBatch",
    "build_encoded",
    "encode_graph",
    "encode_pack",
    "gfn_cache_key",
]


@dataclass
class EncodedGraph:
    """A numeric snapshot of one address-slice graph.

    ``cache`` holds model-specific precomputations (e.g. GFN's propagated
    feature matrix) keyed by a model-chosen string.
    """

    features: np.ndarray
    adjacency: sp.csr_matrix
    label: int
    address: str
    slice_index: int
    cache: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        """Per-node feature width."""
        return self.features.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the feature/adjacency tensors *and* any
        model-specific precomputations in ``cache`` (e.g. GFN's
        propagated feature matrix, which often dominates a warm entry).
        Recomputed on access, so it stays accurate after models add to
        ``cache`` post-construction."""
        adjacency = self.adjacency
        return int(
            self.features.nbytes
            + adjacency.data.nbytes
            + adjacency.indices.nbytes
            + adjacency.indptr.nbytes
            + sum(array.nbytes for array in self.cache.values())
        )


def gfn_cache_key(k: int) -> str:
    """The :attr:`EncodedGraph.cache` key of GFN's Eq. 13 features of
    depth ``k``."""
    return f"gfn_k{k}"


def build_encoded(
    pipeline: "GraphConstructionPipeline",
    index: "ChainIndex",
    requests: "Dict[str, Optional[Sequence[int]]]",
    *,
    span: str,
    labels_by_address: Optional[Dict[str, int]] = None,
    gfn_k: Optional[int] = None,
) -> Dict[str, List[EncodedGraph]]:
    """Build and encode the requested slices of many addresses.

    ``requests`` maps each address to the slice indices wanted (``None``
    = every slice), as for
    :meth:`~repro.graphs.pipeline.GraphConstructionPipeline.build_pack`.
    Stages 1–4 run once over the whole request as one pack, and
    :func:`encode_pack` (under a span named ``span``) encodes it with
    the adjacency Stage 4 built.  ``gfn_k`` (the GFN encoder's depth,
    ``None`` for other encoders) fills each graph's ``gfn_k{k}`` cache
    in the same pass.  Returns ``{address: [EncodedGraph, ...]}`` in
    request order, slices ascending; addresses missing from
    ``labels_by_address`` (or all, when it is omitted) are labelled
    ``-1``.
    """
    pack, adjacency = pipeline.build_pack(index, requests)
    built: Dict[str, List[EncodedGraph]] = {
        address: [] for address in requests
    }
    if pack is None:
        return built
    labels_by_address = labels_by_address or {}
    labels = [
        labels_by_address.get(address, -1)
        for address in pack.center_addresses
    ]
    with obs.span(span):
        encoded = encode_pack(pack, adjacency, labels, gfn_k)
    for row in encoded:
        built[row.address].append(row)
    return built


def encode_pack(
    pack: GraphPack,
    adjacency: Optional[sp.csr_matrix] = None,
    labels: Optional[Sequence[int]] = None,
    gfn_k: Optional[int] = None,
) -> List[EncodedGraph]:
    """Freeze every graph of a pack, in pack order, in one sweep.

    ``adjacency`` is the pack's symmetric block-diagonal adjacency as
    Stage 4 returns it (:func:`repro.graphs.augmentation.augment_pack`);
    it is built from the pack's edge columns when omitted.  One
    ``A + I`` over the pack, degrees from one segmented row reduction,
    and Eq. 12's ``D̃^{-1/2}(A+I)D̃^{-1/2}`` as
    ``(inv_sqrt[row] * a) * inv_sqrt[col]`` — the operation order of
    the per-graph oracle's ``(scale @ (A+I)) @ scale``.  Node features
    come from one SFE pass over the pack's value bags plus its
    centrality, kind and centre columns (zero centrality when the pack
    has none).  With ``gfn_k`` set, Eq. 13's ``[d, X, ÃX, …, ÃᵏX]`` is
    propagated over the packed Ã as well.  Each graph then receives its
    own copies of its feature rows, CSR triple and ``gfn_k{k}`` rows,
    so the result is bit-identical to encoding graph by graph
    (:meth:`~repro.graphs.arrays.ArrayGraph.feature_matrix`,
    :func:`~repro.graphs.matrices.normalized_adjacency` and
    :func:`repro.gnn.gfn.augment_features`).

    ``labels`` defaults to ``-1`` (unlabelled) for every graph.
    """
    if labels is None:
        labels = [-1] * len(pack)
    elif len(labels) != len(pack):
        raise ValidationError(
            f"got {len(labels)} labels for {len(pack)} graphs"
        )
    total = pack.num_nodes
    if adjacency is None:
        adjacency = symmetric_adjacency(pack.edge_src, pack.edge_dst, total)
    features = _pack_features(pack)
    with_loops = adjacency + sp.identity(total, format="csr")
    indptr, indices, values = (
        with_loops.indptr, with_loops.indices, with_loops.data
    )
    # Every row holds at least its self-loop, so no segment is empty
    # and no degree is zero.
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(values, indptr[:-1]))
    rows = np.repeat(np.arange(total), np.diff(indptr))
    data = (inv_sqrt[rows] * values) * inv_sqrt[indices]
    propagated = None
    if gfn_k is not None:
        propagated = _propagate(
            sp.csr_matrix((data, indices, indptr), shape=(total, total)),
            features,
            gfn_k,
        )

    encoded: List[EncodedGraph] = []
    offsets = pack.node_offsets.tolist()
    for g, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        start, stop = int(indptr[lo]), int(indptr[hi])
        row = EncodedGraph(
            features=features[lo:hi].copy(),
            adjacency=sp.csr_matrix(
                (
                    data[start:stop].copy(),
                    indices[start:stop] - lo,
                    indptr[lo : hi + 1] - start,
                ),
                shape=(hi - lo, hi - lo),
            ),
            label=int(labels[g]),
            address=pack.center_addresses[g],
            slice_index=pack.slice_indices[g],
        )
        if propagated is not None:
            row.cache[gfn_cache_key(gfn_k)] = propagated[lo:hi].copy()
        encoded.append(row)
    return encoded


def _propagate(
    normalized: sp.csr_matrix, features: np.ndarray, k: int
) -> np.ndarray:
    """Eq. 13's ``[d, X, ÃX, …, ÃᵏX]`` over a packed Ã, with
    :func:`repro.gnn.gfn.augment_features`'s operations per row: ``d``
    is Ã's row sum (one segmented reduction, as scipy's ``sum(axis=1)``
    takes it) and each power one sparse-dense product."""
    degrees = np.add.reduceat(normalized.data, normalized.indptr[:-1])
    blocks = [degrees.reshape(-1, 1), features]
    current = features
    for _ in range(k):
        current = np.asarray(normalized @ current)
        blocks.append(current)
    return np.concatenate(blocks, axis=1)


def _pack_features(pack: GraphPack) -> np.ndarray:
    """Every graph's :meth:`~repro.graphs.arrays.ArrayGraph.feature_matrix`
    stacked in pack order, from one SFE pass over all value bags."""
    total = pack.num_nodes
    stats = signed_log1p(sfe_matrix_segments(pack.bag_values, pack.bag_indptr))
    if pack.centrality is not None:
        centrality = pack.centrality
    else:
        centrality = np.zeros((total, _CENTRALITY_DIMS), dtype=np.float64)
    kind_onehot = np.zeros((total, len(NODE_KIND_ORDER)), dtype=np.float64)
    kind_onehot[np.arange(total), pack.kind_codes] = 1.0
    center_flag = np.zeros((total, 1), dtype=np.float64)
    center_flag[pack.centers[pack.centers >= 0], 0] = 1.0
    return np.hstack([stats, centrality, kind_onehot, center_flag])


def encode_graph(graph: ArrayGraph, label: int = -1) -> EncodedGraph:
    """Freeze one slice graph: :func:`encode_pack` over a one-graph pack.

    An empty graph raises :class:`~repro.errors.ValidationError` naming
    its address.
    """
    if graph.num_nodes == 0:
        raise ValidationError(
            f"cannot encode empty graph for {graph.center_address[:12]}"
        )
    return encode_pack(GraphPack.of([graph]), labels=[label])[0]


class GraphBatch:
    """Several encoded graphs stacked into one block-diagonal system."""

    def __init__(self, graphs: Sequence[EncodedGraph]):
        if not graphs:
            raise ValidationError("GraphBatch needs at least one graph")
        dims = {g.feature_dim for g in graphs}
        if len(dims) != 1:
            raise ValidationError(f"inconsistent feature dims in batch: {dims}")
        self.graphs = list(graphs)
        self.features = np.concatenate([g.features for g in graphs], axis=0)
        self.adjacency = sp.block_diag(
            [g.adjacency for g in graphs], format="csr"
        )
        self.segments = np.concatenate(
            [
                np.full(g.num_nodes, index, dtype=np.int64)
                for index, g in enumerate(graphs)
            ]
        )
        self.labels = np.array([g.label for g in graphs], dtype=np.int64)

    @property
    def num_graphs(self) -> int:
        """Number of graphs in the batch."""
        return len(self.graphs)

    @property
    def num_nodes(self) -> int:
        """Total node count across the batch."""
        return self.features.shape[0]
