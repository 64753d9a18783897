"""Stage 1 — original graph extraction (paper §III-A-1).

All transactions of an address are sorted chronologically and split into
slices of ``slice_size`` (the paper fixes 100); each slice becomes one
heterogeneous graph.  The final partial slice is retained, matching the
paper ("the final graph with less than 100 transactions will be
retained").

:func:`build_original_pack` builds every slice graph of a build at
once, into one :class:`~repro.graphs.arrays.GraphPack`, from the
slices' :class:`~repro.chain.explorer.TxArrays` columns — interned at
ingest by the in-memory index, mapped from disk by the chain store —
without touching a ``Transaction`` object.  It matches the readable
object builder :func:`repro.graphs.reference.build_original_graph`,
which the tests hold it to.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.chain.explorer import ChainIndex, TxArrays
from repro.errors import GraphConstructionError, ValidationError
from repro.graphs.arrays import KIND_CODES, GraphPack
from repro.graphs.model import NodeKind

__all__ = ["build_original_pack"]

_ADDRESS_CODE = KIND_CODES[NodeKind.ADDRESS]
_TRANSACTION_CODE = KIND_CODES[NodeKind.TRANSACTION]


def _bags_from_edges(
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_values: np.ndarray,
    num_nodes: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-node value bags ``(bag_values, bag_indptr)`` of an original graph.

    Each edge contributes its value to both endpoint bags in edge order —
    interleaving (src0, dst0, src1, dst1, ...) and stable-sorting by
    endpoint reproduces the per-edge append order of the reference
    object builder in one vectorized pass.
    """
    num_edges = edge_src.shape[0]
    endpoints = np.empty(2 * num_edges, dtype=np.int64)
    endpoints[0::2] = edge_src
    endpoints[1::2] = edge_dst
    bag_values = edge_values.repeat(2)[endpoints.argsort(kind="stable")]
    bag_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.bincount(endpoints, minlength=num_nodes).cumsum(out=bag_indptr[1:])
    return bag_values, bag_indptr


def build_original_pack(
    index: ChainIndex,
    center_addresses: Sequence[str],
    column_slices: Sequence[Sequence[TxArrays]],
    slice_indices: Sequence[int],
) -> GraphPack:
    """Uncompressed slice graphs of many slices, in one :class:`GraphPack`.

    Slice ``k`` is the graph of ``center_addresses[k]`` over the
    transactions whose columns are ``column_slices[k]``, exactly as
    :func:`repro.graphs.reference.build_original_graph` builds it.
    Every transaction becomes a transaction node and every involved
    address an address node; input-side edges run address → tx with
    the input value, output-side edges tx → address with the output
    value, and each input/output is kept as its own edge.  Node ids are
    first-seen ranks within the slice (offset by the slice's place in
    the pack), edges keep transaction order.

    One pass serves the whole pack: each slice's encounter sequence
    (per transaction its key, then its input and output addresses — the
    object builder's ``add_node`` order) is offset into its own key
    range, ``slice * span + key``, so one stable sort yields every
    slice's first-seen node ids at once.  ``index`` only decodes node
    keys (:meth:`~repro.chain.explorer.ChainIndex.node_names`) and
    looks up the centres; the output does not depend on how the index
    numbered its keys.
    """
    if not column_slices:
        raise ValidationError("cannot build a pack of zero slices")
    num_graphs = len(column_slices)
    sizes = np.fromiter(map(len, column_slices), np.int64, num_graphs)
    if not sizes.all():
        raise GraphConstructionError(
            "cannot build a graph for "
            f"{center_addresses[int(np.argmin(sizes))][:12]} from zero"
            " transactions"
        )
    txs = [columns for chunk in column_slices for columns in chunk]
    t = len(txs)
    center_keys = [index.address_key(a) for a in center_addresses]
    center_keys = np.array(
        [-1 if key is None else key for key in center_keys], dtype=np.int64
    )

    # Edges in the object builder's add_edge order: per transaction its
    # inputs (address → tx), then its outputs (tx → address).  The
    # input and output columns, interleaved, hold each edge's address
    # end and value.
    key_parts = [part for c in txs for part in (c.input_keys, c.output_keys)]
    part_sizes = np.fromiter(map(len, key_parts), np.int64, 2 * t)
    is_input = np.zeros(2 * t, dtype=bool)
    is_input[0::2] = True
    is_input = is_input.repeat(part_sizes)
    edge_counts = part_sizes[0::2] + part_sizes[1::2]
    edge_bounds = np.zeros(t + 1, dtype=np.int64)
    edge_counts.cumsum(out=edge_bounds[1:])
    stamps = np.fromiter(map(attrgetter("timestamp"), txs), np.float64, t)

    # Encounter sequence — per transaction its key, then its edges'
    # addresses: the object builder's add_node order — offset per slice
    # into disjoint key ranges.
    tx_pos = edge_bounds[:-1] + np.arange(t)
    seq = np.empty(t + int(edge_bounds[-1]), dtype=np.int64)
    is_address = np.ones(seq.size, dtype=bool)
    is_address[tx_pos] = False
    seq[tx_pos] = np.fromiter(map(attrgetter("key"), txs), np.int64, t)
    seq[is_address] = np.concatenate(key_parts)
    span = max(int(seq.max()), int(center_keys.max())) + 1
    slice_base = np.arange(num_graphs, dtype=np.int64) * span
    seq += slice_base.repeat(sizes).repeat(1 + edge_counts)

    # First-seen node ids: a stable sort puts each key's first
    # occurrence at the head of its run of equal keys.
    order = seq.argsort(kind="stable")
    sorted_keys = seq[order]
    head = np.empty(seq.size, dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    run_heads = order[head]
    first = np.zeros(seq.size, dtype=bool)
    first[run_heads] = True
    node_of_run = (first.cumsum() - 1)[run_heads]
    local = np.empty(seq.size, dtype=np.int64)
    local[order] = node_of_run[head.cumsum() - 1]
    unique_keys = sorted_keys[head]
    pack_keys = seq[first]
    n = pack_keys.size
    node_keys = pack_keys % span
    node_offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.bincount(pack_keys // span, minlength=num_graphs).cumsum(
        out=node_offsets[1:]
    )

    tx_node = local[tx_pos].repeat(edge_counts)
    address_node = local[is_address]
    edge_src = np.where(is_input, address_node, tx_node)
    edge_dst = np.where(is_input, tx_node, address_node)
    edge_values = np.concatenate(
        [part for c in txs for part in (c.input_values, c.output_values)]
    )
    bag_values, bag_indptr = _bags_from_edges(
        edge_src, edge_dst, edge_values, n
    )

    # Each centre is found by its slice-offset key, if the slice holds it.
    wanted = slice_base + center_keys
    position = np.minimum(unique_keys.searchsorted(wanted), n - 1)
    found = (center_keys >= 0) & (unique_keys[position] == wanted)
    tx_bounds = np.zeros(num_graphs + 1, dtype=np.int64)
    sizes.cumsum(out=tx_bounds[1:])
    tx_starts = tx_bounds[:-1]
    return GraphPack(
        center_addresses=list(center_addresses),
        slice_indices=list(slice_indices),
        time_ranges=list(
            zip(
                np.minimum.reduceat(stamps, tx_starts).tolist(),
                np.maximum.reduceat(stamps, tx_starts).tolist(),
            )
        ),
        node_offsets=node_offsets,
        edge_offsets=edge_bounds[tx_bounds],
        kind_codes=np.where(
            node_keys & 1, _TRANSACTION_CODE, _ADDRESS_CODE
        ).astype(np.int64),
        refs=np.array(index.node_names(node_keys.tolist()), dtype=object),
        merged_counts=np.ones(n, dtype=np.int64),
        bag_values=bag_values,
        bag_indptr=bag_indptr,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_values=edge_values,
        edge_times=stamps.repeat(edge_counts),
        centers=np.where(found, node_of_run[position], -1),
    )
