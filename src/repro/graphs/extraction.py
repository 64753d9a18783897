"""Stage 1 — original graph extraction (paper §III-A-1).

All transactions of an address are sorted chronologically and split into
slices of ``slice_size`` (the paper fixes 100); each slice becomes one
heterogeneous graph.  The final partial slice is retained, matching the
paper ("the final graph with less than 100 transactions will be
retained").

Two column sources feed one layout.  :func:`build_original_pack`
builds the graphs of many slices at once, from ``Transaction`` objects,
into one :class:`~repro.graphs.arrays.GraphPack`: node ids are
first-seen ranks within each slice, edges keep transaction order, and
the value bags of the whole pack are assembled in one vectorized pass
instead of per-edge list appends.  :func:`build_arrays_from_columns`
builds one slice from pre-fetched integer columns, the path of
store-backed indexes.  Both match the readable object builder
:func:`repro.graphs.reference.build_original_graph`, which the tests
hold them to.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.chain.explorer import ChainIndex
from repro.chain.transaction import Transaction
from repro.errors import GraphConstructionError, ValidationError
from repro.graphs.arrays import KIND_CODES, ArrayGraph, GraphPack, _segment_ranges
from repro.graphs.model import NodeKind

__all__ = [
    "slice_transactions",
    "build_original_pack",
    "build_arrays_from_columns",
]

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
    doubled = np.repeat(edge_values, 2)
    bag_values = doubled[np.argsort(endpoints, kind="stable")]
    bag_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=num_nodes), out=bag_indptr[1:])
    return bag_values, bag_indptr


def slice_transactions(
    transactions: Sequence[Transaction], slice_size: int
) -> List[List[Transaction]]:
    """Chronological slices of at most ``slice_size`` transactions."""
    if slice_size <= 0:
        raise ValidationError(f"slice_size must be > 0, got {slice_size}")
    ordered = sorted(transactions, key=lambda tx: (tx.timestamp, tx.txid))
    return [
        list(ordered[start : start + slice_size])
        for start in range(0, len(ordered), slice_size)
    ]


def build_original_pack(
    center_addresses: Sequence[str],
    slices: Sequence[Sequence[Transaction]],
    slice_indices: Sequence[int],
) -> GraphPack:
    """Uncompressed slice graphs of many slices, in one :class:`GraphPack`.

    Slice ``k`` is the graph of ``center_addresses[k]`` over
    ``slices[k]``, exactly as
    :func:`repro.graphs.reference.build_original_graph` builds it.
    Every transaction becomes a transaction node and every involved
    address an address node; input-side edges run address → tx with
    the input value, output-side edges tx → address with the output
    value, and each input/output is kept as its own edge.
    node ids are first-seen ranks within the slice (offset by the
    slice's place in the pack), edges keep transaction order.  One
    Python pass over every slice's transactions appends to shared
    column lists; value bags and edge timestamps are then assembled for
    the whole pack with array kernels.
    """
    kind_codes: List[int] = []
    refs: List[str] = []
    src: List[int] = []
    dst: List[int] = []
    values: List[int] = []
    stamps: List[float] = []
    edges_per_tx: List[int] = []
    node_offsets = [0]
    edge_offsets = [0]
    centers: List[int] = []
    time_ranges = []
    kinds_append = kind_codes.append
    refs_append = refs.append
    src_append = src.append
    dst_append = dst.append
    values_append = values.append

    for center_address, transactions in zip(center_addresses, slices):
        if not transactions:
            raise GraphConstructionError(
                f"cannot build a graph for {center_address[:12]} from zero"
                " transactions"
            )
        tx_of: dict = {}
        addr_of: dict = {}
        get_tx = tx_of.get
        get_addr = addr_of.get
        first_stamp = len(stamps)
        for tx in transactions:
            txid = tx.txid
            tx_node = get_tx(txid)
            if tx_node is None:
                tx_node = tx_of[txid] = len(refs)
                kinds_append(_TRANSACTION_CODE)
                refs_append(txid)
            inputs = tx.inputs
            outputs = tx.outputs
            for inp in inputs:
                address = inp.address
                addr_node = get_addr(address)
                if addr_node is None:
                    addr_node = addr_of[address] = len(refs)
                    kinds_append(_ADDRESS_CODE)
                    refs_append(address)
                src_append(addr_node)
                dst_append(tx_node)
                values_append(inp.value)
            for out in outputs:
                address = out.address
                addr_node = get_addr(address)
                if addr_node is None:
                    addr_node = addr_of[address] = len(refs)
                    kinds_append(_ADDRESS_CODE)
                    refs_append(address)
                src_append(tx_node)
                dst_append(addr_node)
                values_append(out.value)
            stamps.append(tx.timestamp)
            edges_per_tx.append(len(inputs) + len(outputs))
        slice_stamps = stamps[first_stamp:]
        time_ranges.append((min(slice_stamps), max(slice_stamps)))
        centers.append(addr_of.get(center_address, -1))
        node_offsets.append(len(refs))
        edge_offsets.append(len(src))

    n = len(kind_codes)
    edge_src = np.array(src, dtype=np.int64)
    edge_dst = np.array(dst, dtype=np.int64)
    edge_values = np.array(values, dtype=np.float64)
    edge_times = np.repeat(
        np.array(stamps, dtype=np.float64),
        np.array(edges_per_tx, dtype=np.int64),
    )
    bag_values, bag_indptr = _bags_from_edges(
        edge_src, edge_dst, edge_values, n
    )
    return GraphPack(
        center_addresses=list(center_addresses),
        slice_indices=list(slice_indices),
        time_ranges=time_ranges,
        node_offsets=np.array(node_offsets, dtype=np.int64),
        edge_offsets=np.array(edge_offsets, dtype=np.int64),
        kind_codes=np.array(kind_codes, dtype=np.int64),
        refs=np.array(refs, dtype=object),
        merged_counts=np.ones(n, dtype=np.int64),
        bag_values=bag_values,
        bag_indptr=bag_indptr,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_values=edge_values,
        edge_times=edge_times,
        centers=np.array(centers, dtype=np.int64),
    )


def build_arrays_from_columns(
    index: ChainIndex,
    center_address: str,
    columns: "Sequence",
    slice_index: int = 0,
) -> ArrayGraph:
    """Columnar Stage-1 build from pre-fetched :class:`TxArrays` columns.

    The Stage-1 path of store-backed indexes: the chain store's mapped
    segment views
    (:meth:`~repro.chain.store.StoreBackedChainIndex.transaction_columns_of`)
    feed it without materialising transaction objects; per-transaction
    participant/value columns (interned integer node keys) are
    scattered into transaction order with array kernels, first-seen
    node ids falling out of one ``np.unique`` over the interleaved
    encounter sequence.  ``index`` supplies only name decoding
    (:meth:`~repro.chain.explorer.ChainIndex.node_names`) and the center
    key lookup; the output is element-identical to the same slice in
    :func:`build_original_pack` regardless of the key numbering the
    source interned, because node ids are first-encounter ranks and
    references are decoded strings.
    """
    if not columns:
        raise GraphConstructionError(
            f"cannot build a graph for {center_address[:12]} from zero transactions"
        )
    t = len(columns)
    n_in = np.fromiter(
        (c.input_keys.size for c in columns), dtype=np.int64, count=t
    )
    n_out = np.fromiter(
        (c.output_keys.size for c in columns), dtype=np.int64, count=t
    )
    tx_keys = np.fromiter((c.key for c in columns), dtype=np.int64, count=t)
    stamps = np.fromiter(
        (c.timestamp for c in columns), dtype=np.float64, count=t
    )
    in_keys = np.concatenate([c.input_keys for c in columns])
    in_values = np.concatenate([c.input_values for c in columns])
    out_keys = np.concatenate([c.output_keys for c in columns])
    out_values = np.concatenate([c.output_values for c in columns])
    total_in = int(n_in.sum())
    total_out = int(n_out.sum())

    # Encounter sequence: per transaction its node key, then its input
    # addresses, then its output addresses — the object builder's exact
    # add_node order, so first-seen ranks reproduce its node ids.
    counts = 1 + n_in + n_out
    node_offsets = np.cumsum(counts) - counts
    seq = np.empty(int(counts.sum()), dtype=np.int64)
    seq[node_offsets] = tx_keys
    in_pos = np.repeat(node_offsets + 1, n_in) + _segment_ranges(
        n_in, total_in
    )
    seq[in_pos] = in_keys
    out_pos = np.repeat(node_offsets + 1 + n_in, n_out) + _segment_ranges(
        n_out, total_out
    )
    seq[out_pos] = out_keys

    unique_keys, first, inverse = np.unique(
        seq, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(unique_keys.size, dtype=np.int64)
    rank[order] = np.arange(unique_keys.size)
    local = rank[inverse]
    ordered_keys = unique_keys[order]

    n = unique_keys.size
    kind_codes = np.where(
        ordered_keys & 1, _TRANSACTION_CODE, _ADDRESS_CODE
    ).astype(np.int64)
    refs = np.array(index.node_names(ordered_keys.tolist()), dtype=object)

    # Edge columns scattered back into per-transaction (inputs, outputs)
    # order — the object builder's add_edge order.
    num_edges = total_in + total_out
    edge_counts = n_in + n_out
    edge_offsets = np.cumsum(edge_counts) - edge_counts
    tx_local = local[node_offsets]
    in_edge_pos = np.repeat(edge_offsets, n_in) + _segment_ranges(
        n_in, total_in
    )
    out_edge_pos = np.repeat(edge_offsets + n_in, n_out) + _segment_ranges(
        n_out, total_out
    )
    edge_src = np.empty(num_edges, dtype=np.int64)
    edge_dst = np.empty(num_edges, dtype=np.int64)
    edge_values = np.empty(num_edges, dtype=np.float64)
    edge_src[in_edge_pos] = local[in_pos]
    edge_dst[in_edge_pos] = np.repeat(tx_local, n_in)
    edge_values[in_edge_pos] = in_values
    edge_src[out_edge_pos] = np.repeat(tx_local, n_out)
    edge_dst[out_edge_pos] = local[out_pos]
    edge_values[out_edge_pos] = out_values

    bag_values, bag_indptr = _bags_from_edges(
        edge_src, edge_dst, edge_values, n
    )

    center_key = index.address_key(center_address)
    position = int(np.searchsorted(unique_keys, center_key))
    center_id = (
        int(rank[position])
        if position < n and unique_keys[position] == center_key
        else None
    )

    return ArrayGraph(
        center_address=center_address,
        slice_index=slice_index,
        time_range=(float(stamps.min()), float(stamps.max())),
        kind_codes=kind_codes,
        refs=refs,
        merged_counts=np.ones(n, dtype=np.int64),
        bag_values=bag_values,
        bag_indptr=bag_indptr,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_values=edge_values,
        edge_times=np.repeat(stamps, edge_counts),
        center_id=center_id,
    )
