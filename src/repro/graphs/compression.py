"""Stages 2–3 — graph node compression (paper §III-A-2, Eq. 1–7).

Two passes bound the size of the original address graphs while preserving
the transfer statistics of merged nodes through SFE:

- **Single-transaction address compression** (Fig. 3): all non-centre
  address nodes touching exactly one transaction are merged, per
  transaction and per side (input/output), into a *single-transaction
  hyper node* whose value bag is the union of its members' (Eq. 2).
- **Multi-transaction address compression** (Fig. 4): address nodes
  touching two or more transactions are compared via the co-occurrence
  similarity ``M = A·Aᵀ·D⁻¹`` (Eq. 3–4); groups whose thresholded
  similarity row ``Q = ReLU(M − Ψ)`` (Eq. 5) has more than σ non-zeros
  are merged into *multi-transaction hyper nodes* (Eq. 6–7).

The centre address node is never merged — it is the classification
subject.  Transaction nodes are never merged.

**Packed formulation.**  Both passes run once over every slice graph
of a build, held in one :class:`~repro.graphs.arrays.GraphPack` — one
global node space in which graph ``g`` owns a contiguous node and edge
range — so each numpy call is paid once per build, not once per graph:

- distinct degrees come from one ``np.unique`` over ``lo * N + hi``
  undirected pair keys; Stage-2 candidate groups from one over
  ``(side * N + tx) * N + addr`` keys, ordered by ``(graph, side,
  first edge)``;
- Stage 3's ``S = A·Aᵀ`` of every graph is one block-diagonal
  pair count over the incidence entries.  Each entry is an exact
  integer, so ``M = S·D⁻¹`` is bit-identical however the pack is
  summed.  The greedy merge loop stays per graph, runs only for
  graphs with a row of more than σ non-zeros, and sorts that graph's
  own rows, so ties break exactly as for the graph alone;
- the merge is an array union-find: every old node id resolves through
  one ``resolve`` lookup array (members to their hyper node, survivors
  to their re-densified id; each graph's hyper nodes follow its own
  survivors).  Node columns and value bags are re-gathered with fancy
  indexing and parallel edges aggregate through one ``bincount`` in
  first-seen order.  Graphs with no merge pass through untouched.

Each graph of a pack comes out bit-identical to the same graph
compressed alone.  The per-graph public functions are one-graph packs
of the same kernels; no-op passes return the input graph itself.  On
converted object-model graphs they are element-for-element identical
to the historic object-set machinery of :mod:`repro.graphs.reference`
(asserted in the test suite).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.graphs.arrays import KIND_CODES, ArrayGraph, GraphPack, _segment_ranges
from repro.graphs.model import NodeKind

__all__ = [
    "compress_single_transaction_addresses",
    "compress_multi_transaction_addresses",
    "compress_single_transaction_pack",
    "compress_multi_transaction_pack",
    "similarity_matrices",
]

_ADDRESS_CODE = KIND_CODES[NodeKind.ADDRESS]
_TRANSACTION_CODE = KIND_CODES[NodeKind.TRANSACTION]
_SINGLE_HYPER_CODE = KIND_CODES[NodeKind.SINGLE_HYPER]
_MULTI_HYPER_CODE = KIND_CODES[NodeKind.MULTI_HYPER]


def _one_graph_pass(graph: ArrayGraph, compress) -> ArrayGraph:
    """Run a pack pass over a one-graph pack.

    A pass that merges nothing returns its input pack, and then the
    input graph itself comes back.
    """
    pack = GraphPack.of([graph])
    out = compress(pack)
    return graph if out is pack else out.graphs()[0]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(
        np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    )


def _unique_pairs(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct undirected ``(lo, hi)`` node pairs touched by any edge."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keys = np.unique(lo * num_nodes + hi)
    return keys // num_nodes, keys % num_nodes


def _distinct_degrees(
    lo: np.ndarray, hi: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Distinct-neighbour count per node from :func:`_unique_pairs`
    (self loops counted once)."""
    endpoints = np.concatenate([lo, hi[hi != lo]])
    return np.bincount(endpoints, minlength=num_nodes)


def _rebuild_with_merges(
    pack: GraphPack,
    group_graphs: np.ndarray,
    hyper_code: int,
    group_refs: List[str],
    member_ids: np.ndarray,
    group_sizes: np.ndarray,
) -> GraphPack:
    """Rebuild ``pack`` with every merge group collapsed into a hyper node.

    Group ``j`` belongs to graph ``group_graphs[j]`` (non-decreasing:
    groups come ordered by graph, then by their pass's own order), has
    ref ``group_refs[j]``, and its members are the next
    ``group_sizes[j]`` entries of ``member_ids`` (ascending global
    ids).  Each graph's survivors keep their relative order and its
    hyper nodes (kind ``hyper_code``) follow them in group order, so
    every graph's ids are exactly those of a rebuild of that graph
    alone.

    The merge resolves through one lookup array (a one-level union-find
    whose path compression is precomputed): survivors map to their
    densified id, members to their group's hyper node.  Member value
    bags concatenate in member order (the input to SFE at
    feature-assembly time).  Edges of graphs with a merge are remapped
    and parallel edges aggregated per ``(src, dst)`` with summed values,
    in first-seen order; edges of graphs without one pass through
    unaggregated, as a pass that merges nothing leaves them.
    """
    n = pack.num_nodes
    num_groups = group_sizes.size
    keep = np.ones(n, dtype=bool)
    keep[member_ids] = False
    kept_ids = np.flatnonzero(keep)
    # A graph's survivors follow every hyper node of the graphs before
    # it; its own hyper nodes follow its last survivor.
    group_ends = pack.node_offsets[1:][group_graphs]
    kept_new = np.arange(kept_ids.size) + np.searchsorted(
        group_ends, kept_ids, side="right"
    )
    hyper_ids = np.searchsorted(kept_ids, group_ends) + np.arange(num_groups)
    resolve = np.empty(n, dtype=np.int64)
    resolve[kept_ids] = kept_new
    resolve[member_ids] = np.repeat(hyper_ids, group_sizes)
    num_new = kept_ids.size + num_groups
    node_offsets = np.searchsorted(kept_ids, pack.node_offsets) + np.searchsorted(
        group_ends, pack.node_offsets, side="right"
    )

    # --- node columns -------------------------------------------------- #
    kind_codes = np.empty(num_new, dtype=np.int64)
    kind_codes[kept_new] = pack.kind_codes[kept_ids]
    kind_codes[hyper_ids] = hyper_code
    refs = np.empty(num_new, dtype=object)
    refs[kept_new] = pack.refs[kept_ids]
    refs[hyper_ids] = group_refs
    merged_counts = np.bincount(
        resolve, weights=pack.merged_counts, minlength=num_new
    ).astype(np.int64)
    # Every value moves to its node's new id; a stable sort keeps each
    # new node's values in old node order, then bag order.
    value_owner = np.repeat(resolve, pack.bag_indptr[1:] - pack.bag_indptr[:-1])
    bag_values = pack.bag_values[np.argsort(value_owner, kind="stable")]
    bag_indptr = np.zeros(num_new + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(value_owner, minlength=num_new), out=bag_indptr[1:]
    )

    # --- edges (remap through ``resolve``, aggregate parallel edges) --- #
    new_src = resolve[pack.edge_src]
    new_dst = resolve[pack.edge_dst]
    keys = new_src * num_new + new_dst
    quiet = np.bincount(group_graphs, minlength=len(pack)) == 0
    if quiet.any():
        passthrough = np.repeat(quiet, np.diff(pack.edge_offsets))
        keys[passthrough] = num_new * num_new + np.flatnonzero(passthrough)
    # A stable sort keeps each key's edges in edge order: the first is
    # its first occurrence, and bincount adds parallel-edge values in
    # edge order.  Ordering keys by first occurrence reproduces each
    # graph's first-seen edge order.
    perm = np.argsort(keys, kind="stable")
    sorted_keys = keys[perm]
    is_first = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    sums = np.bincount(
        np.cumsum(is_first) - 1, weights=pack.edge_values[perm]
    )
    first = perm[is_first]
    order = np.argsort(first)
    first_edges = first[order]

    centrality = None
    if pack.centrality is not None:
        centrality = np.zeros(
            (num_new, pack.centrality.shape[1]), dtype=np.float64
        )
        centrality[kept_new] = pack.centrality[kept_ids]

    return GraphPack(
        center_addresses=pack.center_addresses,
        slice_indices=pack.slice_indices,
        time_ranges=pack.time_ranges,
        node_offsets=node_offsets,
        edge_offsets=np.searchsorted(first_edges, pack.edge_offsets),
        kind_codes=kind_codes,
        refs=refs,
        merged_counts=merged_counts,
        bag_values=bag_values,
        bag_indptr=bag_indptr,
        edge_src=new_src[first_edges],
        edge_dst=new_dst[first_edges],
        edge_values=sums[order],
        edge_times=pack.edge_times[first_edges],
        centers=np.where(pack.centers >= 0, resolve[pack.centers], -1),
        centrality=centrality,
    )


def _candidates(
    pack: GraphPack, degree_ok
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(candidate mask, unique pair lo, unique pair hi)``.

    Candidates are non-centre address nodes whose distinct-neighbour
    count passes ``degree_ok``.
    """
    n = pack.num_nodes
    lo, hi = _unique_pairs(pack.edge_src, pack.edge_dst, n)
    candidate = (pack.kind_codes == _ADDRESS_CODE) & degree_ok(
        _distinct_degrees(lo, hi, n)
    )
    candidate[pack.centers[pack.centers >= 0]] = False
    return candidate, lo, hi


# --------------------------------------------------------------------- #
# Stage 2 — single-transaction address compression
# --------------------------------------------------------------------- #


def compress_single_transaction_pack(pack: GraphPack) -> GraphPack:
    """Stage 2 over every graph of ``pack`` at once (Fig. 3).

    Returns ``pack`` itself when no graph has anything to merge.
    """
    if pack.num_edges == 0:
        return pack
    n = pack.num_nodes
    src, dst = pack.edge_src, pack.edge_dst
    is_address = pack.kind_codes == _ADDRESS_CODE
    is_transaction = pack.kind_codes == _TRANSACTION_CODE
    candidate, _, _ = _candidates(pack, lambda degrees: degrees == 1)
    in_edges = np.flatnonzero(is_address[src] & is_transaction[dst])
    out_edges = np.flatnonzero(is_transaction[src] & is_address[dst])

    # A candidate touches one transaction only, so one on both sides
    # of it is self-change, which is left unmerged.
    on_input = np.zeros(n, dtype=bool)
    on_input[src[in_edges]] = True
    out_addr = dst[out_edges]
    candidate[out_addr[on_input[out_addr]]] = False

    # One row per side edge, keyed ``side * n + tx`` — side 0 is the
    # input side (address → tx), side 1 the output side.
    side_tx = np.concatenate([dst[in_edges], n + src[out_edges]])
    addr = np.concatenate([src[in_edges], out_addr])
    eligible = candidate[addr]
    keys = np.unique(side_tx[eligible] * n + addr[eligible])
    # ``keys`` is sorted, so members lie contiguously per (side, tx),
    # ascending by node id.
    group_keys = keys // n
    starts = _run_starts(group_keys)
    sizes = np.diff(np.append(starts, keys.size))
    big = sizes >= 2
    if not big.any():
        return pack
    starts, sizes, group_keys = starts[big], sizes[big], group_keys[starts[big]]
    # Groups run per graph, input side before output side, each side in
    # the order of its transaction's first edge on that side.
    first_edge = np.full(2 * n, pack.num_edges, dtype=np.int64)
    np.minimum.at(first_edge, side_tx, np.concatenate([in_edges, out_edges]))
    group_txs = group_keys % n
    group_sides = group_keys // n
    group_graphs = np.searchsorted(pack.node_offsets, group_txs, side="right") - 1
    order = np.lexsort((first_edge[group_keys], group_sides, group_graphs))
    starts, sizes = starts[order], sizes[order]
    members = keys[
        np.repeat(starts, sizes) + _segment_ranges(sizes, int(sizes.sum()))
    ] % n
    tags = ("in", "out")
    refs = [
        f"s:{tx_ref}:{tags[side]}"
        for tx_ref, side in zip(
            pack.refs[group_txs[order]], group_sides[order].tolist()
        )
    ]
    return _rebuild_with_merges(
        pack, group_graphs[order], _SINGLE_HYPER_CODE, refs, members, sizes
    )


def compress_single_transaction_addresses(graph: ArrayGraph) -> ArrayGraph:
    """Merge degree-1 address nodes per transaction and side (Fig. 3).

    After this pass a transaction node links to at most one
    single-transaction hyper node on its input side and one on its output
    side (plus any remaining multi-transaction or centre address nodes).
    Address nodes appearing on *both* sides of their single transaction
    (self-change) are left unmerged — they carry a distinct signature.
    A one-graph :func:`compress_single_transaction_pack`; a no-op pass
    returns the input graph itself.
    """
    return _one_graph_pass(graph, compress_single_transaction_pack)


# --------------------------------------------------------------------- #
# Stage 3 — multi-transaction address compression
# --------------------------------------------------------------------- #


def _multi_rows(
    pack: GraphPack,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(is_row, multi_ids, pair lo, pair hi)``.

    The rows are the candidate multi-transaction address nodes (degree
    ≥ 2, centre excluded) as a mask and as ascending global ids — so
    each graph's rows are contiguous; ``lo``/``hi`` are the pack's
    unique undirected node pairs.
    """
    is_row, lo, hi = _candidates(pack, lambda degrees: degrees >= 2)
    return is_row, np.flatnonzero(is_row), lo, hi


def _shared_counts(
    pack: GraphPack,
    is_row: np.ndarray,
    multi_ids: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block-diagonal ``S = A·Aᵀ`` of every graph, as sorted entries.

    ``A`` is the incidence of the rows of :func:`_multi_rows` on
    transaction nodes, one column per ``tx_ids`` entry (ascending
    global ids).  Returns ``(tx_ids, rows, cols, counts, diagonal)``:
    the non-zero entries ``S[rows, cols] = counts`` in ``(row, col)``
    order, and ``diagonal = diag(S)`` as float64.  Every entry is the
    exact integer number of transactions two rows share, so ``S`` does
    not depend on how the pack is summed.
    """
    is_transaction = pack.kind_codes == _TRANSACTION_CODE
    tx_ids = np.flatnonzero(is_transaction)
    num_rows = multi_ids.size
    slot = np.empty(pack.num_nodes, dtype=np.int64)
    slot[multi_ids] = np.arange(num_rows)
    slot[tx_ids] = np.arange(tx_ids.size)

    a = np.concatenate([lo, hi])
    b = np.concatenate([hi, lo])
    hit = is_row[a] & is_transaction[b]
    # Incidence entries sorted by column: each transaction's rows form
    # one segment, and S counts every ordered pair within a segment.
    entries = np.sort(slot[b[hit]] * num_rows + slot[a[hit]])
    entry_cols = entries // num_rows
    entry_rows = entries % num_rows
    col_sizes = np.bincount(entry_cols, minlength=tx_ids.size)
    repeats = col_sizes[entry_cols]
    col_starts = np.cumsum(col_sizes) - col_sizes
    partners = entry_rows[
        np.repeat(col_starts[entry_cols], repeats)
        + _segment_ranges(repeats, int(repeats.sum()))
    ]
    pairs = np.sort(np.repeat(entry_rows, repeats) * num_rows + partners)
    starts = _run_starts(pairs)
    pair_keys = pairs[starts]
    return (
        tx_ids,
        pair_keys // num_rows,
        pair_keys % num_rows,
        np.append(starts[1:], pairs.size) - starts,
        np.bincount(entry_rows, minlength=num_rows).astype(np.float64),
    )


def similarity_matrices(
    graph: ArrayGraph,
) -> Tuple[List[int], List[int], np.ndarray, np.ndarray]:
    """The incidence and similarity matrices of Eq. (3)–(4).

    Returns ``(multi_ids, tx_ids, S, M)`` where ``multi_ids`` are the
    candidate multi-transaction address node ids (degree ≥ 2 address
    nodes, centre excluded), ``S = A·Aᵀ`` counts shared transactions and
    ``M = S·D⁻¹`` is the column-normalised similarity (``m_ij = s_ij /
    s_jj`` — the fraction of j's transactions shared with i, exactly the
    paper's worked example ``m31 = s31 / s11 = 0.7``).
    """
    pack = GraphPack.of([graph])
    is_row, multi_ids, lo, hi = _multi_rows(pack)
    tx_ids, rows, cols, counts, _ = _shared_counts(
        pack, is_row, multi_ids, lo, hi
    )
    shared = np.zeros((multi_ids.size, multi_ids.size), dtype=np.float64)
    shared[rows, cols] = counts
    diagonal = np.diag(shared).copy()
    safe = np.where(diagonal > 0, diagonal, 1.0)
    similarity = shared / safe[np.newaxis, :]
    return list(map(int, multi_ids)), list(map(int, tx_ids)), shared, similarity


def compress_multi_transaction_pack(
    pack: GraphPack, psi: float = 0.6, sigma: int = 2
) -> GraphPack:
    """Stage 3 over every graph of ``pack`` at once (Eq. 3–7).

    ``S`` and the thresholded similarity ``Q = ReLU(S·D⁻¹ − Ψ)`` of
    every graph come from one block-diagonal computation
    (:func:`_shared_counts`).  The greedy merge loop then runs per
    graph, and only for graphs with a row of more than ``sigma``
    non-zeros, on that graph's own rows — so its densest-first order,
    ties included, is that of the graph compressed alone.  Returns
    ``pack`` itself when no graph has anything to merge.
    """
    if not 0.0 < psi <= 1.0:
        raise ValidationError(f"psi must be in (0, 1], got {psi}")
    if sigma < 1:
        raise ValidationError(f"sigma must be >= 1, got {sigma}")
    is_row, multi_ids, lo, hi = _multi_rows(pack)
    # A row's non-zeros lie within its own graph's rows.
    row_starts = np.searchsorted(multi_ids, pack.node_offsets)
    if (row_starts[1:] - row_starts[:-1]).max() <= sigma:
        return pack
    _, rows, cols, counts, diagonal = _shared_counts(
        pack, is_row, multi_ids, lo, hi
    )
    # m_ij = s_ij / s_jj (Eq. 4); only non-zero s_ij can clear Ψ > 0.
    positive = counts / diagonal[cols] - psi > 0.0  # Q > 0 (Eq. 5)
    rows, cols = rows[positive], cols[positive]
    nonzero_counts = np.bincount(rows, minlength=multi_ids.size)
    dense_rows = np.flatnonzero(nonzero_counts > sigma)
    if dense_rows.size == 0:
        return pack

    row_indptr = np.searchsorted(rows, np.arange(multi_ids.size + 1))
    dense_graphs = np.searchsorted(
        pack.node_offsets, multi_ids[dense_rows], side="right"
    ) - 1
    merged = np.zeros(multi_ids.size, dtype=bool)
    group_graphs: List[int] = []
    group_refs: List[str] = []
    members: List[np.ndarray] = []
    for g in np.unique(dense_graphs).tolist():
        lo = int(row_starts[g])
        graph_counts = nonzero_counts[lo : row_starts[g + 1]]
        for row in np.argsort(-graph_counts).tolist():
            if graph_counts[row] <= sigma:
                break
            row += lo
            if merged[row]:
                continue
            similar = cols[row_indptr[row] : row_indptr[row + 1]]
            similar = similar[~merged[similar]]
            if similar.size < 2:
                continue
            merged[similar] = True
            group_graphs.append(g)
            group_refs.append(f"m:{pack.refs[multi_ids[row]]}")
            members.append(multi_ids[similar])

    if not members:
        return pack
    return _rebuild_with_merges(
        pack,
        np.array(group_graphs, dtype=np.int64),
        _MULTI_HYPER_CODE,
        group_refs,
        np.concatenate(members),
        np.array([m.size for m in members], dtype=np.int64),
    )


def compress_multi_transaction_addresses(
    graph: ArrayGraph,
    psi: float = 0.6,
    sigma: int = 2,
) -> ArrayGraph:
    """Merge co-occurring multi-transaction address nodes (Eq. 3–7).

    ``Q = ReLU(M − Ψ)`` thresholds the similarity; a node whose row has
    more than ``sigma`` non-zeros is merged with its similar set.  Groups
    are formed greedily from the densest rows; each node joins at most
    one hyper node.  A one-graph :func:`compress_multi_transaction_pack`;
    a no-op pass returns the input graph itself.
    """
    return _one_graph_pass(
        graph, lambda pack: compress_multi_transaction_pack(pack, psi, sigma)
    )
