"""Cross-graph block-diagonal centrality batching (Stage 4 at batch scale).

Stage 4 runs in the many-tiny-graphs regime: each slice graph needs its
*own* small frontier-batched BFS, Brandes sweep and PageRank, so
per-call scipy/Python overhead — CSR builds, transposes, per-level loop
iterations — is paid once per graph.  This module packs a whole batch
of slice graphs into **one** block-diagonal CSR adjacency (node ids
offset per graph, edge columns concatenated) and runs every kernel once
over the packed matrix, then scatters the per-graph ``(n_g, 4)``
centrality matrices back via the node offsets.

Why this is exact
-----------------

The packed graphs are disconnected components, so BFS frontiers and
Brandes dependencies never cross block boundaries.  The batched kernels
exploit that in three ways:

- **Row sharing.**  The forward/backward sweeps of
  :mod:`repro.graphs.centrality` take seed ``(row, node)`` pairs, so one
  64-row frontier block carries *source index r of every graph* instead
  of 64 sources of one graph: row-block ``start`` seeds node
  ``offset_g + start + r`` for every graph with more than ``start + r``
  nodes.  A sweep then costs ``O(nnz_total)`` per BFS level for the
  whole batch, and the number of row blocks is ``ceil(max_g n_g / 64)``
  instead of ``ceil(Σ n_g / 64)``.
- **Per-graph semantics via segment ops.**  Degree, closeness and
  betweenness normalisation are *per-graph* quantities (they divide by
  each graph's own ``n``), computed with segment reductions over the
  node offsets, so results match running
  :func:`~repro.graphs.centrality.centrality_matrix_csr` per graph.
- **PageRank per block.**  :func:`~repro.graphs.centrality.pagerank_exact`
  solves each graph's Eq. 11 system from its own block only (one
  stacked dense solve per node count), exactly as it does for a lone
  graph.

Every floating-point operation a node participates in has the same
operands in the same order as the per-graph path (sums over extra
frontier rows only ever add exact ``0.0``), so a batch of size one is
bit-for-bit identical to :func:`centrality_matrix_csr`, and mixed
batches are pinned to 1e-9 parity against both the per-graph CSR path
and the pure-Python :mod:`repro.graphs.reference` oracles in
``tests/test_batched_centrality.py``.

Scratch memory is ``O(64 × N_batch)`` per sweep, so callers bound the
pack size: :func:`batched_centrality_matrices` splits oversized batches
into chunks of at most ``max_batch_nodes`` nodes, and Stage 4
(:func:`repro.graphs.augmentation.augment_pack`) runs one sweep per
contiguous run of graphs of its build's pack under the same budget.

:func:`batched_centrality_matrices` packs **skew-aware**: seed rows
are per-source-index, so the number of frontier row blocks a pack pays
for is ``ceil(max_g n_g / 64)`` — one graph much larger than its
packmates serializes the whole chunk through its own tail rows while
every smaller graph sits idle.
:func:`plan_packs` therefore size-sorts graphs (descending, stable)
before the greedy node-budget chunking, so similar-sized graphs share
packs and each chunk's ``max_g n_g`` hugs its average.  Sorting changes
*which* graphs share a pack, never any result: per-graph outputs are
independent of packmates (disconnected blocks), which
``tests/test_batched_centrality.py`` pins with order-invariance tests.
Results are always scattered back in input order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.graphs.centrality import (
    BFS_BLOCK,
    _backward_sweep,
    _forward_sweep,
    pagerank_exact,
)

__all__ = [
    "DEFAULT_MAX_BATCH_NODES",
    "pack_block_diagonal",
    "plan_packs",
    "centrality_matrix_block_diagonal",
    "batched_centrality_matrices",
]

#: Node budget per packed batch.  Bigger packs amortise per-call
#: overhead but grow the dense ``64 × N_batch`` frontier/σ/δ scratch of
#: every BFS level.  On the full pipeline bench's 722 slice graphs
#: (≤105 nodes), budgets of 512–2048 nodes ran within noise of each
#: other and 8192 was ~1.5× slower.
DEFAULT_MAX_BATCH_NODES = 1024


def pack_block_diagonal(
    matrices: Sequence[sp.csr_matrix],
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Stack square CSR adjacencies into one block-diagonal CSR.

    Returns ``(packed, offsets)`` where ``packed`` is the
    ``(N, N)`` block-diagonal matrix (``N = Σ n_g``) and ``offsets`` is
    the ``int64`` array of ``len(matrices) + 1`` node offsets: graph
    ``g`` owns packed rows ``offsets[g]:offsets[g + 1]``.  Rows are
    copied verbatim (indices shifted by the block offset, no re-sort),
    so each diagonal block is structurally identical to its input —
    including empty ``0 × 0`` blocks, which occupy zero rows.
    """
    sizes = []
    for matrix in matrices:
        rows, cols = matrix.shape
        if rows != cols:
            raise ValidationError(
                f"adjacency matrices must be square, got {rows}x{cols}"
            )
        sizes.append(rows)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    if not matrices or total == 0:
        return sp.csr_matrix((total, total), dtype=np.float64), offsets
    indptr = np.zeros(total + 1, dtype=np.int64)
    nnz_offset = 0
    indices_parts: List[np.ndarray] = []
    data_parts: List[np.ndarray] = []
    for matrix, offset in zip(matrices, offsets[:-1]):
        n = matrix.shape[0]
        if n == 0:
            continue
        indptr[offset + 1 : offset + n + 1] = matrix.indptr[1:] + nnz_offset
        indices_parts.append(matrix.indices.astype(np.int64) + offset)
        data_parts.append(matrix.data.astype(np.float64, copy=False))
        nnz_offset += matrix.indptr[-1]
    indices = (
        np.concatenate(indices_parts)
        if indices_parts
        else np.zeros(0, dtype=np.int64)
    )
    data = (
        np.concatenate(data_parts)
        if data_parts
        else np.zeros(0, dtype=np.float64)
    )
    return sp.csr_matrix((data, indices, indptr), shape=(total, total)), offsets


def _chunk_by_nodes(
    sizes: Sequence[int], max_batch_nodes: Optional[int]
) -> List[Tuple[int, int]]:
    """Greedy contiguous ``[start, end)`` chunks under the node budget.

    Every chunk holds at least one graph, so a single graph larger than
    the budget still runs (in its own pack).
    """
    if not sizes:
        return []
    if max_batch_nodes is None:
        return [(0, len(sizes))]
    if max_batch_nodes <= 0:
        raise ValidationError(
            f"max_batch_nodes must be > 0 or None, got {max_batch_nodes}"
        )
    chunks: List[Tuple[int, int]] = []
    start = 0
    nodes = 0
    for i, size in enumerate(sizes):
        if i > start and nodes + size > max_batch_nodes:
            chunks.append((start, i))
            start = i
            nodes = 0
        nodes += size
    chunks.append((start, len(sizes)))
    return chunks


def plan_packs(
    sizes: Sequence[int],
    max_batch_nodes: Optional[int] = DEFAULT_MAX_BATCH_NODES,
    size_sort: bool = True,
) -> List[np.ndarray]:
    """Partition graphs into block-diagonal packs under the node budget.

    Returns a list of ``int64`` index arrays into the caller's graph
    sequence — each array is one pack.  With ``size_sort=True`` (the
    default) graphs are ordered by descending node count (stable for
    ties) before the greedy budget chunking, so one giant graph packs
    with its peers instead of serializing a chunk of small graphs
    through its tail frontier rows.  ``size_sort=False`` keeps input
    order, so every pack is a contiguous run of graphs: Stage 4 uses it
    to cut its sweeps as diagonal-block slices of one build-wide
    adjacency.  Purely a performance plan: every pack layout yields
    identical per-graph results.
    """
    sizes_array = np.asarray(list(sizes), dtype=np.int64)
    if sizes_array.size == 0:
        return []
    if size_sort:
        order = np.argsort(-sizes_array, kind="stable")
    else:
        order = np.arange(sizes_array.size, dtype=np.int64)
    chunks = _chunk_by_nodes(
        sizes_array[order].tolist(), max_batch_nodes
    )
    return [order[start:end] for start, end in chunks]


def centrality_matrix_block_diagonal(
    matrix: sp.csr_matrix,
    offsets: np.ndarray,
    transpose: Optional[sp.csr_matrix] = None,
) -> np.ndarray:
    """All four centralities of a block-diagonal adjacency, per-graph.

    ``matrix`` is the packed ``(N, N)`` CSR from
    :func:`pack_block_diagonal`; ``offsets`` (``int64``, length
    ``num_graphs + 1``) delimits the diagonal blocks.  Returns the
    ``(N, 4)`` float64 matrix whose rows ``offsets[g]:offsets[g + 1]``
    equal ``centrality_matrix_csr(block_g)`` — column order degree,
    closeness, betweenness, PageRank (Eq. 8–11), every normalisation
    taken against the owning graph's own node count.

    This single function *is* the batched Stage-4 sweep; callers that
    want the per-graph matrices scattered back should use
    :func:`batched_centrality_matrices` (which also bounds scratch
    memory by chunking).  ``transpose`` is ``matrixᵀ`` in canonical
    CSR; it defaults to ``matrix.transpose().tocsr()``.  Stage 4 passes
    its symmetric pack as its own transpose, which equals that
    conversion array for array.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n_total = matrix.shape[0]
    if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != n_total:
        raise ValidationError(
            f"offsets must span [0, {n_total}], got "
            f"{offsets[:1]}..{offsets[-1:]}"
        )
    sizes = np.diff(offsets)
    if sizes.size and sizes.min() < 0:
        raise ValidationError("offsets must be non-decreasing")
    if n_total == 0:
        return np.zeros((0, 4), dtype=np.float64)

    num_graphs = sizes.size
    graph_of_node = np.repeat(np.arange(num_graphs), sizes)
    out_degree = np.diff(matrix.indptr).astype(np.float64)
    if transpose is None:
        transpose = matrix.transpose().tocsr()

    # Degree (Eq. 8): per-graph n − 1 normalisation, zero for n <= 1.
    degree = np.zeros(n_total, dtype=np.float64)
    multi = sizes[graph_of_node] > 1
    degree[multi] = out_degree[multi] / (
        (sizes - 1).astype(np.float64)[graph_of_node][multi]
    )

    # Segment bookkeeping for the non-empty graphs (reduceat needs
    # strictly increasing starts, which empty blocks would break).
    nonempty = sizes > 0
    seg_starts = offsets[:-1][nonempty]
    seg_column = np.cumsum(nonempty) - 1  # graph id -> reduceat column

    # Closeness + betweenness (Eq. 9–10): shared forward sweeps over
    # row blocks of source-index-within-graph, one source per graph per
    # row.
    closeness = np.zeros(n_total, dtype=np.float64)
    betweenness = np.zeros(n_total, dtype=np.float64)
    max_n = int(sizes.max())
    for start in range(0, max_n, BFS_BLOCK):
        block_rows = min(BFS_BLOCK, max_n - start)
        counts = np.clip(sizes - start, 0, block_rows)
        active = np.flatnonzero(counts)
        active_counts = counts[active]
        # Seed pairs: row r holds source offset_g + start + r of every
        # graph g with counts_g > r.
        seed_rows = (
            np.arange(int(active_counts.sum()), dtype=np.int64)
            - np.repeat(
                np.cumsum(active_counts) - active_counts, active_counts
            )
        )
        seed_cols = (
            np.repeat(offsets[:-1][active] + start, active_counts) + seed_rows
        )
        sigma, dist, visited, levels = _forward_sweep(
            transpose, seed_rows, seed_cols, block_rows, n_total
        )
        reach = np.add.reduceat(
            visited.astype(np.int64), seg_starts, axis=1
        )
        totals = np.add.reduceat(np.maximum(dist, 0), seg_starts, axis=1)
        seed_seg = seg_column[np.repeat(active, active_counts)]
        source_reach = reach[seed_rows, seed_seg]
        source_totals = totals[seed_rows, seed_seg].astype(np.float64)
        valid = (source_reach > 1) & (source_totals > 0.0)
        closeness[seed_cols[valid]] = (
            source_reach[valid] - 1
        ) / source_totals[valid]
        betweenness += _backward_sweep(matrix, sigma, levels)
    betweenness /= 2.0  # each undirected pair counted twice
    scale = np.ones(num_graphs, dtype=np.float64)
    big = sizes > 2
    scale[big] = 2.0 / ((sizes[big] - 1) * (sizes[big] - 2))
    betweenness *= scale[graph_of_node]

    pagerank = pagerank_exact(transpose, out_degree, offsets)
    return np.column_stack([degree, closeness, betweenness, pagerank])


def batched_centrality_matrices(
    matrices: Sequence[sp.csr_matrix],
    max_batch_nodes: Optional[int] = DEFAULT_MAX_BATCH_NODES,
    size_sort: bool = True,
) -> List[np.ndarray]:
    """Per-graph ``(n_g, 4)`` centrality matrices via block-diagonal packs.

    The batched equivalent of calling
    :func:`~repro.graphs.centrality.centrality_matrix_csr` on each
    adjacency: graphs are packed into block-diagonal chunks of at most
    ``max_batch_nodes`` total nodes (``None`` packs everything into
    one; packing is size-sorted skew-aware by default — see
    :func:`plan_packs`), each chunk runs one
    :func:`centrality_matrix_block_diagonal` sweep, and the results are
    scattered back in input order.  Each returned matrix owns its
    memory (no views into the pack), is float64, and column order is
    degree, closeness, betweenness, PageRank.  A ``0 × 0`` adjacency
    yields a ``(0, 4)`` matrix.
    """
    sizes = [int(matrix.shape[0]) for matrix in matrices]
    results: List[np.ndarray] = [None] * len(sizes)  # type: ignore[list-item]
    for pack in plan_packs(sizes, max_batch_nodes, size_sort=size_sort):
        packed, offsets = pack_block_diagonal(
            [matrices[i] for i in pack]
        )
        stacked = centrality_matrix_block_diagonal(packed, offsets)
        for local, graph_index in enumerate(pack):
            lo, hi = int(offsets[local]), int(offsets[local + 1])
            results[int(graph_index)] = stacked[lo:hi].copy()
    return results
