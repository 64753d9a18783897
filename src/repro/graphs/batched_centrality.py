"""Cross-graph block-diagonal centrality (Stage 4 at batch scale).

Stage 4 runs in the many-tiny-graphs regime: each slice graph needs its
*own* small frontier-batched BFS, Brandes sweep and PageRank, so
per-call scipy/Python overhead — CSR builds, transposes, per-level loop
iterations — would be paid once per graph.  A build's graphs instead
share **one** block-diagonal CSR adjacency (node ids offset per graph:
the pack's global edge columns, see
:func:`repro.graphs.augmentation.augment_pack`), and
:func:`centrality_matrix_block_diagonal` runs every kernel once over
it, returning the per-graph ``(n_g, 4)`` centrality rows stacked in
node order.

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

Scratch memory is ``O(64 × N_batch)`` per sweep, so Stage 4 runs one
sweep per contiguous run of graphs of at most
:data:`DEFAULT_MAX_BATCH_NODES` nodes.  Because seed rows are
per-source-index, a run pays ``ceil(max_g n_g / 64)`` frontier row
blocks: one graph much larger than its runmates serializes the run
through its own tail rows.  Which graphs share a run never changes a
result — per-graph outputs are independent of packmates (disconnected
blocks).
"""

from __future__ import annotations

from typing import Optional

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
    "centrality_matrix_block_diagonal",
]

#: Stage 4's node budget per sweep.  Bigger runs amortise per-call
#: overhead but grow the dense ``64 × N_batch`` frontier/σ/δ scratch of
#: every BFS level.  On the full pipeline bench's 722 slice graphs
#: (≤105 nodes), budgets of 512–2048 nodes ran within noise of each
#: other and 8192 was ~1.5× slower.
DEFAULT_MAX_BATCH_NODES = 1024


def centrality_matrix_block_diagonal(
    matrix: sp.csr_matrix,
    offsets: np.ndarray,
    transpose: Optional[sp.csr_matrix] = None,
) -> np.ndarray:
    """All four centralities of a block-diagonal adjacency, per-graph.

    ``matrix`` is the packed ``(N, N)`` CSR; ``offsets`` (``int64``,
    length ``num_graphs + 1``) delimits the diagonal blocks.  Returns the
    ``(N, 4)`` float64 matrix whose rows ``offsets[g]:offsets[g + 1]``
    equal ``centrality_matrix_csr(block_g)`` — column order degree,
    closeness, betweenness, PageRank (Eq. 8–11), every normalisation
    taken against the owning graph's own node count.

    This single function *is* the batched Stage-4 sweep; its scratch
    grows with ``N``, so callers bound the pack size (Stage 4 sweeps
    runs of :data:`DEFAULT_MAX_BATCH_NODES` nodes).  ``transpose`` is
    ``matrixᵀ`` in canonical CSR; it defaults to
    ``matrix.transpose().tocsr()``.  Stage 4 passes its symmetric pack
    as its own transpose, which equals that conversion array for array.
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
