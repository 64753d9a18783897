"""Network centrality measures on a sparse CSR substrate (Eq. 8–11).

All four measures accept the same undirected, unweighted adjacency-list
API as before — the lists are converted once to a ``scipy.sparse`` CSR
matrix and every per-node Python loop is replaced by batched sparse
linear algebra.  They are validated against networkx *and* against the
original per-node implementations (:mod:`repro.graphs.reference`) in the
test suite.

**Batched-BFS formulation.**  Instead of one BFS per source, sources are
processed in blocks of ``B`` (:data:`BFS_BLOCK`).  A block carries a
dense frontier matrix ``F ∈ {0,1}^{B×n}``; one BFS level for all ``B``
sources is a single sparse mat-mat product ``F′ = (F · A) ∧ ¬V`` (``V``
the visited mask), so a block finishes in ``diameter`` sparse products
of cost ``O(B·E)`` each instead of ``B·(V+E)`` interpreted Python steps.
Per-source distances fall out as the level at which each node joins
``V``, and Brandes' path counts ride along in the same product by
propagating ``σ`` instead of booleans.  Total work is ``O(E·n·diam/B)``
sparse-product FLOPs with ``O(B·n)`` scratch memory — more FLOPs than
the serial formulation, but they run inside BLAS-grade kernels, which on
the paper's slice graphs (tens to low thousands of nodes, diameter ≈ 4)
is an order-of-magnitude wall-clock win (tracked by
``benchmarks/bench_pipeline_throughput.py``).

- **Degree centrality** (Eq. 8): neighbour counts off the CSR index
  pointer, normalised by ``n − 1``.
- **Closeness centrality** (Eq. 9): ``(r − 1) / Σ d`` over the ``r``
  nodes reachable from ``v``, distances from the batched BFS.
- **Betweenness centrality** (Eq. 10): Brandes' algorithm with the
  path-counting sweep (``σ_{L+1} = (σ ⊙ F_L) · A`` masked to the new
  frontier) and the dependency back-propagation (``δ_{L−1} += σ_{L−1} ⊙
  ((1+δ_L)/σ_L · Aᵀ)``) batched over source blocks.
- **PageRank centrality** (Eq. 11): with dangling mass spread
  uniformly, Eq. 11's fixed point is the linear system
  ``(I − αAᵀD⁻¹ − (α/n)·1dᵀ) r = (1 − α)/n · 1`` (``D`` the out-degrees,
  ``d`` the dangling indicator).  :func:`pagerank_exact` solves it
  directly: graphs up to :data:`PAGERANK_DENSE_MAX_NODES` nodes are
  grouped by node count and each group is one stacked dense
  ``np.linalg.solve``; larger graphs fall back to power iteration
  (``O(E)`` per CSR mat-vec).  The public :func:`pagerank_centrality`
  keeps the power iteration and its tolerance knobs.

The adjacency lists may be directed (asymmetric); forward propagation
uses ``Aᵀ`` and Brandes' back-propagation uses ``A``, which coincide on
the undirected graphs the pipeline builds.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError

__all__ = [
    "BFS_BLOCK",
    "degree_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "pagerank_centrality",
    "pagerank_exact",
    "centrality_matrix",
    "centrality_matrix_csr",
]

Adjacency = Sequence[Sequence[int]]

#: Sources per batched-BFS block: bounds the dense frontier/σ/δ scratch
#: arrays at ``BFS_BLOCK × n`` float64 while keeping the sparse products
#: wide enough to amortise per-level overhead.
BFS_BLOCK = 64

#: Largest graph whose PageRank :func:`pagerank_exact` solves as a dense
#: ``n × n`` system; larger graphs iterate.  The ``O(n³)`` solve beats
#: the ~136 power-iteration steps of a slice graph up to a crossover
#: between ~200 nodes (fast-mixing random graphs, which converge
#: sooner) and ~330 (star-like slice graphs).  One x86-64 core, one
#: graph: a 259-node slice graph solves in 1.8 ms against 3.4 ms
#: iterating, a 356-node one in 5.8 against 3.5 ms.
PAGERANK_DENSE_MAX_NODES = 256


def _adjacency_arrays(adjacency: Adjacency) -> Tuple[np.ndarray, np.ndarray]:
    """Validated ``(indptr, indices)`` CSR arrays of the adjacency lists.

    Duplicate neighbour entries are preserved — they weight σ, PageRank
    shares, and degree exactly as the original per-edge loops did.
    """
    n = len(adjacency)
    lengths = np.fromiter(
        (len(neighbors) for neighbors in adjacency), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if indptr[-1]:
        indices = np.concatenate(
            [
                np.asarray(neighbors, dtype=np.int64)
                for neighbors in adjacency
                if len(neighbors)
            ]
        )
    else:
        indices = np.zeros(0, dtype=np.int64)
    if indices.size and not (
        0 <= int(indices.min()) and int(indices.max()) < n
    ):
        bad = int(np.flatnonzero((indices < 0) | (indices >= n))[0])
        node = int(np.searchsorted(indptr, bad, side="right")) - 1
        raise ValidationError(
            f"adjacency[{node}] references unknown node {int(indices[bad])}"
        )
    return indptr, indices


def _csr_from_lists(adjacency: Adjacency) -> sp.csr_matrix:
    indptr, indices = _adjacency_arrays(adjacency)
    data = np.ones(indices.size, dtype=np.float64)
    return sp.csr_matrix(
        (data, indices, indptr), shape=(len(adjacency), len(adjacency))
    )


def degree_centrality(adjacency: Adjacency) -> np.ndarray:
    """Degree divided by ``n − 1`` (1.0 = connected to everyone)."""
    indptr, _ = _adjacency_arrays(adjacency)
    n = len(adjacency)
    if n <= 1:
        return np.zeros(n, dtype=np.float64)
    return np.diff(indptr).astype(np.float64) / (n - 1)


def _source_blocks(n: int) -> "range":
    return range(0, n, BFS_BLOCK)


def _forward_sweep(
    transpose: sp.csr_matrix,
    seed_rows: np.ndarray,
    seed_cols: np.ndarray,
    num_rows: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
    """Level-synchronous BFS + path counting for one source block.

    Sources are given as ``(seed_rows, seed_cols)`` index pairs into the
    ``num_rows × n`` work arrays.  The per-graph kernels seed one source
    per row (``seed_rows = arange(b)``); the block-diagonal batched
    kernel (:mod:`repro.graphs.batched_centrality`) seeds one source
    *per graph* per row, which is sound because BFS regions of the
    block-diagonal graphs never overlap.

    Returns ``(sigma, dist, visited, levels)`` where ``sigma``/``dist``/
    ``visited`` are ``num_rows × n`` (a row per source row) and
    ``levels[L]`` holds the ``(source row, node)`` pairs at BFS depth
    ``L``.  Each level costs one sparse mat-mat product; every
    (source, node) pair appears in exactly one level, so the level lists
    total ``O(B·n)`` memory — the same bound as the dense work arrays.

    The work arrays are stored node-major (``n × B``, the layout the
    sparse product reads and writes without a transposing copy) and
    addressed by flat index ``node · B + row``, which is what ``levels``
    holds; the returned matrices are transposed views.
    """
    b = num_rows
    seeds = seed_cols * b + seed_rows
    sigma = np.zeros(n * b, dtype=np.float64)
    sigma[seeds] = 1.0
    visited = np.zeros(n * b, dtype=bool)
    visited[seeds] = True
    dist = np.full(n * b, -1, dtype=np.int64)
    dist[seeds] = 0
    levels = [seeds]
    frontier = np.zeros((n, b), dtype=np.float64)
    flat_frontier = frontier.reshape(-1)
    level = 0
    while True:
        level += 1
        last = levels[-1]
        flat_frontier[last] = sigma[last]
        counts = (transpose @ frontier).reshape(-1)
        flat_frontier[last] = 0.0
        newly = np.flatnonzero((counts > 0.0) & ~visited)
        if newly.size == 0:
            break
        sigma[newly] = counts[newly]
        dist[newly] = level
        visited[newly] = True
        levels.append(newly)
    return (
        sigma.reshape(n, b).T,
        dist.reshape(n, b).T,
        visited.reshape(n, b).T,
        levels,
    )


def _backward_sweep(
    matrix: sp.csr_matrix, sigma: np.ndarray, levels: List[np.ndarray]
) -> np.ndarray:
    """Brandes' dependency accumulation for one source block.

    A node at level L−1 receives ``σ_u · Σ_{v ∈ Γ(u) ∩ level L}
    (1 + δ_v)/σ_v``; same-level and back edges are masked out, which is
    exactly Brandes' shortest-path-DAG restriction.  Takes the
    ``sigma`` and flat ``levels`` of :func:`_forward_sweep` and returns
    the summed per-node dependency of the block (source
    self-dependencies, at ``levels[0]``, zeroed).  The sum runs over
    source rows in order, so rows that only hold zeros — a small graph
    in a wide pack — leave it bit-for-bit unchanged.
    """
    b, n = sigma.shape
    flat_sigma = sigma.T.reshape(-1)
    delta = np.zeros(n * b, dtype=np.float64)
    coefficient = np.zeros((n, b), dtype=np.float64)
    flat_coefficient = coefficient.reshape(-1)
    for level in range(len(levels) - 1, 0, -1):
        current = levels[level]
        flat_coefficient[current] = (
            1.0 + delta[current]
        ) / flat_sigma[current]
        contribution = (matrix @ coefficient).reshape(-1)
        flat_coefficient[current] = 0.0
        previous = levels[level - 1]
        delta[previous] += flat_sigma[previous] * contribution[previous]
    delta[levels[0]] = 0.0
    return np.ascontiguousarray(delta.reshape(n, b).T).sum(axis=0)


def _closeness_from_sweep(
    dist: np.ndarray, visited: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-source ``(valid mask, closeness)`` from batched BFS output."""
    reachable = visited.sum(axis=1)
    # dist is 0 at the source and -1 off-component, so clipping at 0
    # sums exactly the distances of reachable nodes.
    totals = np.maximum(dist, 0).sum(axis=1).astype(np.float64)
    valid = (reachable > 1) & (totals > 0.0)
    scores = np.zeros(dist.shape[0], dtype=np.float64)
    scores[valid] = (reachable[valid] - 1) / totals[valid]
    return valid, scores


def closeness_centrality(adjacency: Adjacency) -> np.ndarray:
    """Per-component closeness ``(r − 1) / Σ d`` (Eq. 9)."""
    matrix = _csr_from_lists(adjacency)
    transpose = matrix.transpose().tocsr()
    n = matrix.shape[0]
    scores = np.zeros(n, dtype=np.float64)
    for start in _source_blocks(n):
        sources = np.arange(start, min(start + BFS_BLOCK, n))
        rows = np.arange(sources.size)
        _, dist, visited, _ = _forward_sweep(
            transpose, rows, sources, sources.size, n
        )
        valid, block_scores = _closeness_from_sweep(dist, visited)
        scores[sources[valid]] = block_scores[valid]
    return scores


def betweenness_centrality(
    adjacency: Adjacency, normalized: bool = True
) -> np.ndarray:
    """Shortest-path betweenness via source-blocked Brandes (Eq. 10)."""
    matrix = _csr_from_lists(adjacency)
    transpose = matrix.transpose().tocsr()
    n = matrix.shape[0]
    scores = np.zeros(n, dtype=np.float64)
    for start in _source_blocks(n):
        sources = np.arange(start, min(start + BFS_BLOCK, n))
        rows = np.arange(sources.size)
        sigma, _, _, levels = _forward_sweep(
            transpose, rows, sources, sources.size, n
        )
        scores += _backward_sweep(matrix, sigma, levels)
    scores /= 2.0  # each undirected pair counted twice
    if normalized and n > 2:
        scores *= 2.0 / ((n - 1) * (n - 2))
    return scores


def pagerank_centrality(
    adjacency: Adjacency,
    alpha: float = 0.85,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Power-iteration PageRank as CSR mat-vecs (Eq. 11)."""
    matrix = _csr_from_lists(adjacency)
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return _pagerank_power_iteration(
        matrix.transpose().tocsr(),
        np.diff(matrix.indptr).astype(np.float64),
        alpha,
        max_iterations,
        tolerance,
    )


def _pagerank_power_iteration(
    transpose: sp.csr_matrix,
    out_degree: np.ndarray,
    alpha: float,
    max_iterations: int,
    tolerance: float,
) -> np.ndarray:
    n = out_degree.size
    dangling = out_degree == 0.0
    inverse_out = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_degree))
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    base = (1.0 - alpha) / n
    for _ in range(max_iterations):
        dangling_mass = alpha * float(rank[dangling].sum()) / n
        new_rank = (
            base + dangling_mass + alpha * (transpose @ (rank * inverse_out))
        )
        if float(np.abs(new_rank - rank).sum()) < tolerance:
            return new_rank
        rank = new_rank
    return rank


def _diagonal_block(matrix: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows and columns ``lo:hi`` of a block-diagonal CSR, entries in
    stored order (a block owns every entry of its rows)."""
    start, stop = matrix.indptr[lo], matrix.indptr[hi]
    return sp.csr_matrix(
        (
            matrix.data[start:stop],
            matrix.indices[start:stop] - lo,
            matrix.indptr[lo : hi + 1] - start,
        ),
        shape=(hi - lo, hi - lo),
    )


def pagerank_exact(
    transpose: sp.csr_matrix,
    out_degree: np.ndarray,
    offsets: np.ndarray,
    alpha: float = 0.85,
) -> np.ndarray:
    """Per-graph PageRank (Eq. 11) of a block-diagonal adjacency, solved.

    ``transpose`` is ``Aᵀ`` of the (packed) adjacency ``A``,
    ``out_degree`` its row lengths and ``offsets`` (``int64``, length
    ``num_graphs + 1``) delimits the diagonal blocks; a lone graph is
    ``offsets = [0, n]``.  Graph ``g``'s ranks solve
    ``(I − αAᵀD⁻¹ − (α/n)·1dᵀ) r = (1 − α)/n · 1`` over its own block.

    Graphs of at most :data:`PAGERANK_DENSE_MAX_NODES` nodes are solved
    densely.  One scatter over the pack's entries writes every such
    system into a row-major slot of one flat buffer, the slots ordered
    by node count, so each same-size run is a ``(count, n, n)`` view
    handed to one stacked ``np.linalg.solve``.  Duplicate entries add,
    as they do in the mat-vec.  Larger graphs run the power iteration
    one at a time.  Either way a graph's ranks depend only on its own
    block, so they are bit-identical in or out of a pack.
    """
    sizes = np.diff(offsets)
    num_graphs = sizes.size
    rank = np.zeros(out_degree.size, dtype=np.float64)
    dangling = out_degree == 0.0
    inverse_out = np.where(
        dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_degree)
    )
    for g in np.flatnonzero(sizes > PAGERANK_DENSE_MAX_NODES):
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        rank[lo:hi] = _pagerank_power_iteration(
            _diagonal_block(transpose, lo, hi),
            out_degree[lo:hi],
            alpha,
            max_iterations=200,
            tolerance=1e-10,
        )
    dense = (sizes > 0) & (sizes <= PAGERANK_DENSE_MAX_NODES)
    if not dense.any():
        return rank

    order = np.flatnonzero(dense)
    order = order[np.argsort(sizes[order], kind="stable")]
    slot_sizes = sizes[order] ** 2
    slot_starts = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(slot_sizes, out=slot_starts[1:])
    slot = np.zeros(num_graphs, dtype=np.int64)
    slot[order] = slot_starts[:-1]

    # M[i, j] = −α · Aᵀ[i, j] / deg(j) for every entry of a dense graph.
    rows = np.repeat(
        np.arange(out_degree.size, dtype=np.int64), np.diff(transpose.indptr)
    )
    cols = transpose.indices.astype(np.int64)
    values = transpose.data
    graph = np.repeat(np.arange(num_graphs), sizes)[rows]
    keep = dense[graph]
    if not keep.all():
        rows, cols, graph = rows[keep], cols[keep], graph[keep]
        values = values[keep]
    offset = offsets[graph]
    system = -alpha * np.bincount(
        slot[graph] + (rows - offset) * sizes[graph] + (cols - offset),
        weights=values * inverse_out[cols],
        minlength=int(slot_starts[-1]),
    )

    run_sizes, run_starts, run_counts = np.unique(
        sizes[order], return_index=True, return_counts=True
    )
    for n, first, count in zip(
        run_sizes.tolist(), run_starts.tolist(), run_counts.tolist()
    ):
        start = int(slot_starts[first])
        block = system[start : start + count * n * n].reshape(count, n, n)
        nodes = offsets[order[first : first + count], None] + np.arange(n)
        block -= (alpha / n) * dangling[nodes][:, None, :]
        diagonal = np.arange(n)
        block[:, diagonal, diagonal] += 1.0
        rhs = np.full((count, n, 1), (1.0 - alpha) / n)
        rank[nodes] = np.linalg.solve(block, rhs)[..., 0]
    return rank


def centrality_matrix(adjacency: Adjacency) -> np.ndarray:
    """All four centralities stacked: shape ``(n, 4)``.

    Column order: degree, closeness, betweenness, PageRank — the layout
    consumed by :mod:`repro.graphs.augmentation`.  The CSR conversion
    and the batched BFS sweeps are done once and shared by all four
    measures.
    """
    matrix = _csr_from_lists(adjacency)
    return centrality_matrix_csr(
        matrix, out_degree=np.diff(matrix.indptr).astype(np.float64)
    )


def centrality_matrix_csr(
    matrix: sp.csr_matrix, out_degree: "np.ndarray | None" = None
) -> np.ndarray:
    """:func:`centrality_matrix` for an adjacency already in CSR form.

    The fast path for :func:`repro.graphs.augmentation.augment_graph`,
    which builds the CSR directly from edge arrays and skips the
    adjacency-list round trip.  One forward sweep per source block feeds
    both closeness and betweenness.  ``out_degree`` defaults to the CSR
    row lengths (distinct-neighbour counts for a deduplicated matrix).
    """
    n = matrix.shape[0]
    if n == 0:
        return np.zeros((0, 4), dtype=np.float64)
    if out_degree is None:
        out_degree = np.diff(matrix.indptr).astype(np.float64)
    transpose = matrix.transpose().tocsr()

    degree = (
        out_degree / (n - 1) if n > 1 else np.zeros(n, dtype=np.float64)
    )

    closeness = np.zeros(n, dtype=np.float64)
    betweenness = np.zeros(n, dtype=np.float64)
    for start in _source_blocks(n):
        sources = np.arange(start, min(start + BFS_BLOCK, n))
        rows = np.arange(sources.size)
        sigma, dist, visited, levels = _forward_sweep(
            transpose, rows, sources, sources.size, n
        )
        valid, block_scores = _closeness_from_sweep(dist, visited)
        closeness[sources[valid]] = block_scores[valid]
        betweenness += _backward_sweep(matrix, sigma, levels)
    betweenness /= 2.0
    if n > 2:
        betweenness *= 2.0 / ((n - 1) * (n - 2))

    pagerank = pagerank_exact(
        transpose, out_degree, np.array([0, n], dtype=np.int64)
    )
    return np.column_stack([degree, closeness, betweenness, pagerank])
