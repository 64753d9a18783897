"""Stage 4 — graph structure augmentation (paper §III-A-3).

Attaches the four network centralities (degree, closeness, betweenness,
PageRank) to every node of a compressed address graph, so node features
carry "not only the semantic information of address transactions but also
the augmented graph structural characteristics".

:func:`augment_pack` is the pipeline's Stage 4.  It takes a build's
compressed :class:`~repro.graphs.arrays.GraphPack` whole: one symmetric
block-diagonal CSR from the pack's global edge columns
(:func:`~repro.graphs.matrices.symmetric_adjacency`), then one
block-diagonal centrality sweep
(:func:`~repro.graphs.batched_centrality.centrality_matrix_block_diagonal`)
per contiguous run of graphs of at most ``DEFAULT_MAX_BATCH_NODES``
(1024) nodes, each run a diagonal-block slice of that matrix passed as
its own transpose.  The stacked ``(num_nodes, 4)`` result becomes the
pack's ``centrality`` column, and the adjacency is handed on to the
encoder (:func:`repro.gnn.data.encode_pack`), which renormalises the
same matrix instead of building it again.

:func:`augment_graph` runs the per-graph kernels
(:func:`repro.graphs.centrality.centrality_matrix_csr`) and is the
oracle the packed pass is held to bit for bit.

PageRank (Eq. 11) is solved exactly rather than iterated:
:func:`~repro.graphs.centrality.pagerank_exact` solves every graph of
up to ``PAGERANK_DENSE_MAX_NODES`` (256) nodes as a dense linear
system, one stacked solve per node count, and iterates only larger
graphs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graphs.arrays import ArrayGraph, GraphPack
from repro.graphs.batched_centrality import (
    DEFAULT_MAX_BATCH_NODES,
    centrality_matrix_block_diagonal,
)
from repro.graphs.centrality import _diagonal_block, centrality_matrix_csr
from repro.graphs.matrices import symmetric_adjacency
from repro.graphs.model import _CENTRALITY_DIMS

__all__ = ["augment_graph", "augment_pack"]


def augment_graph(graph: ArrayGraph) -> ArrayGraph:
    """Compute and attach centrality features in place; returns the graph.

    Attaches the ``(num_nodes, 4)`` float64 centrality matrix (column
    order degree, closeness, betweenness, PageRank — Eq. 8–11) as the
    graph's ``centrality`` column.  An empty graph is returned unchanged
    (its ``centrality`` stays ``None``).
    """
    if graph.num_nodes:
        graph.centrality = centrality_matrix_csr(graph.adjacency_matrix())
    return graph


def augment_pack(pack: GraphPack) -> sp.csr_matrix:
    """Stage 4 over a whole build's pack, in place; returns its adjacency.

    Sets ``pack.centrality`` to the stacked ``(num_nodes, 4)`` rows and
    returns the pack's symmetric block-diagonal adjacency for the
    encoder to reuse.
    """
    adjacency = symmetric_adjacency(
        pack.edge_src, pack.edge_dst, pack.num_nodes
    )
    pack.centrality = _pack_centrality(adjacency, pack.node_offsets)
    return adjacency


def _pack_centrality(
    adjacency: sp.csr_matrix, offsets: np.ndarray
) -> np.ndarray:
    """Centralities of a symmetric block-diagonal adjacency, one sweep
    per contiguous run of graphs.

    A run grows greedily until the next graph would take it past
    ``DEFAULT_MAX_BATCH_NODES`` nodes, which bounds the ``64 × N``
    dense scratch of one sweep; a graph larger than the budget runs
    alone.  The runs never change results.
    """
    bounds = offsets.tolist()
    num_graphs = len(bounds) - 1
    runs = []
    first = 0
    for g in range(1, num_graphs):
        if bounds[g + 1] - bounds[first] > DEFAULT_MAX_BATCH_NODES:
            runs.append((first, g))
            first = g
    runs.append((first, num_graphs))
    out = np.empty((bounds[-1], _CENTRALITY_DIMS), dtype=np.float64)
    for first, last in runs:
        lo, hi = bounds[first], bounds[last]
        block = _diagonal_block(adjacency, lo, hi)
        out[lo:hi] = centrality_matrix_block_diagonal(
            block, offsets[first : last + 1] - lo, transpose=block
        )
    return out
