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

:func:`augment_graphs` packs a list of graphs (either flavour) and runs
the same sweep; :func:`augment_graph` runs the per-graph kernels
(:func:`repro.graphs.centrality.centrality_matrix_csr`) and is the
oracle the packed pass is held to bit for bit.

PageRank (Eq. 11) is solved exactly rather than iterated:
:func:`~repro.graphs.centrality.pagerank_exact` solves every graph of
up to ``PAGERANK_DENSE_MAX_NODES`` (256) nodes as a dense linear
system, one stacked solve per node count, and iterates only larger
graphs.

On the columnar :class:`~repro.graphs.arrays.ArrayGraph` substrate the
whole ``(num_nodes, 4)`` float64 matrix is attached as the graph's
``centrality`` column; object-model graphs receive one row view per
node.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.graphs.arrays import ArrayGraph, GraphPack
from repro.graphs.batched_centrality import (
    DEFAULT_MAX_BATCH_NODES,
    centrality_matrix_block_diagonal,
    plan_packs,
)
from repro.graphs.centrality import _diagonal_block, centrality_matrix_csr
from repro.graphs.matrices import symmetric_adjacency
from repro.graphs.model import _CENTRALITY_DIMS, AddressGraph

__all__ = ["augment_graph", "augment_graphs", "augment_pack"]

AnyGraph = Union[AddressGraph, ArrayGraph]


def augment_graph(graph: AnyGraph) -> AnyGraph:
    """Compute and attach centrality features in place; returns the graph.

    Attaches the ``(num_nodes, 4)`` float64 centrality matrix (column
    order degree, closeness, betweenness, PageRank — Eq. 8–11) as the
    ``centrality`` column of an :class:`ArrayGraph`, or as per-node row
    views on an object-model :class:`AddressGraph`.  An empty graph is
    returned unchanged (its ``centrality`` stays ``None``).
    """
    if graph.num_nodes == 0:
        return graph
    matrix = centrality_matrix_csr(graph.adjacency_matrix())
    _attach(graph, matrix)
    return graph


def augment_pack(
    pack: GraphPack, max_batch_nodes: "int | None" = DEFAULT_MAX_BATCH_NODES
) -> sp.csr_matrix:
    """Stage 4 over a whole build's pack, in place; returns its adjacency.

    Sets ``pack.centrality`` to the stacked ``(num_nodes, 4)`` rows and
    returns the pack's symmetric block-diagonal adjacency for the
    encoder to reuse.  ``max_batch_nodes`` bounds the ``64 × N``
    dense scratch of one sweep (``None`` sweeps the pack at once); it
    never changes results.
    """
    adjacency = symmetric_adjacency(
        pack.edge_src, pack.edge_dst, pack.num_nodes
    )
    pack.centrality = _pack_centrality(
        adjacency, pack.node_offsets, max_batch_nodes
    )
    return adjacency


def augment_graphs(
    graphs: Sequence[AnyGraph],
    max_batch_nodes: "int | None" = DEFAULT_MAX_BATCH_NODES,
) -> List[AnyGraph]:
    """Stage 4 over a list of graphs (either flavour, in any mix), in place.

    Packs the non-empty graphs' edge columns into one block-diagonal
    adjacency and runs :func:`augment_pack`'s sweep over it; each graph
    receives its own ``(n_g, 4)`` slice of the stacked result (a fresh
    array, not a view into the pack).  Empty graphs are left unchanged
    exactly like :func:`augment_graph`.  Returns the input graphs as a
    list, in order.
    """
    graphs = list(graphs)
    candidates = [graph for graph in graphs if graph.num_nodes > 0]
    if not candidates:
        return graphs
    offsets = np.zeros(len(candidates) + 1, dtype=np.int64)
    np.cumsum([graph.num_nodes for graph in candidates], out=offsets[1:])
    shift = np.repeat(
        offsets[:-1], [graph.num_edges for graph in candidates]
    )
    columns = [graph.edge_arrays() for graph in candidates]
    adjacency = symmetric_adjacency(
        np.concatenate([src for src, _ in columns]) + shift,
        np.concatenate([dst for _, dst in columns]) + shift,
        int(offsets[-1]),
    )
    stacked = _pack_centrality(adjacency, offsets, max_batch_nodes)
    bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    for graph, (lo, hi) in zip(candidates, bounds):
        _attach(graph, stacked[lo:hi].copy())
    return graphs


def _pack_centrality(
    adjacency: sp.csr_matrix,
    offsets: np.ndarray,
    max_batch_nodes: "int | None",
) -> np.ndarray:
    """Centralities of a symmetric block-diagonal adjacency, one sweep
    per contiguous run of graphs under the node budget."""
    bounds = offsets.tolist()
    out = np.empty((bounds[-1], _CENTRALITY_DIMS), dtype=np.float64)
    for run in plan_packs(
        np.diff(offsets), max_batch_nodes, size_sort=False
    ):
        first, last = int(run[0]), int(run[-1]) + 1
        lo, hi = bounds[first], bounds[last]
        block = _diagonal_block(adjacency, lo, hi)
        out[lo:hi] = centrality_matrix_block_diagonal(
            block, offsets[first : last + 1] - lo, transpose=block
        )
    return out


def _attach(graph: AnyGraph, matrix: np.ndarray) -> None:
    """Attach a computed centrality matrix to either graph flavour."""
    if isinstance(graph, ArrayGraph):
        graph.centrality = matrix
        return
    for node in graph.nodes:
        node.centrality = matrix[node.node_id]
