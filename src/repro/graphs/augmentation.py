"""Stage 4 — graph structure augmentation (paper §III-A-3).

Attaches the four network centralities (degree, closeness, betweenness,
PageRank) to every node of a compressed address graph, so node features
carry "not only the semantic information of address transactions but also
the augmented graph structural characteristics".

Two entry points cover the two serving regimes:

- :func:`augment_graph` runs the centralities on one graph's CSR
  adjacency (:func:`repro.graphs.centrality.centrality_matrix_csr`).
- :func:`augment_graphs` — the pipeline's default Stage-4 path — packs a
  whole batch of slice graphs into block-diagonal CSR chunks of at most
  ``DEFAULT_MAX_BATCH_NODES`` (1024) nodes and runs each kernel once
  per chunk (:mod:`repro.graphs.batched_centrality`), amortising
  per-graph scipy/Python overhead across the batch.  Results are
  identical: a batch of one is bit-for-bit the per-graph path, mixed
  batches are pinned to 1e-9 parity.

Both paths solve PageRank (Eq. 11) exactly rather than iterating it:
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

from repro.graphs.arrays import ArrayGraph
from repro.graphs.batched_centrality import (
    DEFAULT_MAX_BATCH_NODES,
    centrality_matrix_block_diagonal,
    plan_packs,
)
from repro.graphs.centrality import centrality_matrix_csr
from repro.graphs.matrices import packed_adjacency
from repro.graphs.model import AddressGraph

__all__ = ["augment_graph", "augment_graphs"]

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


def augment_graphs(
    graphs: Sequence[AnyGraph],
    max_batch_nodes: "int | None" = DEFAULT_MAX_BATCH_NODES,
) -> List[AnyGraph]:
    """Stage 4 over a whole batch in block-diagonal sweeps (in place).

    The batched sibling of :func:`augment_graph` and the pipeline's
    default Stage-4 path (``GraphPipelineConfig.batch_stage4``): edge
    columns of up to ``max_batch_nodes`` nodes' worth of graphs are
    concatenated with per-graph node offsets into one block-diagonal
    CSR, the closeness/Brandes sweeps and the PageRank solve run once
    per chunk, and each graph receives its own ``(n_g, 4)`` slice of
    the stacked result (a fresh array, not a view into the pack).
    Accepts both graph flavours, in any mix; empty graphs are left
    unchanged exactly like :func:`augment_graph`.  Returns the input
    graphs as a list, in order, mutated in place.

    ``max_batch_nodes`` bounds the ``64 × N_batch`` dense scratch of
    the batched BFS (``None`` packs everything into one chunk); it is a
    performance knob only — chunking never changes results.
    """
    graphs = list(graphs)
    candidates = [graph for graph in graphs if graph.num_nodes > 0]
    if not candidates:
        return graphs
    sizes = [graph.num_nodes for graph in candidates]
    # Skew-aware packing: similar-sized graphs share packs so one giant
    # graph no longer serializes a chunk of small ones (see plan_packs).
    for pack in plan_packs(sizes, max_batch_nodes):
        chunk = [candidates[i] for i in pack]
        packed, offsets = packed_adjacency(chunk)
        stacked = centrality_matrix_block_diagonal(packed, offsets)
        for graph, lo, hi in zip(chunk, offsets[:-1], offsets[1:]):
            _attach(graph, stacked[int(lo) : int(hi)].copy())
    return graphs


def _attach(graph: AnyGraph, matrix: np.ndarray) -> None:
    """Attach a computed centrality matrix to either graph flavour."""
    if isinstance(graph, ArrayGraph):
        graph.centrality = matrix
        return
    for node in graph.nodes:
        node.centrality = matrix[node.node_id]
