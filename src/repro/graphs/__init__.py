"""Address graph construction: extraction, compression, augmentation.

Implements the paper's first component (§III-A): transactions of an
address become chronological slice graphs; node compression (Eq. 1–7)
bounds their size; centrality augmentation (Eq. 8–11) enriches node
features; :class:`GraphConstructionPipeline` chains the stages with the
per-stage timing of Table V.  Every stage runs once per build over a
:class:`GraphPack` of all slice graphs of the call; Stage 4
(:func:`augment_pack`) builds the pack's block-diagonal adjacency once
and runs the centrality kernels of
:mod:`repro.graphs.batched_centrality` over diagonal-block slices of
it, output-identical to the per-graph kernels (:func:`augment_graph`)
but with their scipy/Python overhead amortised across the build.

Two graph representations coexist:

- :class:`ArrayGraph` — the columnar (ndarray-backed) substrate the
  pipeline natively produces and transforms: node kind/ref/merge
  columns, CSR-style segmented value bags, and flat edge
  src/dst/value/timestamp columns (see :mod:`repro.graphs.arrays` for
  the exact layout).  Everything hot — extraction, both compression
  passes, augmentation, feature assembly, GNN encoding — stays in
  array land end to end.
- :class:`AddressGraph` — the per-node/per-edge object model, kept for
  inspection, the reference kernels, and any consumer that prefers
  objects.  Convert freely with ``AddressGraph.from_arrays(graph)`` /
  ``graph.to_arrays()`` (equivalently ``ArrayGraph.to_address_graph`` /
  ``.from_address_graph``); the conversions preserve every structural
  column exactly — the one exception is ``edge_times``, which the
  object model does not carry (it reads back as 0.0 after a round
  trip) — and the two flavours share the read API that downstream code
  uses (``feature_matrix``, ``adjacency_matrix``, ``edge_arrays``,
  ``center_node_id``...).
"""

from repro.graphs.arrays import ArrayGraph, GraphPack, KIND_CODES
from repro.graphs.augmentation import (
    augment_graph,
    augment_graphs,
    augment_pack,
)
from repro.graphs.batched_centrality import (
    batched_centrality_matrices,
    plan_packs,
    centrality_matrix_block_diagonal,
    pack_block_diagonal,
)
from repro.graphs.centrality import (
    betweenness_centrality,
    centrality_matrix,
    centrality_matrix_csr,
    closeness_centrality,
    degree_centrality,
    pagerank_centrality,
)
from repro.graphs.compression import (
    compress_multi_transaction_addresses,
    compress_multi_transaction_pack,
    compress_single_transaction_addresses,
    compress_single_transaction_pack,
    similarity_matrices,
)
from repro.graphs.extraction import (
    build_arrays_from_index,
    build_original_arrays,
    build_original_pack,
    build_original_graph,
    extract_array_graphs,
    extract_graphs,
    slice_transactions,
)
from repro.graphs.flatten import (
    FLAT_FEATURE_DIM,
    flatten_dataset,
    flatten_graph,
    flatten_graphs,
)
from repro.graphs.matrices import (
    normalized_adjacency,
    normalized_adjacency_from_matrix,
    symmetric_adjacency,
)
from repro.graphs.model import (
    NODE_FEATURE_DIM,
    NODE_KIND_ORDER,
    AddressGraph,
    GraphEdge,
    GraphNode,
    NodeKind,
)
from repro.graphs.pipeline import (
    STAGE_NAMES,
    GraphConstructionPipeline,
    GraphPipelineConfig,
)

__all__ = [
    "ArrayGraph",
    "GraphPack",
    "KIND_CODES",
    "augment_graph",
    "augment_graphs",
    "augment_pack",
    "batched_centrality_matrices",
    "centrality_matrix_block_diagonal",
    "pack_block_diagonal",
    "plan_packs",
    "betweenness_centrality",
    "centrality_matrix",
    "centrality_matrix_csr",
    "closeness_centrality",
    "degree_centrality",
    "pagerank_centrality",
    "compress_multi_transaction_addresses",
    "compress_multi_transaction_pack",
    "compress_single_transaction_addresses",
    "compress_single_transaction_pack",
    "similarity_matrices",
    "build_arrays_from_index",
    "build_original_arrays",
    "build_original_pack",
    "build_original_graph",
    "extract_array_graphs",
    "extract_graphs",
    "slice_transactions",
    "FLAT_FEATURE_DIM",
    "flatten_dataset",
    "flatten_graph",
    "flatten_graphs",
    "normalized_adjacency",
    "normalized_adjacency_from_matrix",
    "symmetric_adjacency",
    "NODE_FEATURE_DIM",
    "NODE_KIND_ORDER",
    "AddressGraph",
    "GraphEdge",
    "GraphNode",
    "NodeKind",
    "STAGE_NAMES",
    "GraphConstructionPipeline",
    "GraphPipelineConfig",
]
