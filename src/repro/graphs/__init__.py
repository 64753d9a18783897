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

Production has one graph representation: the columnar
:class:`ArrayGraph` (one slice graph) and :class:`GraphPack` (every
slice graph of a build in one node space) — node kind/ref/merge
columns, CSR-style segmented value bags, and flat edge
src/dst/value/timestamp columns (see :mod:`repro.graphs.arrays` for the
exact layout).  Every stage — extraction, both compression passes,
augmentation, feature assembly, GNN encoding — runs on them end to end.
The per-node/per-edge object model (``AddressGraph``) lives only in
:mod:`repro.graphs.reference`, next to the pure-Python oracles the
tests hold the columnar kernels to, with conversions to and from
:class:`ArrayGraph`.
"""

from repro.graphs.arrays import ArrayGraph, GraphPack, KIND_CODES
from repro.graphs.augmentation import augment_graph, augment_pack
from repro.graphs.batched_centrality import centrality_matrix_block_diagonal
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
from repro.graphs.extraction import build_original_pack
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
from repro.graphs.model import NODE_FEATURE_DIM, NODE_KIND_ORDER, NodeKind
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
    "augment_pack",
    "centrality_matrix_block_diagonal",
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
    "build_original_pack",
    "FLAT_FEATURE_DIM",
    "flatten_dataset",
    "flatten_graph",
    "flatten_graphs",
    "normalized_adjacency",
    "normalized_adjacency_from_matrix",
    "symmetric_adjacency",
    "NODE_FEATURE_DIM",
    "NODE_KIND_ORDER",
    "NodeKind",
    "STAGE_NAMES",
    "GraphConstructionPipeline",
    "GraphPipelineConfig",
]
