"""Graph neural networks: GFN (the paper's model), GCN and DiffPool.

All three share the :class:`~repro.gnn.base.GraphClassifier` interface
(batch preparation → logits / embeddings) and the
:func:`~repro.gnn.training.fit_graph_classifier` training loop.
"""

from repro.gnn.base import GraphClassifier
from repro.gnn.data import (
    EncodedGraph,
    GraphBatch,
    build_encoded,
    encode_graph,
    encode_pack,
)
from repro.gnn.diffpool import DiffPool
from repro.gnn.gcn import GCN
from repro.gnn.gfn import GFN, augment_features
from repro.gnn import plans  # noqa: F401  (registers inference-plan lowerings)
from repro.gnn.readout import mean_readout, sum_readout
from repro.gnn.training import (
    GraphTrainingConfig,
    class_weight_vector,
    fit_graph_classifier,
)

__all__ = [
    "GraphClassifier",
    "EncodedGraph",
    "GraphBatch",
    "build_encoded",
    "encode_graph",
    "encode_pack",
    "DiffPool",
    "GCN",
    "GFN",
    "augment_features",
    "mean_readout",
    "sum_readout",
    "GraphTrainingConfig",
    "class_weight_vector",
    "fit_graph_classifier",
]
