"""Graph Feature Network — the paper's graph representation model (§III-B).

GFN (Chen, Bian & Sun, 2019) replaces stacked graph convolutions with a
*feature-propagation* preprocessing step followed by a plain node MLP:

- **Graph feature augmentation** (Eq. 13):
  ``X_G = [d, X, ÃX, Ã²X, …, ÃᵏX]`` — degrees plus k powers of the
  renormalised adjacency applied to the raw node features.  This is
  computed once per graph (no gradients flow through Ã), which is the
  source of GFN's training-speed advantage in the paper's Figure 5.
  Production computes it while encoding, for a whole build at once:
  :func:`repro.gnn.data.encode_pack` propagates over the packed Ã and
  stores each graph's rows in its ``gfn_k{k}`` cache entry.
  :func:`augment_features` is the per-graph definition; it returns
  that entry, and computes and stores it for graphs encoded without
  one.
- **Node representation learning** (Eq. 14): an MLP on the augmented
  features.
- **Graph readout** (Eq. 15): SUM pooling, then a linear classifier.

The pre-classifier graph embedding is what the address-classification
stage consumes.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.gnn.base import GraphClassifier
from repro.gnn.data import EncodedGraph, gfn_cache_key
from repro.gnn.readout import sum_readout
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator

__all__ = ["GFN", "augment_features"]


def augment_features(graph: EncodedGraph, k: int) -> np.ndarray:
    """Eq. 13: ``[d, X, ÃX, …, ÃᵏX]`` for one encoded graph (cached)."""
    cache_key = gfn_cache_key(k)
    cached = graph.cache.get(cache_key)
    if cached is not None:
        return cached
    degrees = np.asarray(graph.adjacency.sum(axis=1)).reshape(-1, 1)
    blocks = [degrees, graph.features]
    propagated = graph.features
    for _ in range(k):
        propagated = np.asarray(graph.adjacency @ propagated)
        blocks.append(propagated)
    augmented = np.concatenate(blocks, axis=1)
    graph.cache[cache_key] = augmented
    return augmented


class GFN(GraphClassifier):
    """Graph Feature Network classifier.

    Parameters
    ----------
    input_dim:
        Raw node-feature width (``NODE_FEATURE_DIM``).
    num_classes:
        Output classes.
    hidden_dim:
        Width of the node MLP and of the graph embedding.
    k:
        Propagation depth of the feature augmentation (Eq. 13).
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        hidden_dim: int = 64,
        k: int = 2,
        rng: "int | np.random.Generator | None" = None,
    ):
        super().__init__()
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
        generator = as_generator(rng)
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.hidden_dim = hidden_dim
        self.embedding_dim = hidden_dim
        self.k = k
        augmented_dim = 1 + input_dim * (k + 1)
        self.node_layer1 = Linear(augmented_dim, hidden_dim, rng=generator)
        self.node_layer2 = Linear(hidden_dim, hidden_dim, rng=generator)
        self.classifier = Linear(hidden_dim, num_classes, rng=generator)

    # ------------------------------------------------------------------ #
    # Batch assembly (numpy side)
    # ------------------------------------------------------------------ #

    def prepare_batch(self, graphs: Sequence[EncodedGraph]) -> Dict:
        """Concatenate augmented features + segment ids for readout."""
        features = np.concatenate(
            [augment_features(g, self.k) for g in graphs], axis=0
        )
        segments = np.concatenate(
            [np.full(g.num_nodes, i, dtype=np.int64) for i, g in enumerate(graphs)]
        )
        return {
            "features": features,
            "segments": segments,
            "num_graphs": len(graphs),
            "labels": np.array([g.label for g in graphs], dtype=np.int64),
        }

    # ------------------------------------------------------------------ #
    # Differentiable computation
    # ------------------------------------------------------------------ #

    def embed(self, payload: Dict) -> Tensor:
        x = Tensor(payload["features"])
        hidden = F.relu(self.node_layer1(x))
        hidden = F.relu(self.node_layer2(hidden))
        return sum_readout(hidden, payload["segments"], payload["num_graphs"])

    def forward(self, payload: Dict) -> Tensor:
        return self.classifier(self.embed(payload))
