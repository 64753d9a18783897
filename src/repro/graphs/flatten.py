"""Graph flattening for classical (non-graph) models — paper §IV-C-1.

Traditional models cannot consume graph structure, so the paper's Table II
protocol flattens each address graph: "aggregate feature vectors of all
input nodes and all output nodes of a target node ... generate the final
feature input by concatenating the aggregated feature vector of input
nodes, the feature vector of the target node, and the aggregated feature
vector of output nodes."

Here the target is the centre address node; its input side is the set of
neighbouring nodes that pay into it (edges towards the centre) and its
output side the set it pays into.  Aggregation is the element-wise mean;
an address with several slice graphs averages the per-slice vectors.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import GraphConstructionError
from repro.graphs.model import NODE_FEATURE_DIM

__all__ = ["FLAT_FEATURE_DIM", "flatten_graph", "flatten_graphs", "flatten_dataset"]

FLAT_FEATURE_DIM = 3 * NODE_FEATURE_DIM


def flatten_graph(graph, raw: bool = False) -> np.ndarray:
    """``[mean(input-side), centre, mean(output-side)]`` for one graph.

    ``raw=True`` keeps satoshi-magnitude SFE statistics (the paper's
    Table II protocol); the default applies signed-log compression.
    Neighbour sets come from the graph's ``edge_arrays()`` columns.
    """
    center = graph.center_node_id()
    if center is None:
        raise GraphConstructionError(
            f"graph for {graph.center_address[:12]} lacks its centre node"
        )
    features = graph.feature_matrix(raw=raw)
    src, dst = graph.edge_arrays()
    input_ids = np.unique(src[dst == center])
    output_ids = np.unique(dst[src == center])
    zero = np.zeros(NODE_FEATURE_DIM, dtype=np.float64)
    input_agg = features[input_ids].mean(axis=0) if input_ids.size else zero
    output_agg = features[output_ids].mean(axis=0) if output_ids.size else zero
    return np.concatenate([input_agg, features[center], output_agg])


def flatten_graphs(graphs: Sequence, raw: bool = False) -> np.ndarray:
    """Average of per-slice flattened vectors for one address."""
    if not graphs:
        raise GraphConstructionError("flatten_graphs needs at least one graph")
    return np.mean([flatten_graph(g, raw=raw) for g in graphs], axis=0)


def flatten_dataset(
    graphs_by_address: dict, addresses: Sequence[str]
) -> np.ndarray:
    """Stack flattened vectors for ``addresses`` (rows align with input)."""
    rows: List[np.ndarray] = [
        flatten_graphs(graphs_by_address[address]) for address in addresses
    ]
    if not rows:
        return np.zeros((0, FLAT_FEATURE_DIM), dtype=np.float64)
    return np.stack(rows)
