"""Graph encoding and block-diagonal batching for GNN training.

An :class:`EncodedGraph` freezes an address graph into numeric form:
final node features plus the renormalised adjacency Ã (Eq. 12).
:func:`encode_graphs` encodes a whole batch of slice graphs in one
block-diagonal sweep and is the only encoder; :func:`encode_graph` and
:func:`encode_sequences` batch through it.  A
:class:`GraphBatch` stacks several encoded graphs into one disconnected
super-graph (block-diagonal Ã, concatenated features, and a segment-id
vector mapping nodes back to graphs for readout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.features.sfe import sfe_matrix_segments, signed_log1p
from repro.graphs.arrays import ArrayGraph
from repro.graphs.matrices import packed_adjacency
from repro.graphs.model import _CENTRALITY_DIMS, NODE_KIND_ORDER, AddressGraph

__all__ = [
    "EncodedGraph",
    "GraphBatch",
    "encode_graph",
    "encode_graphs",
    "encode_sequences",
]

#: Both graph flavours encode identically: the pipeline natively yields
#: :class:`~repro.graphs.arrays.ArrayGraph`, and object-model graphs are
#: converted with :meth:`~repro.graphs.arrays.ArrayGraph.from_address_graph`.
AnyGraph = Union[AddressGraph, ArrayGraph]


@dataclass
class EncodedGraph:
    """A numeric snapshot of one address-slice graph.

    ``cache`` holds model-specific precomputations (e.g. GFN's propagated
    feature matrix) keyed by a model-chosen string.
    """

    features: np.ndarray
    adjacency: sp.csr_matrix
    label: int
    address: str
    slice_index: int
    cache: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        """Per-node feature width."""
        return self.features.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the feature/adjacency tensors *and* any
        model-specific precomputations in ``cache`` (e.g. GFN's
        propagated feature matrix, which often dominates a warm entry).
        Recomputed on access, so it stays accurate after models add to
        ``cache`` post-construction."""
        adjacency = self.adjacency
        return int(
            self.features.nbytes
            + adjacency.data.nbytes
            + adjacency.indices.nbytes
            + adjacency.indptr.nbytes
            + sum(array.nbytes for array in self.cache.values())
        )


def encode_graph(graph: AnyGraph, label: int = -1) -> EncodedGraph:
    """Freeze one slice graph (either flavour) for training/inference:
    ``encode_graphs([graph], [label])[0]``."""
    return encode_graphs([graph], [label])[0]


def encode_graphs(
    graphs: Sequence[AnyGraph], labels: Optional[Sequence[int]] = None
) -> List[EncodedGraph]:
    """Freeze a batch of slice graphs (either flavour, in any mix).

    The one encoder behind training, offline prediction and serving.
    The batch is packed once (:func:`repro.graphs.matrices.packed_adjacency`):
    one ``A + I`` over the block-diagonal pack, degrees from one
    segmented row reduction, and Eq. 12's ``D̃^{-1/2}(A+I)D̃^{-1/2}``
    as ``(inv_sqrt[row] * a) * inv_sqrt[col]`` — the operation order of
    the per-graph oracle's ``(scale @ (A+I)) @ scale``.  Node features
    come from one SFE pass over the concatenated value bags.  Each graph
    then receives its own copies of its feature rows and CSR triple, so
    the result is bit-identical to encoding graph by graph
    (:meth:`~repro.graphs.arrays.ArrayGraph.feature_matrix` plus
    :func:`~repro.graphs.matrices.normalized_adjacency`).

    ``labels`` defaults to ``-1`` (unlabelled) for every graph.  An
    empty graph anywhere in the batch raises
    :class:`~repro.errors.ValidationError` naming its address.
    """
    for graph in graphs:
        if graph.num_nodes == 0:
            raise ValidationError(
                f"cannot encode empty graph for {graph.center_address[:12]}"
            )
    if labels is None:
        labels = [-1] * len(graphs)
    elif len(labels) != len(graphs):
        raise ValidationError(
            f"got {len(labels)} labels for {len(graphs)} graphs"
        )
    if not graphs:
        return []
    arrays = [
        graph if isinstance(graph, ArrayGraph)
        else ArrayGraph.from_address_graph(graph)
        for graph in graphs
    ]
    packed, offsets = packed_adjacency(arrays)
    features = _stacked_features(arrays, offsets)
    total = int(offsets[-1])
    with_loops = packed + sp.identity(total, format="csr")
    indptr, indices, values = (
        with_loops.indptr, with_loops.indices, with_loops.data
    )
    # Every row holds at least its self-loop, so no segment is empty
    # and no degree is zero.
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(values, indptr[:-1]))
    rows = np.repeat(np.arange(total), np.diff(indptr))
    data = (inv_sqrt[rows] * values) * inv_sqrt[indices]

    encoded: List[EncodedGraph] = []
    bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    for graph, label, (lo, hi) in zip(arrays, labels, bounds):
        start, stop = int(indptr[lo]), int(indptr[hi])
        adjacency = sp.csr_matrix(
            (
                data[start:stop].copy(),
                indices[start:stop] - lo,
                indptr[lo : hi + 1] - start,
            ),
            shape=(hi - lo, hi - lo),
        )
        encoded.append(
            EncodedGraph(
                features=features[lo:hi].copy(),
                adjacency=adjacency,
                label=int(label),
                address=graph.center_address,
                slice_index=graph.slice_index,
            )
        )
    return encoded


def _stacked_features(
    graphs: Sequence[ArrayGraph], offsets: np.ndarray
) -> np.ndarray:
    """Every graph's :meth:`~repro.graphs.arrays.ArrayGraph.feature_matrix`
    stacked in pack order, from one SFE pass over all value bags."""
    total = int(offsets[-1])
    bag_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(
        np.concatenate([np.diff(graph.bag_indptr) for graph in graphs]),
        out=bag_indptr[1:],
    )
    stats = signed_log1p(
        sfe_matrix_segments(
            np.concatenate([graph.bag_values for graph in graphs]),
            bag_indptr,
        )
    )
    centrality = np.zeros((total, _CENTRALITY_DIMS), dtype=np.float64)
    center_flag = np.zeros((total, 1), dtype=np.float64)
    for graph, lo in zip(graphs, offsets[:-1]):
        if graph.centrality is not None:
            centrality[lo : lo + graph.num_nodes] = graph.centrality
        center = graph.center_node_id()
        if center is not None:
            center_flag[lo + center, 0] = 1.0
    kind_onehot = np.zeros((total, len(NODE_KIND_ORDER)), dtype=np.float64)
    kind_onehot[
        np.arange(total),
        np.concatenate([graph.kind_codes for graph in graphs]),
    ] = 1.0
    return np.hstack([stats, centrality, kind_onehot, center_flag])


def encode_sequences(
    graphs_by_address: Dict[str, List[AnyGraph]],
    labels_by_address: Optional[Dict[str, int]] = None,
) -> Dict[str, List[EncodedGraph]]:
    """Encode every slice graph of every address, preserving slice order,
    in one :func:`encode_graphs` batch.  Addresses missing from
    ``labels_by_address`` (or all of them, when it is omitted) are
    labelled ``-1``."""
    labels_by_address = labels_by_address or {}
    ordered: Dict[str, List[AnyGraph]] = {
        address: sorted(graphs, key=lambda g: g.slice_index)
        for address, graphs in graphs_by_address.items()
    }
    flat = [graph for graphs in ordered.values() for graph in graphs]
    labels = [
        labels_by_address.get(address, -1)
        for address, graphs in ordered.items()
        for _ in graphs
    ]
    rows = iter(encode_graphs(flat, labels))
    return {
        address: [next(rows) for _ in graphs]
        for address, graphs in ordered.items()
    }


class GraphBatch:
    """Several encoded graphs stacked into one block-diagonal system."""

    def __init__(self, graphs: Sequence[EncodedGraph]):
        if not graphs:
            raise ValidationError("GraphBatch needs at least one graph")
        dims = {g.feature_dim for g in graphs}
        if len(dims) != 1:
            raise ValidationError(f"inconsistent feature dims in batch: {dims}")
        self.graphs = list(graphs)
        self.features = np.concatenate([g.features for g in graphs], axis=0)
        self.adjacency = sp.block_diag(
            [g.adjacency for g in graphs], format="csr"
        )
        self.segments = np.concatenate(
            [
                np.full(g.num_nodes, index, dtype=np.int64)
                for index, g in enumerate(graphs)
            ]
        )
        self.labels = np.array([g.label for g in graphs], dtype=np.int64)

    @property
    def num_graphs(self) -> int:
        """Number of graphs in the batch."""
        return len(self.graphs)

    @property
    def num_nodes(self) -> int:
        """Total node count across the batch."""
        return self.features.shape[0]
