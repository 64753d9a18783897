"""``ArrayGraph`` — the columnar (ndarray-backed) slice-graph substrate.

Every production graph is a handful of flat arrays rather than one
Python object per node and edge: building, compressing and re-building
tens of thousands of small objects per query would dominate the
serving path (paper Table V: graph construction dominates end-to-end
latency).  ``ArrayGraph`` holds one slice graph and :class:`GraphPack`
the graphs of one build, so every pipeline stage stays in array land
from Stage-1 extraction through GNN encoding.  The per-node object
model survives only as the reference formulation in
:mod:`repro.graphs.reference`, which converts to and from these
columns.

Layout
------

Node columns (all length ``num_nodes``):

``kind_codes``
    ``int64`` index into :data:`~repro.graphs.model.NODE_KIND_ORDER`
    (0=address, 1=tx, 2=s_hyper, 3=m_hyper).
``refs``
    ``object`` array of reference strings (address, txid, or hyper-node
    tag) — object dtype so compression can gather survivors with one
    fancy-indexing pass.
``merged_counts``
    ``int64`` — how many original nodes each node absorbed (1 for
    unmerged nodes).
``bag_values`` / ``bag_indptr``
    CSR-style segmented value bags: node ``i``'s transferred-amount bag
    (the input to SFE, Eq. 1–2) is
    ``bag_values[bag_indptr[i]:bag_indptr[i + 1]]``.
``centrality``
    ``None`` before Stage 4; afterwards the ``(num_nodes, 4)`` matrix of
    degree/closeness/betweenness/PageRank centralities (Eq. 8–11).

Edge columns (all length ``num_edges``, directed; input-side edges run
address → tx, output-side edges tx → address):

``edge_src`` / ``edge_dst``
    ``int64`` node ids.
``edge_values``
    ``float64`` transferred satoshis.  Compression aggregates parallel
    edges by summing values (Eq. 7's edge union).
``edge_times``
    ``float64`` timestamp of the transaction that produced each edge
    (0.0 for graphs converted from the reference object model, which
    carries no edge times); an aggregated edge keeps its first-seen
    member's timestamp.  No current feature consumes this column — it
    exists for the time-window workloads the chain-scale datasets need
    (temporal edge features, per-window slicing) so those can land
    without another Stage-1 rewrite.

Packs
-----

:class:`GraphPack` holds the graphs of one build in one global node
space: the same columns, concatenated, with each graph's edges and bag
offsets shifted by its node and bag offsets.  Stages 1–4 and encoding
run on packs (one numpy pass per stage for the whole build, not one
per graph);
:meth:`GraphPack.graphs` cuts per-graph :class:`ArrayGraph` views out
of a pack, and :meth:`GraphPack.of` packs graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.features.sfe import sfe_matrix_segments, signed_log1p
from repro.graphs.model import _CENTRALITY_DIMS, NODE_FEATURE_DIM, NODE_KIND_ORDER

__all__ = ["ArrayGraph", "GraphPack", "KIND_CODES"]


def _segment_ranges(lengths: np.ndarray, total: int) -> np.ndarray:
    """``[0..l0), [0..l1), ...`` concatenated — the ragged-range helper
    behind every segmented gather/scatter on this substrate."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


#: ``{kind string: int code}`` — the column encoding of node kinds.
KIND_CODES: Dict[str, int] = {
    kind: code for code, kind in enumerate(NODE_KIND_ORDER)
}


class ArrayGraph:
    """One transaction-slice graph of an address, stored columnar.

    See the module docstring for the exact array layout.  Instances are
    cheap to construct (no per-node/per-edge objects) and are what the
    :class:`~repro.graphs.pipeline.GraphConstructionPipeline` natively
    produces and transforms.
    """

    __slots__ = (
        "center_address",
        "slice_index",
        "time_range",
        "kind_codes",
        "refs",
        "merged_counts",
        "bag_values",
        "bag_indptr",
        "edge_src",
        "edge_dst",
        "edge_values",
        "edge_times",
        "centrality",
        "_center_id",
    )

    def __init__(
        self,
        center_address: str,
        slice_index: int,
        time_range: Tuple[float, float],
        kind_codes: np.ndarray,
        refs: np.ndarray,
        merged_counts: np.ndarray,
        bag_values: np.ndarray,
        bag_indptr: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_values: np.ndarray,
        edge_times: np.ndarray,
        centrality: Optional[np.ndarray] = None,
        center_id: Optional[int] = None,
    ):
        n = kind_codes.shape[0]
        if not (refs.shape[0] == merged_counts.shape[0] == n):
            raise ValidationError(
                f"inconsistent node columns: kinds={n}, refs={refs.shape[0]}, "
                f"merged={merged_counts.shape[0]}"
            )
        if bag_indptr.shape[0] != n + 1:
            raise ValidationError(
                f"bag_indptr must have {n + 1} entries, got {bag_indptr.shape[0]}"
            )
        if bag_indptr[0] != 0 or bag_indptr[-1] != bag_values.shape[0]:
            raise ValidationError(
                f"bag_indptr must span [0, {bag_values.shape[0]}], got "
                f"[{bag_indptr[0]}, {bag_indptr[-1]}]"
            )
        if n and np.any(np.diff(bag_indptr) < 0):
            raise ValidationError("bag_indptr must be non-decreasing")
        e = edge_src.shape[0]
        if not (edge_dst.shape[0] == edge_values.shape[0] == edge_times.shape[0] == e):
            raise ValidationError("inconsistent edge columns")
        self.center_address = center_address
        self.slice_index = slice_index
        self.time_range = time_range
        self.kind_codes = kind_codes
        self.refs = refs
        self.merged_counts = merged_counts
        self.bag_values = bag_values
        self.bag_indptr = bag_indptr
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_values = edge_values
        self.edge_times = edge_times
        self.centrality = centrality
        self._center_id = center_id

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.kind_codes.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.edge_src.shape[0]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the node/edge columns (cache accounting)."""
        total = (
            self.kind_codes.nbytes
            + self.refs.nbytes
            + self.merged_counts.nbytes
            + self.bag_values.nbytes
            + self.bag_indptr.nbytes
            + self.edge_src.nbytes
            + self.edge_dst.nbytes
            + self.edge_values.nbytes
            + self.edge_times.nbytes
        )
        if self.centrality is not None:
            total += self.centrality.nbytes
        return int(total)

    def center_node_id(self) -> Optional[int]:
        """Node id of the centre address (if present)."""
        return self._center_id

    def nodes_of_kind(self, kind: str) -> np.ndarray:
        """Node ids of the given kind (ascending)."""
        return np.flatnonzero(self.kind_codes == KIND_CODES[kind])

    def node_values(self, node_id: int) -> np.ndarray:
        """The value bag of one node (a zero-copy view)."""
        return self.bag_values[
            self.bag_indptr[node_id] : self.bag_indptr[node_id + 1]
        ]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` ndarray columns of the directed edge list."""
        return self.edge_src, self.edge_dst

    def total_edge_value(self) -> float:
        """Sum of transferred amounts over all edges (conservation checks)."""
        return float(self.edge_values.sum())

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Symmetric unweighted adjacency as a CSR sparse matrix."""
        n = self.num_nodes
        if self.num_edges == 0:
            return sp.csr_matrix((n, n), dtype=np.float64)
        rows = np.concatenate([self.edge_src, self.edge_dst])
        cols = np.concatenate([self.edge_dst, self.edge_src])
        data = np.ones(rows.size, dtype=np.float64)
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        matrix.data[:] = 1.0  # collapse parallel edges
        return matrix

    def adjacency_lists(self) -> List[List[int]]:
        """Undirected adjacency lists (deduplicated neighbours)."""
        matrix = self.adjacency_matrix()
        indices, indptr = matrix.indices, matrix.indptr
        return [
            sorted(indices[indptr[i] : indptr[i + 1]].tolist())
            for i in range(self.num_nodes)
        ]

    def degrees(self) -> np.ndarray:
        """Undirected degree (distinct neighbours) per node."""
        return np.diff(self.adjacency_matrix().indptr).astype(np.float64)

    def feature_matrix(self, raw: bool = False) -> np.ndarray:
        """Final node-feature matrix, shape ``(num_nodes, NODE_FEATURE_DIM)``.

        One segmented SFE pass directly over the stored bag arrays (no
        per-node bag materialisation) plus columnar centrality / kind /
        centre-flag assembly; identical to the reference object model's
        ``feature_matrix`` on the converted graph.  ``raw=True`` keeps SFE statistics at satoshi magnitude.
        """
        n = self.num_nodes
        if n == 0:
            return np.zeros((0, NODE_FEATURE_DIM), dtype=np.float64)
        stats = sfe_matrix_segments(self.bag_values, self.bag_indptr)
        if not raw:
            stats = signed_log1p(stats)
        if self.centrality is not None:
            centrality = self.centrality
        else:
            centrality = np.zeros((n, _CENTRALITY_DIMS), dtype=np.float64)
        kind_onehot = np.zeros((n, len(NODE_KIND_ORDER)), dtype=np.float64)
        kind_onehot[np.arange(n), self.kind_codes] = 1.0
        center_flag = np.zeros((n, 1), dtype=np.float64)
        if self._center_id is not None:
            center_flag[self._center_id, 0] = 1.0
        return np.hstack([stats, centrality, kind_onehot, center_flag])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayGraph(center={self.center_address[:10]}…, "
            f"slice={self.slice_index}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


@dataclass(eq=False)
class GraphPack:
    """Several slice graphs in one global node space.

    Graph ``g`` owns nodes ``node_offsets[g]:node_offsets[g + 1]`` and
    edges ``edge_offsets[g]:edge_offsets[g + 1]``; the node and edge
    columns are those of :class:`ArrayGraph`, concatenated in graph
    order, with ``edge_src``/``edge_dst`` holding global node ids and
    ``bag_indptr`` one CSR over every node.  ``centers`` holds each
    graph's centre as a global node id (``-1`` when it has none).
    ``centrality`` is ``None`` or the stacked ``(num_nodes, 4)`` rows;
    a pack cannot mix graphs with and without it.
    """

    center_addresses: List[str]
    slice_indices: List[int]
    time_ranges: List[Tuple[float, float]]
    node_offsets: np.ndarray
    edge_offsets: np.ndarray
    kind_codes: np.ndarray
    refs: np.ndarray
    merged_counts: np.ndarray
    bag_values: np.ndarray
    bag_indptr: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_values: np.ndarray
    edge_times: np.ndarray
    centers: np.ndarray
    centrality: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.center_addresses)

    @property
    def num_nodes(self) -> int:
        """Nodes over every graph of the pack."""
        return self.kind_codes.shape[0]

    @property
    def num_edges(self) -> int:
        """Directed edges over every graph of the pack."""
        return self.edge_src.shape[0]

    @classmethod
    def of(cls, graphs: Sequence[ArrayGraph]) -> "GraphPack":
        """Pack ``graphs`` (in order) into one node space."""
        if not graphs:
            raise ValidationError("cannot pack zero graphs")
        with_centrality = sum(g.centrality is not None for g in graphs)
        if 0 < with_centrality < len(graphs):
            raise ValidationError(
                "cannot pack graphs with and without centrality"
            )
        node_offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
        np.cumsum([g.num_nodes for g in graphs], out=node_offsets[1:])
        edge_offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
        np.cumsum([g.num_edges for g in graphs], out=edge_offsets[1:])
        bag_offsets = np.zeros(len(graphs), dtype=np.int64)
        np.cumsum([g.bag_values.size for g in graphs[:-1]], out=bag_offsets[1:])
        shift = np.repeat(node_offsets[:-1], np.diff(edge_offsets))
        centers = np.array(
            [
                -1 if g.center_node_id() is None else g.center_node_id()
                for g in graphs
            ],
            dtype=np.int64,
        )
        bag_indptr = np.zeros(int(node_offsets[-1]) + 1, dtype=np.int64)
        bag_indptr[1:] = np.concatenate(
            [g.bag_indptr[1:] for g in graphs]
        ) + np.repeat(bag_offsets, np.diff(node_offsets))
        return cls(
            [g.center_address for g in graphs],
            [g.slice_index for g in graphs],
            [g.time_range for g in graphs],
            node_offsets,
            edge_offsets,
            np.concatenate([g.kind_codes for g in graphs]),
            np.concatenate([g.refs for g in graphs]),
            np.concatenate([g.merged_counts for g in graphs]),
            np.concatenate([g.bag_values for g in graphs]),
            bag_indptr,
            np.concatenate([g.edge_src for g in graphs]) + shift,
            np.concatenate([g.edge_dst for g in graphs]) + shift,
            np.concatenate([g.edge_values for g in graphs]),
            np.concatenate([g.edge_times for g in graphs]),
            np.where(centers >= 0, centers + node_offsets[:-1], -1),
            (
                np.concatenate([g.centrality for g in graphs])
                if with_centrality
                else None
            ),
        )

    def graphs(self) -> List[ArrayGraph]:
        """One :class:`ArrayGraph` per packed graph, in pack order.

        Node and edge columns are views into the pack; edge endpoints,
        bag offsets and the centre id are shifted back to local ids.
        """
        node_offsets = self.node_offsets.tolist()
        edge_offsets = self.edge_offsets.tolist()
        shift = np.repeat(self.node_offsets[:-1], np.diff(self.edge_offsets))
        edge_src = self.edge_src - shift
        edge_dst = self.edge_dst - shift
        centers = self.centers.tolist()
        out = []
        for g, (lo, hi, elo, ehi) in enumerate(
            zip(node_offsets, node_offsets[1:], edge_offsets, edge_offsets[1:])
        ):
            bag_indptr = self.bag_indptr[lo : hi + 1]
            out.append(
                ArrayGraph(
                    center_address=self.center_addresses[g],
                    slice_index=self.slice_indices[g],
                    time_range=self.time_ranges[g],
                    kind_codes=self.kind_codes[lo:hi],
                    refs=self.refs[lo:hi],
                    merged_counts=self.merged_counts[lo:hi],
                    bag_values=self.bag_values[bag_indptr[0] : bag_indptr[-1]],
                    bag_indptr=bag_indptr - bag_indptr[0],
                    edge_src=edge_src[elo:ehi],
                    edge_dst=edge_dst[elo:ehi],
                    edge_values=self.edge_values[elo:ehi],
                    edge_times=self.edge_times[elo:ehi],
                    centrality=(
                        None
                        if self.centrality is None
                        else self.centrality[lo:hi]
                    ),
                    center_id=centers[g] - lo if centers[g] >= 0 else None,
                )
            )
        return out

