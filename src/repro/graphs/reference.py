"""Reference graph construction: the object model and the parity oracles.

Production builds every graph as columns
(:class:`~repro.graphs.arrays.ArrayGraph`, packed per build into a
:class:`~repro.graphs.arrays.GraphPack`).  This module keeps the
readable per-node/per-edge formulation the columnar code is held to:

- **The object model** — :class:`AddressGraph` holding one
  :class:`GraphNode` / :class:`GraphEdge` per node/edge, the object
  Stage-1 builder :func:`build_original_graph` over the transaction
  slices of :func:`slice_transactions`, and the conversions
  :func:`to_array_graph` / :func:`to_address_graph`.  The conversions
  round-trip exactly on every structural column (kinds, refs, merge
  counts, value bags, edges, centrality); only ``edge_times`` is lost,
  because the object model has no edge-timestamp field (it reads back
  as 0.0).
- **Parity oracles** — the original pure-Python implementations of the
  centrality measures (Eq. 8–11), the two compression passes (Eq.
  1–7), and the Lee et al. 80-feature extractor, kept verbatim from
  before the CSR/ndarray rewrite of :mod:`repro.graphs.centrality`,
  :mod:`repro.graphs.compression` and
  :mod:`repro.features.address_features`.
  ``tests/test_vectorized_parity.py`` asserts the vectorized kernels
  reproduce them to 1e-9 on randomized graphs, and
  ``benchmarks/bench_pipeline_throughput.py`` measures the vectorized
  kernels' speedup against them.

None of it is exported from :mod:`repro.graphs`; nothing in the
production pipeline imports this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.chain.explorer import slice_order
from repro.chain.transaction import Transaction
from repro.errors import GraphConstructionError, ValidationError
from repro.features.sfe import sfe_matrix, sfe_vector, signed_log1p
from repro.graphs.arrays import KIND_CODES, ArrayGraph
from repro.graphs.model import (
    _CENTRALITY_DIMS,
    NODE_FEATURE_DIM,
    NODE_KIND_ORDER,
    NodeKind,
)

__all__ = [
    "AddressGraph",
    "GraphEdge",
    "GraphNode",
    "build_original_graph",
    "slice_transactions",
    "to_address_graph",
    "to_array_graph",
    "reference_degree_centrality",
    "reference_closeness_centrality",
    "reference_betweenness_centrality",
    "reference_pagerank_centrality",
    "reference_centrality_matrix",
    "reference_compress_single_transaction_addresses",
    "reference_compress_multi_transaction_addresses",
    "reference_similarity_matrices",
    "reference_extract_address_features",
]


# --------------------------------------------------------------------- #
# Object model
# --------------------------------------------------------------------- #


@dataclass
class GraphNode:
    """A node: its kind, what it refers to, and its bag of edge values.

    ``merged_count`` records how many original nodes a hyper node absorbed
    (1 for unmerged nodes).
    """

    node_id: int
    kind: str
    ref: str
    values: List[float] = field(default_factory=list)
    merged_count: int = 1
    centrality: Optional[np.ndarray] = None

    def feature_vector(self, is_center: bool, raw: bool = False) -> np.ndarray:
        """Assemble the final fixed-width feature vector for this node.

        ``raw=True`` keeps the SFE statistics at satoshi magnitude (no
        signed-log compression) — the paper's Table II protocol for
        classical models, where raw scales sink scale-sensitive learners.
        """
        stats = sfe_vector(self.values)
        if not raw:
            stats = signed_log1p(stats)
        centrality = (
            self.centrality
            if self.centrality is not None
            else np.zeros(_CENTRALITY_DIMS, dtype=np.float64)
        )
        kind_onehot = np.zeros(len(NODE_KIND_ORDER), dtype=np.float64)
        kind_onehot[NODE_KIND_ORDER.index(self.kind)] = 1.0
        return np.concatenate(
            [stats, centrality, kind_onehot, [1.0 if is_center else 0.0]]
        )


@dataclass(frozen=True)
class GraphEdge:
    """A directed edge carrying the transferred amount in satoshis.

    ``src``/``dst`` are node ids; input-side edges run address → tx,
    output-side edges run tx → address.
    """

    src: int
    dst: int
    value: float


class AddressGraph:
    """One transaction-slice graph of a bitcoin address, as objects.

    Parameters
    ----------
    center_address:
        The address whose behaviour this graph describes.
    slice_index:
        Which chronological slice this graph covers.
    time_range:
        ``(first_timestamp, last_timestamp)`` of the slice.
    """

    def __init__(
        self,
        center_address: str,
        slice_index: int = 0,
        time_range: Tuple[float, float] = (0.0, 0.0),
    ):
        self.center_address = center_address
        self.slice_index = slice_index
        self.time_range = time_range
        self.nodes: List[GraphNode] = []
        self.edges: List[GraphEdge] = []
        self._node_by_ref: Dict[Tuple[str, str], int] = {}

    def add_node(self, kind: str, ref: str) -> int:
        """Add (or fetch) the node of ``kind`` referring to ``ref``."""
        key = (kind, ref)
        existing = self._node_by_ref.get(key)
        if existing is not None:
            return existing
        node_id = len(self.nodes)
        self.nodes.append(GraphNode(node_id=node_id, kind=kind, ref=ref))
        self._node_by_ref[key] = node_id
        return node_id

    def find_node(self, kind: str, ref: str) -> Optional[int]:
        """The node id of ``(kind, ref)`` or None."""
        return self._node_by_ref.get((kind, ref))

    def add_edge(self, src: int, dst: int, value: float) -> None:
        """Add a directed edge and append the value to both value bags."""
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise GraphConstructionError(
                f"edge ({src}, {dst}) references unknown nodes "
                f"(graph has {len(self.nodes)})"
            )
        self.edges.append(GraphEdge(src=src, dst=dst, value=float(value)))
        self.nodes[src].values.append(float(value))
        self.nodes[dst].values.append(float(value))

    def rebuild(
        self, nodes: List[GraphNode], edges: List[GraphEdge]
    ) -> "AddressGraph":
        """A new graph with the same identity but replaced structure.

        Used by the compression oracles; node ids are re-assigned
        densely in list order and edges must refer to the new ids.
        """
        out = AddressGraph(
            center_address=self.center_address,
            slice_index=self.slice_index,
            time_range=self.time_range,
        )
        for new_id, node in enumerate(nodes):
            node.node_id = new_id
            out.nodes.append(node)
            out._node_by_ref[(node.kind, node.ref)] = new_id
        out.edges = list(edges)
        return out

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.edges)

    def nodes_of_kind(self, kind: str) -> List[GraphNode]:
        """All nodes of the given kind."""
        return [node for node in self.nodes if node.kind == kind]

    def center_node_id(self) -> Optional[int]:
        """Node id of the centre address (if present)."""
        return self._node_by_ref.get((NodeKind.ADDRESS, self.center_address))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` ndarray columns of the directed edge list."""
        count = self.num_edges
        src = np.fromiter(
            (e.src for e in self.edges), dtype=np.int64, count=count
        )
        dst = np.fromiter(
            (e.dst for e in self.edges), dtype=np.int64, count=count
        )
        return src, dst

    def adjacency_lists(self) -> List[List[int]]:
        """Undirected adjacency lists (deduplicated neighbours)."""
        neighbors: List[set] = [set() for _ in range(self.num_nodes)]
        for edge in self.edges:
            neighbors[edge.src].add(edge.dst)
            neighbors[edge.dst].add(edge.src)
        return [sorted(n) for n in neighbors]

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Symmetric unweighted adjacency as a CSR sparse matrix."""
        n = self.num_nodes
        if not self.edges:
            return sp.csr_matrix((n, n), dtype=np.float64)
        src, dst = self.edge_arrays()
        rows = np.concatenate([src, dst])
        cols = np.concatenate([dst, src])
        data = np.ones(rows.size, dtype=np.float64)
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        matrix.data[:] = 1.0  # collapse parallel edges
        return matrix

    def feature_matrix(self, raw: bool = False) -> np.ndarray:
        """Final node-feature matrix, shape ``(num_nodes, NODE_FEATURE_DIM)``:
        per node ``[SFE(bag), centrality, kind one-hot, is-centre]``.

        ``raw=True`` keeps the SFE statistics at satoshi magnitude (no
        signed-log compression).
        """
        n = self.num_nodes
        if n == 0:
            return np.zeros((0, NODE_FEATURE_DIM), dtype=np.float64)
        stats = sfe_matrix([node.values for node in self.nodes])
        if not raw:
            stats = signed_log1p(stats)
        centrality = np.zeros((n, _CENTRALITY_DIMS), dtype=np.float64)
        for node in self.nodes:
            if node.centrality is not None:
                centrality[node.node_id] = node.centrality
        kind_onehot = np.zeros((n, len(NODE_KIND_ORDER)), dtype=np.float64)
        kind_index = np.fromiter(
            (NODE_KIND_ORDER.index(node.kind) for node in self.nodes),
            dtype=np.int64,
            count=n,
        )
        kind_onehot[np.arange(n), kind_index] = 1.0
        center_flag = np.zeros((n, 1), dtype=np.float64)
        center = self.center_node_id()
        if center is not None:
            center_flag[center, 0] = 1.0
        return np.hstack([stats, centrality, kind_onehot, center_flag])

    def total_edge_value(self) -> float:
        """Sum of transferred amounts over all edges (conservation checks)."""
        return float(sum(edge.value for edge in self.edges))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AddressGraph(center={self.center_address[:10]}…, "
            f"slice={self.slice_index}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


def build_original_graph(
    center_address: str,
    transactions: Sequence[Transaction],
    slice_index: int = 0,
) -> AddressGraph:
    """The uncompressed heterogeneous graph of one transaction slice.

    Every transaction becomes a transaction node; every involved address
    becomes an address node.  Input-side edges run address → tx with the
    input value; output-side edges run tx → address with the output value.
    Multiple inputs/outputs between the same pair accumulate into the
    node value bags (each edge is kept individually).  The oracle of
    :func:`repro.graphs.extraction.build_original_pack`, which builds
    the same graph from the slice's interned
    :class:`~repro.chain.explorer.TxArrays` columns; a slice cut by
    :func:`slice_transactions` holds the transactions of the same slice
    of the production builder.
    """
    if not transactions:
        raise GraphConstructionError(
            f"cannot build a graph for {center_address[:12]} from zero transactions"
        )
    times = [tx.timestamp for tx in transactions]
    graph = AddressGraph(
        center_address=center_address,
        slice_index=slice_index,
        time_range=(min(times), max(times)),
    )
    for tx in transactions:
        tx_node = graph.add_node(NodeKind.TRANSACTION, tx.txid)
        for inp in tx.inputs:
            addr_node = graph.add_node(NodeKind.ADDRESS, inp.address)
            graph.add_edge(addr_node, tx_node, inp.value)
        for out in tx.outputs:
            addr_node = graph.add_node(NodeKind.ADDRESS, out.address)
            graph.add_edge(tx_node, addr_node, out.value)
    return graph


def slice_transactions(
    transactions: Sequence[Transaction], slice_size: int
) -> List[List[Transaction]]:
    """Chronological slices of at most ``slice_size`` transactions.

    Ordered by :func:`repro.chain.explorer.slice_order`, the order
    production Stage 1 slices in.
    """
    if slice_size <= 0:
        raise ValidationError(f"slice_size must be > 0, got {slice_size}")
    order = slice_order(
        [tx.timestamp for tx in transactions], [tx.txid for tx in transactions]
    )
    ordered = [transactions[i] for i in order.tolist()]
    return [
        ordered[start : start + slice_size]
        for start in range(0, len(ordered), slice_size)
    ]


def to_array_graph(graph: AddressGraph) -> ArrayGraph:
    """Columnar copy of an object-model graph (lossless; edge times 0.0)."""
    n = graph.num_nodes
    e = graph.num_edges
    refs = np.empty(n, dtype=object)
    for i, node in enumerate(graph.nodes):
        refs[i] = node.ref
    bag_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(node.values) for node in graph.nodes], out=bag_indptr[1:])
    centrality: Optional[np.ndarray] = None
    if any(node.centrality is not None for node in graph.nodes):
        centrality = np.zeros((n, _CENTRALITY_DIMS), dtype=np.float64)
        for node in graph.nodes:
            if node.centrality is not None:
                centrality[node.node_id] = node.centrality
    return ArrayGraph(
        center_address=graph.center_address,
        slice_index=graph.slice_index,
        time_range=graph.time_range,
        kind_codes=np.fromiter(
            (KIND_CODES[node.kind] for node in graph.nodes),
            dtype=np.int64,
            count=n,
        ),
        refs=refs,
        merged_counts=np.fromiter(
            (node.merged_count for node in graph.nodes),
            dtype=np.int64,
            count=n,
        ),
        bag_values=np.array(
            [v for node in graph.nodes for v in node.values], dtype=np.float64
        ),
        bag_indptr=bag_indptr,
        edge_src=np.fromiter(
            (edge.src for edge in graph.edges), dtype=np.int64, count=e
        ),
        edge_dst=np.fromiter(
            (edge.dst for edge in graph.edges), dtype=np.int64, count=e
        ),
        edge_values=np.fromiter(
            (edge.value for edge in graph.edges), dtype=np.float64, count=e
        ),
        edge_times=np.zeros(e, dtype=np.float64),
        centrality=centrality,
        center_id=graph.center_node_id(),
    )


def to_address_graph(graph: ArrayGraph) -> AddressGraph:
    """Object-model copy of a columnar graph (lossless except edge times)."""
    out = AddressGraph(
        center_address=graph.center_address,
        slice_index=graph.slice_index,
        time_range=graph.time_range,
    )
    indptr = graph.bag_indptr
    for i in range(graph.num_nodes):
        kind = NODE_KIND_ORDER[graph.kind_codes[i]]
        node = GraphNode(
            node_id=i,
            kind=kind,
            ref=graph.refs[i],
            values=graph.bag_values[indptr[i] : indptr[i + 1]].tolist(),
            merged_count=int(graph.merged_counts[i]),
            centrality=(
                graph.centrality[i] if graph.centrality is not None else None
            ),
        )
        out.nodes.append(node)
        out._node_by_ref[(kind, node.ref)] = i
    out.edges = [
        GraphEdge(src=int(s), dst=int(d), value=float(v))
        for s, d, v in zip(graph.edge_src, graph.edge_dst, graph.edge_values)
    ]
    return out


Adjacency = Sequence[Sequence[int]]


# --------------------------------------------------------------------- #
# Centrality (original per-node BFS / Brandes / edge-loop PageRank)
# --------------------------------------------------------------------- #


def _validate(adjacency: Adjacency) -> int:
    n = len(adjacency)
    for node, neighbors in enumerate(adjacency):
        for neighbor in neighbors:
            if not 0 <= neighbor < n:
                raise ValidationError(
                    f"adjacency[{node}] references unknown node {neighbor}"
                )
    return n


def reference_degree_centrality(adjacency: Adjacency) -> np.ndarray:
    """Degree divided by ``n − 1`` (1.0 = connected to everyone)."""
    n = _validate(adjacency)
    if n <= 1:
        return np.zeros(n, dtype=np.float64)
    degrees = np.array([len(nbrs) for nbrs in adjacency], dtype=np.float64)
    return degrees / (n - 1)


def _bfs_distances(adjacency: Adjacency, source: int) -> np.ndarray:
    n = len(adjacency)
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if dist[neighbor] < 0:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def reference_closeness_centrality(adjacency: Adjacency) -> np.ndarray:
    """Per-component closeness ``(r − 1) / Σ d`` (Eq. 9)."""
    n = _validate(adjacency)
    scores = np.zeros(n, dtype=np.float64)
    for node in range(n):
        dist = _bfs_distances(adjacency, node)
        reachable = dist >= 0
        r = int(reachable.sum())
        if r <= 1:
            continue
        total = float(dist[reachable].sum())
        if total > 0:
            scores[node] = (r - 1) / total
    return scores


def reference_betweenness_centrality(
    adjacency: Adjacency, normalized: bool = True
) -> np.ndarray:
    """Shortest-path betweenness via Brandes' accumulation (Eq. 10)."""
    n = _validate(adjacency)
    scores = np.zeros(n, dtype=np.float64)
    for source in range(n):
        stack: List[int] = []
        predecessors: List[List[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n, dtype=np.float64)
        sigma[source] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            stack.append(node)
            for neighbor in adjacency[node]:
                if dist[neighbor] < 0:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
                if dist[neighbor] == dist[node] + 1:
                    sigma[neighbor] += sigma[node]
                    predecessors[neighbor].append(node)
        delta = np.zeros(n, dtype=np.float64)
        while stack:
            node = stack.pop()
            for pred in predecessors[node]:
                delta[pred] += sigma[pred] / sigma[node] * (1.0 + delta[node])
            if node != source:
                scores[node] += delta[node]
    scores /= 2.0  # each undirected pair counted twice
    if normalized and n > 2:
        scores *= 2.0 / ((n - 1) * (n - 2))
    return scores


def reference_pagerank_centrality(
    adjacency: Adjacency,
    alpha: float = 0.85,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Power-iteration PageRank with dangling redistribution (Eq. 11)."""
    n = _validate(adjacency)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    out_degree = np.array([len(nbrs) for nbrs in adjacency], dtype=np.float64)
    dangling = out_degree == 0
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iterations):
        new_rank = np.full(n, (1.0 - alpha) / n, dtype=np.float64)
        dangling_mass = alpha * float(rank[dangling].sum()) / n
        new_rank += dangling_mass
        for node, neighbors in enumerate(adjacency):
            if not neighbors:
                continue
            share = alpha * rank[node] / out_degree[node]
            for neighbor in neighbors:
                new_rank[neighbor] += share
        if float(np.abs(new_rank - rank).sum()) < tolerance:
            rank = new_rank
            break
        rank = new_rank
    return rank


def reference_centrality_matrix(adjacency: Adjacency) -> np.ndarray:
    """All four centralities stacked: shape ``(n, 4)``."""
    return np.column_stack(
        [
            reference_degree_centrality(adjacency),
            reference_closeness_centrality(adjacency),
            reference_betweenness_centrality(adjacency),
            reference_pagerank_centrality(adjacency),
        ]
    )


# --------------------------------------------------------------------- #
# Compression (original per-edge / per-member set machinery)
# --------------------------------------------------------------------- #


def _distinct_neighbors(graph: AddressGraph) -> List[Set[int]]:
    neighbors: List[Set[int]] = [set() for _ in range(graph.num_nodes)]
    for edge in graph.edges:
        neighbors[edge.src].add(edge.dst)
        neighbors[edge.dst].add(edge.src)
    return neighbors


def _rebuild_with_merges(
    graph: AddressGraph,
    merge_groups: List[Tuple[str, str, List[int]]],
) -> AddressGraph:
    member_to_group: Dict[int, int] = {}
    for group_index, (_, _, members) in enumerate(merge_groups):
        for member in members:
            member_to_group[member] = group_index

    new_nodes: List[GraphNode] = []
    old_to_new: Dict[int, int] = {}
    for node in graph.nodes:
        if node.node_id in member_to_group:
            continue
        new_id = len(new_nodes)
        old_to_new[node.node_id] = new_id
        new_nodes.append(
            GraphNode(
                node_id=new_id,
                kind=node.kind,
                ref=node.ref,
                values=list(node.values),
                merged_count=node.merged_count,
                centrality=node.centrality,
            )
        )
    group_new_ids: List[int] = []
    for kind, ref, members in merge_groups:
        new_id = len(new_nodes)
        group_new_ids.append(new_id)
        bag: List[float] = []
        merged_count = 0
        for member in members:
            bag.extend(graph.nodes[member].values)
            merged_count += graph.nodes[member].merged_count
        new_nodes.append(
            GraphNode(
                node_id=new_id,
                kind=kind,
                ref=ref,
                values=bag,
                merged_count=merged_count,
            )
        )

    def resolve(old_id: int) -> int:
        group = member_to_group.get(old_id)
        if group is not None:
            return group_new_ids[group]
        return old_to_new[old_id]

    aggregated: Dict[Tuple[int, int], float] = {}
    order: List[Tuple[int, int]] = []
    for edge in graph.edges:
        key = (resolve(edge.src), resolve(edge.dst))
        if key not in aggregated:
            aggregated[key] = 0.0
            order.append(key)
        aggregated[key] += edge.value

    new_edges = [
        GraphEdge(src=src, dst=dst, value=aggregated[(src, dst)])
        for src, dst in order
    ]
    return graph.rebuild(new_nodes, new_edges)


def reference_compress_single_transaction_addresses(
    graph: AddressGraph,
) -> AddressGraph:
    """Merge degree-1 address nodes per transaction and side (Fig. 3)."""
    neighbors = _distinct_neighbors(graph)
    center_id = graph.center_node_id()

    in_side: Dict[int, Set[int]] = {}
    out_side: Dict[int, Set[int]] = {}
    for edge in graph.edges:
        src_node = graph.nodes[edge.src]
        dst_node = graph.nodes[edge.dst]
        if src_node.kind == NodeKind.ADDRESS and dst_node.kind == NodeKind.TRANSACTION:
            in_side.setdefault(edge.dst, set()).add(edge.src)
        elif src_node.kind == NodeKind.TRANSACTION and dst_node.kind == NodeKind.ADDRESS:
            out_side.setdefault(edge.src, set()).add(edge.dst)

    merge_groups: List[Tuple[str, str, List[int]]] = []
    for tx_id, side_map, tag in (
        *((tx, in_side, "in") for tx in in_side),
        *((tx, out_side, "out") for tx in out_side),
    ):
        members = []
        other = out_side if tag == "in" else in_side
        for addr_id in sorted(side_map[tx_id]):
            node = graph.nodes[addr_id]
            if addr_id == center_id or node.kind != NodeKind.ADDRESS:
                continue
            if len(neighbors[addr_id]) != 1:
                continue  # multi-transaction address
            if addr_id in other.get(tx_id, ()):  # appears on both sides
                continue
            members.append(addr_id)
        if len(members) >= 2:
            tx_ref = graph.nodes[tx_id].ref
            merge_groups.append(
                (NodeKind.SINGLE_HYPER, f"s:{tx_ref}:{tag}", members)
            )

    if not merge_groups:
        return graph
    return _rebuild_with_merges(graph, merge_groups)


def reference_similarity_matrices(
    graph: AddressGraph,
) -> Tuple[List[int], List[int], np.ndarray, np.ndarray]:
    """The incidence and similarity matrices of Eq. (3)–(4)."""
    neighbors = _distinct_neighbors(graph)
    center_id = graph.center_node_id()
    tx_ids = [n.node_id for n in graph.nodes if n.kind == NodeKind.TRANSACTION]
    tx_index = {tx: i for i, tx in enumerate(tx_ids)}
    multi_ids = [
        node.node_id
        for node in graph.nodes
        if node.kind == NodeKind.ADDRESS
        and node.node_id != center_id
        and len(neighbors[node.node_id]) >= 2
    ]
    n, d = len(multi_ids), len(tx_ids)
    incidence = np.zeros((n, d), dtype=np.float64)
    for row, addr_id in enumerate(multi_ids):
        for neighbor in neighbors[addr_id]:
            col = tx_index.get(neighbor)
            if col is not None:
                incidence[row, col] = 1.0
    shared = incidence @ incidence.T
    diagonal = np.diag(shared).copy()
    safe = np.where(diagonal > 0, diagonal, 1.0)
    similarity = shared / safe[np.newaxis, :]
    return multi_ids, tx_ids, shared, similarity


def reference_compress_multi_transaction_addresses(
    graph: AddressGraph,
    psi: float = 0.6,
    sigma: int = 2,
) -> AddressGraph:
    """Merge co-occurring multi-transaction address nodes (Eq. 3–7)."""
    if not 0.0 < psi <= 1.0:
        raise ValidationError(f"psi must be in (0, 1], got {psi}")
    if sigma < 1:
        raise ValidationError(f"sigma must be >= 1, got {sigma}")

    multi_ids, _, _, similarity = reference_similarity_matrices(graph)
    if len(multi_ids) < 2:
        return graph

    thresholded = np.maximum(0.0, similarity - psi)  # Eq. (5)
    nonzero_counts = (thresholded > 0.0).sum(axis=1)

    merged: Set[int] = set()
    merge_groups: List[Tuple[str, str, List[int]]] = []
    for row in np.argsort(-nonzero_counts):
        row = int(row)
        if nonzero_counts[row] <= sigma or row in merged:
            continue
        similar_rows = [
            int(col)
            for col in np.flatnonzero(thresholded[row] > 0.0)
            if int(col) not in merged
        ]
        if len(similar_rows) < 2:
            continue
        merged.update(similar_rows)
        members = [multi_ids[col] for col in similar_rows]
        anchor_ref = graph.nodes[multi_ids[row]].ref
        merge_groups.append((NodeKind.MULTI_HYPER, f"m:{anchor_ref}", members))

    if not merge_groups:
        return graph
    return _rebuild_with_merges(graph, merge_groups)


# --------------------------------------------------------------------- #
# Lee et al. features (original per-transaction Python loops)
# --------------------------------------------------------------------- #

_BASIC_DIMS = 8
_STRUCTURE_DIMS = 12
_SECONDS_PER_DAY = 86_400.0


def reference_extract_address_features(
    index, address: str, raw: bool = False
) -> np.ndarray:
    """The 80-dimensional Lee et al. feature vector (original loops)."""
    records = index.records_for(address)
    transactions = index.transactions_of(address)

    received: List[float] = []
    spent: List[float] = []
    net_flows: List[float] = []
    n_in = n_out = n_self = n_coinbase = 0
    for record, tx in zip(records, transactions):
        net_flows.append(float(record.net_value))
        if record.net_value > 0:
            n_in += 1
            received.append(float(record.net_value))
        elif record.net_value < 0:
            n_out += 1
            spent.append(float(-record.net_value))
        else:
            n_self += 1
        if tx.is_coinbase:
            n_coinbase += 1

    n_tx = len(records)
    timestamps = np.array([r.timestamp for r in records], dtype=np.float64)
    lifetime = float(timestamps[-1] - timestamps[0]) if n_tx > 1 else 0.0
    intervals = np.diff(timestamps) if n_tx > 1 else np.zeros(0)

    basic = np.array(
        [
            n_tx,
            n_in,
            n_out,
            n_self,
            n_coinbase,
            n_in / n_tx if n_tx else 0.0,
            n_out / n_tx if n_tx else 0.0,
            lifetime,
        ],
        dtype=np.float64,
    )

    structure = _reference_structure_features(transactions, address, lifetime)

    vector = np.concatenate(
        [
            basic,
            sfe_vector(received),
            sfe_vector(spent),
            sfe_vector(net_flows),
            sfe_vector(intervals),
            structure,
        ]
    )
    if raw:
        return vector
    return signed_log1p(vector)


def _reference_structure_features(
    transactions: Sequence, address: str, lifetime: float
) -> np.ndarray:
    """12 structural aggregates over the address's transactions."""
    if not transactions:
        return np.zeros(_STRUCTURE_DIMS, dtype=np.float64)

    input_counts = []
    output_counts = []
    fees = []
    counterparties = set()
    fanout_txs = 0
    fanin_txs = 0
    sender_txs = 0
    for tx in transactions:
        input_counts.append(len(tx.inputs))
        output_counts.append(len(tx.outputs))
        counterparties.update(tx.addresses())
        is_sender = any(inp.address == address for inp in tx.inputs)
        if is_sender:
            sender_txs += 1
            fees.append(float(tx.fee))
            if len(tx.outputs) > 5:
                fanout_txs += 1
        if any(out.address == address for out in tx.outputs) and len(tx.inputs) > 5:
            fanin_txs += 1
    counterparties.discard(address)

    n_tx = len(transactions)
    lifetime_days = max(lifetime / _SECONDS_PER_DAY, 1e-9)
    return np.array(
        [
            float(np.mean(input_counts)),
            float(np.max(input_counts)),
            float(np.mean(output_counts)),
            float(np.max(output_counts)),
            float(len(counterparties)),
            len(counterparties) / n_tx,
            float(np.sum(fees)) if fees else 0.0,
            float(np.mean(fees)) if fees else 0.0,
            sender_txs / n_tx,
            fanout_txs / max(sender_txs, 1),
            fanin_txs / n_tx,
            n_tx / lifetime_days,
        ],
        dtype=np.float64,
    )
