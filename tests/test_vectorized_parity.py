"""Parity of the vectorized kernels against the reference implementations.

The CSR/ndarray rewrites of centrality, compression, and feature
extraction must reproduce the original pure-Python kernels
(:mod:`repro.graphs.reference`) — exactly where the computation is
discrete (graph structure, integer distances), and to 1e-9 where
floating-point summation order differs (batched reductions accumulate in
a different order than per-node loops).
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chain import (
    AddressFactory,
    Blockchain,
    ChainParams,
    Mempool,
    Wallet,
    attach_index,
    btc,
)
from repro.features import (
    extract_address_features,
    extract_feature_matrix,
    sfe_matrix,
    sfe_vector,
)
from repro.graphs import (
    NodeKind,
    augment_graph,
    betweenness_centrality,
    centrality_matrix,
    centrality_matrix_csr,
    closeness_centrality,
    compress_multi_transaction_addresses,
    compress_single_transaction_addresses,
    degree_centrality,
    pagerank_centrality,
    similarity_matrices,
)
from repro.graphs.reference import (
    AddressGraph,
    reference_betweenness_centrality,
    reference_centrality_matrix,
    reference_closeness_centrality,
    reference_compress_multi_transaction_addresses,
    reference_compress_single_transaction_addresses,
    reference_degree_centrality,
    reference_extract_address_features,
    reference_pagerank_centrality,
    reference_similarity_matrices,
    to_address_graph,
    to_array_graph,
)


# --------------------------------------------------------------------- #
# Randomized structures
# --------------------------------------------------------------------- #


@st.composite
def random_adjacency(draw):
    """Random undirected adjacency lists: sparse enough to disconnect,
    optionally with self-loops; single-node graphs included."""
    n = draw(st.integers(min_value=1, max_value=25))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    self_loops = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i if self_loops else i + 1, n):
            if rng.random() < density:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return [sorted(neighbors) for neighbors in adjacency]


def _random_address_graph(seed: int) -> AddressGraph:
    """A random heterogeneous address/transaction graph with parallel
    edges — the input shape of the compression passes."""
    rng = np.random.default_rng(seed)
    graph = AddressGraph(center_address="center")
    graph.add_node(NodeKind.ADDRESS, "center")
    addr_ids = [0] + [
        graph.add_node(NodeKind.ADDRESS, f"a{i}")
        for i in range(int(rng.integers(1, 14)))
    ]
    tx_ids = [
        graph.add_node(NodeKind.TRANSACTION, f"t{i}")
        for i in range(int(rng.integers(1, 9)))
    ]
    for _ in range(int(rng.integers(0, 45))):
        address = addr_ids[int(rng.integers(len(addr_ids)))]
        tx = tx_ids[int(rng.integers(len(tx_ids)))]
        value = float(rng.integers(1, 10**9))
        if rng.random() < 0.5:
            graph.add_edge(address, tx, value)
        else:
            graph.add_edge(tx, address, value)
    return graph


def _assert_graphs_identical(actual: AddressGraph, expected: AddressGraph):
    assert actual.num_nodes == expected.num_nodes
    assert actual.num_edges == expected.num_edges
    for node, ref_node in zip(actual.nodes, expected.nodes):
        assert node.node_id == ref_node.node_id
        assert node.kind == ref_node.kind
        assert node.ref == ref_node.ref
        assert node.merged_count == ref_node.merged_count
        assert node.values == ref_node.values
    for edge, ref_edge in zip(actual.edges, expected.edges):
        assert (edge.src, edge.dst) == (ref_edge.src, ref_edge.dst)
        assert edge.value == ref_edge.value


# --------------------------------------------------------------------- #
# Centrality parity
# --------------------------------------------------------------------- #


class TestCentralityParity:
    @given(random_adjacency())
    @settings(max_examples=50, deadline=None)
    def test_all_four_measures(self, adjacency):
        np.testing.assert_allclose(
            degree_centrality(adjacency),
            reference_degree_centrality(adjacency),
            rtol=1e-9,
            atol=1e-9,
        )
        # Batched BFS distances are integral: closeness is bit-exact.
        np.testing.assert_array_equal(
            closeness_centrality(adjacency),
            reference_closeness_centrality(adjacency),
        )
        np.testing.assert_allclose(
            betweenness_centrality(adjacency),
            reference_betweenness_centrality(adjacency),
            rtol=1e-9,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            pagerank_centrality(adjacency),
            reference_pagerank_centrality(adjacency),
            rtol=1e-9,
            atol=1e-9,
        )

    @given(random_adjacency())
    @settings(max_examples=25, deadline=None)
    def test_stacked_matrix(self, adjacency):
        np.testing.assert_allclose(
            centrality_matrix(adjacency),
            reference_centrality_matrix(adjacency),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_multi_block_graph(self):
        """A graph wider than one BFS source block (n > BFS_BLOCK)."""
        rng = np.random.default_rng(7)
        n = 150
        adjacency = [set() for _ in range(n)]
        for i in range(n):
            for j in rng.choice(n, size=3, replace=False):
                if i != j:
                    adjacency[i].add(int(j))
                    adjacency[int(j)].add(i)
        adjacency = [sorted(neighbors) for neighbors in adjacency]
        np.testing.assert_allclose(
            centrality_matrix(adjacency),
            reference_centrality_matrix(adjacency),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_degenerate_graphs(self):
        for adjacency in ([], [[]], [[0]], [[], [], []]):
            ours = centrality_matrix(adjacency)
            theirs = reference_centrality_matrix(adjacency)
            np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-9)

    def test_csr_path_matches_list_path(self):
        graph = _random_address_graph(3)
        np.testing.assert_allclose(
            centrality_matrix_csr(graph.adjacency_matrix()),
            centrality_matrix(graph.adjacency_lists()),
            rtol=1e-9,
            atol=1e-9,
        )


# --------------------------------------------------------------------- #
# Compression parity
# --------------------------------------------------------------------- #


class TestCompressionParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_single_then_multi_identical(self, seed):
        graph = _random_address_graph(seed)
        single = compress_single_transaction_addresses(to_array_graph(graph))
        reference_single = reference_compress_single_transaction_addresses(
            copy.deepcopy(graph)
        )
        _assert_graphs_identical(to_address_graph(single), reference_single)
        multi = compress_multi_transaction_addresses(single, psi=0.4, sigma=1)
        reference_multi = reference_compress_multi_transaction_addresses(
            copy.deepcopy(reference_single), psi=0.4, sigma=1
        )
        _assert_graphs_identical(to_address_graph(multi), reference_multi)

    @pytest.mark.parametrize("seed", range(10))
    def test_similarity_matrices_identical(self, seed):
        graph = _random_address_graph(seed)
        multi_ids, tx_ids, shared, similarity = similarity_matrices(
            to_array_graph(graph)
        )
        (
            reference_multi_ids,
            reference_tx_ids,
            reference_shared,
            reference_similarity,
        ) = reference_similarity_matrices(graph)
        assert multi_ids == reference_multi_ids
        assert tx_ids == reference_tx_ids
        np.testing.assert_array_equal(shared, reference_shared)
        np.testing.assert_array_equal(similarity, reference_similarity)

    def test_edgeless_graph_is_noop(self):
        objects = AddressGraph(center_address="center")
        objects.add_node(NodeKind.ADDRESS, "center")
        graph = to_array_graph(objects)
        assert compress_single_transaction_addresses(graph) is graph
        assert compress_multi_transaction_addresses(graph) is graph


# --------------------------------------------------------------------- #
# Feature parity
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def feature_world():
    """A small economy with coinbases, spends, and multi-party txs."""
    factory = AddressFactory(11)
    chain = Blockchain(ChainParams(initial_subsidy=btc(50)))
    index = attach_index(chain)
    mempool = Mempool(chain.utxo_set)
    wallets = [
        Wallet(mempool.view(), factory, name=f"w{i}") for i in range(3)
    ]
    for wallet in wallets:
        wallet.new_address()
    clock = 0.0
    for wallet in wallets:
        clock += 600.0
        chain.mine_block(
            mempool.drain(),
            reward_address=wallet.addresses[0],
            timestamp=clock,
        )
    for round_index in range(6):
        clock += 600.0
        for i, wallet in enumerate(wallets):
            if wallet.balance() < btc(1):
                continue
            target = wallets[(i + 1) % len(wallets)].addresses[0]
            mempool.submit(
                wallet.create_transaction(
                    [(target, btc(0.5))], timestamp=clock + i, fee=1000
                )
            )
        chain.mine_block(
            mempool.drain(),
            reward_address=wallets[round_index % len(wallets)].addresses[0],
            timestamp=clock + len(wallets),
        )
    return index, [w.addresses[0] for w in wallets]


class TestFeatureParity:
    @pytest.mark.parametrize("raw", [False, True])
    def test_80_dim_vector_matches_reference(self, feature_world, raw):
        index, addresses = feature_world
        for address in addresses:
            np.testing.assert_allclose(
                extract_address_features(index, address, raw=raw),
                reference_extract_address_features(index, address, raw=raw),
                rtol=1e-9,
                atol=1e-9,
            )

    def test_matrix_fast_path_matches_per_address(self, feature_world):
        """The shared-column fast path must be bit-identical to looping."""
        index, addresses = feature_world
        matrix = extract_feature_matrix(index, addresses)
        for row, address in zip(matrix, addresses):
            np.testing.assert_array_equal(
                row, extract_address_features(index, address)
            )

    @pytest.mark.parametrize("raw", [False, True])
    def test_feature_matrix_matches_per_node_feature_vector(self, raw):
        """The columnar feature_matrix assembly must agree with the
        per-node feature_vector contract it documents."""
        arrays = augment_graph(to_array_graph(_random_address_graph(9)))
        graph = to_address_graph(arrays)
        center = graph.center_node_id()
        matrix = arrays.feature_matrix(raw=raw)
        for node in graph.nodes:
            np.testing.assert_allclose(
                matrix[node.node_id],
                node.feature_vector(
                    is_center=(node.node_id == center), raw=raw
                ),
                rtol=1e-9,
                atol=1e-9,
            )

    @given(
        st.lists(
            st.lists(
                st.floats(
                    min_value=-1e12,
                    max_value=1e12,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=0,
                max_size=25,
            ),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    # Cancelling bags: the sum's leading digits depend on summation
    # order, and cv divides by the mean.
    @example([[1.9998779296875, -1.9998779296875, 1.3898330259562905e-37]])
    @example([[1.0, -1.0, 1e-10], [1.0, 99511627776.0, 999999999999.861,
                                   -1.0, -99511627776.0, -999999999999.861]])
    def test_sfe_matrix_matches_sfe_vector(self, bags):
        matrix = sfe_matrix(bags)
        assert matrix.shape == (len(bags), 15)
        for row, bag in zip(matrix, bags):
            # The segmented kernel sums with reduceat, np.mean with
            # pairwise reduction; cancellation-dominated features
            # (tilt = mean - median) keep a rounding residual
            # proportional to the value magnitude, so the absolute
            # floor must scale with it (1e-12 · max|v| is ~1e4 × the
            # worst-case summation-order error for 25-value bags, and
            # far below any meaningful feature scale).
            magnitude = max((abs(v) for v in bag), default=1.0)
            np.testing.assert_allclose(
                row,
                sfe_vector(bag),
                rtol=1e-9,
                atol=1e-9 + 1e-12 * magnitude,
            )


# --------------------------------------------------------------------- #
# Augmentation regression
# --------------------------------------------------------------------- #


class TestAugmentationRegression:
    def test_empty_graph_is_noop(self):
        graph = to_array_graph(AddressGraph(center_address="nobody"))
        result = augment_graph(graph)
        assert result is graph
        assert result.num_nodes == 0

    def test_matches_reference_centralities(self):
        graph = _random_address_graph(5)
        arrays = augment_graph(to_array_graph(graph))
        expected = reference_centrality_matrix(graph.adjacency_lists())
        np.testing.assert_allclose(
            arrays.centrality, expected, rtol=1e-9, atol=1e-9
        )
