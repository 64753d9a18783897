"""Tests for address-graph construction: extraction, compression,
centrality (vs networkx), augmentation, pipeline, flattening."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import (
    AddressFactory,
    Blockchain,
    ChainParams,
    Mempool,
    Transaction,
    TxInput,
    TxOutput,
    Wallet,
    attach_index,
    btc,
)
from repro.errors import GraphConstructionError, ValidationError
from repro.graphs import (
    NODE_FEATURE_DIM,
    GraphConstructionPipeline,
    GraphPipelineConfig,
    NodeKind,
    STAGE_NAMES,
    augment_graph,
    betweenness_centrality,
    centrality_matrix,
    closeness_centrality,
    compress_multi_transaction_addresses,
    compress_single_transaction_addresses,
    degree_centrality,
    flatten_graph,
    flatten_graphs,
    normalized_adjacency,
    pagerank_centrality,
    similarity_matrices,
)
from repro.graphs.reference import (
    build_original_graph,
    slice_transactions,
    to_address_graph,
    to_array_graph,
)


def _coinbase(addr: str, value: int, ts: float, tag: str = "") -> Transaction:
    return Transaction.coinbase(addr, value=value, timestamp=ts, tag=tag)


def _addresses(n: int, seed: int = 50):
    factory = AddressFactory(seed)
    return [factory.new_address() for _ in range(n)]


def _spend(source_tx, vout, from_addr, outputs, ts):
    return Transaction.create(
        inputs=[TxInput(source_tx.outpoint(vout), from_addr,
                        source_tx.outputs[vout].value)],
        outputs=[TxOutput(a, v) for a, v in outputs],
        timestamp=ts,
    )


class TestSlicing:
    def test_chunks_of_slice_size(self):
        addrs = _addresses(1)
        txs = [_coinbase(addrs[0], btc(1), float(i), tag=str(i)) for i in range(25)]
        slices = slice_transactions(txs, slice_size=10)
        assert [len(s) for s in slices] == [10, 10, 5]

    def test_chronological_order(self):
        addrs = _addresses(1)
        txs = [_coinbase(addrs[0], btc(1), float(i), tag=str(i)) for i in range(9)]
        shuffled = list(reversed(txs))
        slices = slice_transactions(shuffled, slice_size=4)
        flat = [tx for chunk in slices for tx in chunk]
        times = [tx.timestamp for tx in flat]
        assert times == sorted(times)

    def test_rejects_bad_slice_size(self):
        with pytest.raises(ValidationError):
            slice_transactions([], slice_size=0)


class TestOriginalGraph:
    def test_heterogeneous_structure(self):
        a, b, c = _addresses(3)
        base = _coinbase(a, btc(10), 1.0)
        spend = _spend(base, 0, a, [(b, btc(6)), (c, btc(4))], 2.0)
        graph = build_original_graph(a, [base, spend])
        kinds = {node.kind for node in graph.nodes}
        assert kinds == {NodeKind.ADDRESS, NodeKind.TRANSACTION}
        assert len(graph.nodes_of_kind(NodeKind.TRANSACTION)) == 2
        assert len(graph.nodes_of_kind(NodeKind.ADDRESS)) == 3

    def test_edge_directions(self):
        a, b = _addresses(2)
        base = _coinbase(a, btc(10), 1.0)
        spend = _spend(base, 0, a, [(b, btc(10))], 2.0)
        graph = build_original_graph(a, [base, spend])
        a_node = graph.find_node(NodeKind.ADDRESS, a)
        tx_node = graph.find_node(NodeKind.TRANSACTION, spend.txid)
        assert any(
            e.src == a_node and e.dst == tx_node for e in graph.edges
        ), "input edge must run address -> tx"

    def test_rejects_empty(self):
        with pytest.raises(GraphConstructionError):
            build_original_graph("addr", [])

    def test_feature_matrix_shape(self):
        a, b = _addresses(2)
        base = _coinbase(a, btc(10), 1.0)
        graph = build_original_graph(a, [base])
        assert graph.feature_matrix().shape == (graph.num_nodes, NODE_FEATURE_DIM)

    def test_center_flag_unique(self):
        a, b, c = _addresses(3)
        base = _coinbase(a, btc(10), 1.0)
        spend = _spend(base, 0, a, [(b, btc(6)), (c, btc(4))], 2.0)
        graph = build_original_graph(a, [base, spend])
        features = graph.feature_matrix()
        assert features[:, -1].sum() == 1.0
        assert features[graph.center_node_id(), -1] == 1.0


def _fanout_graph(n_single: int = 6):
    """center pays one tx that fans out to n_single fresh addresses."""
    addrs = _addresses(n_single + 1, seed=60)
    center, outs = addrs[0], addrs[1:]
    base = _coinbase(center, btc(100), 1.0)
    value = btc(100) // n_single
    spend = Transaction.create(
        inputs=[TxInput(base.outpoint(0), center, btc(100))],
        outputs=[TxOutput(a, value) for a in outs],
        timestamp=2.0,
    )
    return center, build_original_graph(center, [base, spend])


def _compressed(compress, graph, **kwargs):
    """A columnar compression pass over an object-model graph, read back
    as objects for inspection."""
    return to_address_graph(compress(to_array_graph(graph), **kwargs))


class TestSingleCompression:
    def test_merges_fanout_outputs(self):
        center, graph = _fanout_graph(6)
        compressed = _compressed(compress_single_transaction_addresses, graph)
        hypers = compressed.nodes_of_kind(NodeKind.SINGLE_HYPER)
        assert len(hypers) == 1
        assert hypers[0].merged_count == 6
        # 6 single-tx outputs merged into 1: node count drops by 5.
        assert compressed.num_nodes == graph.num_nodes - 5

    def test_center_never_merged(self):
        center, graph = _fanout_graph(4)
        compressed = _compressed(compress_single_transaction_addresses, graph)
        assert compressed.find_node(NodeKind.ADDRESS, center) is not None

    def test_value_bag_preserved(self):
        center, graph = _fanout_graph(5)
        compressed = _compressed(compress_single_transaction_addresses, graph)
        hyper = compressed.nodes_of_kind(NodeKind.SINGLE_HYPER)[0]
        assert len(hyper.values) == 5

    def test_total_edge_value_conserved(self):
        _, graph = _fanout_graph(7)
        compressed = _compressed(compress_single_transaction_addresses, graph)
        assert compressed.total_edge_value() == pytest.approx(
            graph.total_edge_value()
        )

    def test_no_single_addresses_noop(self):
        a, b = _addresses(2)
        base = _coinbase(a, btc(10), 1.0)
        spend1 = _spend(base, 0, a, [(b, btc(10))], 2.0)
        spend2 = Transaction.create(
            inputs=[TxInput(spend1.outpoint(0), b, btc(10))],
            outputs=[TxOutput(a, btc(10))],
            timestamp=3.0,
        )
        graph = build_original_graph(a, [base, spend1, spend2])
        compressed = _compressed(compress_single_transaction_addresses, graph)
        assert compressed.num_nodes == graph.num_nodes


def _pool_like_graph(n_members: int = 6, n_txs: int = 3):
    """center's txs repeatedly fan out to the SAME member set (pool-like)."""
    addrs = _addresses(n_members + 1, seed=70)
    center, members = addrs[0], addrs[1:]
    txs = []
    share = btc(60) // n_members
    prev = _coinbase(center, btc(60), 0.5)
    txs.append(prev)
    for i in range(n_txs):
        spend = Transaction.create(
            inputs=[TxInput(prev.outpoint(0), center, btc(60))]
            if i == 0
            else [TxInput(txs[0].outpoint(0), center, btc(60))],
            outputs=[TxOutput(m, share) for m in members],
            timestamp=float(i + 1),
        )
        txs.append(spend)
    # Rebuild with distinct coinbases so inputs are valid conceptually;
    # graph construction does not validate spends, only structure.
    txs = [_coinbase(center, btc(60), 0.1, tag="c")]
    for i in range(n_txs):
        txs.append(
            Transaction.create(
                inputs=[TxInput(txs[0].outpoint(0), center, btc(60))],
                outputs=[TxOutput(m, share) for m in members],
                timestamp=float(i + 1),
            )
        )
    return center, members, build_original_graph(center, txs[:1] + txs[1:])


class TestMultiCompression:
    def test_similarity_matrix_semantics(self):
        center, members, graph = _pool_like_graph(5, 3)
        multi_ids, tx_ids, shared, similarity = similarity_matrices(
            to_array_graph(graph)
        )
        # Every member co-occurs in all 3 payout txs.
        assert len(multi_ids) == 5
        assert np.all(np.diag(shared) == 3)
        np.testing.assert_allclose(similarity, np.ones_like(similarity))

    def test_merges_pool_members(self):
        center, members, graph = _pool_like_graph(6, 3)
        compressed = _compressed(
            compress_multi_transaction_addresses, graph, psi=0.6, sigma=2
        )
        hypers = compressed.nodes_of_kind(NodeKind.MULTI_HYPER)
        assert len(hypers) == 1
        assert hypers[0].merged_count == 6

    def test_sigma_gates_merging(self):
        center, members, graph = _pool_like_graph(4, 3)
        # sigma above group size: no merge.
        unchanged = _compressed(
            compress_multi_transaction_addresses, graph, psi=0.6, sigma=10
        )
        assert not unchanged.nodes_of_kind(NodeKind.MULTI_HYPER)

    def test_psi_threshold_validated(self):
        _, _, objects = _pool_like_graph(3, 2)
        graph = to_array_graph(objects)
        with pytest.raises(ValidationError):
            compress_multi_transaction_addresses(graph, psi=0.0)
        with pytest.raises(ValidationError):
            compress_multi_transaction_addresses(graph, sigma=0)

    def test_value_conserved(self):
        _, _, graph = _pool_like_graph(5, 3)
        compressed = _compressed(compress_multi_transaction_addresses, graph)
        assert compressed.total_edge_value() == pytest.approx(
            graph.total_edge_value()
        )

    def test_center_survives(self):
        center, _, graph = _pool_like_graph(5, 3)
        compressed = _compressed(compress_multi_transaction_addresses, graph)
        assert compressed.find_node(NodeKind.ADDRESS, center) is not None


# --------------------------------------------------------------------- #
# Centrality vs networkx oracle
# --------------------------------------------------------------------- #


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    density = draw(st.floats(min_value=0.1, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return [sorted(neighbors) for neighbors in adjacency]


def _to_nx(adjacency):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adjacency)))
    for node, neighbors in enumerate(adjacency):
        for other in neighbors:
            graph.add_edge(node, other)
    return graph


class TestCentralityOracle:
    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_degree_matches_networkx(self, adjacency):
        ours = degree_centrality(adjacency)
        theirs = nx.degree_centrality(_to_nx(adjacency))
        np.testing.assert_allclose(
            ours, [theirs[i] for i in range(len(adjacency))], atol=1e-9
        )

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_closeness_matches_networkx(self, adjacency):
        ours = closeness_centrality(adjacency)
        theirs = nx.closeness_centrality(_to_nx(adjacency), wf_improved=False)
        np.testing.assert_allclose(
            ours, [theirs[i] for i in range(len(adjacency))], atol=1e-9
        )

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_betweenness_matches_networkx(self, adjacency):
        ours = betweenness_centrality(adjacency, normalized=True)
        theirs = nx.betweenness_centrality(_to_nx(adjacency), normalized=True)
        np.testing.assert_allclose(
            ours, [theirs[i] for i in range(len(adjacency))], atol=1e-8
        )

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_pagerank_close_to_networkx(self, adjacency):
        graph = _to_nx(adjacency)
        ours = pagerank_centrality(
            adjacency, alpha=0.85, tolerance=1e-12, max_iterations=1000
        )
        theirs = nx.pagerank(graph, alpha=0.85, tol=1e-10, max_iter=1000)
        np.testing.assert_allclose(
            ours, [theirs[i] for i in range(len(adjacency))], atol=1e-6
        )

    def test_pagerank_sums_to_one(self):
        adjacency = [[1, 2], [0], [0], []]  # node 3 isolated/dangling
        ranks = pagerank_centrality(adjacency)
        assert ranks.sum() == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            degree_centrality([[5]])
        with pytest.raises(ValidationError):
            pagerank_centrality([[]], alpha=1.5)

    def test_centrality_matrix_shape(self):
        adjacency = [[1], [0, 2], [1]]
        matrix = centrality_matrix(adjacency)
        assert matrix.shape == (3, 4)


class TestAugmentation:
    def test_attaches_centrality(self):
        _, objects = _fanout_graph(4)
        graph = augment_graph(to_array_graph(objects))
        assert graph.centrality.shape == (graph.num_nodes, 4)

    def test_feature_matrix_includes_centrality(self):
        _, objects = _fanout_graph(4)
        graph = to_array_graph(objects)
        before = graph.feature_matrix().copy()
        augment_graph(graph)
        after = graph.feature_matrix()
        assert not np.allclose(before[:, 15:19], after[:, 15:19])


class TestNormalizedAdjacency:
    def test_symmetric_and_bounded(self):
        _, graph = _fanout_graph(5)
        matrix = normalized_adjacency(to_array_graph(graph)).toarray()
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_self_loops_present(self):
        _, graph = _fanout_graph(3)
        matrix = normalized_adjacency(to_array_graph(graph)).toarray()
        assert np.all(np.diag(matrix) > 0)


@pytest.fixture(scope="module")
def mini_world_index():
    """A small on-chain history with a busy center address."""
    factory = AddressFactory(9)
    chain = Blockchain(ChainParams(initial_subsidy=btc(50)))
    index = attach_index(chain)
    mempool = Mempool(chain.utxo_set)
    wallet = Wallet(mempool.view(), factory, name="w")
    center = wallet.new_address()
    for i in range(4):
        chain.mine_block([], reward_address=center, timestamp=600.0 * (i + 1))
    others = _addresses(6, seed=91)
    for i, other in enumerate(others):
        tx = wallet.create_transaction(
            [(other, btc(3))], timestamp=3000.0 + i, change_to_source=True,
            source_addresses=[center],
        )
        mempool.submit(tx)
    chain.mine_block(mempool.drain(), reward_address=others[0], timestamp=4000.0)
    return index, center


class TestPipeline:
    def test_builds_and_times_all_stages(self, mini_world_index):
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=5))
        graphs = pipeline.build_many(index, [center])[center]
        assert len(graphs) == 2  # 10 txs at slice 5
        for name in STAGE_NAMES:
            assert name in pipeline.timer.totals
        report = pipeline.stage_report()
        assert abs(sum(row["ratio"] for row in report) - 1.0) < 1e-9

    def test_slice_indexes_ordered(self, mini_world_index):
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=3))
        graphs = pipeline.build_many(index, [center])[center]
        assert [g.slice_index for g in graphs] == list(range(len(graphs)))

    def test_disable_stages(self, mini_world_index):
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(
            GraphPipelineConfig(
                slice_size=5,
                enable_single_compression=False,
                enable_multi_compression=False,
                enable_augmentation=False,
            )
        )
        graphs = pipeline.build_many(index, [center])[center]
        assert STAGE_NAMES[0] in pipeline.timer.totals
        assert STAGE_NAMES[1] not in pipeline.timer.totals
        assert all(g.centrality is None for g in graphs)
        # ... and the object-model conversion mirrors that state.
        assert all(
            node.centrality is None
            for g in graphs
            for node in to_address_graph(g).nodes
        )

    def test_unknown_address_raises(self, mini_world_index):
        index, _ = mini_world_index
        pipeline = GraphConstructionPipeline()
        with pytest.raises(GraphConstructionError):
            pipeline.build_many(index, [AddressFactory(123).new_address()])

    def test_build_many(self, mini_world_index):
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=5))
        result = pipeline.build_many(index, [center])
        assert set(result) == {center}

    def test_stage_report_mean_is_per_graph(self, mini_world_index):
        """Table V semantics: one timer entry per slice graph, so the
        report's mean is a per-graph cost even when one build() call
        covers several slices of an address."""
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=5))
        graphs = pipeline.build_many(index, [center])[center]
        assert len(graphs) == 2
        report = {row["stage"]: row for row in pipeline.stage_report()}
        for name in STAGE_NAMES:
            row = report[name]
            assert row["entries"] == len(graphs)
            assert row["mean_seconds"] * row["entries"] == pytest.approx(
                row["total_seconds"]
            )
        # A second build accumulates further per-graph entries.
        pipeline.build_many(index, [center])
        report = {row["stage"]: row for row in pipeline.stage_report()}
        assert report[STAGE_NAMES[0]]["entries"] == 2 * len(graphs)

    def test_build_slices_subset_matches_full_build(self, mini_world_index):
        index, center = mini_world_index
        config = GraphPipelineConfig(slice_size=5)
        full = GraphConstructionPipeline(config).build_many(index, [center])[
            center
        ]
        pack, _ = GraphConstructionPipeline(config).build_pack(
            index, {center: [1]}
        )
        subset = pack.graphs()
        assert len(subset) == 1
        assert subset[0].slice_index == 1
        assert subset[0].num_nodes == full[1].num_nodes
        np.testing.assert_allclose(
            subset[0].feature_matrix(), full[1].feature_matrix()
        )

    def test_build_slices_none_builds_all(self, mini_world_index):
        index, center = mini_world_index
        config = GraphPipelineConfig(slice_size=5)
        pack, _ = GraphConstructionPipeline(config).build_pack(
            index, {center: None}
        )
        assert pack.slice_indices == [0, 1]

    def test_build_slices_rejects_out_of_range(self, mini_world_index):
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=5))
        with pytest.raises(ValidationError):
            pipeline.build_pack(index, {center: [99]})


class TestFlatten:
    def test_dimension(self, mini_world_index):
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=5))
        graphs = pipeline.build_many(index, [center])[center]
        vector = flatten_graphs(graphs)
        assert vector.shape == (3 * NODE_FEATURE_DIM,)
        assert np.all(np.isfinite(vector))

    def test_single_graph_matches_average(self, mini_world_index):
        index, center = mini_world_index
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=5))
        graphs = pipeline.build_many(index, [center])[center]
        np.testing.assert_allclose(
            flatten_graphs([graphs[0]]), flatten_graph(graphs[0])
        )

    def test_rejects_empty(self):
        with pytest.raises(GraphConstructionError):
            flatten_graphs([])
