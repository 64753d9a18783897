"""Edge-case sweep: degenerate address histories through pipeline + service.

The shapes that break per-object → columnar refactors: an address with
no transactions, a single-transaction slice, an entire history sharing
one timestamp, and an address that only ever appears on transaction
outputs.  Pipeline and service must return well-formed graphs/scores
(or the documented clean error) for each.
"""

import numpy as np
import pytest

from repro.chain import (
    AddressFactory,
    Blockchain,
    ChainParams,
    Mempool,
    Wallet,
    attach_index,
    btc,
)
from repro.core import BAClassifier, BAClassifierConfig
from repro.errors import GraphConstructionError, ValidationError
from repro.features import LEE_FEATURE_DIM, extract_address_features
from repro.gnn.data import encode_graph
from repro.graphs import (
    NODE_FEATURE_DIM,
    GraphConstructionPipeline,
    GraphPipelineConfig,
    flatten_graphs,
)
from repro.serve import AddressScoringService

SLICE_SIZE = 2


@pytest.fixture(scope="module")
def edge_world():
    """busy (multi-tx), single (1 tx), burst (all txs share a timestamp,
    receive-only), and an address never seen on chain."""
    factory = AddressFactory(31)
    chain = Blockchain(ChainParams(initial_subsidy=btc(50)))
    index = attach_index(chain)
    mempool = Mempool(chain.utxo_set)
    wallet = Wallet(mempool.view(), factory, name="w")
    busy = wallet.new_address()
    single = factory.new_address()
    burst = factory.new_address()
    unknown = factory.new_address()
    for i in range(4):
        chain.mine_block([], reward_address=busy, timestamp=600.0 * (i + 1))
    # Three payments to `burst` carrying the SAME timestamp: slice
    # membership must fall back to the deterministic txid tiebreak.
    for _ in range(3):
        mempool.submit(
            wallet.create_transaction(
                [(burst, btc(1))], timestamp=5000.0, fee=0
            )
        )
    chain.mine_block(mempool.drain(), reward_address=busy, timestamp=5000.0)
    # Exactly one transaction touching `single`.
    mempool.submit(
        wallet.create_transaction([(single, btc(1))], timestamp=5600.0)
    )
    chain.mine_block(mempool.drain(), reward_address=busy, timestamp=5600.0)
    return chain, index, {
        "busy": busy,
        "single": single,
        "burst": burst,
        "unknown": unknown,
    }


@pytest.fixture(scope="module")
def edge_service(edge_world):
    _, index, addrs = edge_world
    classifier = BAClassifier(
        BAClassifierConfig(
            num_classes=2,
            slice_size=SLICE_SIZE,
            gnn_epochs=1,
            head_epochs=1,
            gnn_hidden_dim=8,
            head_hidden_dim=8,
            head_restarts=1,
            seed=0,
        )
    )
    train = [addrs["busy"], addrs["burst"]]
    classifier.fit(train, np.array([0, 1], dtype=np.int64), index)
    return AddressScoringService(classifier, index)


def _pipeline():
    return GraphConstructionPipeline(GraphPipelineConfig(slice_size=SLICE_SIZE))


def _graphs(index, address):
    return _pipeline().build_many(index, [address])[address]


class TestEmptyAddress:
    def test_pipeline_raises_cleanly(self, edge_world):
        _, index, addrs = edge_world
        with pytest.raises(GraphConstructionError):
            _graphs(index, addrs["unknown"])
        with pytest.raises(GraphConstructionError):
            _pipeline().build_pack(index, {addrs["unknown"]: None})

    def test_service_rejects_with_validation_error(
        self, edge_world, edge_service
    ):
        _, _, addrs = edge_world
        with pytest.raises(ValidationError):
            edge_service.score([addrs["unknown"]])

    def test_lee_features_are_zero_not_crash(self, edge_world):
        _, index, addrs = edge_world
        vector = extract_address_features(index, addrs["unknown"])
        assert vector.shape == (LEE_FEATURE_DIM,)
        np.testing.assert_array_equal(vector, 0.0)


class TestSingleTransactionSlice:
    def test_well_formed_graph(self, edge_world):
        _, index, addrs = edge_world
        graphs = _graphs(index, addrs["single"])
        assert len(graphs) == 1
        graph = graphs[0]
        assert graph.num_nodes > 0
        assert graph.center_node_id() is not None
        assert graph.time_range[0] == graph.time_range[1]
        features = graph.feature_matrix()
        assert features.shape == (graph.num_nodes, NODE_FEATURE_DIM)
        assert np.all(np.isfinite(features))
        encoded = encode_graph(graph)
        assert encoded.num_nodes == graph.num_nodes

    def test_build_slices_subset(self, edge_world):
        _, index, addrs = edge_world
        pack, _ = _pipeline().build_pack(index, {addrs["single"]: [0]})
        assert pack.slice_indices == [0]

    def test_scoreable(self, edge_world, edge_service):
        _, _, addrs = edge_world
        score = edge_service.score_one(addrs["single"])
        assert np.all(np.isfinite(score.probabilities))
        assert score.probabilities.sum() == pytest.approx(1.0)


class TestSameTimestampHistory:
    def test_deterministic_slicing(self, edge_world):
        """Every transaction of `burst` shares one timestamp: two
        independent builds must slice and structure identically."""
        _, index, addrs = edge_world
        first = _graphs(index, addrs["burst"])
        second = _graphs(index, addrs["burst"])
        assert len(first) == len(second) == 2  # 3 txs at slice size 2
        for a, b in zip(first, second):
            assert a.time_range == b.time_range
            np.testing.assert_array_equal(a.kind_codes, b.kind_codes)
            assert list(a.refs) == list(b.refs)
            np.testing.assert_array_equal(a.edge_src, b.edge_src)
            np.testing.assert_array_equal(a.edge_dst, b.edge_dst)
            np.testing.assert_array_equal(a.edge_values, b.edge_values)

    def test_single_timestamp_time_ranges(self, edge_world):
        _, index, addrs = edge_world
        for graph in _graphs(index, addrs["burst"]):
            assert graph.time_range == (5000.0, 5000.0)
            np.testing.assert_array_equal(graph.edge_times, 5000.0)

    def test_scoreable(self, edge_world, edge_service):
        _, _, addrs = edge_world
        score = edge_service.score_one(addrs["burst"])
        assert np.all(np.isfinite(score.probabilities))
        assert score.probabilities.sum() == pytest.approx(1.0)


class TestOutputOnlyAddress:
    def test_graphs_and_flatten(self, edge_world):
        """`burst` never appears on an input side: graphs stay well
        formed and flattening handles the empty output-side mean."""
        _, index, addrs = edge_world
        graphs = _graphs(index, addrs["burst"])
        for graph in graphs:
            center = graph.center_node_id()
            assert center is not None
            # no edge leaves the centre (it never spends)
            assert not np.any(graph.edge_src == center)
        vector = flatten_graphs(graphs)
        assert vector.shape == (3 * NODE_FEATURE_DIM,)
        assert np.all(np.isfinite(vector))
        # output-side aggregate of the centre is exactly zero
        np.testing.assert_array_equal(vector[2 * NODE_FEATURE_DIM :], 0.0)

    def test_batch_scoring_mixed_shapes(self, edge_world, edge_service):
        """One batch containing every awkward shape at once."""
        _, _, addrs = edge_world
        scores = edge_service.score(
            [addrs["busy"], addrs["single"], addrs["burst"]]
        )
        for score in scores.values():
            assert np.all(np.isfinite(score.probabilities))
            assert score.probabilities.sum() == pytest.approx(1.0)
