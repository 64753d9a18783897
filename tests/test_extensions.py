"""Coverage for cross-cutting behaviours added during hardening:
gradient clipping, head restarts, raw-feature protocol modes,
compression properties on random graphs, heterogeneity controls."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import AddressFactory
from repro.datagen import WorldConfig, build_dataset, generate_world
from repro.errors import ValidationError
from repro.features import extract_address_features, sfe_vector, SFE_FEATURE_NAMES
from repro.graphs import (
    NodeKind,
    compress_multi_transaction_addresses,
    compress_single_transaction_addresses,
    flatten_graph,
)
from repro.graphs.reference import AddressGraph, to_address_graph, to_array_graph
from repro.ml import KNNClassifier, LinearSVM, LogisticRegression, MLPClassifier
from repro.nn import Parameter
from repro.nn.optim import clip_grad_norm


class TestGradClip:
    def test_no_clip_below_norm(self):
        param = Parameter(np.zeros(3))
        param.accumulate_grad(np.array([1.0, 0.0, 0.0]))
        norm = clip_grad_norm([param], max_norm=5.0)
        assert norm == pytest.approx(1.0)
        np.testing.assert_allclose(param.grad, [1.0, 0.0, 0.0])

    def test_clips_above_norm(self):
        param = Parameter(np.zeros(2))
        param.accumulate_grad(np.array([3.0, 4.0]))  # norm 5
        clip_grad_norm([param], max_norm=1.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-9)

    def test_global_norm_across_params(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        a.accumulate_grad(np.array([3.0]))
        b.accumulate_grad(np.array([4.0]))
        norm = clip_grad_norm([a, b], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = float(np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2))
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_skips_missing_grads(self):
        a = Parameter(np.zeros(1))
        assert clip_grad_norm([a], max_norm=1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)


class TestStandardizeFlag:
    def _raw_scale_data(self):
        rng = np.random.default_rng(0)
        # One feature at satoshi scale dominates unless standardised.
        x = np.column_stack(
            [rng.normal(0, 1, 200) * 1e10, rng.normal(0, 1, 200)]
        )
        y = (x[:, 1] > 0).astype(int)
        return x, y

    @pytest.mark.parametrize(
        "factory",
        [
            lambda std: LogisticRegression(epochs=200, standardize=std),
            lambda std: LinearSVM(epochs=200, standardize=std),
            lambda std: KNNClassifier(k=5, standardize=std),
            lambda std: MLPClassifier(epochs=30, standardize=std),
        ],
        ids=["LR", "SVM", "KNN", "MLP"],
    )
    def test_standardization_rescues_scale_sensitive_models(self, factory):
        x, y = self._raw_scale_data()
        scaled = factory(True).fit(x[:150], y[:150]).score(x[150:], y[150:])
        raw = factory(False).fit(x[:150], y[:150]).score(x[150:], y[150:])
        assert scaled > raw + 0.1


class TestRawFeatureModes:
    def test_lee_raw_vs_log(self):
        world = generate_world(WorldConfig(seed=31, num_blocks=60, num_retail=20))
        address = next(iter(world.labels))
        log_features = extract_address_features(world.index, address)
        raw_features = extract_address_features(world.index, address, raw=True)
        assert raw_features.max() > log_features.max()
        # Raw magnitudes reach satoshi scale; log stays bounded.
        assert np.abs(log_features).max() < 50.0

    def test_flatten_raw_mode(self):
        graph = AddressGraph("center")
        c = graph.add_node(NodeKind.ADDRESS, "center")
        t = graph.add_node(NodeKind.TRANSACTION, "tx1")
        graph.add_edge(c, t, 1e9)
        raw = flatten_graph(to_array_graph(graph), raw=True)
        compressed = flatten_graph(to_array_graph(graph), raw=False)
        assert raw.max() > compressed.max()


@st.composite
def star_graphs(draw):
    """Random center-tx-leaves graphs with random values."""
    n_txs = draw(st.integers(min_value=1, max_value=4))
    graph = AddressGraph("center")
    center = graph.add_node(NodeKind.ADDRESS, "center")
    leaf_counter = 0
    for tx_index in range(n_txs):
        tx = graph.add_node(NodeKind.TRANSACTION, f"tx{tx_index}")
        graph.add_edge(center, tx, draw(st.integers(1, 10**9)))
        n_leaves = draw(st.integers(min_value=1, max_value=6))
        shared = draw(st.booleans())
        for _ in range(n_leaves):
            if shared and leaf_counter > 0 and draw(st.booleans()):
                ref = f"leaf{draw(st.integers(0, leaf_counter - 1))}"
            else:
                ref = f"leaf{leaf_counter}"
                leaf_counter += 1
            leaf = graph.add_node(NodeKind.ADDRESS, ref)
            graph.add_edge(tx, leaf, draw(st.integers(1, 10**9)))
    return to_array_graph(graph)


class TestCompressionProperties:
    @given(star_graphs())
    @settings(max_examples=40, deadline=None)
    def test_never_increases_nodes_and_conserves_value(self, graph):
        total_before = graph.total_edge_value()
        nodes_before = graph.num_nodes
        out = compress_single_transaction_addresses(graph)
        out = compress_multi_transaction_addresses(out)
        assert out.num_nodes <= nodes_before
        assert out.total_edge_value() == pytest.approx(total_before)
        # The centre always survives.
        assert (
            to_address_graph(out).find_node(NodeKind.ADDRESS, "center")
            is not None
        )

    @given(star_graphs())
    @settings(max_examples=25, deadline=None)
    def test_single_compression_idempotent(self, graph):
        once = compress_single_transaction_addresses(graph)
        twice = compress_single_transaction_addresses(once)
        assert twice.num_nodes == once.num_nodes
        assert twice.num_edges == once.num_edges

    @given(star_graphs())
    @settings(max_examples=25, deadline=None)
    def test_value_bags_conserved(self, graph):
        """Sum over all node value bags is invariant (each edge counted
        once per endpoint)."""
        def bag_total(g):
            return float(g.bag_values.sum())

        before = bag_total(graph)
        out = compress_single_transaction_addresses(graph)
        assert bag_total(out) == pytest.approx(before)


class TestHeterogeneity:
    def test_zero_heterogeneity_allowed(self):
        world = generate_world(
            WorldConfig(seed=41, num_blocks=40, num_retail=10, heterogeneity=0.0)
        )
        assert world.chain.height > 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            WorldConfig(heterogeneity=-0.1)

    def test_heterogeneity_changes_world(self):
        a = generate_world(
            WorldConfig(seed=42, num_blocks=40, num_retail=10, heterogeneity=0.0)
        )
        b = generate_world(
            WorldConfig(seed=42, num_blocks=40, num_retail=10, heterogeneity=0.8)
        )
        assert a.chain.tip.hash != b.chain.tip.hash

    def test_grant_budget_covers_heterogeneous_grants(self):
        """Warm-up must fund every queued grant even after rescaling."""
        world = generate_world(
            WorldConfig(seed=43, num_blocks=60, num_retail=15, heterogeneity=1.0)
        )
        from repro.datagen.retail import FaucetActor

        faucets = [a for a in world.actors if isinstance(a, FaucetActor)]
        assert faucets
        assert faucets[0].pending_grants == 0, "faucet failed to fund all grants"


class TestSFEDegeneracy:
    def test_constant_scaled_inputs_have_zero_shape_stats(self):
        vec = dict(zip(SFE_FEATURE_NAMES, sfe_vector([0.1, 0.1, 0.1])))
        assert vec["kurtosis"] == 0.0
        assert vec["skewness"] == 0.0

    def test_tiny_but_real_variance_kept(self):
        values = [1.0, 1.0 + 1e-3]
        vec = dict(zip(SFE_FEATURE_NAMES, sfe_vector(values)))
        assert vec["std"] > 0.0
