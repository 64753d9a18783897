"""Tests for graph encoding, batching, and the three GNN classifiers."""

import time

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gnn import (
    DiffPool,
    EncodedGraph,
    GCN,
    GFN,
    GraphBatch,
    GraphTrainingConfig,
    augment_features,
    class_weight_vector,
    build_encoded,
    encode_graph,
    encode_pack,
    fit_graph_classifier,
    mean_readout,
    sum_readout,
)
from repro.graphs import (
    ArrayGraph,
    GraphConstructionPipeline,
    GraphPack,
    GraphPipelineConfig,
    NodeKind,
    augment_graph,
)
from repro.graphs.matrices import normalized_adjacency_from_matrix
from repro.graphs.reference import AddressGraph, to_array_graph
from repro.nn import Tensor
from repro.nn import functional as F
from repro.testing import random_chain


def _toy_objects(center: str, n_leaves: int, leaf_value: float) -> AddressGraph:
    """A star: center address -> tx -> n_leaves outputs of leaf_value."""
    graph = AddressGraph(center_address=center)
    center_id = graph.add_node(NodeKind.ADDRESS, center)
    tx_id = graph.add_node(NodeKind.TRANSACTION, f"tx:{center}")
    graph.add_edge(center_id, tx_id, leaf_value * n_leaves)
    for leaf in range(n_leaves):
        leaf_id = graph.add_node(NodeKind.ADDRESS, f"{center}:leaf{leaf}")
        graph.add_edge(tx_id, leaf_id, leaf_value)
    return graph


def _toy_graph(center: str, n_leaves: int, leaf_value: float) -> ArrayGraph:
    """:func:`_toy_objects` as an augmented columnar graph."""
    return augment_graph(
        to_array_graph(_toy_objects(center, n_leaves, leaf_value))
    )


def _toy_dataset(n_per_class: int = 20, seed: int = 0):
    """Two classes separable by graph shape: wide stars vs narrow stars."""
    rng = np.random.default_rng(seed)
    graphs = []
    for index in range(n_per_class):
        wide = _toy_graph(f"w{index}", n_leaves=8 + int(rng.integers(3)),
                          leaf_value=1e6)
        narrow = _toy_graph(f"n{index}", n_leaves=2 + int(rng.integers(2)),
                            leaf_value=1e9)
        graphs.append(encode_graph(wide, label=0))
        graphs.append(encode_graph(narrow, label=1))
    rng.shuffle(graphs)
    return graphs


class TestEncoding:
    def test_encode_graph_shapes(self):
        graph = _toy_graph("c", 4, 100.0)
        encoded = encode_graph(graph, label=1)
        assert encoded.num_nodes == graph.num_nodes
        assert encoded.adjacency.shape == (graph.num_nodes, graph.num_nodes)
        assert encoded.label == 1

    def test_encode_empty_rejected(self):
        with pytest.raises(ValidationError):
            encode_graph(to_array_graph(AddressGraph("x")))

    def test_encode_sequences_ordering(self):
        """build_encoded returns each address's slices ascending, in
        request order, labelled per address."""
        _, index, addresses = random_chain(7, num_wallets=4, rounds=10)
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=4))
        busy = max(addresses, key=index.transaction_count)
        other = next(a for a in addresses if a != busy)
        encoded = build_encoded(
            pipeline,
            index,
            {busy: [2, 0, 1], other: None},
            span="test.encode",
            labels_by_address={busy: 2},
        )
        assert list(encoded) == [busy, other]
        assert [g.slice_index for g in encoded[busy]] == [0, 1, 2]
        assert all(g.label == 2 for g in encoded[busy])
        assert all(g.label == -1 for g in encoded[other])


@pytest.fixture(scope="module")
def corpus_graphs():
    """Pipeline-built (Stages 1-4) slice graphs of a small economy."""
    _, index, addresses = random_chain(7, num_wallets=4, rounds=10)
    pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=4))
    graphs = [
        graph
        for address in addresses
        for graph in pipeline.build_many(index, [address])[address]
    ]
    assert len(graphs) >= 12
    return graphs


def _encode_oracle(graph):
    """Per-graph encoding the batched encoder must match bit for bit."""
    return (
        graph.feature_matrix(),
        normalized_adjacency_from_matrix(graph.adjacency_matrix()),
    )


def _edge_case_graphs():
    """Graph shapes the pipeline rarely emits, by name."""
    zero_edge = AddressGraph(center_address="zero_edge")
    for ref in ("zero_edge", "x", "y"):
        zero_edge.add_node(NodeKind.ADDRESS, ref)
    one_node = AddressGraph(center_address="one_node", slice_index=3)
    one_node.add_node(NodeKind.ADDRESS, "one_node")
    parallel_edge = _toy_objects("parallel_edge", 2, 5.0)
    parallel_edge.add_edge(0, 1, 7.0)  # a second center -> tx edge
    parallel_edge.add_edge(2, 2, 1.0)  # and a self-loop
    return {
        "zero_edge": to_array_graph(zero_edge),
        "one_node": to_array_graph(one_node),
        "parallel_edge": augment_graph(to_array_graph(parallel_edge)),
    }


class TestEncodeGraphs:
    def _assert_matches_oracle(self, graphs, encoded):
        assert len(encoded) == len(graphs)
        for graph, row in zip(graphs, encoded):
            features, adjacency = _encode_oracle(graph)
            assert np.array_equal(row.features, features)
            assert np.array_equal(row.adjacency.data, adjacency.data)
            assert np.array_equal(row.adjacency.indices, adjacency.indices)
            assert np.array_equal(row.adjacency.indptr, adjacency.indptr)
            assert row.address == graph.center_address
            assert row.slice_index == graph.slice_index

    def test_corpus_batch_matches_oracle(self, corpus_graphs):
        labels = list(range(len(corpus_graphs)))
        encoded = encode_pack(GraphPack.of(corpus_graphs), labels=labels)
        self._assert_matches_oracle(corpus_graphs, encoded)
        assert [row.label for row in encoded] == labels
        # Rows are copies: none keeps the whole batch's pack alive.
        for row in encoded:
            adjacency = row.adjacency
            for array in (row.features, adjacency.data, adjacency.indices,
                          adjacency.indptr):
                owner = array
                while owner.base is not None:
                    owner = owner.base
                assert owner.nbytes == array.nbytes

    @pytest.mark.parametrize(
        "case", ["zero_edge", "one_node", "parallel_edge"]
    )
    def test_edge_case_graph_matches_oracle(self, case):
        graph = _edge_case_graphs()[case]
        self._assert_matches_oracle(
            [graph], encode_pack(GraphPack.of([graph]))
        )

    def test_empty_list(self):
        """A request for nothing builds and encodes nothing."""
        _, index, _ = random_chain(7, num_wallets=4, rounds=10)
        pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=4))
        assert build_encoded(pipeline, index, {}, span="test.encode") == {}

    def test_empty_graph_in_batch_rejected(self):
        empty = to_array_graph(AddressGraph("deadbeefcafe-empty"))
        with pytest.raises(ValidationError, match="deadbeefcafe"):
            encode_graph(empty)

    def test_label_count_mismatch_rejected(self, corpus_graphs):
        with pytest.raises(ValidationError):
            encode_pack(GraphPack.of(corpus_graphs[:2]), labels=[0])

    def test_batched_beats_per_graph_oracle(self, corpus_graphs):
        """Live speed ratio, measured in one process so it holds on any
        machine: best of 5 runs each on a 12-graph batch.  The batched
        encoder only amortises per-call overhead, so one per-graph scipy
        round trip slipping back into ``encode_pack`` fails this (it
        runs 6-9x the per-graph oracle on a 2-CPU x86-64 host)."""
        batch = corpus_graphs[:12]

        def best_of_5(run):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(10):
                    run()
                best = min(best, time.perf_counter() - start)
            return best

        oracle = best_of_5(lambda: [_encode_oracle(g) for g in batch])
        batched = best_of_5(lambda: encode_pack(GraphPack.of(batch)))
        assert oracle / batched >= 2.0, (oracle, batched)


class TestGraphBatch:
    def test_block_diagonal(self):
        graphs = [encode_graph(_toy_graph("a", 3, 1.0), 0),
                  encode_graph(_toy_graph("b", 2, 1.0), 1)]
        batch = GraphBatch(graphs)
        assert batch.num_graphs == 2
        assert batch.num_nodes == graphs[0].num_nodes + graphs[1].num_nodes
        # Off-diagonal blocks are zero.
        dense = batch.adjacency.toarray()
        n0 = graphs[0].num_nodes
        assert np.all(dense[:n0, n0:] == 0)
        np.testing.assert_array_equal(batch.labels, [0, 1])

    def test_segments(self):
        graphs = [encode_graph(_toy_graph("a", 3, 1.0), 0),
                  encode_graph(_toy_graph("b", 2, 1.0), 1)]
        batch = GraphBatch(graphs)
        assert set(batch.segments) == {0, 1}
        assert np.sum(batch.segments == 0) == graphs[0].num_nodes

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            GraphBatch([])


class TestReadouts:
    def test_sum_vs_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 10.0]]))
        segments = np.array([0, 0, 1])
        sums = sum_readout(x, segments, 2)
        means = mean_readout(x, segments, 2)
        np.testing.assert_allclose(sums.data, [[4.0, 6.0], [10.0, 10.0]])
        np.testing.assert_allclose(means.data, [[2.0, 3.0], [10.0, 10.0]])


class TestGFNFeatures:
    def test_augment_dimensions(self):
        encoded = encode_graph(_toy_graph("a", 3, 1.0), 0)
        feats = augment_features(encoded, k=2)
        expected_dim = 1 + encoded.feature_dim * 3
        assert feats.shape == (encoded.num_nodes, expected_dim)

    def test_cache_reused(self):
        encoded = encode_graph(_toy_graph("a", 3, 1.0), 0)
        first = augment_features(encoded, k=2)
        second = augment_features(encoded, k=2)
        assert first is second

    def test_k_zero(self):
        encoded = encode_graph(_toy_graph("a", 3, 1.0), 0)
        feats = augment_features(encoded, k=0)
        assert feats.shape[1] == 1 + encoded.feature_dim

    def test_negative_k_rejected(self):
        with pytest.raises(ValidationError):
            GFN(input_dim=24, num_classes=2, k=-1)


@pytest.mark.parametrize(
    "model_factory",
    [
        lambda dim: GFN(input_dim=dim, num_classes=2, hidden_dim=16, rng=0),
        lambda dim: GCN(input_dim=dim, num_classes=2, hidden_dim=16, rng=0),
        lambda dim: DiffPool(
            input_dim=dim, num_classes=2, hidden_dim=16, num_clusters=4, rng=0
        ),
    ],
    ids=["GFN", "GCN", "DiffPool"],
)
class TestGraphClassifiers:
    def test_learns_shape_classes(self, model_factory):
        graphs = _toy_dataset(n_per_class=25)  # 50 graphs total
        train, test = graphs[:40], graphs[40:]
        model = model_factory(graphs[0].feature_dim)
        fit_graph_classifier(
            model,
            train,
            GraphTrainingConfig(epochs=30, batch_size=16, seed=0),
        )
        predictions = model.predict(test)
        truth = np.array([g.label for g in test])
        assert np.mean(predictions == truth) >= 0.8

    def test_embeddings_shape(self, model_factory):
        graphs = _toy_dataset(n_per_class=3)
        model = model_factory(graphs[0].feature_dim)
        embeddings = model.embed_graphs(graphs)
        assert embeddings.shape == (len(graphs), model.embedding_dim)
        assert np.all(np.isfinite(embeddings))

    def test_logits_shape(self, model_factory):
        graphs = _toy_dataset(n_per_class=2)
        model = model_factory(graphs[0].feature_dim)
        payload = model.prepare_batch(graphs)
        logits = model.forward(payload)
        assert logits.shape == (len(graphs), 2)


class TestTrainingLoop:
    def test_curve_tracked(self):
        graphs = _toy_dataset(n_per_class=8)  # 16 graphs total
        model = GFN(input_dim=graphs[0].feature_dim, num_classes=2,
                    hidden_dim=16, rng=0)
        curve = fit_graph_classifier(
            model,
            graphs[:12],
            GraphTrainingConfig(epochs=4, seed=0),
            eval_graphs=graphs[12:],
            curve_name="gfn-test",
        )
        assert curve.model_name == "gfn-test"
        assert len(curve.points) == 4
        runtimes = curve.runtimes()
        assert runtimes == sorted(runtimes)

    def test_runtime_excludes_eval_time(self):
        """Figure 5's runtime axis must not include per-epoch evaluation."""
        import time

        graphs = _toy_dataset(n_per_class=6)  # 12 graphs
        model = GFN(input_dim=graphs[0].feature_dim, num_classes=2,
                    hidden_dim=8, rng=0)
        eval_delay = 0.1
        original_predict = model.predict

        def slow_predict(eval_graphs, **kwargs):
            time.sleep(eval_delay)
            return original_predict(eval_graphs, **kwargs)

        model.predict = slow_predict
        epochs = 3
        start = time.perf_counter()
        curve = fit_graph_classifier(
            model,
            graphs[:8],
            GraphTrainingConfig(epochs=epochs, seed=0),
            eval_graphs=graphs[8:],
        )
        wall = time.perf_counter() - start
        total_delay = epochs * eval_delay
        assert wall >= total_delay
        # The curve's reported training time excludes the injected eval
        # delays (small scheduling margin allowed).
        assert curve.points[-1].runtime_seconds <= wall - 0.9 * total_delay
        runtimes = curve.runtimes()
        assert runtimes == sorted(runtimes)

    def test_validates_hyperparameters(self):
        with pytest.raises(ValidationError):
            GraphTrainingConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            GraphTrainingConfig(learning_rate=-1e-3)
        with pytest.raises(ValidationError):
            GraphTrainingConfig(grad_clip=0.0)
        assert GraphTrainingConfig(grad_clip=None).grad_clip is None

    def test_unlabeled_graphs_rejected(self):
        graphs = [encode_graph(_toy_graph("a", 2, 1.0))]  # label -1
        model = GFN(input_dim=graphs[0].feature_dim, num_classes=2, rng=0)
        with pytest.raises(ValidationError):
            fit_graph_classifier(model, graphs)

    def test_empty_rejected(self):
        model = GFN(input_dim=24, num_classes=2, rng=0)
        with pytest.raises(ValidationError):
            fit_graph_classifier(model, [])

    def test_class_weights(self):
        weights = class_weight_vector(np.array([0, 0, 0, 1]), 2)
        assert weights[1] > weights[0]
        assert weights.mean() == pytest.approx(1.0)

    def test_class_weights_missing_class(self):
        weights = class_weight_vector(np.array([0, 0]), 3)
        assert weights[1] == 0.0 and weights[2] == 0.0
