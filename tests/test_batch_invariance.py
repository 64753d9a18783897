"""Batch-invariance properties: batching must not change model outputs.

Block-diagonal batching (GNNs) and padding (sequence heads) are pure
performance optimisations; the embeddings and logits they produce must be
identical (to float tolerance) to processing items one at a time.
"""

import numpy as np
import pytest

from repro.gnn import DiffPool, GCN, GFN, encode_graph
from repro.graphs import ArrayGraph, NodeKind, augment_graph
from repro.graphs.reference import AddressGraph, to_array_graph
from repro.nn import Tensor, no_grad
from repro.seqmodels import build_head, pad_sequences


def _graph(center: str, n_leaves: int, value: float) -> ArrayGraph:
    graph = AddressGraph(center_address=center)
    center_id = graph.add_node(NodeKind.ADDRESS, center)
    tx_id = graph.add_node(NodeKind.TRANSACTION, f"tx:{center}")
    graph.add_edge(center_id, tx_id, value * n_leaves)
    for leaf in range(n_leaves):
        leaf_id = graph.add_node(NodeKind.ADDRESS, f"{center}:{leaf}")
        graph.add_edge(tx_id, leaf_id, value)
    return augment_graph(to_array_graph(graph))


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(0)
    return [
        encode_graph(_graph(f"a{i}", int(rng.integers(2, 9)),
                            float(rng.uniform(1e5, 1e9))), label=i % 2)
        for i in range(7)
    ]


@pytest.mark.parametrize(
    "model_factory",
    [
        lambda dim: GFN(dim, 2, hidden_dim=16, rng=0),
        lambda dim: GCN(dim, 2, hidden_dim=16, rng=0),
        lambda dim: DiffPool(dim, 2, hidden_dim=16, num_clusters=4, rng=0),
    ],
    ids=["GFN", "GCN", "DiffPool"],
)
class TestGraphBatchInvariance:
    def test_embeddings_match_single_item(self, model_factory, graphs):
        model = model_factory(graphs[0].feature_dim)
        batched = model.embed_graphs(graphs, batch_size=7)
        singles = np.concatenate(
            [model.embed_graphs([g], batch_size=1) for g in graphs]
        )
        np.testing.assert_allclose(batched, singles, rtol=1e-9, atol=1e-9)

    def test_embeddings_independent_of_batch_size(self, model_factory, graphs):
        model = model_factory(graphs[0].feature_dim)
        by_two = model.embed_graphs(graphs, batch_size=2)
        by_five = model.embed_graphs(graphs, batch_size=5)
        np.testing.assert_allclose(by_two, by_five, rtol=1e-9, atol=1e-9)

    def test_logits_match_single_item(self, model_factory, graphs):
        model = model_factory(graphs[0].feature_dim)
        model.eval()
        with no_grad():
            batched = model.forward(model.prepare_batch(graphs)).data
            singles = np.concatenate(
                [model.forward(model.prepare_batch([g])).data for g in graphs]
            )
        np.testing.assert_allclose(batched, singles, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name", ["lstm", "bilstm", "attention", "sum", "avg", "max"])
class TestSequencePaddingInvariance:
    def test_padding_does_not_change_logits(self, name):
        """Logits for a sequence are identical whether it is padded to its
        own length or to a longer batch horizon."""
        rng = np.random.default_rng(1)
        head = build_head(name, input_dim=3, num_classes=2, hidden_dim=8, rng=0)
        head.eval()
        short = rng.normal(size=(2, 3))
        long = rng.normal(size=(6, 3))
        with no_grad():
            # Batch the short sequence with a long one (horizon 6)...
            batch, mask = pad_sequences([short, long])
            padded_logits = head(Tensor(batch), mask).data[0]
            # ...and alone (horizon 2).
            solo, solo_mask = pad_sequences([short])
            solo_logits = head(Tensor(solo), solo_mask).data[0]
        np.testing.assert_allclose(padded_logits, solo_logits, rtol=1e-9, atol=1e-9)
