"""Stage 1–4 pipeline invariance: ArrayGraph vs the reference object path.

PR 2 pinned the *kernels* (centrality, compression, features) against
:mod:`repro.graphs.reference`; the ArrayGraph refactor makes the whole
pipeline columnar, so these tests pin the *pipeline*: over many random
seeded economies (:func:`repro.testing.random_chain`), the array-native
four-stage pipeline must produce

- compressed structure identical to the full reference object pipeline
  (extraction → reference compressions) element for element,
- centrality and feature matrices equal to 1e-9,
- encoded tensors and :class:`BAClassifier` scores identical end to end.

A bounded seed subset runs in tier 1; the full randomized depth carries
the ``slow`` marker and runs in ``scripts/tier2.sh``.
"""

import numpy as np
import pytest

from repro.core import BAClassifier, BAClassifierConfig
from repro.gnn.data import encode_graph
from repro.graphs import (
    ArrayGraph,
    GraphConstructionPipeline,
    GraphPipelineConfig,
    flatten_graphs,
)
from repro.graphs.extraction import build_original_pack
from repro.graphs.reference import (
    AddressGraph,
    build_original_graph,
    reference_centrality_matrix,
    reference_compress_multi_transaction_addresses,
    reference_compress_single_transaction_addresses,
    slice_transactions,
    to_address_graph,
    to_array_graph,
)
from repro.seqmodels.trainer import predict_proba_sequences
from repro.core.embedding import embedding_sequences
from repro.testing import random_chain

SMOKE_SEEDS = list(range(3))
FULL_SEEDS = list(range(3, 43))

PIPELINE_CONFIG = GraphPipelineConfig(slice_size=5, psi=0.5, sigma=1)


def _reference_object_pipeline(index, address, config):
    """Stages 1–4 on the object model with the reference kernels."""
    transactions = index.transactions_of(address)
    graphs = []
    for i, chunk in enumerate(
        slice_transactions(transactions, config.slice_size)
    ):
        graph = build_original_graph(address, chunk, slice_index=i)
        graph = reference_compress_single_transaction_addresses(graph)
        graph = reference_compress_multi_transaction_addresses(
            graph, psi=config.psi, sigma=config.sigma
        )
        matrix = reference_centrality_matrix(graph.adjacency_lists())
        for node in graph.nodes:
            node.centrality = matrix[node.node_id]
        graphs.append(graph)
    return graphs


def _assert_structure_identical(arrays: ArrayGraph, expected: AddressGraph):
    """Element-for-element structural equality of the two flavours."""
    actual = to_address_graph(arrays)
    assert actual.center_address == expected.center_address
    assert actual.slice_index == expected.slice_index
    assert actual.time_range == expected.time_range
    assert actual.num_nodes == expected.num_nodes
    assert actual.num_edges == expected.num_edges
    assert actual.center_node_id() == expected.center_node_id()
    for node, ref_node in zip(actual.nodes, expected.nodes):
        assert node.node_id == ref_node.node_id
        assert node.kind == ref_node.kind
        assert node.ref == ref_node.ref
        assert node.merged_count == ref_node.merged_count
        assert node.values == ref_node.values
    for edge, ref_edge in zip(actual.edges, expected.edges):
        assert (edge.src, edge.dst) == (ref_edge.src, ref_edge.dst)
        assert edge.value == ref_edge.value


def _check_pipeline_parity(seed: int):
    # Full-depth seeds also vary the economy's size and shape, so the
    # sweep covers longer histories than the smoke subset.
    _, index, addresses = random_chain(
        seed,
        num_wallets=3 + seed % 2,
        rounds=8 + 4 * (seed % 3),
    )
    pipeline = GraphConstructionPipeline(PIPELINE_CONFIG)
    for address in addresses:
        array_graphs = pipeline.build_many(index, [address])[address]
        reference_graphs = _reference_object_pipeline(
            index, address, PIPELINE_CONFIG
        )
        assert len(array_graphs) == len(reference_graphs)
        for arrays, reference in zip(array_graphs, reference_graphs):
            _assert_structure_identical(arrays, reference)
            np.testing.assert_allclose(
                arrays.centrality,
                np.vstack([node.centrality for node in reference.nodes]),
                rtol=1e-9,
                atol=1e-9,
            )
            for raw in (False, True):
                np.testing.assert_allclose(
                    arrays.feature_matrix(raw=raw),
                    reference.feature_matrix(raw=raw),
                    rtol=1e-9,
                    atol=1e-9,
                )
            encoded_arrays = encode_graph(arrays)
            encoded_reference = encode_graph(to_array_graph(reference))
            np.testing.assert_allclose(
                encoded_arrays.features,
                encoded_reference.features,
                rtol=1e-9,
                atol=1e-9,
            )
            np.testing.assert_allclose(
                encoded_arrays.adjacency.toarray(),
                encoded_reference.adjacency.toarray(),
                rtol=1e-9,
                atol=1e-9,
            )


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_pipeline_parity(seed):
    """Bounded smoke subset of the randomized invariance sweep (tier 1)."""
    _check_pipeline_parity(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_pipeline_parity_full_depth(seed):
    """Full randomized depth of the invariance sweep (tier 2)."""
    _check_pipeline_parity(seed)


# --------------------------------------------------------------------- #
# Stage-1 column builder == object builder
# --------------------------------------------------------------------- #


def _check_builder_parity(seed: int):
    """Every slice built alone from the in-memory index's interned
    columns equals the object builder over the same transactions."""
    _, index, addresses = random_chain(seed)
    for address in addresses:
        columns = index.transaction_columns_of(address)
        chunks = slice_transactions(index.transactions_of(address), 4)
        for i, chunk in enumerate(chunks):
            (from_columns,) = build_original_pack(
                index, [address], [columns[4 * i: 4 * i + 4]], [i]
            ).graphs()
            from_objects = build_original_graph(address, chunk, slice_index=i)
            _assert_structure_identical(from_columns, from_objects)


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_stage1_builder_parity(seed):
    """Column builder == object builder, slice by slice (smoke subset)."""
    _check_builder_parity(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS[:10])
def test_stage1_builder_parity_full_depth(seed):
    """Column builder == object builder, slice by slice (full depth)."""
    _check_builder_parity(seed)


# --------------------------------------------------------------------- #
# End-to-end classifier score parity
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def tiny_classifier():
    """A minimally trained classifier (quality irrelevant: parity only)."""
    _, index, addresses = random_chain(0, rounds=10)
    classifier = BAClassifier(
        BAClassifierConfig(
            slice_size=PIPELINE_CONFIG.slice_size,
            psi=PIPELINE_CONFIG.psi,
            sigma=PIPELINE_CONFIG.sigma,
            gnn_epochs=1,
            head_epochs=1,
            gnn_hidden_dim=8,
            head_hidden_dim=8,
            head_restarts=1,
            seed=0,
        )
    )
    labels = np.array(
        [i % 2 for i in range(len(addresses))], dtype=np.int64
    )
    classifier.fit(addresses, labels, index)
    return classifier


def _check_score_parity(classifier, seed: int):
    """Scores through the array pipeline == scores through the full
    reference object pipeline, on a fresh random chain."""
    _, index, addresses = random_chain(seed)
    array_scores = classifier.predict_proba(addresses, index)

    encoded_by_address = {
        address: [
            encode_graph(to_array_graph(graph))
            for graph in _reference_object_pipeline(
                index, address, classifier.config.pipeline_config()
            )
        ]
        for address in addresses
    }
    sequences = embedding_sequences(
        classifier.encoder, encoded_by_address, addresses
    )
    reference_scores = predict_proba_sequences(
        classifier.head, sequences, classifier.config.max_sequence_length
    )
    np.testing.assert_allclose(
        array_scores, reference_scores, rtol=1e-9, atol=1e-9
    )


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_end_to_end_score_parity(seed, tiny_classifier):
    """BAClassifier scores are pipeline-representation invariant (smoke)."""
    _check_score_parity(tiny_classifier, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS[:10])
def test_end_to_end_score_parity_full_depth(seed, tiny_classifier):
    """BAClassifier scores are pipeline-representation invariant (full)."""
    _check_score_parity(tiny_classifier, seed)


# --------------------------------------------------------------------- #
# Conversion round-trips
# --------------------------------------------------------------------- #


def test_conversion_round_trip():
    """arrays → objects → arrays preserves every column exactly."""
    _, index, addresses = random_chain(1)
    pipeline = GraphConstructionPipeline(PIPELINE_CONFIG)
    for graph in pipeline.build_many(index, [addresses[0]])[addresses[0]]:
        round_tripped = to_array_graph(to_address_graph(graph))
        np.testing.assert_array_equal(graph.kind_codes, round_tripped.kind_codes)
        assert list(graph.refs) == list(round_tripped.refs)
        np.testing.assert_array_equal(
            graph.merged_counts, round_tripped.merged_counts
        )
        np.testing.assert_array_equal(graph.bag_values, round_tripped.bag_values)
        np.testing.assert_array_equal(graph.bag_indptr, round_tripped.bag_indptr)
        np.testing.assert_array_equal(graph.edge_src, round_tripped.edge_src)
        np.testing.assert_array_equal(graph.edge_dst, round_tripped.edge_dst)
        np.testing.assert_array_equal(
            graph.edge_values, round_tripped.edge_values
        )
        np.testing.assert_allclose(
            graph.centrality, round_tripped.centrality, rtol=0, atol=0
        )
        assert graph.center_node_id() == round_tripped.center_node_id()


def test_flatten_works_on_both_flavours():
    """flatten_graphs output is identical for the two representations."""
    _, index, addresses = random_chain(2)
    pipeline = GraphConstructionPipeline(PIPELINE_CONFIG)
    graphs = pipeline.build_many(index, [addresses[0]])[addresses[0]]
    np.testing.assert_allclose(
        flatten_graphs(graphs),
        flatten_graphs([to_address_graph(g) for g in graphs]),
        rtol=0,
        atol=0,
    )
