"""The packed Stage-4 → GFN-input pass against the per-graph oracles.

A build's compressed :class:`~repro.graphs.arrays.GraphPack` runs
Stage 4 (:func:`repro.graphs.augmentation.augment_pack`) and encoding
(:func:`repro.gnn.data.encode_pack`) whole: one symmetric
block-diagonal adjacency, centrality sweeps over contiguous diagonal
blocks of it, Eq. 12 once over the pack and Eq. 13 propagated over the
packed Ã.  The contract pinned here is bitwise, index dtypes included:
every :class:`~repro.gnn.data.EncodedGraph` equals the per-graph
oracles — :func:`~repro.graphs.augmentation.augment_graph` then
:meth:`~repro.graphs.arrays.ArrayGraph.feature_matrix`,
:func:`~repro.graphs.matrices.normalized_adjacency` and
:func:`~repro.gnn.gfn.augment_features` — whatever shares the pack.

A bounded number of Hypothesis examples runs in tier 1; the full depth
carries the ``slow`` marker and runs in ``scripts/tier2.sh``.
"""

import copy
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn.data import EncodedGraph, encode_graph, encode_pack
from repro.gnn.gfn import augment_features
from repro.graphs import (
    ArrayGraph,
    GraphConstructionPipeline,
    GraphPack,
    GraphPipelineConfig,
    augment_graph,
    augment_pack,
)
from repro.graphs import augmentation
from repro.graphs.batched_centrality import DEFAULT_MAX_BATCH_NODES
from repro.graphs.matrices import normalized_adjacency
from repro.testing import random_chain

DEPTHS = (0, 1, 2, 3)


def _stage3_graphs(seed, slice_size=5, **world):
    """Every slice graph of a random world through Stages 1–3."""
    _, index, addresses = random_chain(seed, **world)
    pipeline = GraphConstructionPipeline(
        GraphPipelineConfig(slice_size=slice_size, enable_augmentation=False)
    )
    pack, adjacency = pipeline.build_pack(
        index, {address: None for address in addresses}
    )
    assert adjacency is None  # Stage 4 is off
    return pack.graphs()


def _oracle(graph, k):
    """Per-graph Stage 4 + Eq. 12 + Eq. 13 on a fresh copy of ``graph``."""
    graph = augment_graph(copy.copy(graph))
    features = graph.feature_matrix()
    adjacency = normalized_adjacency(graph)
    encoded = EncodedGraph(
        features, adjacency, -1, graph.center_address, graph.slice_index
    )
    return features, adjacency, augment_features(encoded, k)


def _assert_bitwise(actual, expected, what):
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def _check_pack(graphs, budget=DEFAULT_MAX_BATCH_NODES):
    """Stage 4 (under a ``budget``-node sweep budget) + encode over one
    pack of ``graphs`` (Stage-3 output) equals the per-graph oracles for
    every depth in ``DEPTHS``."""
    for k in DEPTHS:
        pack = GraphPack.of(graphs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(augmentation, "DEFAULT_MAX_BATCH_NODES", budget)
            adjacency = augment_pack(pack)
        encoded = encode_pack(pack, adjacency, gfn_k=k)
        assert len(encoded) == len(graphs)
        for graph, row in zip(graphs, encoded):
            features, normalized, propagated = _oracle(graph, k)
            assert row.address == graph.center_address
            assert row.slice_index == graph.slice_index
            _assert_bitwise(row.features, features, "features")
            for part in ("data", "indices", "indptr"):
                _assert_bitwise(
                    getattr(row.adjacency, part),
                    getattr(normalized, part),
                    part,
                )
            assert list(row.cache) == [f"gfn_k{k}"]
            _assert_bitwise(row.cache[f"gfn_k{k}"], propagated, "gfn")


def _lone_graph(name, num_nodes, center_id, edges=()):
    """A hand-built graph of address nodes with one-value bags."""
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([d for _, d in edges], dtype=np.int64)
    return ArrayGraph(
        center_address=name,
        slice_index=0,
        time_range=(1.0, 2.0),
        kind_codes=np.zeros(num_nodes, dtype=np.int64),
        refs=np.array(
            [f"{name}-{i}" for i in range(num_nodes)], dtype=object
        ),
        merged_counts=np.ones(num_nodes, dtype=np.int64),
        bag_values=np.arange(1, num_nodes + 1, dtype=np.float64) * 1e5,
        bag_indptr=np.arange(num_nodes + 1, dtype=np.int64),
        edge_src=src,
        edge_dst=dst,
        edge_values=np.ones(src.size),
        edge_times=np.zeros(src.size),
        center_id=center_id,
    )


class TestPackedPassParity:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        slice_size=st.sampled_from([3, 5, 9]),
    )
    def test_pack_equals_per_graph_oracles(self, seed, slice_size):
        graphs = _stage3_graphs(
            seed, slice_size, num_wallets=3 + seed % 2, rounds=6 + seed % 4
        )
        _check_pack(graphs)

    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        slice_size=st.sampled_from([3, 5, 9, 20]),
        budget=st.sampled_from([16, 64, DEFAULT_MAX_BATCH_NODES]),
    )
    def test_pack_equals_per_graph_oracles_full(
        self, seed, slice_size, budget
    ):
        graphs = _stage3_graphs(
            seed, slice_size, num_wallets=3 + seed % 3, rounds=6 + seed % 6
        )
        _check_pack(graphs, budget)

    def test_zero_edge_graph(self):
        graphs = _stage3_graphs(11)[:3]
        lonely = _lone_graph("zero-edge", 3, 0)
        _check_pack([graphs[0], lonely, *graphs[1:]])

    def test_one_node_graph(self):
        graphs = _stage3_graphs(12)[:3]
        _check_pack([*graphs, _lone_graph("one-node", 1, 0)])

    def test_graph_without_centre(self):
        graphs = _stage3_graphs(13)[:3]
        stranger = _lone_graph(
            "no-centre", 4, None, [(0, 1), (1, 2), (2, 3)]
        )
        assert stranger.center_node_id() is None
        _check_pack([graphs[0], stranger, *graphs[1:]])

    def test_pack_over_budget_is_split(self):
        """Enough graphs that Stage 4 sweeps the pack in several
        contiguous runs under the default 1024-node budget."""
        graphs = _stage3_graphs(14, slice_size=9, num_wallets=4, rounds=10)
        repeats = 1 + 1100 // sum(graph.num_nodes for graph in graphs)
        batch = graphs * repeats
        assert sum(graph.num_nodes for graph in batch) > DEFAULT_MAX_BATCH_NODES
        sweeps = []
        sweep = augmentation.centrality_matrix_block_diagonal

        def counted(*args, **kwargs):
            sweeps.append(args[0].shape[0])
            return sweep(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                augmentation, "centrality_matrix_block_diagonal", counted
            )
            augment_pack(GraphPack.of(batch))
        assert len(sweeps) > 1
        _check_pack(batch)


def test_stage4_adjacency_is_symmetric_and_canonical():
    """Stage 4 hands its pack adjacency to the centrality sweeps as its
    own transpose: that is only sound while it equals
    ``transpose().tocsr()`` array for array, index dtypes included."""
    pack = GraphPack.of(_stage3_graphs(15, num_wallets=4, rounds=10))
    adjacency = augment_pack(pack)
    assert adjacency.has_canonical_format
    transpose = adjacency.transpose().tocsr()
    for part in ("data", "indices", "indptr"):
        _assert_bitwise(
            getattr(adjacency, part), getattr(transpose, part), part
        )


def test_packed_encode_beats_per_graph():
    """Live speed ratio, measured in one process so it holds on any
    machine: best of 5 runs each on 12 pipeline graphs.  The packed
    pass pays Stage 4's sweeps, Eq. 12 and Eq. 13 once per pack instead
    of once per graph; a per-graph loop slipping back into
    ``augment_pack``/``encode_pack`` fails this."""
    batch = _stage3_graphs(7, slice_size=4, num_wallets=4, rounds=10)[:12]
    assert len(batch) == 12
    pack = GraphPack.of(batch)

    def best_of_5(run):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(10):
                run()
            best = min(best, time.perf_counter() - start)
        return best

    def per_graph():
        for graph in batch:
            augment_features(encode_graph(augment_graph(graph)), 2)

    def packed():
        encode_pack(pack, augment_pack(pack), gfn_k=2)

    one_by_one = best_of_5(per_graph)
    whole = best_of_5(packed)
    assert one_by_one / whole >= 1.5, (one_by_one, whole)
