"""Packed Stages 1–3: a build's slice graphs compressed in one node space.

Stage 1 (:func:`repro.graphs.extraction.build_original_pack`) and the
two compression passes (:func:`compress_single_transaction_pack`,
:func:`compress_multi_transaction_pack`) run once over every slice
graph of a build.  The contract pinned here is bitwise: each graph of a
multi-graph pack comes out column for column equal to the same graph
compressed alone in a one-graph pack — whatever else shares the pack,
and in whatever order.  The one-graph pack is itself what the public
per-graph ``compress_*_addresses`` functions run, and those stay pinned
to the reference oracles in ``tests/test_vectorized_parity.py``.

A bounded number of Hypothesis examples runs in tier 1; the full depth
carries the ``slow`` marker and runs in ``scripts/tier2.sh``.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import KIND_CODES, ArrayGraph, GraphPack
from repro.graphs.compression import (
    compress_multi_transaction_addresses,
    compress_multi_transaction_pack,
    compress_single_transaction_addresses,
    compress_single_transaction_pack,
)
from repro.graphs.extraction import build_original_pack
from repro.graphs.model import NodeKind
from repro.graphs.reference import (
    reference_compress_multi_transaction_addresses,
    to_address_graph,
)
from repro.testing import random_chain

_ADDRESS = KIND_CODES[NodeKind.ADDRESS]
_TX = KIND_CODES[NodeKind.TRANSACTION]


def _stages_2_3(pack, psi=0.6, sigma=2):
    return compress_multi_transaction_pack(
        compress_single_transaction_pack(pack), psi=psi, sigma=sigma
    )


def _slices(seed, slice_size=5, **world):
    """``(index, centres, column slices, slice indices)`` of a random
    world."""
    _, index, addresses = random_chain(seed, **world)
    centres, chunks, indices = [], [], []
    for address in addresses:
        history = index.transaction_columns_of(address)
        for i in range(0, len(history), slice_size):
            centres.append(address)
            chunks.append(history[i: i + slice_size])
            indices.append(i // slice_size)
    return index, centres, chunks, indices


def _alone(index, centre, chunk, slice_index, psi=0.6, sigma=2):
    """One slice through Stages 1–3 in a one-graph pack."""
    pack = build_original_pack(index, [centre], [chunk], [slice_index])
    (graph,) = _stages_2_3(pack, psi, sigma).graphs()
    return graph


def _assert_bitwise_equal(actual: ArrayGraph, expected: ArrayGraph):
    assert actual.center_address == expected.center_address
    assert actual.slice_index == expected.slice_index
    assert actual.time_range == expected.time_range
    assert actual.center_node_id() == expected.center_node_id()
    for column in (
        "kind_codes",
        "merged_counts",
        "bag_values",
        "bag_indptr",
        "edge_src",
        "edge_dst",
        "edge_values",
        "edge_times",
    ):
        a, b = getattr(actual, column), getattr(expected, column)
        assert a.dtype == b.dtype, column
        assert a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column
    assert actual.refs.tolist() == expected.refs.tolist()
    assert all(type(ref) is str for ref in actual.refs)


def _toy_graph(rows, num_txs, name):
    """A hand-built graph: ``rows[i]`` lists the txs address ``i`` pays.

    Node 0 is the centre (an address paying tx 0); then one address
    node per row, then the transactions.
    """
    refs = ["center"] + [f"{name}-a{i}" for i in range(len(rows))]
    refs += [f"{name}-t{j}" for j in range(num_txs)]
    kinds = [_ADDRESS] * (1 + len(rows)) + [_TX] * num_txs
    first_tx = 1 + len(rows)
    src, dst = [0], [first_tx]
    for i, txs in enumerate(rows):
        for j in txs:
            src.append(1 + i)
            dst.append(first_tx + j)
    values = np.arange(1, len(src) + 1, dtype=np.float64) * 1000.0
    endpoints = np.stack([src, dst], axis=1).ravel()
    order = np.argsort(endpoints, kind="stable")
    bag_indptr = np.zeros(len(refs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=len(refs)), out=bag_indptr[1:])
    return ArrayGraph(
        center_address="center",
        slice_index=0,
        time_range=(1.0, 2.0),
        kind_codes=np.array(kinds, dtype=np.int64),
        refs=np.array(refs, dtype=object),
        merged_counts=np.ones(len(refs), dtype=np.int64),
        bag_values=np.repeat(values, 2)[order],
        bag_indptr=bag_indptr,
        edge_src=np.array(src, dtype=np.int64),
        edge_dst=np.array(dst, dtype=np.int64),
        edge_values=values,
        edge_times=np.full(len(src), 1.5),
        center_id=0,
    )


#: Four addresses on a cycle of four transactions: every row shares one
#: transaction with each neighbour, so all four rows tie at 3 non-zeros
#: (psi 0.4, sigma 2) and the densest-first order alone decides the
#: merge — the first row claims itself and both neighbours.
_TIE_ROWS = [[0, 1], [1, 2], [2, 3], [3, 0]]


def _check_pack_matches_singletons(seed, order_seed, psi, sigma):
    index, centres, chunks, indices = _slices(
        seed, num_wallets=3 + seed % 2, rounds=6 + seed % 5
    )
    alone = [
        _alone(index, c, chunk, i, psi, sigma)
        for c, chunk, i in zip(centres, chunks, indices)
    ]
    order = np.random.default_rng(order_seed).permutation(len(centres))
    for permutation in (np.arange(len(centres)), order):
        pack = build_original_pack(
            index,
            [centres[k] for k in permutation],
            [chunks[k] for k in permutation],
            [indices[k] for k in permutation],
        )
        packed = _stages_2_3(pack, psi, sigma).graphs()
        assert len(packed) == len(permutation)
        for k, graph in zip(permutation, packed):
            _assert_bitwise_equal(graph, alone[k])


class TestPackParity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        order_seed=st.integers(0, 10_000),
        psi=st.sampled_from([0.3, 0.5, 0.6]),
        sigma=st.sampled_from([1, 2]),
    )
    def test_pack_equals_singleton_packs(self, seed, order_seed, psi, sigma):
        _check_pack_matches_singletons(seed, order_seed, psi, sigma)

    @pytest.mark.slow
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        order_seed=st.integers(0, 10_000),
        psi=st.sampled_from([0.3, 0.5, 0.6]),
        sigma=st.sampled_from([1, 2]),
    )
    def test_pack_equals_singleton_packs_full(
        self, seed, order_seed, psi, sigma
    ):
        _check_pack_matches_singletons(seed, order_seed, psi, sigma)

    def test_graph_without_centre(self):
        index, centres, chunks, indices = _slices(3)
        stranger = "not-on-chain"
        pack = build_original_pack(
            index, centres[:2] + [stranger], chunks[:3], indices[:3]
        )
        packed = _stages_2_3(pack, psi=0.5, sigma=1).graphs()
        assert packed[2].center_node_id() is None
        _assert_bitwise_equal(
            packed[2], _alone(index, stranger, chunks[2], indices[2], 0.5, 1)
        )
        for k in range(2):
            _assert_bitwise_equal(
                packed[k],
                _alone(index, centres[k], chunks[k], indices[k], 0.5, 1),
            )

    def test_zero_edge_graph_in_a_pack(self):
        index, centres, chunks, indices = _slices(4)
        lonely = ArrayGraph(
            center_address="center",
            slice_index=7,
            time_range=(0.0, 0.0),
            kind_codes=np.array([_ADDRESS], dtype=np.int64),
            refs=np.array(["center"], dtype=object),
            merged_counts=np.ones(1, dtype=np.int64),
            bag_values=np.empty(0),
            bag_indptr=np.zeros(2, dtype=np.int64),
            edge_src=np.empty(0, dtype=np.int64),
            edge_dst=np.empty(0, dtype=np.int64),
            edge_values=np.empty(0),
            edge_times=np.empty(0),
            center_id=0,
        )
        built = build_original_pack(
            index, centres[:3], chunks[:3], indices[:3]
        )
        graphs = built.graphs()
        pack = GraphPack.of(graphs[:1] + [lonely] + graphs[1:])
        packed = _stages_2_3(pack, psi=0.5, sigma=1).graphs()
        _assert_bitwise_equal(packed[1], lonely)
        for k, graph in zip(range(3), packed[:1] + packed[2:]):
            _assert_bitwise_equal(
                graph,
                _alone(index, centres[k], chunks[k], indices[k], 0.5, 1),
            )
        # Alone, a zero-edge graph is a no-op for both passes.
        solo = GraphPack.of([lonely])
        assert compress_single_transaction_pack(solo) is solo
        assert compress_multi_transaction_pack(solo) is solo
        assert compress_single_transaction_addresses(lonely) is lonely
        assert compress_multi_transaction_addresses(lonely) is lonely

    def test_mixed_merging_and_no_op_graphs(self):
        merging = _toy_graph(_TIE_ROWS, 4, "m")
        still = _toy_graph([[0, 1], [2, 3]], 4, "s")
        # Alone, the quiet graph is a no-op: the input comes back.
        assert (
            compress_multi_transaction_addresses(still, psi=0.4, sigma=2)
            is still
        )
        quiet = GraphPack.of([still, still])
        assert compress_multi_transaction_pack(quiet, 0.4, 2) is quiet
        # Packed with a merging graph, it passes through unchanged
        # (no edge aggregation, no renumbering) and the other merges.
        pack = GraphPack.of([still, merging, still])
        out = compress_multi_transaction_pack(pack, 0.4, 2)
        assert out is not pack
        first, merged, last = out.graphs()
        _assert_bitwise_equal(first, still)
        _assert_bitwise_equal(last, still)
        _assert_bitwise_equal(
            merged,
            compress_multi_transaction_addresses(merging, psi=0.4, sigma=2),
        )
        assert merged.num_nodes == merging.num_nodes - 2

    def test_row_count_tie_keeps_per_graph_order(self):
        tie = _toy_graph(_TIE_ROWS, 4, "tie")
        alone = compress_multi_transaction_addresses(tie, psi=0.4, sigma=2)
        (hyper,) = alone.nodes_of_kind(NodeKind.MULTI_HYPER)
        # The tie resolved to the first row: it absorbed itself and both
        # of its neighbours (rows 0, 1 and 3), leaving row 2 alone.
        assert alone.refs[hyper] == "m:tie-a0"
        assert alone.merged_counts[hyper] == 3
        reference = reference_compress_multi_transaction_addresses(
            to_address_graph(tie), psi=0.4, sigma=2
        )
        assert [n.ref for n in reference.nodes] == alone.refs.tolist()
        # Deep in a pack of many rows, the tie resolves the same way.
        others = build_original_pack(*_slices(9)).graphs()
        pack = GraphPack.of(others + [tie])
        packed = compress_multi_transaction_pack(pack, 0.4, 2).graphs()
        _assert_bitwise_equal(packed[-1], alone)


@pytest.fixture(scope="module")
def original_graphs():
    """Stage-1 slice graphs of a small economy (before compression)."""
    graphs = build_original_pack(
        *_slices(11, slice_size=10, num_wallets=5, rounds=14)
    ).graphs()
    assert len(graphs) >= 12
    return graphs


def test_packed_compression_beats_per_graph(original_graphs):
    """Live speed ratio, measured in one process so it holds on any
    machine: best of 5 runs each on 12 pipeline graphs.  The packed
    Stage-2/3 passes pay their numpy calls once per pack instead of
    once per graph; a per-graph loop slipping back into them fails
    this (packed runs ~7x the one-graph loop on a 2-CPU x86-64
    host)."""
    batch = original_graphs[:12]
    pack = GraphPack.of(batch)

    def best_of_5(run):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(10):
                run()
            best = min(best, time.perf_counter() - start)
        return best

    per_graph = best_of_5(
        lambda: [
            compress_multi_transaction_addresses(
                compress_single_transaction_addresses(graph)
            )
            for graph in batch
        ]
    )
    packed = best_of_5(lambda: _stages_2_3(pack))
    assert per_graph / packed >= 1.5, (per_graph, packed)
