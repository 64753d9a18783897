"""Stage 1 from columns: one packed builder for both index kinds.

:func:`repro.graphs.extraction.build_original_pack` builds every slice
graph of a build from :class:`~repro.chain.explorer.TxArrays` columns,
which the in-memory :class:`~repro.chain.explorer.ChainIndex` interns at
ingest and the chain store maps from disk.  Pinned here:

- **Oracle parity** — over random :func:`repro.testing.random_chain`
  worlds, for random multi-address requests with random subsets of
  slices, the Stage-1 pack of both index kinds equals the per-slice
  object builder :func:`repro.graphs.reference.build_original_graph`
  (through :func:`~repro.graphs.reference.to_array_graph`) packed in
  request order, element for element and dtype for dtype.  A bounded
  number of Hypothesis examples runs in tier 1; the full depth carries
  the ``slow`` marker and runs in ``scripts/tier2.sh``.
- **Empty packs** are a :class:`~repro.errors.ValidationError`.
- **Packing pays** — a live speed ratio of one builder call over a
  build's slices against one call per slice.
"""

import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import ChainStore, StoreBackedChainIndex
from repro.errors import ValidationError
from repro.graphs import (
    GraphConstructionPipeline,
    GraphPack,
    GraphPipelineConfig,
)
from repro.graphs.extraction import build_original_pack
from repro.graphs.reference import (
    build_original_graph,
    slice_transactions,
    to_array_graph,
)
from repro.testing import random_chain

_WORLDS = dict(
    seed=st.integers(0, 10_000),
    num_wallets=st.integers(2, 5),
    rounds=st.integers(2, 12),
    slice_size=st.integers(1, 6),
    data=st.data(),
)


def _draw_requests(data, index, addresses, slice_size):
    """Random addresses in random order, each wanting every slice
    (``None``) or a random non-empty subset of its slices."""
    chosen = data.draw(
        st.lists(st.sampled_from(addresses), min_size=1, unique=True)
    )
    requests = {}
    for address in chosen:
        num_slices = -(-index.transaction_count(address) // slice_size)
        requests[address] = data.draw(
            st.none()
            | st.lists(
                st.integers(0, num_slices - 1), min_size=1, max_size=4
            )
        )
    return requests


def _oracle(index, requests, slice_size):
    """The per-slice object builds of ``requests``, in request order,
    and each slice's transactions."""
    graphs, chunks = [], []
    for address, wanted in requests.items():
        slices = slice_transactions(index.transactions_of(address), slice_size)
        for i in sorted(set(range(len(slices)) if wanted is None else wanted)):
            graphs.append(
                to_array_graph(
                    build_original_graph(address, slices[i], slice_index=i)
                )
            )
            chunks.append(slices[i])
    return GraphPack.of(graphs), chunks


def _assert_pack_equals_oracle(pack, oracle, chunks):
    for field in pack.__dataclass_fields__:
        actual, expected = getattr(pack, field), getattr(oracle, field)
        if field == "edge_times":
            # The object model carries no edge times: each edge has its
            # transaction's timestamp.
            expected = np.array(
                [
                    tx.timestamp
                    for chunk in chunks
                    for tx in chunk
                    for _ in range(len(tx.inputs) + len(tx.outputs))
                ],
                dtype=np.float64,
            )
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, field
            assert actual.shape == expected.shape, field
            if expected.dtype == object:
                assert actual.tolist() == expected.tolist(), field
                assert all(type(ref) is str for ref in actual), field
            else:
                assert actual.tobytes() == expected.tobytes(), field
        else:
            # repr tells numpy scalars from Python ones.
            assert repr(actual) == repr(expected), field


def _check_stage1_parity(seed, num_wallets, rounds, slice_size, data):
    _, index, addresses = random_chain(
        seed, num_wallets=num_wallets, rounds=rounds
    )
    requests = _draw_requests(data, index, addresses, slice_size)
    oracle, chunks = _oracle(index, requests, slice_size)
    pipeline = GraphConstructionPipeline(
        GraphPipelineConfig(
            slice_size=slice_size,
            enable_single_compression=False,
            enable_multi_compression=False,
            enable_augmentation=False,
        )
    )
    with tempfile.TemporaryDirectory() as directory:
        store = ChainStore(directory, writable=True)
        store.sync_from_index(index)
        view = StoreBackedChainIndex(store)
        try:
            for source in (index, view):
                pack, adjacency = pipeline.build_pack(source, requests)
                assert adjacency is None
                _assert_pack_equals_oracle(pack, oracle, chunks)
        finally:
            view.close()
            store.close()


class TestStage1Parity:
    @settings(max_examples=10, deadline=None)
    @given(**_WORLDS)
    def test_pack_equals_object_oracle(
        self, seed, num_wallets, rounds, slice_size, data
    ):
        _check_stage1_parity(seed, num_wallets, rounds, slice_size, data)

    @pytest.mark.slow
    @settings(max_examples=150, deadline=None)
    @given(**_WORLDS)
    def test_pack_equals_object_oracle_full(
        self, seed, num_wallets, rounds, slice_size, data
    ):
        _check_stage1_parity(seed, num_wallets, rounds, slice_size, data)


def test_empty_pack_rejected():
    """Zero graphs or zero slices make no pack: a ValidationError, not
    numpy's concatenate error."""
    _, index, _ = random_chain(2)
    with pytest.raises(ValidationError):
        GraphPack.of([])
    with pytest.raises(ValidationError):
        build_original_pack(index, [], [], [])


def test_packed_stage1_beats_per_slice():
    """Live speed ratio, measured in one process so it holds on any
    machine: best of 5 runs each over a build of at least 100 slices.
    One builder call pays its numpy calls and name decoding once per
    build instead of once per slice; a per-slice loop slipping back
    into Stage 1 fails this (packed runs 3-4x the per-slice calls on a
    2-CPU x86-64 host)."""
    _, index, addresses = random_chain(5, num_wallets=6, rounds=20)
    centres, chunks, indices = [], [], []
    for address in addresses:
        history = index.transaction_columns_of(address)
        for i in range(0, len(history), 2):
            centres.append(address)
            chunks.append(history[i: i + 2])
            indices.append(i // 2)
    assert len(chunks) >= 100

    def best_of_5(run):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(5):
                run()
            best = min(best, time.perf_counter() - start)
        return best

    per_slice = best_of_5(
        lambda: [
            build_original_pack(index, [c], [chunk], [i])
            for c, chunk, i in zip(centres, chunks, indices)
        ]
    )
    packed = best_of_5(
        lambda: build_original_pack(index, centres, chunks, indices)
    )
    assert per_slice / packed >= 1.5, (per_slice, packed)
