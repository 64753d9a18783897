"""Memory-mapped chain store: parity + durability battery.

The chain store persists the interned transaction columns
(:class:`repro.chain.TxArrays`) as flat ``.npy`` segments that readers
map with ``np.memmap`` instead of materialising Python objects.  These
tests pin its four contracts:

- **Parity** — over randomized :func:`repro.testing.random_chain`
  economies, a :class:`StoreBackedChainIndex` reproduces the in-memory
  :class:`ChainIndex` exactly: columns element-for-element, pipeline
  graphs and encoded tensors, and scoring-service probabilities to
  1e-9.  A bounded seed subset runs in tier 1; the full randomized
  depth carries the ``slow`` marker (``scripts/tier2.sh``).
- **Durability** — the writer commits the manifest last, so a crash can
  only tear the *tail*: a torn tail is detected at open, the store
  falls back to the last committed segment, and re-syncing from a live
  index reproduces identical columns and scores.  Corruption anywhere
  else refuses loudly (:class:`repro.errors.ChainStoreError`).
- **Cluster lifecycle** — store-backed shard workers survive block
  appends with a payload-free remap message (``starts`` stays 1),
  ``close()`` releases every mapped segment (asserted via the process
  fd table), and a store-backed warm restart scores with zero
  construction misses.
- **Memo discipline** — store reads must never fill the in-memory
  index's interned column table (``ChainIndex._tx_columns``), and the
  store-backed resident footprint stays flat across repeated scoring
  sweeps.
"""

import gc
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.chain import ChainStore, StoreBackedChainIndex, attach_index
from repro.core import BAClassifier, BAClassifierConfig
from repro.errors import ChainStoreError
from repro.gnn.data import encode_graph
from repro.graphs import GraphConstructionPipeline, GraphPipelineConfig
from repro.serve import (
    AddressScoringService,
    ClusterConfig,
    ClusterScoringService,
)
from repro.testing import append_self_spend, random_chain

SMOKE_SEEDS = [11, 12]
FULL_SEEDS = list(range(13, 29))

SLICE_SIZE = 4
PIPELINE_CONFIG = GraphPipelineConfig(slice_size=SLICE_SIZE, psi=0.5, sigma=1)


def _store_view(index, directory):
    """A writable store synced from ``index`` plus a reader view."""
    store = ChainStore(directory, writable=True)
    store.sync_from_index(index)
    return store, StoreBackedChainIndex(store)


def _fit_classifier(index, addresses):
    classifier = BAClassifier(
        BAClassifierConfig(
            slice_size=SLICE_SIZE,
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


def _assert_column_parity(index, view, addresses):
    """Store columns must equal the in-memory interned columns exactly.

    Both index kinds intern addresses and txids in ingestion order,
    inputs before outputs, and sort by the one slice order, so even
    the integer keys agree, not just the decoded structure.
    """
    for address in addresses:
        want = index.transaction_columns_of(address)
        got = view.transaction_columns_of(address)
        assert len(got) == len(want), address
        for expected, actual in zip(want, got):
            assert actual.key == expected.key
            assert actual.timestamp == expected.timestamp
            np.testing.assert_array_equal(
                actual.input_keys, expected.input_keys
            )
            np.testing.assert_array_equal(
                actual.input_values, expected.input_values
            )
            np.testing.assert_array_equal(
                actual.output_keys, expected.output_keys
            )
            np.testing.assert_array_equal(
                actual.output_values, expected.output_values
            )


def _assert_pipeline_parity(index, view, addresses):
    """Pipeline graphs from mapped columns == graphs from objects."""
    for address in addresses:
        reference = GraphConstructionPipeline(PIPELINE_CONFIG).build_many(
            index, [address]
        )[address]
        mapped = GraphConstructionPipeline(PIPELINE_CONFIG).build_many(
            view, [address]
        )[address]
        assert len(mapped) == len(reference), address
        for want, got in zip(reference, mapped):
            want_t = encode_graph(want)
            got_t = encode_graph(got)
            assert (
                got_t.adjacency != want_t.adjacency
            ).nnz == 0, address
            np.testing.assert_allclose(
                got_t.features, want_t.features, rtol=0, atol=1e-9
            )


def _parity_case(seed, tmp_path):
    chain, index, addresses = random_chain(seed, num_wallets=3, rounds=8)
    store, view = _store_view(index, tmp_path / f"store{seed}")
    try:
        _assert_column_parity(index, view, addresses)
        _assert_pipeline_parity(index, view, addresses)

        classifier = _fit_classifier(index, addresses)
        single = AddressScoringService(classifier, index)
        baseline = single.score(addresses)
        single.close()
        backed = AddressScoringService(classifier, view)
        scores = backed.score(addresses)
        backed.close()
        for address in addresses:
            np.testing.assert_allclose(
                scores[address].probabilities,
                baseline[address].probabilities,
                rtol=1e-9,
                atol=1e-9,
            )
    finally:
        view.close()
        store.close()


class TestStoreParity:
    """Satellite 1: randomized store-vs-memory parity sweep."""

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_parity_smoke(self, seed, tmp_path):
        _parity_case(seed, tmp_path)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", FULL_SEEDS)
    def test_parity_full(self, seed, tmp_path):
        _parity_case(seed, tmp_path)

    def test_queries_after_append_and_remap(self, tmp_path):
        """A reader view catches up on remap() after a tail append."""
        chain, index, addresses = random_chain(21)
        store, view = _store_view(index, tmp_path / "store")
        try:
            before = view.total_transactions()
            append_self_spend(chain, addresses[0])
            store.sync_from_index(index)
            assert view.remap() >= 1
            assert view.total_transactions() == index.total_transactions()
            assert view.total_transactions() > before
            _assert_column_parity(index, view, addresses)
        finally:
            view.close()
            store.close()


class TestDurability:
    """Satellite 2: torn tails recover, deeper corruption refuses."""

    def _two_segment_store(self, tmp_path):
        chain, index, addresses = random_chain(31)
        store = ChainStore(tmp_path / "store", writable=True)
        half = index.total_transactions() // 2
        pairs = index.transactions_since(0)
        store.append_transactions(pairs[:half])
        store.append_transactions(pairs[half:])
        assert store.num_segments == 2
        store.close()
        return chain, index, addresses, tmp_path / "store"

    def test_torn_tail_truncated_column(self, tmp_path):
        """A truncated tail column is detected at open; the store falls
        back to the committed prefix and a re-sync restores parity."""
        chain, index, addresses, directory = self._two_segment_store(
            tmp_path
        )
        victim = directory / "seg_00000001.in_keys.npy"
        payload = victim.read_bytes()
        victim.write_bytes(payload[: len(payload) // 2])

        store = ChainStore(directory, writable=True)
        try:
            assert store.recovered_tail == "seg_00000001"
            assert store.num_segments == 1
            # Re-ingest the lost tail from the live index.
            assert store.sync_from_index(index) > 0
            view = StoreBackedChainIndex(store)
            _assert_column_parity(index, view, addresses)
            view.close()
        finally:
            store.close()

    def test_torn_tail_token_mismatch_readonly(self, tmp_path):
        """A reader drops a token-mismatched tail without rewriting the
        manifest (it may not own the directory)."""
        _, index, _, directory = self._two_segment_store(tmp_path)
        meta_path = directory / "seg_00000001.json"
        meta = json.loads(meta_path.read_text())
        meta["token"] = "torn-" + meta["token"]
        meta_path.write_text(json.dumps(meta))
        manifest_before = (directory / "manifest.json").read_bytes()

        store = ChainStore(directory)
        try:
            assert store.recovered_tail == "seg_00000001"
            assert store.num_segments == 1
            assert (
                directory / "manifest.json"
            ).read_bytes() == manifest_before
        finally:
            store.close()

    def test_non_tail_corruption_raises(self, tmp_path):
        """Only the tail can legitimately tear; corruption of an
        interior segment means the store is unusable."""
        _, _, _, directory = self._two_segment_store(tmp_path)
        victim = directory / "seg_00000000.timestamps.npy"
        payload = victim.read_bytes()
        victim.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ChainStoreError):
            ChainStore(directory)

    def test_stray_uncommitted_files_ignored(self, tmp_path):
        """Files not listed in the manifest (a crash between column
        writes and the manifest commit) are invisible to readers."""
        chain, index, addresses, directory = self._two_segment_store(
            tmp_path
        )
        stray = directory / "seg_00000002.timestamps.npy"
        stray.write_bytes(b"\x93NUMPY garbage")
        store = ChainStore(directory, writable=True)
        try:
            assert store.recovered_tail is None
            assert store.num_segments == 2
            view = StoreBackedChainIndex(store)
            _assert_column_parity(index, view, addresses)
            view.close()
        finally:
            store.close()

    def test_recovery_reproduces_identical_scores(self, tmp_path):
        """End to end: tear the tail, recover, re-sync, and the
        store-backed service scores match the pre-crash baseline."""
        chain, index, addresses, directory = self._two_segment_store(
            tmp_path
        )
        classifier = _fit_classifier(index, addresses)
        single = AddressScoringService(classifier, index)
        baseline = single.score(addresses)
        single.close()

        victim = directory / "seg_00000001.out_values.npy"
        payload = victim.read_bytes()
        victim.write_bytes(payload[: len(payload) // 3])

        store = ChainStore(directory, writable=True)
        try:
            assert store.recovered_tail == "seg_00000001"
            store.sync_from_index(index)
            view = StoreBackedChainIndex(store)
            service = AddressScoringService(classifier, view)
            scores = service.score(addresses)
            service.close()
            view.close()
            for address in addresses:
                np.testing.assert_allclose(
                    scores[address].probabilities,
                    baseline[address].probabilities,
                    rtol=1e-9,
                    atol=1e-9,
                )
        finally:
            store.close()

    def test_writer_refuses_foreign_index(self, tmp_path):
        """sync_from_index spot-checks the boundary txid so a store
        cannot silently absorb a different chain's history."""
        _, _, _, directory = self._two_segment_store(tmp_path)
        _, other_index, _ = random_chain(32)
        store = ChainStore(directory, writable=True)
        try:
            with pytest.raises(ChainStoreError):
                store.sync_from_index(other_index)
        finally:
            store.close()

    def test_readonly_store_refuses_appends(self, tmp_path):
        _, index, _, directory = self._two_segment_store(tmp_path)
        store = ChainStore(directory)
        try:
            with pytest.raises(ChainStoreError):
                store.append_transactions(index.transactions_since(0))
        finally:
            store.close()


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


class TestClusterLifecycle:
    """Satellite 3: mmap lifecycle under the scoring cluster."""

    @pytest.fixture(scope="class")
    def economy(self):
        chain, index, addresses = random_chain(41, num_wallets=3, rounds=8)
        classifier = _fit_classifier(index, addresses)
        single = AddressScoringService(classifier, index)
        baseline = single.score(addresses)
        single.close()
        return chain, index, addresses, classifier, baseline

    def test_append_remaps_without_restart(self, economy, tmp_path):
        """A block append streams a tail segment; live workers remap it
        instead of being restarted or re-pickled an index."""
        chain, index, addresses, classifier, _ = economy
        service = ClusterScoringService(
            classifier,
            index,
            config=ClusterConfig(
                num_shards=2, num_workers=1, store_dir=str(tmp_path)
            ),
        )
        before = obs.snapshot()
        try:
            service.score(addresses)
            append_self_spend(chain, addresses[0])
            single = AddressScoringService(classifier, index)
            expected = single.score(addresses)
            single.close()
            scores = service.score(addresses)
            after = obs.snapshot()

            def delta(kind, name):
                return after[kind].get(name, 0) - before[kind].get(name, 0)

            assert delta("counters", "pool_starts_total") == 1
            assert delta("gauges", "pool_workers") == 1
            assert delta("counters", "pool_remaps_total") >= 1
            for address in addresses:
                np.testing.assert_allclose(
                    scores[address].probabilities,
                    expected[address].probabilities,
                    rtol=1e-9,
                    atol=1e-9,
                )
        finally:
            service.close()

    def test_close_releases_every_mapped_segment(self, economy, tmp_path):
        """close() must drop every memmap: the process fd table returns
        to its pre-open size once the service is closed and collected."""
        _, index, addresses, classifier, _ = economy
        gc.collect()
        before = _fd_count()
        service = ClusterScoringService(
            classifier,
            index,
            config=ClusterConfig(
                num_shards=2, num_workers=0, store_dir=str(tmp_path)
            ),
        )
        service.score(addresses[:2])
        assert _fd_count() > before  # segments actually mapped
        service.close()
        del service
        gc.collect()
        assert _fd_count() == before

    def test_store_backed_warm_restart(self, economy, tmp_path):
        """A fresh store-backed cluster over the same directory restores
        the warm cache and scores with zero construction misses."""
        _, index, addresses, classifier, _ = economy
        # Earlier tests may have appended blocks to the class-scoped
        # economy — score the index as it stands now.
        single = AddressScoringService(classifier, index)
        baseline = single.score(addresses)
        single.close()
        store_dir = tmp_path / "store"
        warm_dir = tmp_path / "warm"
        warm_dir.mkdir()
        first = ClusterScoringService(
            classifier,
            index,
            config=ClusterConfig(
                num_shards=2, num_workers=0, store_dir=str(store_dir)
            ),
        )
        first.score(addresses)
        first.save_warm(warm_dir)
        first.close()

        fresh = ClusterScoringService(
            classifier,
            index,
            config=ClusterConfig(
                num_shards=2, num_workers=0, store_dir=str(store_dir)
            ),
        )
        try:
            assert fresh.load_warm(warm_dir) > 0
            scores = fresh.score(addresses)
            assert fresh.stats.misses == 0, fresh.stats.snapshot()
            for address in addresses:
                np.testing.assert_allclose(
                    scores[address].probabilities,
                    baseline[address].probabilities,
                    rtol=1e-9,
                    atol=1e-9,
                )
        finally:
            fresh.close()


class TestMemoDiscipline:
    """Satellite 4: store reads never fill the interned column table."""

    def test_memo_stays_empty_and_footprint_flat(self, tmp_path):
        chain, index, addresses = random_chain(51)
        store, view = _store_view(index, tmp_path / "store")
        try:
            def sweep():
                for address in addresses:
                    GraphConstructionPipeline(PIPELINE_CONFIG).build_many(
                        view, [address]
                    )
                    view.transaction_columns_of(address)
                    view.records_for(address)
                    view.counterparties(address)

            sweep()
            assert view._tx_columns == {}, (
                "store-backed reads filled the in-memory "
                "ChainIndex._tx_columns table"
            )
            # The member-cache warms on the first sweep; after that the
            # resident footprint must not grow at all.
            warm = view.resident_nbytes()
            for _ in range(3):
                sweep()
            assert view._tx_columns == {}
            assert view.resident_nbytes() == warm
            # And the mapped columns dominate what a resident index
            # would hold: the view keeps only adjacency + caches.
            assert view.resident_nbytes() < index.resident_nbytes()
        finally:
            view.close()
            store.close()
