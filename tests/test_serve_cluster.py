"""The scoring cluster: routing, parity, warm persistence, invalidation.

Pins the four contracts of ``repro.serve.cluster``:

- shard routing is deterministic across router instances *and* across
  processes (a spawn-started child, which shares no interpreter state,
  must route identically);
- cluster scores match the single :class:`AddressScoringService` to
  1e-9 for every ``(shards, workers)`` combination, on randomized
  ``repro.testing.random_chain`` economies;
- a warm-store round trip (``save_warm`` → fresh cluster →
  ``load_warm``) reproduces identical scores with **zero** construction
  misses, survives resharding, and refuses state from a different
  encoder version;
- a block append routes invalidation to the touched addresses' owning
  shards only, and re-scoring reflects the new history.

Economies are kept tiny (slice size 4, single-epoch training) — cluster
correctness does not depend on model quality.
"""

import asyncio
import gc
import multiprocessing
import os
import signal
import tempfile
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core import BAClassifier, BAClassifierConfig
from repro.errors import NotFittedError, ValidationError
from repro.serve import (
    AddressScoringService,
    CacheStore,
    ClusterConfig,
    ClusterScoringService,
    ShardRouter,
    WarmState,
    encoder_version,
)
from repro.serve.cluster import (
    _COLLECT_POLL_SECONDS,
    _JOIN_TIMEOUT_SECONDS,
    _ShardMembership,
    _WorkerPool,
)
from repro.testing import append_self_spend, random_chain

SLICE_SIZE = 4


@pytest.fixture(scope="module")
def economy():
    """Randomized economy + single-epoch classifier + baseline scores."""
    chain, index, addresses = random_chain(5, num_wallets=4, rounds=10)
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
    single = AddressScoringService(classifier, index)
    baseline = single.score(addresses)
    single.close()
    return chain, index, addresses, classifier, baseline


def _cluster(economy, **kwargs):
    chain, index, _, classifier, _ = economy
    config = ClusterConfig(**kwargs)
    return ClusterScoringService(classifier, index, config=config)


def _total_slices(index, addresses):
    return sum(
        -(-index.transaction_count(a) // SLICE_SIZE) for a in addresses
    )


def _counter(name: str) -> int:
    """Current value of a registry counter (0 before its first event)."""
    return obs.snapshot()["counters"].get(name, 0)


def _gauge(name: str) -> float:
    """Current level of a registry gauge (0 before its first write)."""
    return obs.snapshot()["gauges"].get(name, 0.0)


def _routing_child(payload, queue):
    """Spawn-target: route addresses in a fresh interpreter."""
    num_shards, prefix_length, addresses = payload
    router = ShardRouter(num_shards, prefix_length)
    queue.put([router.shard_of(a) for a in addresses])


class TestShardRouter:
    def test_deterministic_across_instances(self, economy):
        _, index, addresses, _, _ = economy
        a = ShardRouter(4)
        b = ShardRouter(4)
        assert [a.shard_of(x) for x in addresses] == [
            b.shard_of(x) for x in addresses
        ]
        assert a == b

    def test_deterministic_across_processes(self, economy):
        """A spawn child shares no interpreter state (fresh hash seed,
        fresh imports) — routing must still agree exactly."""
        _, index, addresses, _, _ = economy
        router = ShardRouter(4)
        parent = [router.shard_of(a) for a in addresses]
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        child = context.Process(
            target=_routing_child,
            args=((4, router.prefix_length, list(addresses)), queue),
        )
        child.start()
        got = queue.get(timeout=60)
        child.join(timeout=60)
        assert got == parent

    def test_partition_covers_everything_in_order(self, economy):
        _, index, addresses, _, _ = economy
        router = ShardRouter(3)
        parts = router.partition(addresses)
        assert sorted(a for members in parts.values() for a in members) == sorted(
            addresses
        )
        for shard_id, members in parts.items():
            assert all(router.shard_of(a) == shard_id for a in members)
            # input order preserved within the shard
            positions = [addresses.index(a) for a in members]
            assert positions == sorted(positions)

    def test_prefix_locality(self):
        """Addresses sharing the routed prefix land on one shard."""
        router = ShardRouter(7, prefix_length=6)
        assert router.shard_of("1Abcde-first") == router.shard_of(
            "1Abcde-second"
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardRouter(0)
        with pytest.raises(ValidationError):
            ShardRouter(2, prefix_length=0)


class TestClusterParity:
    @pytest.mark.parametrize(
        "num_shards,num_workers",
        [(1, 0), (2, 0), (3, 0), (1, 2), (2, 2), (3, 2)],
    )
    def test_matches_single_service(
        self, economy, num_shards, num_workers
    ):
        _, index, addresses, _, baseline = economy
        cluster = _cluster(
            economy, num_shards=num_shards, num_workers=num_workers
        )
        try:
            cold = cluster.score(addresses)
            assert cluster.stats.misses == _total_slices(index, addresses)
            warm = cluster.score(addresses)
            for address in addresses:
                np.testing.assert_allclose(
                    cold[address].probabilities,
                    baseline[address].probabilities,
                    rtol=1e-9,
                    atol=1e-9,
                )
                np.testing.assert_array_equal(
                    cold[address].probabilities,
                    warm[address].probabilities,
                )
        finally:
            cluster.close()

    def test_parity_across_random_economies(self):
        """Fresh seeds, fresh models: cluster == single, every seed."""
        for seed in (11, 29):
            chain, index, addresses = random_chain(seed)
            classifier = BAClassifier(
                BAClassifierConfig(
                    slice_size=SLICE_SIZE,
                    gnn_epochs=1,
                    head_epochs=1,
                    gnn_hidden_dim=8,
                    head_hidden_dim=8,
                    head_restarts=1,
                    seed=seed,
                )
            )
            labels = np.array(
                [i % 2 for i in range(len(addresses))], dtype=np.int64
            )
            classifier.fit(addresses, labels, index)
            single = AddressScoringService(classifier, index)
            expected = single.score(addresses)
            cluster = ClusterScoringService(
                classifier, index, config=ClusterConfig(num_shards=2)
            )
            got = cluster.score(addresses)
            for address in addresses:
                np.testing.assert_allclose(
                    got[address].probabilities,
                    expected[address].probabilities,
                    rtol=1e-9,
                    atol=1e-9,
                )
            single.close()
            cluster.close()

    def test_score_one_and_async_score(self, economy):
        _, _, addresses, _, baseline = economy
        cluster = _cluster(economy, num_shards=2)
        try:
            one = cluster.score_one(addresses[0])
            np.testing.assert_allclose(
                one.probabilities,
                baseline[addresses[0]].probabilities,
                rtol=1e-9,
                atol=1e-9,
            )
            via_async = asyncio.run(cluster.async_score(addresses))
            sync = cluster.score(addresses)
            for address in addresses:
                np.testing.assert_array_equal(
                    via_async[address].probabilities,
                    sync[address].probabilities,
                )
        finally:
            cluster.close()

    def test_unknown_address_rejected(self, economy):
        cluster = _cluster(economy, num_shards=2)
        try:
            with pytest.raises(ValidationError):
                cluster.score(["1NotOnChainXYZ"])
        finally:
            cluster.close()

    def test_unfitted_classifier_rejected(self, economy):
        _, index, _, _, _ = economy
        unfitted = BAClassifier(BAClassifierConfig(slice_size=SLICE_SIZE))
        with pytest.raises(NotFittedError):
            ClusterScoringService(unfitted, index)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ClusterConfig(num_shards=0)
        with pytest.raises(ValidationError):
            ClusterConfig(num_workers=-1)
        with pytest.raises(ValidationError):
            ClusterConfig(start_method="not-a-method")

    def test_shard_stats_breakdown(self, economy):
        _, index, addresses, _, _ = economy
        cluster = _cluster(economy, num_shards=3)
        try:
            cluster.score(addresses)
            rows = cluster.shard_stats()
            assert [row["shard"] for row in rows] == [0, 1, 2]
            assert sum(row["entries"] for row in rows) == _total_slices(
                index, addresses
            )
            assert (
                sum(row["misses"] for row in rows)
                == cluster.stats.misses
            )
        finally:
            cluster.close()


class TestWarmStore:
    def test_round_trip_zero_misses(self, economy, tmp_path):
        _, index, addresses, _, baseline = economy
        cluster = _cluster(economy, num_shards=3, num_workers=2)
        first = cluster.score(addresses)
        cluster.save_warm(tmp_path)
        cluster.close()

        fresh = _cluster(economy, num_shards=3, num_workers=0)
        try:
            restored = fresh.load_warm(tmp_path)
            assert restored == _total_slices(index, addresses)
            again = fresh.score(addresses)
            assert fresh.stats.misses == 0, fresh.stats.snapshot()
            for address in addresses:
                np.testing.assert_array_equal(
                    first[address].probabilities,
                    again[address].probabilities,
                )
        finally:
            fresh.close()

    def test_restore_survives_resharding(self, economy, tmp_path):
        """An N-shard store warms an M-shard cluster (entries re-route
        through the current router) and an unsharded service."""
        _, index, addresses, classifier, baseline = economy
        cluster = _cluster(economy, num_shards=4)
        cluster.score(addresses)
        cluster.save_warm(tmp_path)
        cluster.close()

        resharded = _cluster(economy, num_shards=2)
        try:
            assert resharded.load_warm(tmp_path) == _total_slices(
                index, addresses
            )
            scores = resharded.score(addresses)
            assert resharded.stats.misses == 0
            for address in addresses:
                np.testing.assert_allclose(
                    scores[address].probabilities,
                    baseline[address].probabilities,
                    rtol=1e-9,
                    atol=1e-9,
                )
        finally:
            resharded.close()

        single = AddressScoringService(classifier, index)
        try:
            assert single.load_warm(tmp_path) == _total_slices(
                index, addresses
            )
            scores = single.score(addresses)
            assert single.stats.misses == 0
        finally:
            single.close()

    def test_single_service_round_trip(self, economy, tmp_path):
        _, index, addresses, classifier, baseline = economy
        source = AddressScoringService(classifier, index)
        source.score(addresses)
        source.save_warm(tmp_path)
        source.close()
        target = AddressScoringService(classifier, index)
        try:
            assert target.load_warm(tmp_path) > 0
            scores = target.score(addresses)
            assert target.stats.misses == 0
            for address in addresses:
                np.testing.assert_array_equal(
                    scores[address].probabilities,
                    baseline[address].probabilities,
                )
        finally:
            target.close()

    def test_different_model_version_loads_nothing(
        self, economy, tmp_path
    ):
        """A store is keyed by encoder version: a retrained model must
        see an empty store, not someone else's embeddings."""
        _, index, addresses, classifier, _ = economy
        cluster = _cluster(economy, num_shards=2)
        cluster.score(addresses)
        cluster.save_warm(tmp_path)
        cluster.close()

        retrained = BAClassifier(
            BAClassifierConfig(
                slice_size=SLICE_SIZE,
                gnn_epochs=1,
                head_epochs=1,
                gnn_hidden_dim=8,
                head_hidden_dim=8,
                head_restarts=1,
                seed=99,  # different weights => different version
            )
        )
        labels = np.array(
            [i % 2 for i in range(len(addresses))], dtype=np.int64
        )
        retrained.fit(addresses, labels, index)
        assert encoder_version(retrained.encoder) != encoder_version(
            classifier.encoder
        )
        other = ClusterScoringService(
            retrained, index, config=ClusterConfig(num_shards=2)
        )
        try:
            assert other.load_warm(tmp_path) == 0
        finally:
            other.close()

    def test_grown_addresses_rebuild_cold(self, economy, tmp_path):
        """Coverage recorded at save time is only trusted while the
        address's transaction count is unchanged; growth while the
        replica was down rebuilds that address from scratch."""
        chain, index, addresses, classifier, _ = economy
        cluster = ClusterScoringService(
            classifier,
            index,
            chain=chain,
            config=ClusterConfig(num_shards=2),
        )
        cluster.score(addresses)
        cluster.save_warm(tmp_path)
        cluster.close()

        target = next(
            a for a in addresses if chain.utxo_set.balance_of(a) > 0
        )
        append_self_spend(chain, target)

        fresh = ClusterScoringService(
            classifier,
            index,
            chain=chain,
            config=ClusterConfig(num_shards=2),
        )
        try:
            fresh.load_warm(tmp_path)
            scores = fresh.score(addresses)
            # the grown address rebuilt (missed), everyone else warm
            assert fresh.stats.misses >= 1
            expected = classifier.predict_proba([target], index)[0]
            np.testing.assert_allclose(
                scores[target].probabilities,
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            fresh.close()

    def test_store_is_pickle_free(self, economy, tmp_path):
        """Every persisted array loads under allow_pickle=False (the
        loader's own setting) — no object arrays on disk."""
        _, _, addresses, _, _ = economy
        cluster = _cluster(economy, num_shards=2)
        cluster.score(addresses)
        directory = cluster.save_warm(tmp_path)
        cluster.close()
        npz_files = list(directory.glob("*.npz"))
        assert npz_files
        for path in npz_files:
            with np.load(path, allow_pickle=False) as arrays:
                for name in arrays.files:
                    assert arrays[name].dtype != object

    def test_restore_reports_only_live_entries(self, economy, tmp_path):
        """A store larger than the target cache evicts its own oldest
        entries during import; the restored count must reflect what is
        actually live, not how many puts happened."""
        _, index, addresses, _, _ = economy
        cluster = _cluster(economy, num_shards=1)
        cluster.score(addresses)
        assert _total_slices(index, addresses) > 2
        cluster.save_warm(tmp_path)
        cluster.close()
        tiny = _cluster(economy, num_shards=1, cache_capacity=2)
        try:
            assert tiny.load_warm(tmp_path) <= 2
        finally:
            tiny.close()

    def test_truncated_bundle_degrades_to_cold_start(
        self, economy, tmp_path
    ):
        """A crash-truncated npz must not crash the replica: the store
        raises per bundle, the service skips it and rebuilds cold."""
        _, index, addresses, classifier, baseline = economy
        cluster = _cluster(economy, num_shards=2)
        cluster.score(addresses)
        directory = cluster.save_warm(tmp_path)
        cluster.close()
        victim = sorted(directory.glob("*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:64])  # truncate

        rejected = _counter("serve_warm_bundles_rejected_total")
        fresh = _cluster(economy, num_shards=2)
        try:
            fresh.load_warm(tmp_path)  # must skip the bundle, not raise
            assert (
                _counter("serve_warm_bundles_rejected_total")
                == rejected + 1
            )
            scores = fresh.score(addresses)  # cold where skipped
            expected = classifier.predict_proba(addresses, index)
            np.testing.assert_allclose(
                np.stack(
                    [scores[a].probabilities for a in addresses]
                ),
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            fresh.close()

    def test_interrupted_save_detected_by_token(self, economy, tmp_path):
        """New arrays + old manifest (the torn-save window) must fail
        the token pairing instead of loading a silent mismatch."""
        _, _, addresses, _, _ = economy
        cluster = _cluster(economy, num_shards=1)
        cluster.score(addresses)
        directory = cluster.save_warm(tmp_path)
        manifest = directory / "shard_0000.json"
        stale_manifest = manifest.read_text()
        cluster.save_warm(tmp_path)  # re-save: fresh token in the npz
        manifest.write_text(stale_manifest)  # torn: old manifest back
        cluster.close()

        fresh = _cluster(economy, num_shards=1)
        try:
            assert fresh.load_warm(tmp_path) == 0  # skipped, not crashed
        finally:
            fresh.close()

    def test_corrupt_key_mismatch_raises(self, economy, tmp_path):
        _, _, _, classifier, _ = economy
        store = CacheStore(tmp_path, "fp-a", "v-a")
        store.save_warm("service", WarmState())
        # Same directory read under a manifest/key mismatch must raise.
        other = CacheStore(tmp_path, "fp-a", "v-a")
        manifest = (
            other.directory / "service.json"
        )
        text = manifest.read_text().replace("fp-a", "fp-b")
        manifest.write_text(text)
        with pytest.raises(ValidationError):
            other.load_warm("service")

    def test_truncated_bundle_closes_its_file(self, tmp_path):
        """A torn npz must fail the load *and* release its file handle:
        any ResourceWarning (an unclosed file) fails the test."""
        store = CacheStore(tmp_path, "fp-a", "v-a")
        path = store.save_warm("service", WarmState(covered={"a": 1}))
        path.write_bytes(path.read_bytes()[:64])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValidationError):
                store.load_warm("service")
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


class TestClusterInvalidation:
    def _connected_cluster(self, economy, num_shards=3):
        chain, index, _, classifier, _ = economy
        return ClusterScoringService(
            classifier,
            index,
            chain=chain,
            config=ClusterConfig(num_shards=num_shards),
        )

    def test_cross_shard_append_invalidates_owning_shards(self, economy):
        """One block touching addresses on different shards must dirty
        each owning shard's cache — and only the dirtied slices."""
        chain, index, addresses, _, _ = economy
        cluster = self._connected_cluster(economy)
        try:
            cluster.score(addresses)
            # Two funded, non-slice-aligned targets on distinct shards.
            funded = [
                a
                for a in addresses
                if chain.utxo_set.balance_of(a) > 0
                and index.transaction_count(a) % SLICE_SIZE != 0
            ]
            shards_of = {
                cluster.router.shard_of(a) for a in funded
            }
            targets = []
            for shard_id in sorted(shards_of):
                targets.append(
                    next(
                        a
                        for a in funded
                        if cluster.router.shard_of(a) == shard_id
                    )
                )
                if len(targets) == 2:
                    break
            before = [row.copy() for row in cluster.shard_stats()]
            for target in targets:
                append_self_spend(chain, target)
            after = cluster.shard_stats()
            for target in targets:
                shard_id = cluster.router.shard_of(target)
                assert (
                    after[shard_id]["invalidations"]
                    > before[shard_id]["invalidations"]
                ), f"shard {shard_id} saw no invalidation"
            untouched = set(range(len(after))) - {
                cluster.router.shard_of(t) for t in targets
            }
            for shard_id in untouched:
                assert (
                    after[shard_id]["invalidations"]
                    == before[shard_id]["invalidations"]
                )
        finally:
            cluster.close()

    def test_rescore_after_append_matches_fresh(self, economy):
        chain, index, addresses, classifier, _ = economy
        cluster = self._connected_cluster(economy)
        try:
            cluster.score(addresses)
            target = next(
                a for a in addresses if chain.utxo_set.balance_of(a) > 0
            )
            append_self_spend(chain, target)
            rescored = cluster.score(addresses)
            expected = classifier.predict_proba([target], index)[0]
            np.testing.assert_allclose(
                rescored[target].probabilities,
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()

    def test_append_rebuilds_only_touched_address(self, economy):
        chain, index, addresses, _, _ = economy
        cluster = self._connected_cluster(economy)
        try:
            cluster.score(addresses)
            target = next(
                a
                for a in addresses
                if chain.utxo_set.balance_of(a) > 0
                and index.transaction_count(a) % SLICE_SIZE != 0
            )
            append_self_spend(chain, target)
            before = cluster.stats.snapshot()
            cluster.score(addresses)
            after = cluster.stats.snapshot()
            rebuilt = after["misses"] - before["misses"]
            assert rebuilt <= -(
                -index.transaction_count(target) // SLICE_SIZE
            )
            others = [a for a in addresses if a != target]
            assert (
                after["hits"] - before["hits"]
                >= _total_slices(index, others)
            )
        finally:
            cluster.close()

    def test_unconnected_growth_rescores_fresh(self, economy):
        """No chain connection: shard index slices went stale, but the
        staleness refresh re-slices them and the distrust protocol
        rebuilds the grown address — never stale scores."""
        chain, index, addresses, classifier, _ = economy
        cluster = _cluster(economy, num_shards=2)
        try:
            cluster.score(addresses)
            target = next(
                a for a in addresses if chain.utxo_set.balance_of(a) > 0
            )
            append_self_spend(chain, target)  # unobserved
            rescored = cluster.score(addresses)
            expected = classifier.predict_proba([target], index)[0]
            np.testing.assert_allclose(
                rescored[target].probabilities,
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()

    def test_connect_drops_untrusted_coverage(self, economy):
        chain, index, addresses, _, _ = economy
        cluster = _cluster(economy, num_shards=2)
        try:
            cluster.score(addresses)
            assert sum(len(s.cache) for s in cluster.shards) > 0
            cluster.connect(chain)
            assert sum(len(s.cache) for s in cluster.shards) == 0
            cluster.connect(chain)  # same-chain reconnect: no-op
        finally:
            cluster.close()


def _pool(index, classifier, num_workers=2):
    router = ShardRouter(2)
    pool = _WorkerPool(
        num_workers,
        [
            index.sharded(_ShardMembership(router, shard_id))
            for shard_id in range(2)
        ],
        classifier.config.pipeline_config(),
        None,
        multiprocessing.get_context("fork"),
    )
    return router, pool


class TestWorkerPoolFaults:
    def test_dead_worker_fails_build_under_traffic(self, economy):
        """A killed worker's in-flight build fails within about a poll
        interval even while the other worker keeps results streaming
        in — liveness checks must not wait for a quiet result queue.
        The death is counted once, however many health checks see it,
        and an orderly shutdown counts none."""
        _, index, addresses, classifier, _ = economy
        deaths = _counter("pool_worker_deaths_total")
        router, pool = _pool(index, classifier)
        try:
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()
            doomed = pool.submit(0, {})
            member = next(a for a in addresses if router.shard_of(a) == 1)
            start = time.monotonic()
            while not doomed.done() and time.monotonic() - start < 3.0:
                pool.submit(1, {member: [0]}).result(timeout=10)
            assert doomed.done(), "dead worker's build never failed"
            assert time.monotonic() - start < 2.0
            with pytest.raises(RuntimeError, match="died"):
                doomed.result(timeout=0)
            time.sleep(3 * _COLLECT_POLL_SECONDS)  # more health checks
            assert _counter("pool_worker_deaths_total") == deaths + 1
        finally:
            started = time.monotonic()
            pool.shutdown()
        assert time.monotonic() - started < _JOIN_TIMEOUT_SECONDS
        assert not pool._collector.is_alive()
        assert not any(p.is_alive() for p in pool._processes)
        assert _counter("pool_worker_deaths_total") == deaths + 1

    def test_failed_worker_build_is_counted(self, economy):
        """A build the worker cannot run (an out-of-range slice index)
        fails its future and counts one build failure; the worker lives
        on and is not counted as dead."""
        _, index, addresses, classifier, _ = economy
        failures = _counter("pool_build_failures_total")
        deaths = _counter("pool_worker_deaths_total")
        router, pool = _pool(index, classifier, num_workers=1)
        try:
            member = next(a for a in addresses if router.shard_of(a) == 0)
            with pytest.raises(RuntimeError, match="out of range"):
                pool.submit(0, {member: [999]}).result(timeout=30)
            assert _counter("pool_build_failures_total") == failures + 1
            pool.submit(0, {member: [0]}).result(timeout=30)
            assert _counter("pool_build_failures_total") == failures + 1
        finally:
            pool.shutdown()
        assert _counter("pool_worker_deaths_total") == deaths


class TestPoolWorkersGauge:
    def test_gauge_counts_live_workers(self, economy):
        """``pool_workers`` is the process-wide live-worker count: up by
        the pool's size on start, down by one when the health check
        finds a killed worker, and down by the rest on shutdown."""
        _, index, _, classifier, _ = economy
        base = _gauge("pool_workers")
        _, pool = _pool(index, classifier)
        try:
            assert _gauge("pool_workers") == base + 2
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            deadline = time.monotonic() + 10 * _COLLECT_POLL_SECONDS
            while (
                _gauge("pool_workers") != base + 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert _gauge("pool_workers") == base + 1
        finally:
            pool.shutdown()
        assert _gauge("pool_workers") == base


class TestCallerBuildsOneTask:
    def test_pool_builds_all_but_the_largest_task(
        self, economy, monkeypatch
    ):
        """The scoring thread builds one shard task of each pass itself,
        the one with the most requested slices (ties to the lowest
        shard id), and submits only the others to the pool."""
        _, index, addresses, classifier, _ = economy
        submitted = []
        submit = _WorkerPool.submit

        def recording_submit(pool, shard_id, *args, **kwargs):
            submitted.append(shard_id)
            return submit(pool, shard_id, *args, **kwargs)

        monkeypatch.setattr(_WorkerPool, "submit", recording_submit)
        cluster = _cluster(economy, num_shards=3, num_workers=2)
        try:
            by_shard = cluster.router.partition(addresses)
            assert len(by_shard) == 3, "economy routed onto fewer shards"
            first = next(
                members[0]
                for members in by_shard.values()
                if len(members) >= 2
            )
            builds = _counter("pool_builds_total")
            cluster.score([first])
            assert _counter("pool_builds_total") == builds
            assert submitted == []

            before = [row["misses"] for row in cluster.shard_stats()]
            scores = cluster.score(addresses)
            requested = [
                row["misses"] - was
                for row, was in zip(cluster.shard_stats(), before)
            ]
            assert all(requested), "a shard had no misses"
            assert _counter("pool_builds_total") == builds + 2
            largest = requested.index(max(requested))
            assert sorted(submitted) == sorted(
                set(range(3)) - {largest}
            )
        finally:
            cluster.close()
        expected = classifier.predict_proba(addresses, index)
        for address, row in zip(addresses, expected):
            np.testing.assert_allclose(
                scores[address].probabilities, row, rtol=1e-9, atol=1e-9
            )
