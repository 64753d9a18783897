"""Streaming steady-state serving: the concurrency surface of the cluster.

Pins the contracts the streaming rework introduced on top of the
parity/persistence tests of ``test_serve_cluster``:

- a block append on a connected cluster **streams** to the live worker
  pool instead of re-forking it — ``pool_starts_total`` grows by 1
  across any number of appends, and worker-built graphs reflect the
  appended history (tail-replay ingestion, not stale snapshots);
- a pooled pass builds one shard task in the calling thread and the
  rest in workers, and concurrent callers doing so score as a serial
  inline rebuild does;
- queries on disjoint shards overlap: holding one shard's lock blocks
  only that shard's queries, never the others';
- micro-batched concurrent ``async_score`` calls coalesce into fewer
  merged passes whose per-request scores equal serial scoring to 1e-9,
  and a request naming unknown addresses fails alone without poisoning
  its window;
- a block append racing an in-flight query forces a re-plan (the
  optimistic version protocol) and the query returns post-append
  scores — never a stale/fresh mix;
- unknown-address validation reports the *total* count and elides the
  tail explicitly, identically on the single service and the cluster;
- ``async_score`` runs on the cluster's own bounded executor, created
  lazily and shut down by ``close()``.

Economies are tiny (slice size 4, single-epoch training): these tests
exercise locking and linearization, not model quality.
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import BAClassifier, BAClassifierConfig
from repro.errors import ValidationError
from repro.serve import (
    AddressScoringService,
    ClusterConfig,
    ClusterScoringService,
)
from repro.testing import append_self_spend, random_chain

SLICE_SIZE = 4


def _counter(name: str) -> int:
    """Current value of a registry counter (0 before its first event)."""
    return obs.snapshot()["counters"].get(name, 0)


@pytest.fixture(scope="module")
def economy():
    """Randomized economy + single-epoch classifier + baseline scores."""
    chain, index, addresses = random_chain(7, num_wallets=4, rounds=10)
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


def _cluster(economy, *, connect=False, **kwargs):
    chain, index, _, classifier, _ = economy
    config = ClusterConfig(**kwargs)
    return ClusterScoringService(
        classifier,
        index,
        chain=chain if connect else None,
        config=config,
    )


def _spendable(chain, index, addresses, router=None, shard_id=None):
    """An address with balance to self-spend (optionally on one shard)."""
    for address in addresses:
        if chain.utxo_set.balance_of(address) <= 0:
            continue
        if router is not None and router.shard_of(address) != shard_id:
            continue
        return address
    raise AssertionError("economy has no spendable address for this test")


class TestStreamingAppends:
    def test_append_streams_instead_of_reforking(self, economy):
        """The acceptance pin: appends never restart the worker pool,
        the append still streams to the workers, and the post-append
        rebuild (a one-shard pass, so built by the scoring thread)
        matches a fresh model pass."""
        chain, index, addresses, classifier, _ = economy
        cluster = _cluster(
            economy, connect=True, num_shards=2, num_workers=2
        )
        starts = _counter("pool_starts_total")
        workers = obs.snapshot()["gauges"].get("pool_workers", 0)
        try:
            cluster.score(addresses)
            assert _counter("pool_starts_total") == starts + 1
            assert obs.snapshot()["gauges"]["pool_workers"] == workers + 2
            before_ingests = _counter("pool_ingest_batches_total")

            target = _spendable(chain, index, addresses)
            append_self_spend(chain, target)

            rescored = cluster.score(addresses)
            # Streamed, not re-forked.
            assert _counter("pool_starts_total") == starts + 1
            assert _counter("pool_ingest_batches_total") > before_ingests
            expected = classifier.predict_proba([target], index)[0]
            np.testing.assert_allclose(
                rescored[target].probabilities,
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()

    def test_repeated_appends_keep_workers_current(self, economy):
        """Several appends between scores all reach the workers as
        tail-replay messages; every rescore matches a fresh pass."""
        chain, index, addresses, classifier, _ = economy
        cluster = _cluster(
            economy, connect=True, num_shards=2, num_workers=2
        )
        starts = _counter("pool_starts_total")
        try:
            cluster.score(addresses)
            target = _spendable(chain, index, addresses)
            for _ in range(3):
                append_self_spend(chain, target)
                rescored = cluster.score(addresses)
                expected = classifier.predict_proba([target], index)[0]
                np.testing.assert_allclose(
                    rescored[target].probabilities,
                    expected,
                    rtol=1e-9,
                    atol=1e-9,
                )
            assert _counter("pool_starts_total") == starts + 1
        finally:
            cluster.close()


    def test_two_shard_append_rebuilds_through_a_worker(self, economy):
        """Appends touching both shards dirty both, so the rescore
        hands one shard's rebuild to a worker, which must have replayed
        the streamed tail: its scores match a fresh model pass."""
        chain, index, addresses, classifier, _ = economy
        cluster = _cluster(
            economy, connect=True, num_shards=2, num_workers=2
        )
        try:
            cluster.score(addresses)
            targets = [
                _spendable(chain, index, addresses, cluster.router, shard_id)
                for shard_id in range(2)
            ]
            for target in targets:
                append_self_spend(chain, target)
            builds = _counter("pool_builds_total")
            rescored = cluster.score(addresses)
            assert _counter("pool_builds_total") == builds + 1
        finally:
            cluster.close()
        expected = classifier.predict_proba(addresses, index)
        for address, row in zip(addresses, expected):
            np.testing.assert_allclose(
                rescored[address].probabilities,
                row,
                rtol=1e-9,
                atol=1e-9,
            )


class TestWorkerShardOwnership:
    def test_owned_indexes_follow_build_routing(self):
        """Worker ``w`` holds exactly the shards ``submit`` pins to it."""
        from repro.serve.cluster import _owned_indexes

        shards = ["s0", "s1", "s2"]
        assert _owned_indexes(shards, 0, 2) == {0: "s0", 2: "s2"}
        assert _owned_indexes(shards, 1, 2) == {1: "s1"}
        assert _owned_indexes(shards, 0, 1) == dict(enumerate(shards))

    def test_three_shards_two_workers_match_rebuild(self, economy):
        """Appends replayed only into each worker's own shards keep
        every worker-built score equal to a from-scratch rebuild."""
        chain, index, addresses, _, _ = economy
        cluster = _cluster(
            economy, connect=True, num_shards=3, num_workers=2
        )
        starts = _counter("pool_starts_total")
        try:
            cluster.score(addresses)
            touched = set()
            for shard_id in range(3):
                try:
                    target = _spendable(
                        chain, index, addresses, cluster.router, shard_id
                    )
                except AssertionError:
                    continue
                append_self_spend(chain, target)
                touched.add(shard_id % 2)
            assert touched == {0, 1}  # both workers replayed an append
            rescored = cluster.score(addresses)
            assert _counter("pool_starts_total") == starts + 1
        finally:
            cluster.close()
        rebuild = _cluster(economy, num_shards=3, num_workers=0)
        try:
            expected = rebuild.score(addresses)
        finally:
            rebuild.close()
        for address in addresses:
            np.testing.assert_allclose(
                rescored[address].probabilities,
                expected[address].probabilities,
                rtol=1e-9,
                atol=1e-9,
            )


class TestPerShardLocking:
    def test_disjoint_shards_do_not_contend(self, economy):
        """Holding shard A's lock stalls shard-A queries only: a
        concurrent shard-B query completes while the lock is held."""
        _, index, addresses, _, _ = economy
        cluster = _cluster(
            economy, num_shards=2, num_workers=0, micro_batch=False
        )
        try:
            by_shard = cluster.router.partition(addresses)
            assert len(by_shard) == 2, "economy routed onto one shard"
            a_members, b_members = by_shard[0], by_shard[1]
            cluster.score(addresses)  # warm caches: queries are fast

            errors = []
            done_b = threading.Event()
            done_a = threading.Event()

            def run(members, done):
                try:
                    cluster.score(members)
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                finally:
                    done.set()

            with cluster.shards[0].lock:
                thread_b = threading.Thread(
                    target=run, args=(b_members, done_b)
                )
                thread_b.start()
                assert done_b.wait(timeout=30), (
                    "shard-B query blocked behind shard-A lock"
                )
                thread_a = threading.Thread(
                    target=run, args=(a_members, done_a)
                )
                thread_a.start()
                assert not done_a.wait(timeout=0.5), (
                    "shard-A query ignored the held shard-A lock"
                )
            assert done_a.wait(timeout=30)
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)
            assert errors == []
        finally:
            cluster.close()

    def test_concurrent_cold_builds_of_one_shard(self, economy, monkeypatch):
        """Inline construction takes no per-shard lock: two queries with
        overlapping misses on one shard build at the same time (each
        waits inside the build for the other), and their scores equal a
        serial from-scratch run."""
        _, _, addresses, _, _ = economy
        half = len(addresses) // 2
        requests = [addresses[: half + 2], addresses[half - 2 :]]
        serial = _cluster(economy, num_shards=1, num_workers=0)
        try:
            expected = serial.score(addresses)
        finally:
            serial.close()

        import repro.serve.cluster as cluster_module

        both_building = threading.Barrier(2, timeout=30)
        build_encoded = cluster_module.build_encoded

        def overlapping_build(*args, **kwargs):
            both_building.wait()
            return build_encoded(*args, **kwargs)

        monkeypatch.setattr(
            cluster_module, "build_encoded", overlapping_build
        )
        cluster = _cluster(
            economy, num_shards=1, num_workers=0, micro_batch=False
        )
        try:
            results = [None, None]
            errors = []

            def run(slot):
                try:
                    results[slot] = cluster.score(requests[slot])
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(slot,)) for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            for request, scores in zip(requests, results):
                for address in request:
                    np.testing.assert_allclose(
                        scores[address].probabilities,
                        expected[address].probabilities,
                        rtol=1e-9,
                        atol=1e-9,
                    )
        finally:
            cluster.close()

    def test_concurrent_pooled_cold_builds(self, economy, monkeypatch):
        """Concurrent callers on a pooled cluster each build one shard
        task inline and submit the rest: overlapping multi-shard cold
        requests score as a serial inline rebuild does, and every
        submitted build has resolved once ``close()`` returns."""
        from repro.serve.cluster import _WorkerPool

        _, _, addresses, _, _ = economy
        serial = _cluster(economy, num_shards=2, num_workers=0)
        try:
            expected = serial.score(addresses)
        finally:
            serial.close()

        futures = []
        submit = _WorkerPool.submit

        def recording_submit(pool, *args, **kwargs):
            future = submit(pool, *args, **kwargs)
            futures.append(future)
            return future

        monkeypatch.setattr(_WorkerPool, "submit", recording_submit)
        cluster = _cluster(
            economy, num_shards=2, num_workers=2, micro_batch=False
        )
        requests = [
            addresses[i:] + addresses[:i] for i in range(0, 6, 2)
        ] + [addresses[: len(addresses) // 2 + 1]]
        for request in requests:
            assert len(cluster.router.partition(request)) == 2
        start = threading.Barrier(len(requests), timeout=30)
        results = [None] * len(requests)
        errors = []

        def run(slot):
            try:
                start.wait()
                results[slot] = cluster.score(requests[slot])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(slot,))
            for slot in range(len(requests))
        ]
        # Switch threads often so the callers' plans, inline builds and
        # commits interleave.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            pool = cluster._pool
        finally:
            sys.setswitchinterval(switch_interval)
            cluster.close()
        assert errors == []
        assert futures, "no build reached the worker pool"
        assert all(future.done() for future in futures)
        assert not pool._pending
        for request, scores in zip(requests, results):
            for address in request:
                np.testing.assert_allclose(
                    scores[address].probabilities,
                    expected[address].probabilities,
                    rtol=1e-9,
                    atol=1e-9,
                )

    def test_append_during_inflight_query_linearizes(self, economy):
        """An append racing a query's build forces a re-plan: the query
        returns post-append scores, never a stale/fresh mix."""
        chain, index, addresses, classifier, _ = economy
        cluster = _cluster(
            economy, connect=True, num_shards=2, num_workers=0
        )
        try:
            target = _spendable(chain, index, addresses)
            original_build = cluster._build
            build_started = threading.Event()
            resume = threading.Event()
            build_calls = []

            def gated_build(to_build):
                build_calls.append(sorted(to_build))
                if len(build_calls) == 1:
                    build_started.set()
                    assert resume.wait(timeout=30)
                return original_build(to_build)

            cluster._build = gated_build

            result = {}
            errors = []

            def query():
                try:
                    result.update(cluster.score([target]))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            thread = threading.Thread(target=query)
            thread.start()
            assert build_started.wait(timeout=30)
            # The query is mid-build holding no locks: the append must
            # proceed (no deadlock) and bump the target shard version.
            append_self_spend(chain, target)
            resume.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert errors == []
            assert len(build_calls) >= 2, (
                "append did not force the in-flight query to re-plan"
            )
            expected = classifier.predict_proba([target], index)[0]
            np.testing.assert_allclose(
                result[target].probabilities,
                expected,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()


class TestMicroBatching:
    def test_batched_scores_match_serial(self, economy):
        """Concurrent requests coalesce into fewer merged passes whose
        per-request results equal serial scoring to 1e-9, on one shard
        and on two."""
        _, _, addresses, _, _ = economy
        for num_shards in (1, 2):
            cluster = _cluster(
                economy,
                num_shards=num_shards,
                num_workers=0,
                micro_batch=True,
                micro_batch_window=0.2,
            )
            try:
                serial = cluster.score(addresses)
                half = len(addresses) // 2
                requests = [
                    list(addresses),
                    list(addresses[:half]),
                    list(addresses[half:]),
                    [addresses[0], addresses[-1]],
                ]

                async def fan_out():
                    return await asyncio.gather(
                        *(cluster.async_score(r) for r in requests)
                    )

                before = obs.snapshot()["counters"]
                results = asyncio.run(fan_out())
                after = obs.snapshot()["counters"]
                for request, scores in zip(requests, results):
                    assert sorted(scores) == sorted(set(request))
                    for address in request:
                        np.testing.assert_allclose(
                            scores[address].probabilities,
                            serial[address].probabilities,
                            rtol=1e-9,
                            atol=1e-9,
                        )
                stats = {
                    name: after.get(name, 0) - before.get(name, 0)
                    for name in (
                        "micro_batch_requests_total",
                        "micro_batched_requests_total",
                        "micro_batches_total",
                    )
                }
                assert stats["micro_batch_requests_total"] == len(requests)
                assert stats["micro_batched_requests_total"] == len(requests)
                assert stats["micro_batches_total"] < len(requests), (
                    "no coalescing happened inside a 200ms window"
                )
            finally:
                cluster.close()

    def test_unknown_request_fails_alone(self, economy):
        """A request naming unknown addresses fails with the shared
        validation error; the valid request sharing its window still
        scores."""
        _, _, addresses, _, _ = economy
        cluster = _cluster(
            economy,
            num_shards=2,
            num_workers=0,
            micro_batch=True,
            micro_batch_window=0.2,
        )
        try:
            serial = cluster.score([addresses[0]])

            async def fan_out():
                return await asyncio.gather(
                    cluster.async_score([addresses[0]]),
                    cluster.async_score(["bc1q-nowhere"]),
                    return_exceptions=True,
                )

            good, bad = asyncio.run(fan_out())
            assert isinstance(bad, ValidationError)
            assert "1 address with no transactions" in str(bad)
            np.testing.assert_allclose(
                good[addresses[0]].probabilities,
                serial[addresses[0]].probabilities,
                rtol=1e-9,
                atol=1e-9,
            )
        finally:
            cluster.close()


class TestUnknownAddressReporting:
    def test_total_count_and_explicit_elision(self, economy):
        """Seven unknowns: the error carries the full count, shows the
        first five, and says how many were elided."""
        _, index, addresses, classifier, _ = economy
        unknowns = [f"bc1q-missing-{i}" for i in range(7)]
        cluster = _cluster(economy, num_shards=2)
        single = AddressScoringService(classifier, index)
        try:
            messages = []
            for service in (single, cluster):
                with pytest.raises(ValidationError) as excinfo:
                    service.score([addresses[0], *unknowns])
                messages.append(str(excinfo.value))
            for message in messages:
                assert "7 addresses with no transactions" in message
                assert "(+2 more elided)" in message
            # Same builder on both services: identical reporting.
            assert messages[0] == messages[1]
        finally:
            single.close()
            cluster.close()


class TestAsyncExecutorLifecycle:
    def test_lazy_bounded_executor_closed_by_close(self, economy):
        """``async_score`` uses the cluster's own named executor —
        created on first use, never the loop default — and ``close()``
        shuts it down."""
        _, _, addresses, _, _ = economy
        cluster = _cluster(
            economy, num_shards=2, num_workers=0, micro_batch=False
        )
        try:
            assert cluster._async_executor is None  # lazy
            thread_names = []
            original_score = cluster.score

            def recording_score(batch):
                thread_names.append(threading.current_thread().name)
                return original_score(batch)

            cluster.score = recording_score
            asyncio.run(cluster.async_score(addresses[:2]))
            assert thread_names
            assert thread_names[0].startswith("repro-cluster-query")
            executor = cluster._async_executor
            assert executor is not None
            assert executor._max_workers == cluster.config.async_workers
        finally:
            cluster.close()
        assert cluster._async_executor is None
        assert executor._shutdown
