"""Tests for ``repro.obs``: registry, tracer, and the serving wiring.

Covers the unit contracts (snake_case validation, drain/merge
exactly-once folding, Prometheus/JSON round trips, ring bounds,
deterministic sampling, disabled no-ops) and the cross-process
acceptance surface: one cluster ``score()`` over live shard workers
produces a single trace tree whose worker spans nest under the parent
request span, worker counter deltas fold exactly once across repeated
block appends, and the legacy stats surfaces stay consistent with the
registry snapshot.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import obs
from repro.core import BAClassifier, BAClassifierConfig
from repro.errors import ValidationError
from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.tracing import Tracer
from repro.serve import AddressScoringService
from repro.serve.cluster import ClusterConfig, ClusterScoringService
from repro.testing import append_self_spend, random_chain

SLICE_SIZE = 4


@pytest.fixture(autouse=True)
def fresh_obs():
    """Isolate every test's metric/trace window."""
    obs.reset()
    obs.configure(sample_rate=1.0, ring_capacity=4096)
    yield
    obs.set_enabled(True)
    obs.reset()


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total")
        hits.inc()
        hits.inc(4)
        depth = registry.gauge("queue_depth")
        depth.set(3.0)
        depth.add(-1.0)
        latency = registry.histogram("latency_seconds")
        latency.observe(0.002)
        latency.observe(5.0)
        snap = registry.snapshot()
        assert snap["counters"]["hits_total"] == 5
        assert snap["gauges"]["queue_depth"] == 2.0
        hist = snap["histograms"]["latency_seconds"]
        assert sum(hist["counts"]) == 2
        assert hist["sum"] == pytest.approx(5.002)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_name_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("CamelCase")
        with pytest.raises(ValidationError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValidationError):
            registry.gauge("has-dash")

    def test_cross_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ValidationError):
            registry.gauge("thing_total")

    def test_histogram_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", (0.1, 1.0))
        assert registry.histogram("h_seconds", (0.1, 1.0)) is not None
        with pytest.raises(ValidationError):
            registry.histogram("h_seconds", (0.5, 2.0))

    def test_drain_then_merge_folds_exactly_once(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        counter = worker.counter("built_total")
        hist = worker.histogram("build_seconds")
        counter.inc(3)
        hist.observe(0.5)
        parent.merge(worker.drain())
        # Second drain is empty: nothing new happened in the worker.
        parent.merge(worker.drain())
        counter.inc(2)
        parent.merge(worker.drain())
        snap = parent.snapshot()
        assert snap["counters"]["built_total"] == 5
        assert sum(snap["histograms"]["build_seconds"]["counts"]) == 1

    def test_gauges_merge_last_write_wins(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        worker.gauge("arena_bytes").set(128.0)
        parent.merge(worker.drain())
        worker.gauge("arena_bytes").set(256.0)
        parent.merge(worker.drain())
        assert parent.snapshot()["gauges"]["arena_bytes"] == 256.0

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total")
        counter.inc(7)
        registry.reset()
        assert registry.snapshot()["counters"]["n_total"] == 0
        counter.inc()  # the cached handle still feeds the registry
        assert registry.snapshot()["counters"]["n_total"] == 1

    def test_disabled_updates_are_dropped(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total")
        registry.set_enabled(False)
        counter.inc(10)
        registry.histogram("h_seconds").observe(1.0)
        registry.set_enabled(True)
        snap = registry.snapshot()
        assert snap["counters"]["n_total"] == 0
        assert sum(snap["histograms"]["h_seconds"]["counts"]) == 0

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("req_total").inc(9)
        registry.gauge("depth").set(1.5)
        hist = registry.histogram("lat_seconds")
        for value in (0.0001, 0.003, 0.2, 99.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert parse_prometheus(render_prometheus(snap)) == snap

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("req_total").inc(2)
        snap = registry.snapshot()
        assert json.loads(render_json(snap)) == snap


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_nested_spans_share_a_trace(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        traces = tracer.export_traces()
        assert len(traces) == 1
        (root,) = traces[0]["spans"]
        assert root["name"] == "root"
        (child,) = root["children"]
        assert child["name"] == "child"
        assert child["children"][0]["name"] == "grandchild"

    def test_sibling_roots_make_separate_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert len(tracer.export_traces()) == 2

    def test_span_from_context_adopts_remote_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            context = tracer.current_context()
        remote = Tracer()
        with remote.span_from_context("worker.build", context):
            pass
        tracer.adopt(remote.drain_spans())
        traces = tracer.export_traces()
        assert len(traces) == 1
        (root,) = traces[0]["spans"]
        assert [c["name"] for c in root["children"]] == ["worker.build"]

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(ring_capacity=8)
        for _ in range(20):
            with tracer.span("s"):
                pass
        assert len(tracer.finished_spans()) == 8

    def test_sampling_is_deterministic(self):
        tracer = Tracer(sample_rate=0.5)
        for _ in range(10):
            with tracer.span("root"):
                pass
        assert len(tracer.export_traces()) == 5

    def test_unsampled_root_suppresses_descendants(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("root"):
            assert tracer.current_context() is None
            with tracer.span("child"):
                pass
        assert tracer.export_traces() == []

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        path = tmp_path / "traces.jsonl"
        count = tracer.export_jsonl(path)
        assert count == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        tree = json.loads(lines[0])
        assert tree["spans"][0]["name"] == "root"

    def test_disabled_span_is_shared_noop(self):
        obs.set_enabled(False)
        first = obs.span("a")
        second = obs.span("b")
        assert first is second
        with first:
            pass
        obs.set_enabled(True)
        assert obs.export_traces() == []


# ---------------------------------------------------------------------- #
# Serving wiring (cross-process acceptance)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def economy():
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
    return chain, index, addresses, classifier


def _walk(span):
    yield span
    for child in span["children"]:
        yield from _walk(child)


class TestSingleServiceWiring:
    def test_score_produces_request_trace_and_counters(self, economy):
        _, index, addresses, classifier = economy
        service = AddressScoringService(classifier, index)
        try:
            service.score(addresses[:3])
        finally:
            service.close()
        traces = obs.export_traces()
        assert len(traces) == 1
        (root,) = traces[0]["spans"]
        assert root["name"] == "serve.score"
        names = {span["name"] for span in _walk(root)}
        assert "serve.plan" in names
        assert "serve.build" in names
        assert "pipeline.stage1_extraction" in names
        snap = obs.snapshot()
        assert snap["counters"]["serve_requests_total"] == 1
        assert snap["counters"]["serve_addresses_total"] == 3
        hist = snap["histograms"]["serve_request_seconds"]
        assert sum(hist["counts"]) == 1

    def test_inline_encode_span_nests_under_serve_build(self, economy):
        _, index, addresses, classifier = economy
        service = AddressScoringService(classifier, index)
        try:
            service.score(addresses[:3])
        finally:
            service.close()
        (trace,) = obs.export_traces()
        (root,) = trace["spans"]
        (build,) = [s for s in _walk(root) if s["name"] == "serve.build"]
        child_names = [c["name"] for c in build["children"]]
        assert child_names.count("serve.encode") == 1
        # Encoding follows construction inside the build.
        assert child_names.index("serve.encode") > child_names.index(
            "pipeline.stage4_augmentation"
        )

    def test_unknown_rejection_counted_by_score(self, economy):
        _, index, addresses, classifier = economy
        service = AddressScoringService(classifier, index)
        try:
            with pytest.raises(ValidationError):
                service.score([addresses[0], "bc1q-nowhere"])
        finally:
            service.close()
        counters = obs.snapshot()["counters"]
        assert counters["serve_unknown_rejections_total"] == 1
        assert counters["serve_requests_total"] == 0

    def test_unknown_rejection_counted_by_micro_batch(self, economy):
        """A rejected request in a coalescing window is counted once;
        its valid window-mate still scores."""
        _, index, addresses, classifier = economy
        cluster = ClusterScoringService(
            classifier,
            index,
            config=ClusterConfig(num_workers=0, micro_batch_window=0.2),
        )

        async def fan_out():
            return await asyncio.gather(
                cluster.async_score([addresses[0]]),
                cluster.async_score(["bc1q-nowhere"]),
                return_exceptions=True,
            )

        try:
            good, bad = asyncio.run(fan_out())
        finally:
            cluster.close()
        assert isinstance(bad, ValidationError)
        assert addresses[0] in good
        counters = obs.snapshot()["counters"]
        assert counters["serve_unknown_rejections_total"] == 1
        assert counters["micro_batch_requests_total"] == 2

    def test_cache_counters_match_legacy_stats(self, economy):
        _, index, addresses, classifier = economy
        service = AddressScoringService(classifier, index)
        try:
            service.score(addresses[:3])
            service.score(addresses[:3])
            snap = obs.snapshot()
            assert (
                snap["counters"]["cache_slice_hits_total"]
                == service.stats.hits
            )
            assert (
                snap["counters"]["cache_slice_misses_total"]
                == service.stats.misses
            )
        finally:
            service.close()


class TestClusterCrossProcess:
    def test_single_trace_tree_spans_worker_processes(self, economy):
        _, index, addresses, classifier = economy
        cluster = ClusterScoringService(
            classifier,
            index,
            config=ClusterConfig(num_shards=2, num_workers=2),
        )
        try:
            cluster.score(addresses[:4])
            # Misses in both shards: one of them must reach a worker.
            missed = [row for row in cluster.shard_stats() if row["misses"]]
            assert len(missed) >= 2, "request missed in only one shard"
        finally:
            cluster.close()
        traces = obs.export_traces()
        assert len(traces) == 1
        (root,) = traces[0]["spans"]
        assert root["name"] == "serve.score"
        spans = list(_walk(root))
        worker_spans = [s for s in spans if s["name"] == "worker.build"]
        assert worker_spans, "no worker spans adopted into the trace"
        parent_pid = root["pid"]
        assert all(s["pid"] != parent_pid for s in worker_spans)
        # Worker construction stages nest under the shipped spans.
        for worker_span in worker_spans:
            child_names = {c["name"] for c in worker_span["children"]}
            assert "pipeline.stage1_extraction" in child_names

    def test_worker_encode_span_nests_under_worker_build(self, economy):
        """A pass with k shard tasks builds one inline (``serve.encode``
        in the parent) and ships k-1 to workers, each a
        ``worker.build`` holding one ``worker.encode``."""
        _, index, addresses, classifier = economy
        cluster = ClusterScoringService(
            classifier,
            index,
            config=ClusterConfig(num_shards=3, num_workers=2),
        )
        try:
            cluster.score(addresses)
            tasks = sum(1 for row in cluster.shard_stats() if row["misses"])
        finally:
            cluster.close()
        assert tasks >= 2, "economy routed onto one shard"
        (trace,) = obs.export_traces()
        (root,) = trace["spans"]
        parent_pid = root["pid"]
        spans = list(_walk(root))
        builds = [s for s in spans if s["name"] == "worker.build"]
        assert len(builds) == tasks - 1
        for build in builds:
            assert build["pid"] != parent_pid
            assert [
                c["name"] for c in build["children"]
            ].count("worker.encode") == 1
        inline = [s for s in spans if s["name"] == "serve.encode"]
        assert len(inline) == 1
        assert inline[0]["pid"] == parent_pid

    def test_worker_deltas_fold_exactly_once_across_appends(
        self, economy
    ):
        chain, index, addresses, classifier = economy
        cluster = ClusterScoringService(
            classifier,
            index,
            chain=chain,
            config=ClusterConfig(num_shards=2, num_workers=2),
        )
        try:
            funded = [
                a
                for a in addresses
                if chain.utxo_set.balance_of(a) > 0
            ]
            target = funded[0]
            cluster.score(addresses[:4])
            first = obs.snapshot()["histograms"][
                "pipeline_stage1_extraction_seconds"
            ]
            first_count = sum(first["counts"])
            assert first_count > 0
            # A fully cached re-score builds nothing; if worker deltas
            # were re-shipped per result instead of drained, the stale
            # counts would fold in again here.
            cluster.score(addresses[:4])
            cached = obs.snapshot()["histograms"][
                "pipeline_stage1_extraction_seconds"
            ]
            assert sum(cached["counts"]) == first_count
            for _ in range(2):
                append_self_spend(chain, target)
                cluster.score(addresses[:4])
            hist = obs.snapshot()["histograms"][
                "pipeline_stage1_extraction_seconds"
            ]
            assert sum(hist["counts"]) > first_count
        finally:
            cluster.close()

    def test_legacy_surfaces_consistent_with_registry(self, economy):
        chain, index, addresses, classifier = economy
        cluster = ClusterScoringService(
            classifier,
            index,
            chain=chain,
            config=ClusterConfig(num_shards=2, num_workers=2),
        )
        try:
            cluster.score(addresses[:4])
            funded = [
                a
                for a in addresses
                if chain.utxo_set.balance_of(a) > 0
            ]
            append_self_spend(chain, funded[0])
            cluster.score(addresses[:4])
            counters = obs.snapshot()["counters"]
            assert (
                counters["cache_slice_hits_total"]
                == cluster.stats.hits
            )
            assert (
                counters["cache_slice_misses_total"]
                == cluster.stats.misses
            )
            assert (
                counters["cache_slice_invalidations_total"]
                == cluster.stats.invalidations
            )
            assert counters["serve_requests_total"] == 2
        finally:
            cluster.close()

    def test_plan_counters_match_plan_stats(self, economy):
        _, index, addresses, classifier = economy
        from repro.nn.inference.engine import plan_stats

        modules = (classifier.encoder, classifier.head)
        before = [plan_stats(m) for m in modules]
        service = AddressScoringService(classifier, index)
        try:
            service.score(addresses[:3])
            service.score(addresses[:3])
        finally:
            service.close()
        after = [plan_stats(m) for m in modules]
        hits_delta = sum(
            a["hits"] - b["hits"] for a, b in zip(after, before)
        )
        compiles_delta = sum(
            a["compiles"] - b["compiles"] for a, b in zip(after, before)
        )
        counters = obs.snapshot()["counters"]
        # The registry window (reset at test start) counts exactly the
        # per-module deltas of the modules planned during scoring.
        assert counters["plan_hits_total"] == hits_delta > 0
        assert counters["plan_compiles_total"] == compiles_delta > 0


class TestDisabledOverhead:
    def test_disabled_layer_records_nothing(self, economy):
        _, index, addresses, classifier = economy
        obs.set_enabled(False)
        service = AddressScoringService(classifier, index)
        try:
            service.score(addresses[:3])
        finally:
            service.close()
            obs.set_enabled(True)
        snap = obs.snapshot()
        assert snap["counters"]["serve_requests_total"] == 0
        assert obs.export_traces() == []
