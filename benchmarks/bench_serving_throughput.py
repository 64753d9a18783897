"""Serving throughput — cold / warm / incremental / clustered scoring.

Compares the :class:`~repro.serve.AddressScoringService` against the
naive loop the offline pipeline implies (rebuild every graph, one
forward per address) on the same synthetic chain:

- **naive**: per-address graph rebuild + per-address inference;
- **cold**: empty cache — batched construction + batched inference;
- **warm**: fully cached slices — batched inference only;
- **obs**: the same warm sweep with the ``repro.obs`` instrumentation
  layer enabled vs disabled (``obs.set_enabled``), alternating and
  taking the median over ``OBS_REPEATS`` — the recorded
  ``obs_overhead_pct`` must stay ≤ ``MAX_OBS_OVERHEAD_PCT`` in full
  mode (observability may not tax the hot path);
- **infer**: the warm-miss inference tail (embedding cache off) timed
  with compiled forward plans vs pinned to the autograd tape, at
  per-request granularity (one address per ``score`` call — how a live
  scoring request arrives) plus an ungated bulk-batch variant — scores
  must be bit-identical and in full mode the per-request plan path
  must be ≥ ``MIN_INFER_SPEEDUP`` faster;
- **incremental**: one appended block — only affected addresses rebuilt;
- **cluster cold / warm**: the sharded multi-process
  :class:`~repro.serve.ClusterScoringService` over the same corpus
  (``CLUSTER_SHARDS`` shards × ``CLUSTER_WORKERS`` construction
  processes, inference in the parent);
- **setup**: replica start-up, best of ``SETUP_REPEATS`` constructions
  — the one-shard service (``service_setup_seconds``) and the
  ``CLUSTER_SHARDS``-shard cluster (``cluster_setup_seconds``), each
  dominated by cutting its shard index slices from the parent index
  (recorded, not gated);
- **warm restart**: ``save_warm`` → fresh cluster → ``load_warm`` →
  re-score, asserting *zero* construction misses
  (``warm_restart_hit_rate == 1``);
- **streaming**: live-traffic shape on a fresh connected cluster — many
  concurrent single-address ``async_score`` requests, which the micro-
  batcher coalesces into merged passes, timed against the same sweep as
  serial per-request calls; then one appended block, timing the first
  post-append re-score (``append_refresh_seconds``) and asserting the
  worker pool was *streamed to*, never re-forked
  (``pool_starts_total`` grows by exactly 1 across the whole phase,
  read as ``repro.obs`` registry deltas);
- **store**: the same cluster backed by the memory-mapped chain store
  (``ClusterConfig(store_dir=...)``) — shard workers read interned
  transaction columns from mapped ``.npy`` segments instead of holding
  a deep-copied index slice.  Records the resident per-worker footprint
  of both flavors (``store_peak_worker_bytes`` vs
  ``inmemory_peak_worker_bytes``) and the store-backed cold throughput;
  the memory saving must be ≥ ``MIN_STORE_MEMORY_SAVING`` in every
  mode, and in full mode the store path must hold ≥
  ``MIN_STORE_THROUGHPUT_RATIO`` of the in-memory cluster's cold
  throughput.

Asserted contracts: warm-cache batched scoring is at least 5× faster
than the naive loop; a block append re-scores only the touched
addresses; cluster scores are 1e-9-parity with the naive loop; a warm
restart rebuilds nothing.  In full mode on a multi-core host the
cluster cold path must additionally beat the single-process cold path
by ≥ ``MIN_CLUSTER_SPEEDUP`` (process-parallel construction is
physically pointless to gate on one core, so single-core hosts record
``cluster_gate_enforced: false`` instead), and micro-batched concurrent
scoring must beat serial per-request scoring by
≥ ``MIN_STREAMING_SPEEDUP`` under the same multi-core proviso
(``streaming_gate_enforced``).

Results land in ``benchmarks/results/BENCH_serving.json`` under a
per-mode key (``smoke`` / ``full``) — same layout as
``BENCH_pipeline.json`` — and the recorded full-mode entry is
re-asserted by ``scripts/check_bench_gates.py`` on every tier-1 run.
Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the world to seconds-scale
so the same assertions can run in CI; see ``scripts/tier1.sh``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro import (
    BAClassifier,
    BAClassifierConfig,
    WorldConfig,
    build_dataset,
    generate_world,
)
from repro.nn.inference import plan_execution
from repro.serve import (
    AddressScoringService,
    ClusterConfig,
    ClusterScoringService,
    ScoringServiceConfig,
)
from repro.testing import append_self_spend as _append_self_spend

from conftest import save_result

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in {"", "0"}
SEED = 2023
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_serving.json"

if SMOKE:
    WORLD_CONFIG = WorldConfig(
        seed=SEED, num_blocks=90, num_retail=30, num_gamblers=12,
        num_miner_members=8, num_mixers=2, num_wallet_services=2,
        num_lending_desks=1,
    )
    SLICE_SIZE = 20
    NUM_ADDRESSES = 20
    TRAIN_ADDRESSES = 24
    CLUSTER_SHARDS = 2
    CLUSTER_WORKERS = 2
    MIN_CLUSTER_SPEEDUP = None  # timing noise dominates at smoke scale
    INFER_REPEATS = 3
    MIN_INFER_SPEEDUP = None  # ditto: sub-ms forwards, noise dominates
    MIN_STREAMING_SPEEDUP = None  # ditto
    MIN_STORE_THROUGHPUT_RATIO = None  # ditto
    OBS_REPEATS = 3
    MAX_OBS_OVERHEAD_PCT = None  # ditto: ms-scale warm sweeps
else:
    WORLD_CONFIG = WorldConfig(
        seed=SEED, num_blocks=220, num_retail=90, num_gamblers=32,
        num_miner_members=18, num_mixers=3, num_wallet_services=3,
        num_lending_desks=2,
    )
    SLICE_SIZE = 40
    NUM_ADDRESSES = 60
    TRAIN_ADDRESSES = 48
    CLUSTER_SHARDS = 4
    CLUSTER_WORKERS = 4
    # Enforced only on hosts where process parallelism can exist.
    MIN_CLUSTER_SPEEDUP = 1.5 if (os.cpu_count() or 1) >= 2 else None
    INFER_REPEATS = 5
    MIN_INFER_SPEEDUP = 1.5
    MIN_STREAMING_SPEEDUP = 1.2 if (os.cpu_count() or 1) >= 2 else None
    MIN_STORE_THROUGHPUT_RATIO = 0.9
    # More repeats than the infer phase: the gate is a small percentage
    # of an already-fast warm sweep, so the median needs a wider sample.
    OBS_REPEATS = 9
    MAX_OBS_OVERHEAD_PCT = 5.0

#: Constructions timed per replica flavour; the fastest is recorded.
SETUP_REPEATS = 3

# Mapped columns vs a deep-copied index slice is a structural saving,
# not a timing artifact — enforced at every scale.
MIN_STORE_MEMORY_SAVING = 2.0


@pytest.fixture(scope="module")
def serving_setup():
    """World + tiny trained classifier + scoring corpus.

    Model quality is irrelevant to a throughput benchmark, so training
    is minimal; the chain is module-private because the incremental
    phase appends a block to it.
    """
    world = generate_world(WORLD_CONFIG)
    dataset = build_dataset(world, min_transactions=4, seed=SEED)
    train, _ = dataset.split(test_fraction=0.3, seed=SEED)
    classifier = BAClassifier(
        BAClassifierConfig(
            slice_size=SLICE_SIZE,
            gnn_epochs=2,
            head_epochs=3,
            gnn_hidden_dim=16,
            head_hidden_dim=16,
            head_restarts=1,
            seed=0,
        )
    )
    classifier.fit(
        train.addresses[:TRAIN_ADDRESSES],
        train.labels[:TRAIN_ADDRESSES],
        world.index,
    )
    addresses = sorted(
        dataset.addresses,
        key=lambda a: -world.index.transaction_count(a),
    )[:NUM_ADDRESSES]
    return world, addresses, classifier


def _slices_of(index, address: str) -> int:
    return -(-index.transaction_count(address) // SLICE_SIZE)


def _timed_setup(build):
    """``(best seconds, last instance)`` over ``SETUP_REPEATS`` builds;
    every instance but the returned one is closed."""
    best = float("inf")
    for remaining in range(SETUP_REPEATS - 1, -1, -1):
        start = time.perf_counter()
        instance = build()
        best = min(best, time.perf_counter() - start)
        if remaining:
            instance.close()
    return best, instance


def test_bench_serving_throughput(serving_setup, tmp_path):
    world, addresses, classifier = serving_setup
    n = len(addresses)

    # --- naive: per-address rebuild + per-address forward ------------- #
    start = time.perf_counter()
    naive = {
        a: classifier.predict_proba([a], world.index)[0] for a in addresses
    }
    naive_seconds = time.perf_counter() - start

    service_setup_seconds, service = _timed_setup(
        lambda: AddressScoringService(
            classifier,
            world.index,
            chain=world.chain,
            config=ScoringServiceConfig(),
        )
    )

    # --- cold: batched, but every slice is a cache miss --------------- #
    # Each timed cold phase starts from a collected heap, so the ratios
    # between them (cluster_speedup, store_throughput_ratio) do not
    # depend on garbage earlier phases left behind.
    gc.collect()
    start = time.perf_counter()
    cold_scores = service.score(addresses)
    cold_seconds = time.perf_counter() - start
    total_slices = sum(_slices_of(world.index, a) for a in addresses)
    assert service.stats.misses == total_slices
    for a in addresses:
        np.testing.assert_allclose(
            cold_scores[a].probabilities, naive[a], rtol=1e-9, atol=1e-9
        )

    # --- warm: every slice served from cache -------------------------- #
    start = time.perf_counter()
    warm_scores = service.score(addresses)
    warm_seconds = time.perf_counter() - start
    assert service.stats.hits == total_slices
    for a in addresses:
        np.testing.assert_allclose(
            warm_scores[a].probabilities, naive[a], rtol=1e-9, atol=1e-9
        )
    speedup = naive_seconds / warm_seconds
    assert speedup >= 5.0, (
        f"warm-cache batched scoring only {speedup:.1f}x faster than the "
        f"naive rebuild loop (need >= 5x)"
    )

    # --- obs: instrumentation overhead on the warm hot path ----------- #
    # The repro.obs contract: counters, span timers and the stage
    # histograms together may not tax warm-path throughput by more than
    # MAX_OBS_OVERHEAD_PCT.  Sweeps alternate enabled/disabled and take
    # the median over OBS_REPEATS — same anti-noise idiom as the infer
    # phase — and the master switch is restored even if a sweep throws.
    def _obs_sweep():
        start = time.perf_counter()
        service.score(addresses)
        return time.perf_counter() - start

    obs.reset()  # bound the span ring and metric window to this phase
    obs_on_times, obs_off_times = [], []
    try:
        for _ in range(OBS_REPEATS):
            obs.set_enabled(True)
            obs_on_times.append(_obs_sweep())
            obs.set_enabled(False)
            obs_off_times.append(_obs_sweep())
    finally:
        obs.set_enabled(True)
    obs_on_seconds = float(np.median(obs_on_times))
    obs_off_seconds = float(np.median(obs_off_times))
    obs_overhead_pct = (obs_on_seconds / obs_off_seconds - 1.0) * 100.0
    if MAX_OBS_OVERHEAD_PCT is not None:
        assert obs_overhead_pct <= MAX_OBS_OVERHEAD_PCT, (
            f"observability costs {obs_overhead_pct:.1f}% of warm "
            f"throughput (allowed <= {MAX_OBS_OVERHEAD_PCT}%)"
        )
    obs.reset()  # don't carry phase spans into later measurements

    # --- infer: compiled forward plans vs the autograd tape ----------- #
    # Embedding cache off = the warm-miss inference tail: slice graphs
    # come from cache but every call re-runs the GNN encoder and the
    # sequence head.  That is exactly the work the tapeless plan engine
    # accelerates.  The gated measurement scores one address per call —
    # the granularity a live scoring request arrives at — because that
    # is the serving hot path; a bulk all-addresses batch (where BLAS
    # and memory bandwidth dominate and per-op overhead amortizes away)
    # is recorded alongside, ungated.  Sweeps alternate and take the
    # median over repeats so a noisy neighbour on a 1-CPU host cannot
    # decide the gate.
    infer_service = AddressScoringService(
        classifier,
        world.index,
        chain=world.chain,
        config=ScoringServiceConfig(embedding_cache=False),
    )
    infer_service.score(addresses)  # warm slice cache

    def _request_sweep():
        scores = {}
        start = time.perf_counter()
        for a in addresses:
            scores.update(infer_service.score([a]))
        return time.perf_counter() - start, scores

    def _bulk_sweep():
        start = time.perf_counter()
        scores = infer_service.score(addresses)
        return time.perf_counter() - start, scores

    _request_sweep()  # compile per-request plans
    with plan_execution(False):
        _request_sweep()  # one-off tape warmup
    plan_times, tape_times = [], []
    plan_bulk_times, tape_bulk_times = [], []
    for _ in range(INFER_REPEATS):
        seconds, plan_scores = _request_sweep()
        plan_times.append(seconds)
        seconds, plan_bulk_scores = _bulk_sweep()
        plan_bulk_times.append(seconds)
        with plan_execution(False):
            seconds, tape_scores = _request_sweep()
            tape_times.append(seconds)
            seconds, tape_bulk_scores = _bulk_sweep()
            tape_bulk_times.append(seconds)
    infer_seconds = float(np.median(plan_times))
    infer_tape_seconds = float(np.median(tape_times))
    infer_bulk_seconds = float(np.median(plan_bulk_times))
    infer_bulk_tape_seconds = float(np.median(tape_bulk_times))
    # The plan path must be bit-identical to the tape, not merely close.
    for a in addresses:
        assert np.array_equal(
            plan_scores[a].probabilities, tape_scores[a].probabilities
        ), f"plan-path probabilities diverge from the tape for {a}"
        assert np.array_equal(
            plan_bulk_scores[a].probabilities,
            tape_bulk_scores[a].probabilities,
        ), f"bulk plan-path probabilities diverge from the tape for {a}"
        np.testing.assert_allclose(
            plan_scores[a].probabilities, naive[a], rtol=1e-9, atol=1e-9
        )
    infer_speedup = infer_tape_seconds / infer_seconds
    infer_bulk_speedup = infer_bulk_tape_seconds / infer_bulk_seconds
    if MIN_INFER_SPEEDUP is not None:
        assert infer_speedup >= MIN_INFER_SPEEDUP, (
            f"compiled forward plans only {infer_speedup:.2f}x the tape "
            f"on the per-request warm-miss path "
            f"(need >= {MIN_INFER_SPEEDUP}x)"
        )

    # --- cluster: sharded multi-process construction ------------------ #
    cluster_config = ClusterConfig(
        num_shards=CLUSTER_SHARDS, num_workers=CLUSTER_WORKERS
    )
    cluster_setup_seconds, cluster = _timed_setup(
        lambda: ClusterScoringService(
            classifier, world.index, chain=world.chain, config=cluster_config
        )
    )
    gc.collect()
    start = time.perf_counter()
    cluster_scores = cluster.score(addresses)
    cluster_cold_seconds = time.perf_counter() - start
    assert cluster.stats.misses == total_slices
    for a in addresses:
        np.testing.assert_allclose(
            cluster_scores[a].probabilities, naive[a], rtol=1e-9, atol=1e-9
        )
    cluster_speedup = cold_seconds / cluster_cold_seconds
    if MIN_CLUSTER_SPEEDUP is not None:
        assert cluster_speedup >= MIN_CLUSTER_SPEEDUP, (
            f"cluster cold path only {cluster_speedup:.2f}x the "
            f"single-process cold path (need >= {MIN_CLUSTER_SPEEDUP}x "
            f"on this {os.cpu_count()}-cpu host)"
        )

    start = time.perf_counter()
    cluster.score(addresses)
    cluster_warm_seconds = time.perf_counter() - start

    # --- warm restart: save -> fresh replica -> load -> zero misses --- #
    warm_dir = tmp_path / "warm_store"
    cluster.save_warm(warm_dir)
    cluster.close()
    restarted = ClusterScoringService(
        classifier, world.index, chain=world.chain, config=cluster_config
    )
    restored = restarted.load_warm(warm_dir)
    assert restored == total_slices
    start = time.perf_counter()
    restarted_scores = restarted.score(addresses)
    warm_restart_seconds = time.perf_counter() - start
    restart_stats = restarted.stats
    assert restart_stats.misses == 0, restart_stats.snapshot()
    warm_restart_hit_rate = restart_stats.hit_rate
    assert warm_restart_hit_rate == 1.0
    for a in addresses:
        np.testing.assert_allclose(
            restarted_scores[a].probabilities,
            naive[a],
            rtol=1e-9,
            atol=1e-9,
        )
    restarted.close()

    # --- incremental: append one block, re-score everything ----------- #
    # Prefer a target whose history is not slice-aligned: appending after
    # an exact slice boundary legitimately dirties no cached slice, which
    # would make the invalidation assertion below vacuous.
    funded = [
        a for a in addresses if world.chain.utxo_set.balance_of(a) > 0
    ]
    target = next(
        (
            a for a in funded
            if world.index.transaction_count(a) % SLICE_SIZE != 0
        ),
        funded[0],
    )
    aligned = world.index.transaction_count(target) % SLICE_SIZE == 0
    _append_self_spend(world.chain, target)
    if not aligned:
        assert service.stats.invalidations >= 1
    before = service.stats.snapshot()
    start = time.perf_counter()
    service.score(addresses)
    incremental_seconds = time.perf_counter() - start
    after = service.stats.snapshot()
    rebuilt = after["misses"] - before["misses"]
    served = after["hits"] - before["hits"]
    other_slices = sum(
        _slices_of(world.index, a) for a in addresses if a != target
    )
    # Only the touched address was rebuilt; everyone else came from cache.
    assert rebuilt <= _slices_of(world.index, target)
    assert served >= other_slices

    # --- streaming: micro-batched concurrency + live append ----------- #
    # The live-traffic shape: many concurrent single-address requests.
    # The async front end coalesces them into merged passes (one padded
    # head pass instead of n), and a block append streams to the live
    # workers as a tail-replay message — the pool must never re-fork
    # (one `pool_starts_total` across the whole phase).  Earlier phases
    # of this process start pools too, so the phase reads registry
    # deltas from here.
    phase_start = obs.snapshot()["counters"]

    def _phase_count(name):
        return obs.snapshot()["counters"].get(name, 0) - phase_start.get(
            name, 0
        )

    streaming = ClusterScoringService(
        classifier, world.index, chain=world.chain, config=cluster_config
    )
    streaming.score(addresses)  # warm caches; the first misses fork the pool
    assert _phase_count("pool_starts_total") == 1

    start = time.perf_counter()
    serial_scores = {}
    for a in addresses:
        serial_scores.update(streaming.score([a]))
    serial_request_seconds = time.perf_counter() - start

    async def _concurrent_sweep():
        results = await asyncio.gather(
            *(streaming.async_score([a]) for a in addresses)
        )
        merged = {}
        for scores in results:
            merged.update(scores)
        return merged

    start = time.perf_counter()
    concurrent_scores = asyncio.run(_concurrent_sweep())
    concurrent_seconds = time.perf_counter() - start
    for a in addresses:
        np.testing.assert_allclose(
            concurrent_scores[a].probabilities,
            serial_scores[a].probabilities,
            rtol=1e-9,
            atol=1e-9,
        )
    micro_batches = _phase_count("micro_batches_total")
    assert _phase_count("micro_batch_requests_total") == n
    assert micro_batches < n, "no coalescing happened"
    concurrent_speedup = serial_request_seconds / concurrent_seconds
    if MIN_STREAMING_SPEEDUP is not None:
        assert concurrent_speedup >= MIN_STREAMING_SPEEDUP, (
            f"micro-batched concurrent scoring only "
            f"{concurrent_speedup:.2f}x serial per-request scoring "
            f"(need >= {MIN_STREAMING_SPEEDUP}x)"
        )

    stream_target = next(
        a for a in addresses if world.chain.utxo_set.balance_of(a) > 0
    )
    _append_self_spend(world.chain, stream_target)
    start = time.perf_counter()
    refreshed = streaming.score(addresses)
    append_refresh_seconds = time.perf_counter() - start
    streaming_pool_starts = _phase_count("pool_starts_total")
    assert streaming_pool_starts == 1  # streamed, not re-forked
    assert _phase_count("pool_ingest_batches_total") >= 1
    np.testing.assert_allclose(
        refreshed[stream_target].probabilities,
        classifier.predict_proba([stream_target], world.index)[0],
        rtol=1e-9,
        atol=1e-9,
    )

    # --- store: memory-mapped shard columns vs deep-copied slices ----- #
    # Per-worker resident footprint: an in-memory shard holds a deep
    # copy of its slice of the chain (transaction objects, records,
    # interning, memo); a store-backed shard holds only adjacency
    # arrays + caches — the columns stay in mapped file pages shared
    # across every worker.
    inmemory_peak_worker_bytes = max(
        shard.index.resident_nbytes() for shard in streaming.shards
    )
    streaming.close()

    store_cluster = ClusterScoringService(
        classifier,
        world.index,
        chain=world.chain,
        config=ClusterConfig(
            num_shards=CLUSTER_SHARDS,
            num_workers=CLUSTER_WORKERS,
            store_dir=str(tmp_path / "chain_store"),
        ),
    )
    gc.collect()
    start = time.perf_counter()
    store_scores = store_cluster.score(addresses)
    store_cold_seconds = time.perf_counter() - start
    for a in addresses:
        np.testing.assert_allclose(
            store_scores[a].probabilities,
            refreshed[a].probabilities,
            rtol=1e-9,
            atol=1e-9,
        )
    store_peak_worker_bytes = max(
        shard.index.resident_nbytes() for shard in store_cluster.shards
    )
    store_cluster.close()
    store_memory_saving = inmemory_peak_worker_bytes / store_peak_worker_bytes
    assert store_memory_saving >= MIN_STORE_MEMORY_SAVING, (
        f"store-backed worker only {store_memory_saving:.1f}x smaller "
        f"than the deep-copied in-memory shard "
        f"({store_peak_worker_bytes} vs {inmemory_peak_worker_bytes} "
        f"bytes, need >= {MIN_STORE_MEMORY_SAVING}x)"
    )
    store_throughput_ratio = cluster_cold_seconds / store_cold_seconds
    if MIN_STORE_THROUGHPUT_RATIO is not None:
        assert store_throughput_ratio >= MIN_STORE_THROUGHPUT_RATIO, (
            f"store-backed cold scoring at {store_throughput_ratio:.2f}x "
            f"the in-memory cluster (need >= "
            f"{MIN_STORE_THROUGHPUT_RATIO}x)"
        )

    mode = "smoke" if SMOKE else "full"
    payload = {
        "benchmark": "serving_throughput",
        "mode": mode,
        "slice_size": SLICE_SIZE,
        "num_addresses": n,
        "num_slice_graphs": total_slices,
        "available_cpus": os.cpu_count(),
        "naive_seconds": naive_seconds,
        "naive_addr_per_second": n / naive_seconds,
        "cold_seconds": cold_seconds,
        "cold_addr_per_second": n / cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_addr_per_second": n / warm_seconds,
        "warm_speedup_vs_naive": speedup,
        "obs_on_seconds": obs_on_seconds,
        "obs_off_seconds": obs_off_seconds,
        "obs_overhead_pct": obs_overhead_pct,
        "obs_gate_enforced": MAX_OBS_OVERHEAD_PCT is not None,
        "infer_seconds": infer_seconds,
        "infer_addr_per_second": n / infer_seconds,
        "infer_tape_seconds": infer_tape_seconds,
        "infer_speedup_vs_tape": infer_speedup,
        "infer_bulk_seconds": infer_bulk_seconds,
        "infer_bulk_tape_seconds": infer_bulk_tape_seconds,
        "infer_bulk_speedup_vs_tape": infer_bulk_speedup,
        "infer_gate_enforced": MIN_INFER_SPEEDUP is not None,
        "incremental_seconds": incremental_seconds,
        "service_setup_seconds": service_setup_seconds,
        "cluster_setup_seconds": cluster_setup_seconds,
        "cluster_shards": CLUSTER_SHARDS,
        "cluster_workers": CLUSTER_WORKERS,
        "cluster_cold_seconds": cluster_cold_seconds,
        "workers_addr_per_second": n / cluster_cold_seconds,
        "cluster_warm_seconds": cluster_warm_seconds,
        "cluster_speedup": cluster_speedup,
        "cluster_gate_enforced": MIN_CLUSTER_SPEEDUP is not None,
        "warm_restart_seconds": warm_restart_seconds,
        "warm_restart_hit_rate": warm_restart_hit_rate,
        "warm_restart_entries": restored,
        "serial_request_seconds": serial_request_seconds,
        "concurrent_seconds": concurrent_seconds,
        "concurrent_addr_per_second": n / concurrent_seconds,
        "concurrent_speedup_vs_serial": concurrent_speedup,
        "micro_batches": micro_batches,
        "append_refresh_seconds": append_refresh_seconds,
        "streaming_pool_starts": streaming_pool_starts,
        "streaming_gate_enforced": MIN_STREAMING_SPEEDUP is not None,
        "store_cold_seconds": store_cold_seconds,
        "store_addr_per_second": n / store_cold_seconds,
        "store_peak_worker_bytes": store_peak_worker_bytes,
        "inmemory_peak_worker_bytes": inmemory_peak_worker_bytes,
        "store_memory_saving": store_memory_saving,
        "store_throughput_ratio": store_throughput_ratio,
        "store_gate_enforced": MIN_STORE_THROUGHPUT_RATIO is not None,
    }
    # Merge under a per-mode key: a tier-1 smoke run must not clobber
    # the full-mode trajectory (and vice versa).
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    try:
        existing = json.loads(RESULTS_PATH.read_text())
        if not isinstance(existing, dict) or "benchmark" in existing:
            existing = {}
    except (OSError, ValueError):
        existing = {}
    existing[mode] = payload
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")

    rows = [
        ("naive rebuild loop", naive_seconds, n / naive_seconds),
        ("cold cache (batched)", cold_seconds, n / cold_seconds),
        ("warm cache (batched)", warm_seconds, n / warm_seconds),
        ("warm, obs enabled", obs_on_seconds, n / obs_on_seconds),
        ("warm, obs disabled", obs_off_seconds, n / obs_off_seconds),
        ("infer: forward plans", infer_seconds, n / infer_seconds),
        ("infer: autograd tape", infer_tape_seconds, n / infer_tape_seconds),
        ("infer bulk: plans", infer_bulk_seconds, n / infer_bulk_seconds),
        (
            "infer bulk: tape",
            infer_bulk_tape_seconds,
            n / infer_bulk_tape_seconds,
        ),
        (
            f"cluster cold ({CLUSTER_SHARDS}sx{CLUSTER_WORKERS}w)",
            cluster_cold_seconds,
            n / cluster_cold_seconds,
        ),
        ("cluster warm", cluster_warm_seconds, n / cluster_warm_seconds),
        ("warm restart (store)", warm_restart_seconds, n / warm_restart_seconds),
        ("incremental (1 block)", incremental_seconds, n / incremental_seconds),
        (
            "serial per-request",
            serial_request_seconds,
            n / serial_request_seconds,
        ),
        (
            "concurrent micro-batch",
            concurrent_seconds,
            n / concurrent_seconds,
        ),
        (
            "append refresh (stream)",
            append_refresh_seconds,
            n / append_refresh_seconds,
        ),
        ("store-backed cold", store_cold_seconds, n / store_cold_seconds),
    ]
    lines = [
        f"Serving throughput — {n} addresses, {total_slices} slice graphs"
        f" ({mode} mode)",
        f"{'path':<26}{'seconds':>10}{'addr/s':>10}",
    ]
    for name, seconds, rate in rows:
        lines.append(f"{name:<26}{seconds:>10.3f}{rate:>10.1f}")
    lines.append(f"warm speedup over naive: {speedup:.1f}x")
    lines.append(
        f"setup (best of {SETUP_REPEATS}): one-shard service "
        f"{service_setup_seconds:.4f}s, {CLUSTER_SHARDS}-shard cluster "
        f"{cluster_setup_seconds:.4f}s"
    )
    lines.append(
        f"observability overhead: {obs_overhead_pct:+.1f}% of warm "
        f"throughput over {OBS_REPEATS} alternating sweeps "
        f"(gate {'on' if MAX_OBS_OVERHEAD_PCT else 'off'})"
    )
    lines.append(
        f"forward plans vs tape: {infer_speedup:.2f}x per-request, "
        f"{infer_bulk_speedup:.2f}x bulk "
        f"(gate {'on' if MIN_INFER_SPEEDUP else 'off'}, bit-identical)"
    )
    lines.append(
        f"cluster cold vs single cold: {cluster_speedup:.2f}x "
        f"(gate {'on' if MIN_CLUSTER_SPEEDUP else 'off'}, "
        f"{os.cpu_count()} cpus)"
    )
    lines.append(
        f"warm restart: {restored} slices restored, "
        f"hit rate {warm_restart_hit_rate:.0%}, zero rebuilds"
    )
    lines.append(
        f"streaming: {concurrent_speedup:.2f}x concurrent vs serial in "
        f"{micro_batches} micro-batches "
        f"(gate {'on' if MIN_STREAMING_SPEEDUP else 'off'}), append "
        f"refresh {append_refresh_seconds:.3f}s with "
        f"{streaming_pool_starts} pool start"
    )
    lines.append(
        f"chain store: worker footprint {store_peak_worker_bytes:,} B "
        f"mapped vs {inmemory_peak_worker_bytes:,} B deep-copied "
        f"({store_memory_saving:.1f}x smaller), cold throughput "
        f"{store_throughput_ratio:.2f}x in-memory "
        f"(gate {'on' if MIN_STORE_THROUGHPUT_RATIO else 'off'})"
    )
    lines.append(
        "cache: hits={hits} misses={misses} evictions={evictions} "
        "invalidations={invalidations}".format(**after)
    )
    save_result("bench_serving_throughput", "\n".join(lines))
