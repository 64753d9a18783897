"""Serving benchmark for the address-scoring cluster.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_corpus --seed 1 --seconds 25 --trace 0

Every run simulates a fixed chain, trains a small classifier on it
(seeded by ``--seed``; model quality is irrelevant here, so training is
minimal), brings up :class:`repro.serve.ClusterScoringService` replicas
and drives one workload against them for ``--seconds`` of measurement,
with traffic drawn from ``--seed``.  All workloads are closed loops: a
client sends its next request when the previous one returns.

- ``cold_corpus``: one client scores the labelled corpus in requests of
  ``COLD_BATCH`` addresses (a fixed partition, sent in a seeded order)
  against a replica whose caches start empty; when the corpus is done a
  fresh replica takes over.  Every slice graph is built (Stages 1-4 and
  encoding, in-process), embedded and scored.
- ``warm_live``: ``LIVE_CLIENTS`` concurrent clients send one-address
  ``async_score`` requests to a replica whose caches hold the whole
  corpus; the micro-batcher merges requests in flight.  No graph is
  built: this is the cache, batching and sequence-head path.
- ``append_stream``: a replica with ``APPEND_WORKERS`` live worker
  processes serves a chain that grows by one block per operation.  Each
  operation mines a block touching one corpus address and re-scores it
  with a few warm ones, so the append invalidation, the block streamed
  to the workers and the worker rebuild of the dirtied slice are all on
  the operation's critical path.

The last line of output is one JSON object.  With ``--trace 0`` its
metrics are what a caller sees: operation latency (``p50_ms``,
``p90_ms``) and addresses scored per second (``addr_per_s``), each
computed per measurement window and reported as the better decile
over windows (see :func:`_better_decile`), and the median replica
start-up time (``setup_s``: constructing and connecting a replica, plus
forking its worker pool where the workload has one).  With
``--trace 1`` the same workload runs with the layer table of
``layers.py`` installed and reports, per operation, each layer's self
time in milliseconds, the part of the latency no layer accounts for,
and cache and batching counts.  Served scores are checked
against the offline classifier rebuilding every graph from scratch, to
1e-9; a mismatch or a failed operation sets ``correct`` to false.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Simulated chain: about 3,100 transactions and 102 labelled addresses
#: (319 slice graphs), so one cold corpus pass takes about a second and
#: a run covers many.
WORLD = dict(
    num_blocks=90,
    num_retail=30,
    num_gamblers=12,
    num_miner_members=8,
    num_mixers=2,
    num_wallet_services=2,
    num_lending_desks=1,
)
#: The chain stands for the deployment's data and is the same in every
#: run; ``--seed`` draws the traffic and the model initialisation.  Chains
#: drawn from different seeds differ by 10-20% in how many slice graphs
#: their corpus has, which would swamp the run-to-run spread.
WORLD_SEED = 2023
SLICE_SIZE = 20
MIN_TRANSACTIONS = 4
TRAIN_ADDRESSES = 16
NUM_SHARDS = 2
COLD_BATCH = 4
LIVE_CLIENTS = 32
APPEND_WORKERS = 2
#: Warm addresses re-scored with each appended one.
APPEND_COMPANIONS = 3
#: Seconds per measurement window of the live and append workloads.
WINDOW_SECONDS = 0.5
#: Fewest operations a window needs to count.
MIN_WINDOW_OPS = 10
#: Replicas started, each timed for ``setup_s`` and then measured for
#: an equal share of the run, by the live and append workloads (the
#: cold workload starts one per corpus pass).  Spreading start-ups over
#: the run keeps a stretch of host contention from hitting them all.
SEGMENTS = 5
#: Replicas started (and timed) at the head of each segment; the last
#: one serves the segment.
STARTS_PER_SEGMENT = 3
#: Served addresses per run checked against the offline classifier.
CHECKED = 8
TOLERANCE = 1e-9

#: One BLAS thread per process, as for a replica sharing its host with
#: its own worker processes.  The matrices here are small, and spinning
#: BLAS threads on a two-core host make runs slower and less steady.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Inputs:
    """The fixed chain and its corpus, and a classifier fitted from ``seed``.

    ``rng`` (also from ``seed``) draws the workload's traffic.
    """

    def __init__(self, seed: int):
        import numpy as np

        from repro import (
            BAClassifier,
            BAClassifierConfig,
            WorldConfig,
            build_dataset,
            generate_world,
        )

        self.rng = np.random.default_rng(seed)
        self.world = generate_world(WorldConfig(seed=WORLD_SEED, **WORLD))
        dataset = build_dataset(
            self.world, min_transactions=MIN_TRANSACTIONS, seed=WORLD_SEED
        )
        self.classifier = BAClassifier(
            BAClassifierConfig(
                slice_size=SLICE_SIZE,
                gnn_epochs=1,
                head_epochs=1,
                gnn_hidden_dim=16,
                head_hidden_dim=16,
                head_restarts=1,
                seed=seed,
            )
        )
        self.classifier.fit(
            dataset.addresses[:TRAIN_ADDRESSES],
            dataset.labels[:TRAIN_ADDRESSES],
            self.world.index,
        )
        self.corpus: List[str] = sorted(dataset.addresses)
        # The cold workload's requests: one fixed partition of the corpus,
        # so every pass (a measurement window) carries the same work and
        # differs from the next only in order.
        order = np.random.default_rng(WORLD_SEED).permutation(self.corpus)
        self.cold_requests = [
            [str(a) for a in order[i:i + COLD_BATCH]]
            for i in range(0, len(order), COLD_BATCH)
        ]

    def replica(self, num_workers: int = 0):
        """A connected replica; with workers, its pool is forked too."""
        from repro.serve import ClusterConfig, ClusterScoringService

        replica = ClusterScoringService(
            self.classifier,
            self.world.index,
            chain=self.world.chain,
            config=ClusterConfig(
                num_shards=NUM_SHARDS, num_workers=num_workers
            ),
        )
        if num_workers:
            # The pool forks on the first cache miss.
            replica.score(self.corpus[:1])
        return replica

    def sample(self, population: Sequence[str], k: int) -> List[str]:
        picks = self.rng.choice(len(population), size=k, replace=False)
        return [population[int(i)] for i in picks]


class Recorder:
    """Samples, counts and correctness of one run.

    A run is a sequence of segments, each on a freshly started replica:
    the start-up is timed for ``setup_s``, and the segment's operations
    fall into measurement windows (one per corpus pass for the cold
    workload, ``WINDOW_SECONDS`` of wall time otherwise).
    """

    def __init__(self, layers=None) -> None:
        self.layers = layers
        #: (window, start, end, addresses) per completed operation.
        self.ops: List[Tuple[Tuple[int, int], float, float, int]] = []
        self.setups: List[float] = []
        self.segment = 0
        self.segment_began = 0.0
        self.window_seconds: Optional[float] = None
        self.attempted = 0
        self.failed = 0
        self.served: Dict = {}
        self.cache = {"hits": 0, "misses": 0}
        self.embed_cache = {"hits": 0, "misses": 0}

    def start_replica(self, start: Callable, times: int = 1):
        """Start ``times`` replicas, timing each; return the last."""
        for remaining in range(times - 1, -1, -1):
            began = time.perf_counter()
            replica = start()
            self.setups.append(time.perf_counter() - began)
            if remaining:
                replica.close()
        return replica

    @contextlib.contextmanager
    def measuring(
        self, replica, window_seconds: Optional[float] = None
    ) -> Iterator[None]:
        """Measure one segment: its windows, cache traffic, layer time.

        ``window_seconds=None`` makes the whole segment one window.
        """
        before = replica.stats.snapshot()
        embed_before = replica.embedding_stats.snapshot()
        self.segment += 1
        self.window_seconds = window_seconds
        if self.layers is not None:
            self.layers.recording = True
        self.segment_began = time.perf_counter()
        try:
            yield
        finally:
            if self.layers is not None:
                self.layers.recording = False
            for totals, after, start in (
                (self.cache, replica.stats.snapshot(), before),
                (
                    self.embed_cache,
                    replica.embedding_stats.snapshot(),
                    embed_before,
                ),
            ):
                for key in totals:
                    totals[key] += after[key] - start[key]

    def operation(self, addresses: Sequence[str], run: Callable) -> None:
        """Time one client operation; a failure is counted, not raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            scores = run()
        except Exception:
            self.failed += 1
            return
        self.note(start, addresses, scores)

    def note(self, start: float, addresses: Sequence[str], scores) -> None:
        end = time.perf_counter()
        bucket = 0
        if self.window_seconds is not None:
            bucket = int((start - self.segment_began) / self.window_seconds)
        self.ops.append(((self.segment, bucket), start, end, len(addresses)))
        if len(self.served) < CHECKED:
            self.served.update(scores)


def cold_corpus(inputs: Inputs, rec: Recorder, seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        replica = rec.start_replica(inputs.replica)
        try:
            with rec.measuring(replica):
                for i in inputs.rng.permutation(len(inputs.cold_requests)):
                    if time.perf_counter() >= deadline:
                        break
                    batch = inputs.cold_requests[i]
                    rec.operation(batch, lambda: replica.score(batch))
        finally:
            replica.close()


async def _live_clients(inputs: Inputs, rec: Recorder, replica, deadline):
    """``LIVE_CLIENTS`` closed-loop clients of one-address requests."""

    async def client(stream) -> None:
        for position in stream:
            if time.perf_counter() >= deadline:
                return
            address = [inputs.corpus[int(position)]]
            rec.attempted += 1
            start = time.perf_counter()
            try:
                scores = await replica.async_score(address)
            except Exception:
                rec.failed += 1
                continue
            rec.note(start, address, scores)

    streams = inputs.rng.integers(
        0, len(inputs.corpus), size=(LIVE_CLIENTS, 1 << 16)
    )
    await asyncio.gather(*(client(stream) for stream in streams))


def warm_live(inputs: Inputs, rec: Recorder, seconds: float) -> None:
    for _ in range(SEGMENTS):
        replica = rec.start_replica(inputs.replica, STARTS_PER_SEGMENT)
        try:
            replica.score(inputs.corpus)  # fill the caches
            with rec.measuring(replica, WINDOW_SECONDS):
                deadline = time.perf_counter() + seconds / SEGMENTS
                asyncio.run(_live_clients(inputs, rec, replica, deadline))
        finally:
            replica.close()


def append_stream(inputs: Inputs, rec: Recorder, seconds: float) -> None:
    from repro.testing import append_self_spend

    chain = inputs.world.chain
    # A self-spend pays the address its own coin plus the block reward,
    # so an address funded once stays funded.
    funded = [
        a for a in inputs.corpus if chain.utxo_set.balance_of(a) > 0
    ]
    for _ in range(SEGMENTS):
        replica = rec.start_replica(
            lambda: inputs.replica(num_workers=APPEND_WORKERS),
            STARTS_PER_SEGMENT,
        )
        try:
            replica.score(inputs.corpus)  # fill the caches
            touched: Dict[str, None] = {}
            with rec.measuring(replica, WINDOW_SECONDS):
                deadline = time.perf_counter() + seconds / SEGMENTS
                while time.perf_counter() < deadline:
                    target = inputs.sample(funded, 1)[0]
                    others = [
                        a
                        for a in inputs.sample(
                            inputs.corpus, APPEND_COMPANIONS + 1
                        )
                        if a != target
                    ]
                    request = [target, *others[:APPEND_COMPANIONS]]

                    def run():
                        append_self_spend(chain, target)
                        return replica.score(request)

                    rec.operation(request, run)
                    touched[target] = None
            # Checked against the grown chain: the appended addresses,
            # whose trailing slices the workers rebuilt from the
            # streamed blocks.
            rec.served = replica.score(list(touched)[-CHECKED:])
        finally:
            replica.close()


WORKLOADS = {
    "cold_corpus": cold_corpus,
    "warm_live": warm_live,
    "append_stream": append_stream,
}


def correct(inputs: Inputs, rec: Recorder) -> bool:
    """Served scores equal a from-scratch offline rebuild, to 1e-9."""
    import numpy as np

    if rec.failed or not rec.served:
        return False
    addresses = list(rec.served)
    expected = inputs.classifier.predict_proba(addresses, inputs.world.index)
    return all(
        np.allclose(
            rec.served[a].probabilities, row, rtol=TOLERANCE, atol=TOLERANCE
        )
        for a, row in zip(addresses, expected)
    )


def _quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _better_decile(values: Sequence[float], better: str) -> float:
    """The figure a tenth of the windows reach or beat.

    On a shared host, another tenant's load slows this one by up to half
    for stretches of seconds to minutes, and how much of a run those
    stretches cover varies from run to run.  The decile on the better
    side of the per-window figures is what the program does while the
    host leaves it alone, provided a tenth of the run was spent so; a
    change to the program moves it as it moves every window.
    """
    return _quantile(values, 0.1 if better == "lower" else 0.9)


def end_to_end_metrics(rec: Recorder) -> Dict[str, Dict]:
    grouped: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
    for window, start, end, addresses in rec.ops:
        grouped.setdefault(window, []).append((start, end, addresses))
    # Windows cut short by a deadline are left out, unless all are.
    windows = [
        ops for ops in grouped.values() if len(ops) >= MIN_WINDOW_OPS
    ] or list(grouped.values())
    p50, p90, rate = [], [], []
    for ops in windows:
        latencies = [end - start for start, end, _ in ops]
        p50.append(_quantile(latencies, 0.5))
        p90.append(_quantile(latencies, 0.9))
        span = max(end for _, end, _ in ops) - min(s for s, _, _ in ops)
        rate.append(sum(n for _, _, n in ops) / span)
    figures = {
        "p50_ms": (_better_decile(p50, "lower") * 1e3, "ms"),
        "p90_ms": (_better_decile(p90, "lower") * 1e3, "ms"),
        "addr_per_s": (_better_decile(rate, "higher"), "1/s"),
        "setup_s": (statistics.median(rec.setups), "s"),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in figures.items()
    }


def per_layer_metrics(rec: Recorder) -> Dict[str, Dict]:
    from layers import LAYERS

    operations = len(rec.ops)
    metrics = {}
    attributed = 0.0
    for layer in LAYERS:
        ms = rec.layers.self_seconds[layer] * 1e3 / operations
        attributed += ms
        metrics[f"{layer}_ms"] = {"value": ms, "unit": "ms"}
    mean_ms = 1e3 * statistics.fmean(e - s for _, s, e, _ in rec.ops)
    metrics["unattributed_ms"] = {"value": mean_ms - attributed, "unit": "ms"}
    lookups = rec.cache["hits"] + rec.cache["misses"]
    embed_lookups = rec.embed_cache["hits"] + rec.embed_cache["misses"]
    passes = rec.layers.calls["request"]
    metrics.update(
        {
            "slices_built": {
                "value": rec.cache["misses"] / operations,
                "unit": "count",
            },
            "slice_hit_rate": {
                "value": rec.cache["hits"] / lookups if lookups else 0.0,
                "unit": "ratio",
            },
            "embed_hit_rate": {
                "value": (
                    rec.embed_cache["hits"] / embed_lookups
                    if embed_lookups
                    else 0.0
                ),
                "unit": "ratio",
            },
            "ops_per_pass": {
                "value": operations / passes if passes else 0.0,
                "unit": "count",
            },
        }
    )
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    for name, value in BLAS_THREADS.items():
        os.environ.setdefault(name, value)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    from layers import LayerTable

    import numpy

    print(
        f"host: {os.cpu_count()} cpus, python {sys.version.split()[0]}, "
        f"numpy {numpy.__version__}",
        file=sys.stderr,
    )
    inputs = Inputs(args.seed)
    layers = LayerTable() if args.trace else None
    rec = Recorder(layers)
    with layers.installed() if layers else contextlib.nullcontext():
        WORKLOADS[args.workload](inputs, rec, args.seconds)
    if not rec.ops:
        print("no operation completed", file=sys.stderr)
        return 1
    result = {
        "correct": correct(inputs, rec),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": (
            per_layer_metrics(rec) if args.trace else end_to_end_metrics(rec)
        ),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
