"""Graph-construction pipeline throughput — the tracked perf trajectory.

Measures, on one synthetic economy:

- **Stage-level construction rates** — graphs/second per pipeline stage
  (extraction, single/multi compression, augmentation) from the
  pipeline's own Table-V timer, plus end-to-end cold addresses/second
  through the production build+encode pass
  (:func:`repro.gnn.data.build_encoded`: Stages 1–4, Eq. 12 and the
  GFN propagation of Eq. 13 over one pack), the pass serving and the
  classifier run.
- **Warm cache throughput** — the serving layer's hot path: every
  encoded slice graph served from a :class:`SliceGraphCache`.
- **Stage-4 vectorization speedup** — the CSR/batched-BFS centrality
  kernels against the original per-node implementations
  (:mod:`repro.graphs.reference`) on random graphs of ≥200 nodes, the
  acceptance gate for the vectorized rewrite (≥10× in full mode).
- **Stage-4 cross-graph batching speedup** — the block-diagonal packed
  Stage-4 sweep (``augment_pack`` over ``GraphPack.of(graphs)``: the
  pack plus the sweep the pipeline runs) against the per-graph PR-3 path (``augment_graph`` in a loop) over
  every slice graph of the run, with 1e-9 parity asserted graph by
  graph.  The acceptance gate for the batched rewrite (≥1.5× in full
  mode; the PR-3 full-mode rate is kept as
  ``stage4_pr3_graphs_per_second`` so the trajectory stays visible).
- **Stage-1–3 construction speedup** — the ArrayGraph-native extraction
  + compression stages against the reference object pipeline
  (``repro.graphs.reference.build_original_graph`` + reference
  set-based compressions) on the
  same transaction slices.  The pure-Python sets are surprisingly quick
  on paper-scale slice graphs (it was the PR-2 *vectorized-object*
  formulation — per-edge ``fromiter`` + object rebuilds — that was
  slow), so the gate here is a modest ≥1.2×; the tracked acceptance for
  the ArrayGraph rewrite is the ≥3× jump of
  ``stage123_graphs_per_second`` over the PR-2 stage timings recorded
  in ``BENCH_pipeline.json`` history.

Results land in ``benchmarks/results/BENCH_pipeline.json`` under a
per-mode key (``smoke`` / ``full``), so future PRs can diff stage
timings against this one like-for-like — a tier-1 smoke run refreshes
only the ``smoke`` entry and leaves the full-mode trajectory intact.
Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the world to seconds-scale
and relaxes the speedup gate (timing a tiny workload is noise); it runs
in ``scripts/tier1.sh`` on every verification pass.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.config import BAClassifierConfig
from repro.datagen import WorldConfig, build_dataset, generate_world
from repro.gnn.data import build_encoded
from repro.graphs import (
    GraphConstructionPipeline,
    GraphPack,
    GraphPipelineConfig,
    augment_graph,
    augment_pack,
    centrality_matrix,
)
from repro.graphs.reference import (
    build_original_graph,
    reference_centrality_matrix,
    reference_compress_multi_transaction_addresses,
    reference_compress_single_transaction_addresses,
    slice_transactions,
)
from repro.serve import SliceGraphCache

from conftest import BENCH_SLICE_SIZE, BENCH_WORLD_CONFIG

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in {"", "0"}
SEED = 2023
#: Eq. 13 depth the cold pass propagates, as for the default GFN encoder.
GFN_K = BAClassifierConfig().gfn_k
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_pipeline.json"

if SMOKE:
    WORLD_CONFIG = WorldConfig(
        seed=SEED, num_blocks=70, num_retail=24, num_gamblers=10,
        num_miner_members=6, num_mixers=2, num_wallet_services=2,
        num_lending_desks=1,
    )
    SLICE_SIZE = 20
    NUM_ADDRESSES = 24
    SPEEDUP_GRAPH_SIZES = (80,)
    MIN_SPEEDUP = None  # timing noise dominates at smoke scale
    MIN_CONSTRUCTION_SPEEDUP = None
    MIN_STAGE4_BATCH_SPEEDUP = None
else:
    # Full mode measures the same economy the table/figure benchmarks
    # share, so stage timings stay comparable across the harness.
    WORLD_CONFIG = BENCH_WORLD_CONFIG
    SLICE_SIZE = BENCH_SLICE_SIZE
    NUM_ADDRESSES = 80
    SPEEDUP_GRAPH_SIZES = (200, 320)
    MIN_SPEEDUP = 10.0  # acceptance gate for the vectorized Stage 4
    MIN_CONSTRUCTION_SPEEDUP = 1.2  # floor vs pure-Python reference (noise margin)
    MIN_STAGE4_BATCH_SPEEDUP = 1.5  # batched vs per-graph Stage 4 (PR-4 gate)

# PR-2 trajectory point (full mode): Stages 1–3 ran at 357.3 graphs/s
# (2.0207 s over 722 slice graphs).  Kept as a constant so the tracked
# ≥3× ArrayGraph acceptance stays visible in the results file even
# though each run overwrites the per-mode entry.
PR2_STAGE123_GRAPHS_PER_SECOND = 357.3

# PR-3 trajectory point (full mode): the per-graph Stage-4 path ran at
# 495.9 graphs/s (1.4559 s over 722 slice graphs).  The batched
# block-diagonal path must beat it; the hard gate is the in-run
# per-graph-vs-batched speedup (machine-independent), this constant
# keeps the cross-PR ratio visible in the results file.
PR3_STAGE4_GRAPHS_PER_SECOND = 495.9


def _random_adjacency(n: int, seed: int):
    """A sparse connected-ish random graph with ``n`` nodes."""
    rng = np.random.default_rng(seed)
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for j in rng.choice(n, size=3, replace=False):
            j = int(j)
            if i != j:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return [sorted(neighbors) for neighbors in adjacency]


def _stage4_speedup():
    """Vectorized vs reference centrality on ≥200-node graphs (full mode).

    Returns ``(per-size rows, aggregate speedup)``; parity is asserted
    on every timed graph so the speedup compares equal outputs.
    """
    rows = []
    reference_total = 0.0
    vectorized_total = 0.0
    for size in SPEEDUP_GRAPH_SIZES:
        adjacency = _random_adjacency(size, seed=size)

        start = time.perf_counter()
        vectorized = centrality_matrix(adjacency)
        vectorized_seconds = time.perf_counter() - start

        start = time.perf_counter()
        reference = reference_centrality_matrix(adjacency)
        reference_seconds = time.perf_counter() - start

        np.testing.assert_allclose(
            vectorized, reference, rtol=1e-9, atol=1e-9
        )
        reference_total += reference_seconds
        vectorized_total += vectorized_seconds
        rows.append(
            {
                "num_nodes": size,
                "reference_seconds": reference_seconds,
                "vectorized_seconds": vectorized_seconds,
                "speedup": reference_seconds / vectorized_seconds,
            }
        )
    return rows, reference_total / vectorized_total


def _stage4_batch_comparison(graphs):
    """Batched vs per-graph Stage 4 over the run's real slice graphs.

    Re-augments the already-built graphs both ways (augmentation is a
    pure overwrite of the centrality column, so reuse is safe), asserts
    1e-9 parity graph by graph, and returns
    ``(per_graph_seconds, batched_seconds)``.
    """
    start = time.perf_counter()
    for graph in graphs:
        augment_graph(graph)
    per_graph_seconds = time.perf_counter() - start
    expected = [graph.centrality.copy() for graph in graphs]

    start = time.perf_counter()
    pack = GraphPack.of(graphs)
    augment_pack(pack)
    batched_seconds = time.perf_counter() - start
    for graph, reference in zip(pack.graphs(), expected):
        np.testing.assert_allclose(
            graph.centrality, reference, rtol=1e-9, atol=1e-9
        )
    return per_graph_seconds, batched_seconds


def _stage123_reference_seconds(index, addresses):
    """Wall-clock of the reference object pipeline's Stages 1–3.

    Object-model extraction plus the original set-based compressions —
    the pre-ArrayGraph construction path — on exactly the slices the
    vectorized pipeline builds.
    """
    start = time.perf_counter()
    count = 0
    for address in addresses:
        transactions = index.transactions_of(address)
        for i, chunk in enumerate(
            slice_transactions(transactions, SLICE_SIZE)
        ):
            graph = build_original_graph(address, chunk, slice_index=i)
            graph = reference_compress_single_transaction_addresses(graph)
            reference_compress_multi_transaction_addresses(
                graph, psi=0.6, sigma=2
            )
            count += 1
    return time.perf_counter() - start, count


def test_bench_pipeline_throughput():
    world = generate_world(WORLD_CONFIG)
    dataset = build_dataset(world, min_transactions=4, seed=SEED)
    addresses = sorted(
        dataset.addresses,
        key=lambda a: -world.index.transaction_count(a),
    )[:NUM_ADDRESSES]
    assert addresses, "benchmark world produced no eligible addresses"

    config = GraphPipelineConfig(slice_size=SLICE_SIZE)
    pipeline = GraphConstructionPipeline(config)
    fingerprint = config.fingerprint()

    # --- cold: the production build+encode pass over every slice ----- #
    start = time.perf_counter()
    encoded = build_encoded(
        pipeline,
        world.index,
        {address: None for address in addresses},
        span="bench.encode",
        gfn_k=GFN_K,
    )
    cold_seconds = time.perf_counter() - start
    total_graphs = sum(len(graphs) for graphs in encoded.values())
    stage_rows = pipeline.stage_report()

    # --- warm: every encoded slice graph served from cache ------------ #
    cache = SliceGraphCache(capacity=max(total_graphs, 1))
    for address, graphs in encoded.items():
        for graph in graphs:
            cache.put((address, graph.slice_index, fingerprint), graph)
    start = time.perf_counter()
    for address, graphs in encoded.items():
        for graph in graphs:
            assert (
                cache.get((address, graph.slice_index, fingerprint))
                is not None
            )
    warm_seconds = time.perf_counter() - start

    speedup_rows, stage4_speedup = _stage4_speedup()
    if MIN_SPEEDUP is not None:
        assert stage4_speedup >= MIN_SPEEDUP, (
            f"vectorized Stage-4 augmentation only {stage4_speedup:.1f}x "
            f"faster than the reference kernels (need >= {MIN_SPEEDUP}x)"
        )

    # --- Stage 4: block-diagonal batching vs the per-graph PR-3 path -- #
    # Graphs from a second pipeline, so its timer leaves the cold
    # pass's stage rows alone.
    graphs_by_address = GraphConstructionPipeline(config).build_many(
        world.index, addresses
    )
    flat_graphs = [
        graph
        for address in addresses
        for graph in graphs_by_address[address]
    ]
    stage4_per_graph_seconds, stage4_batched_seconds = (
        _stage4_batch_comparison(flat_graphs)
    )
    stage4_batch_speedup = stage4_per_graph_seconds / stage4_batched_seconds
    if MIN_STAGE4_BATCH_SPEEDUP is not None:
        assert stage4_batch_speedup >= MIN_STAGE4_BATCH_SPEEDUP, (
            f"batched Stage-4 augmentation only {stage4_batch_speedup:.2f}x "
            f"faster than the per-graph path "
            f"(need >= {MIN_STAGE4_BATCH_SPEEDUP}x)"
        )

    # --- Stages 1–3: ArrayGraph construction vs the object pipeline --- #
    stage123_seconds = sum(
        row["total_seconds"] for row in stage_rows[:3]
    )
    stage123_rate = total_graphs / stage123_seconds
    reference_seconds, reference_count = _stage123_reference_seconds(
        world.index, addresses
    )
    assert reference_count == total_graphs
    construction_speedup = reference_seconds / stage123_seconds
    if MIN_CONSTRUCTION_SPEEDUP is not None:
        assert construction_speedup >= MIN_CONSTRUCTION_SPEEDUP, (
            f"ArrayGraph Stages 1-3 only {construction_speedup:.1f}x faster "
            f"than the reference object pipeline "
            f"(need >= {MIN_CONSTRUCTION_SPEEDUP}x)"
        )

    n = len(addresses)
    payload = {
        "benchmark": "pipeline_throughput",
        "mode": "smoke" if SMOKE else "full",
        "slice_size": SLICE_SIZE,
        "num_addresses": n,
        "num_slice_graphs": total_graphs,
        "cold_seconds": cold_seconds,
        "cold_addresses_per_second": n / cold_seconds,
        "cold_graphs_per_second": total_graphs / cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_addresses_per_second": (
            n / warm_seconds if warm_seconds > 0 else float("inf")
        ),
        "stages": stage_rows,
        "stage123_seconds": stage123_seconds,
        "stage123_graphs_per_second": stage123_rate,
        "stage123_reference_seconds": reference_seconds,
        "stage123_speedup_vs_reference": construction_speedup,
        "stage123_pr2_graphs_per_second": (
            None if SMOKE else PR2_STAGE123_GRAPHS_PER_SECOND
        ),
        "stage123_speedup_vs_pr2": (
            None
            if SMOKE
            else stage123_rate / PR2_STAGE123_GRAPHS_PER_SECOND
        ),
        "stage4_speedup_vs_reference": stage4_speedup,
        "stage4_speedup_rows": speedup_rows,
        "stage4_per_graph_seconds": stage4_per_graph_seconds,
        "stage4_batched_seconds": stage4_batched_seconds,
        "stage4_batch_speedup": stage4_batch_speedup,
        "stage4_graphs_per_second": total_graphs / stage4_batched_seconds,
        "stage4_per_graph_graphs_per_second": (
            total_graphs / stage4_per_graph_seconds
        ),
        "stage4_pr3_graphs_per_second": (
            None if SMOKE else PR3_STAGE4_GRAPHS_PER_SECOND
        ),
        "stage4_speedup_vs_pr3": (
            None
            if SMOKE
            else (total_graphs / stage4_batched_seconds)
            / PR3_STAGE4_GRAPHS_PER_SECOND
        ),
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
    existing[payload["mode"]] = payload
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")

    lines = [
        f"Pipeline throughput — {n} addresses, {total_graphs} slice graphs"
        f" ({payload['mode']} mode)",
        f"{'stage':<28}{'total s':>10}{'share':>8}{'graphs/s':>12}",
    ]
    for row in stage_rows:
        lines.append(
            f"{row['stage']:<28}{row['total_seconds']:>10.3f}"
            f"{row['ratio']:>8.1%}{row['graphs_per_second']:>12.1f}"
        )
    lines.append(
        f"cold: {payload['cold_addresses_per_second']:.1f} addr/s, "
        f"warm: {payload['warm_addresses_per_second']:.1f} addr/s"
    )
    lines.append(
        f"stages 1-3 (ArrayGraph) vs reference object pipeline: "
        f"{construction_speedup:.1f}x ({stage123_rate:.0f} graphs/s)"
    )
    lines.append(
        f"stage-4 vectorized vs reference: {stage4_speedup:.1f}x "
        f"on {SPEEDUP_GRAPH_SIZES}-node graphs"
    )
    lines.append(
        f"stage-4 batched vs per-graph: {stage4_batch_speedup:.2f}x "
        f"({payload['stage4_graphs_per_second']:.0f} vs "
        f"{payload['stage4_per_graph_graphs_per_second']:.0f} graphs/s)"
    )
    print("\n" + "\n".join(lines) + "\n")
