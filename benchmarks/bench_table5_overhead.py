"""Table V — runtime overhead per graph-construction stage.

Paper result (single-core, per address): Stage 1 0.19 s (4.4 %),
Stage 2 0.63 s (14.5 %), Stage 3 2.71 s (62.4 %), Stage 4 0.81 s (18.7 %),
total 4.34 s.  The paper's Stage 3 dominates because its mainnet graphs
contain thousands of multi-transaction address nodes per slice; at our
simulator scale the pairwise-similarity work is far smaller, so we report
measured shares honestly and flag the deviation (see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_table
from repro.graphs import (
    STAGE_NAMES,
    GraphConstructionPipeline,
    GraphPipelineConfig,
)

from conftest import BENCH_SLICE_SIZE, save_result

PAPER_SECONDS = {
    STAGE_NAMES[0]: 0.19,
    STAGE_NAMES[1]: 0.63,
    STAGE_NAMES[2]: 2.71,
    STAGE_NAMES[3]: 0.81,
}
PAPER_RATIO = {
    STAGE_NAMES[0]: 0.0438,
    STAGE_NAMES[1]: 0.1452,
    STAGE_NAMES[2]: 0.6244,
    STAGE_NAMES[3]: 0.1866,
}
STAGE_TITLES = {
    STAGE_NAMES[0]: "Stage 1 (extraction)",
    STAGE_NAMES[1]: "Stage 2 (single compression)",
    STAGE_NAMES[2]: "Stage 3 (multi compression)",
    STAGE_NAMES[3]: "Stage 4 (augmentation)",
}

NUM_ADDRESSES = 40


def test_table5_construction_overhead(benchmark, bench_world, bench_split):
    """Time the four stages over the busiest benchmark addresses."""
    dataset, _, _ = bench_split
    # The paper averages over its full corpus; we use the busiest
    # addresses, where the per-stage distinctions are measurable.
    addresses = sorted(
        dataset.addresses,
        key=lambda a: -bench_world.index.transaction_count(a),
    )[:NUM_ADDRESSES]

    def run():
        pipeline = GraphConstructionPipeline(
            GraphPipelineConfig(slice_size=BENCH_SLICE_SIZE)
        )
        for address in addresses:
            pipeline.build_many(bench_world.index, [address])
        return pipeline

    pipeline = benchmark.pedantic(run, rounds=1, iterations=1)

    ratios = pipeline.timer.ratios()
    total = pipeline.timer.total()
    rows = []
    for name in STAGE_NAMES:
        rows.append(
            [
                STAGE_TITLES[name],
                pipeline.timer.totals[name] / NUM_ADDRESSES,
                ratios[name],
                PAPER_SECONDS[name],
                PAPER_RATIO[name],
            ]
        )
    rows.append(["Total", total / NUM_ADDRESSES, 1.0, 4.34, 1.0])
    table = format_table(
        [
            "Stage",
            "Ours s/addr",
            "Ours ratio",
            "Paper s/addr",
            "Paper ratio",
        ],
        rows,
        title="Table V — graph construction stage overhead",
    )
    save_result("table5_overhead", table)

    assert total > 0
    # Compression stages together are a visible share of the pipeline.
    compression_share = ratios[STAGE_NAMES[1]] + ratios[STAGE_NAMES[2]]
    assert compression_share > 0.02
