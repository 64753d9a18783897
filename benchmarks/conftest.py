"""Shared fixtures for the benchmark harness.

One medium-scale world and its constructed/encoded graphs are built once
per session and shared by the table/figure benchmarks, so each benchmark
times only its own experiment.

Every benchmark writes its paper-style table to
``benchmarks/results/<name>.txt`` (and prints it, visible with ``-s``),
so ``pytest benchmarks/ --benchmark-only`` leaves a full set of
regenerated tables on disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.datagen import WorldConfig, build_dataset, generate_world
from repro.gnn import EncodedGraph, build_encoded
from repro.graphs import GraphConstructionPipeline, GraphPipelineConfig

BENCH_SEED = 2023
RESULTS_DIR = Path(__file__).parent / "results"

# The benchmark world: scaled down from the paper's 2.1 M addresses to a
# CPU-friendly economy, with every behaviour class active.
BENCH_WORLD_CONFIG = WorldConfig(
    seed=BENCH_SEED,
    num_blocks=220,
    num_retail=90,
    num_gamblers=32,
    num_miner_members=18,
    num_mixers=3,
    num_wallet_services=3,
    num_lending_desks=2,
)

# Paper's slicing unit is 100; at our reduced per-address transaction
# counts a slice of 40 yields comparable slice-per-address statistics.
BENCH_SLICE_SIZE = 40
BENCH_MIN_TXS = 5
BENCH_MAX_PER_CLASS = 60


def save_result(name: str, text: str) -> None:
    """Persist and echo one benchmark's regenerated table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def bench_world():
    """The shared simulated economy."""
    return generate_world(BENCH_WORLD_CONFIG)


@pytest.fixture(scope="session")
def bench_split(bench_world):
    """Stratified train/test address split (80/20 like the paper)."""
    dataset = build_dataset(
        bench_world,
        min_transactions=BENCH_MIN_TXS,
        max_per_class=BENCH_MAX_PER_CLASS,
        seed=BENCH_SEED,
    )
    train, test = dataset.split(test_fraction=0.2, seed=BENCH_SEED)
    return dataset, train, test


@pytest.fixture(scope="session")
def bench_graphs(bench_world, bench_split) -> Dict:
    """Constructed + encoded slice graphs for the split addresses."""
    _, train, test = bench_split
    pipeline = GraphConstructionPipeline(
        GraphPipelineConfig(slice_size=BENCH_SLICE_SIZE)
    )
    label_map = {
        **dict(zip(train.addresses, (int(v) for v in train.labels))),
        **dict(zip(test.addresses, (int(v) for v in test.labels))),
    }
    addresses = list(train.addresses) + list(test.addresses)
    encoded_by_address = build_encoded(
        pipeline,
        bench_world.index,
        {address: None for address in addresses},
        span="bench.encode",
        labels_by_address=label_map,
    )

    def flat(split) -> List[EncodedGraph]:
        return [g for a in split.addresses for g in encoded_by_address[a]]

    return {
        "pipeline": pipeline,
        "encoded_by_address": encoded_by_address,
        "train_graphs": flat(train),
        "test_graphs": flat(test),
    }
