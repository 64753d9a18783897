"""Ablation — graph structure augmentation on/off (paper §III-A-3).

The paper adds four centralities to every node "to elicit further
information" from sparse transaction data.  This ablation measures the
contribution of those structural features to GFN accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_table, precision_recall_f1
from repro.gnn import GFN, GraphTrainingConfig, build_encoded, fit_graph_classifier
from repro.graphs import GraphConstructionPipeline, GraphPipelineConfig

from conftest import BENCH_SEED, BENCH_SLICE_SIZE, save_result

EPOCHS = 15


def test_ablation_structure_augmentation(benchmark, bench_world, bench_split):
    """Train GFN with and without centrality augmentation."""
    _, train_split, test_split = bench_split
    label_map = {
        **dict(zip(train_split.addresses, (int(v) for v in train_split.labels))),
        **dict(zip(test_split.addresses, (int(v) for v in test_split.labels))),
    }
    addresses = list(train_split.addresses) + list(test_split.addresses)

    def run():
        scores = {}
        for label, augment in (("with augmentation", True),
                               ("without augmentation", False)):
            pipeline = GraphConstructionPipeline(
                GraphPipelineConfig(
                    slice_size=BENCH_SLICE_SIZE, enable_augmentation=augment
                )
            )
            encoded = build_encoded(
                pipeline,
                bench_world.index,
                {address: None for address in addresses},
                span="bench.encode",
                labels_by_address=label_map,
            )
            train_graphs = [g for a in train_split.addresses for g in encoded[a]]
            test_graphs = [g for a in test_split.addresses for g in encoded[a]]
            model = GFN(
                train_graphs[0].feature_dim, 4, hidden_dim=64, k=2,
                rng=BENCH_SEED,
            )
            fit_graph_classifier(
                model,
                train_graphs,
                GraphTrainingConfig(epochs=EPOCHS, batch_size=32, seed=BENCH_SEED),
            )
            truth = np.array([g.label for g in test_graphs])
            scores[label] = precision_recall_f1(
                truth, model.predict(test_graphs), 4
            ).weighted_f1
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ["Variant", "Weighted F1"],
        [[label, f1] for label, f1 in scores.items()],
        title="Ablation — structure augmentation",
    )
    save_result("ablation_augmentation", table)

    assert scores["with augmentation"] > 0.5
