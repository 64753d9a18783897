"""Ablation — node compression on/off and the Ψ similarity threshold.

The paper motivates compression as a *scalability* device that preserves
classification signal (via SFE features on merged nodes).  This ablation
verifies both claims at our scale: compressed graphs are smaller, and a
GFN trained on them is about as accurate as on uncompressed graphs.
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_table, precision_recall_f1
from repro.gnn import GFN, GraphTrainingConfig, build_encoded, fit_graph_classifier
from repro.graphs import GraphConstructionPipeline, GraphPipelineConfig

from conftest import BENCH_SEED, BENCH_SLICE_SIZE, save_result

EPOCHS = 15

VARIANTS = {
    "full compression (psi=0.6)": dict(
        enable_single_compression=True, enable_multi_compression=True, psi=0.6
    ),
    "loose threshold (psi=0.3)": dict(
        enable_single_compression=True, enable_multi_compression=True, psi=0.3
    ),
    "strict threshold (psi=0.9)": dict(
        enable_single_compression=True, enable_multi_compression=True, psi=0.9
    ),
    "no compression": dict(
        enable_single_compression=False, enable_multi_compression=False
    ),
}


def test_ablation_compression(benchmark, bench_world, bench_split):
    """Rebuild graphs per variant; compare size and downstream F1."""
    _, train_split, test_split = bench_split
    label_map = {
        **dict(zip(train_split.addresses, (int(v) for v in train_split.labels))),
        **dict(zip(test_split.addresses, (int(v) for v in test_split.labels))),
    }
    addresses = list(train_split.addresses) + list(test_split.addresses)

    def run():
        results = {}
        for label, overrides in VARIANTS.items():
            pipeline = GraphConstructionPipeline(
                GraphPipelineConfig(slice_size=BENCH_SLICE_SIZE, **overrides)
            )
            encoded = build_encoded(
                pipeline,
                bench_world.index,
                {address: None for address in addresses},
                span="bench.encode",
                labels_by_address=label_map,
            )
            train_graphs = [
                g for a in train_split.addresses for g in encoded[a]
            ]
            test_graphs = [g for a in test_split.addresses for g in encoded[a]]
            mean_nodes = float(
                np.mean([g.num_nodes for g in train_graphs + test_graphs])
            )
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
            report = precision_recall_f1(truth, model.predict(test_graphs), 4)
            results[label] = (mean_nodes, report.weighted_f1)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ["Variant", "Mean nodes/graph", "Weighted F1"],
        [[label, nodes, f1] for label, (nodes, f1) in results.items()],
        title="Ablation — compression variants",
    )
    save_result("ablation_compression", table)

    compressed_nodes = results["full compression (psi=0.6)"][0]
    uncompressed_nodes = results["no compression"][0]
    assert compressed_nodes <= uncompressed_nodes
    # Compression must not destroy the signal.
    assert results["full compression (psi=0.6)"][1] > 0.5
