"""Compare graph models and classical baselines on one dataset.

A compact version of the paper's Table II / Table IV studies: trains the
GFN and GCN graph classifiers, the GBDT/flattened-feature classical
pipeline, and the two published baselines, then prints one ranked table.

Usage::

    python examples/model_comparison.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import WorldConfig, build_dataset, generate_world
from repro.baselines import BitScopeClassifier, LeeClassifier
from repro.eval import format_table, precision_recall_f1
from repro.gnn import GCN, GFN, GraphTrainingConfig, build_encoded, fit_graph_classifier
from repro.graphs import GraphConstructionPipeline, GraphPipelineConfig, flatten_graphs
from repro.ml import GradientBoostingClassifier

SEED = 5


def main() -> None:
    print("Simulating and preparing data ...")
    world = generate_world(WorldConfig(seed=SEED, num_blocks=160))
    dataset = build_dataset(world, min_transactions=5)
    train, test = dataset.split(test_fraction=0.25, seed=SEED)

    pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=40))
    addresses = list(train.addresses) + list(test.addresses)
    label_map = {
        **dict(zip(train.addresses, (int(v) for v in train.labels))),
        **dict(zip(test.addresses, (int(v) for v in test.labels))),
    }
    encoded = build_encoded(
        pipeline,
        world.index,
        {address: None for address in addresses},
        span="example.encode",
        labels_by_address=label_map,
    )
    train_graphs = [g for a in train.addresses for g in encoded[a]]
    test_graphs = [g for a in test.addresses for g in encoded[a]]
    graph_truth = np.array([g.label for g in test_graphs])

    results = []

    for name, model in (
        ("GFN (graph-level)", GFN(train_graphs[0].feature_dim, 4, rng=SEED)),
        ("GCN (graph-level)", GCN(train_graphs[0].feature_dim, 4, rng=SEED)),
    ):
        start = time.perf_counter()
        fit_graph_classifier(
            model, train_graphs,
            GraphTrainingConfig(epochs=15, batch_size=32, seed=SEED),
        )
        report = precision_recall_f1(graph_truth, model.predict(test_graphs), 4)
        results.append([name, report.weighted_f1, time.perf_counter() - start])

    print("Training classical pipeline (GBDT on flattened graphs) ...")
    graphs_by_address = pipeline.build_many(world.index, addresses)
    x_train = np.stack([flatten_graphs(graphs_by_address[a]) for a in train.addresses])
    x_test = np.stack([flatten_graphs(graphs_by_address[a]) for a in test.addresses])
    start = time.perf_counter()
    gbdt = GradientBoostingClassifier(n_estimators=40, seed=SEED)
    gbdt.fit(x_train, train.labels)
    report = precision_recall_f1(test.labels, gbdt.predict(x_test), 4)
    results.append(["GBDT (flattened)", report.weighted_f1, time.perf_counter() - start])

    print("Training published baselines ...")
    for name, baseline in (
        ("BitScope", BitScopeClassifier(seed=SEED)),
        ("Lee et al. + RF", LeeClassifier(model="random_forest", seed=SEED)),
        ("Lee et al. + ANN", LeeClassifier(model="ann", seed=SEED)),
    ):
        start = time.perf_counter()
        baseline.fit(train.addresses, train.labels, world.index)
        predictions = baseline.predict(test.addresses, world.index)
        report = precision_recall_f1(test.labels, predictions, 4)
        results.append([name, report.weighted_f1, time.perf_counter() - start])

    results.sort(key=lambda row: -row[1])
    print()
    print(
        format_table(
            ["Model", "Weighted F1", "Train time (s)"],
            results,
            title="Model comparison (address behaviour classification)",
        )
    )


if __name__ == "__main__":
    main()
