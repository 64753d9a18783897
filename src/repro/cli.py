"""Command-line interface: simulate worlds, train, evaluate, classify.

Usage::

    python -m repro simulate --seed 7 --blocks 200 --out world_dir
    python -m repro train    --world world_dir --out model_dir
    python -m repro evaluate --world world_dir --model model_dir
    python -m repro classify --world world_dir --model model_dir ADDR [ADDR...]

``simulate`` persists the chain and label maps; ``train``/``evaluate``
work from a persisted world, so the expensive simulation runs once.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.chain.serialize import load_world_chain, save_world
from repro.core import BAClassifier, BAClassifierConfig
from repro.datagen import CLASS_NAMES, WorldConfig, generate_world
from repro.eval import classification_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BAClassifier: bitcoin address behavior classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a world and persist it")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--blocks", type=int, default=200)
    sim.add_argument("--retail", type=int, default=80)
    sim.add_argument("--out", required=True, help="output directory")

    train = sub.add_parser("train", help="train BAClassifier on a world")
    train.add_argument("--world", required=True)
    train.add_argument("--out", required=True, help="model directory")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--slice-size", type=int, default=40)
    train.add_argument("--gnn-epochs", type=int, default=15)
    train.add_argument("--head-epochs", type=int, default=25)
    train.add_argument("--min-transactions", type=int, default=5)
    train.add_argument("--test-fraction", type=float, default=0.2)

    evaluate = sub.add_parser("evaluate", help="evaluate a trained model")
    evaluate.add_argument("--world", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--min-transactions", type=int, default=5)
    evaluate.add_argument("--test-fraction", type=float, default=0.2)

    classify = sub.add_parser("classify", help="classify specific addresses")
    classify.add_argument("--world", required=True)
    classify.add_argument("--model", required=True)
    classify.add_argument("addresses", nargs="+")

    score = sub.add_parser(
        "score", help="score addresses via the caching scoring service"
    )
    score.add_argument("--world", required=True)
    score.add_argument("--model", required=True)
    score.add_argument("--workers", type=int, default=0,
                       help="construction worker processes "
                            "(0 = build inline)")
    score.add_argument("--shards", type=int, default=1,
                       help="shard the scoring service into N shards")
    score.add_argument("--warm-dir", default=None,
                       help="warm-cache store directory: load before "
                            "scoring, save after (keyed by pipeline "
                            "fingerprint + model version)")
    score.add_argument("--store-dir", default=None,
                       help="memory-mapped chain store directory: "
                            "shards read columns from mapped segments "
                            "instead of deep-copied indexes; "
                            "created/extended on use")
    score.add_argument("--cache-capacity", type=int, default=4096,
                       help="slice-cache entries per shard")
    score.add_argument("--stats", action="store_true",
                       help="print cache statistics after scoring")
    score.add_argument("--stats-json", default=None, metavar="PATH",
                       help="write the repro.obs metrics snapshot of "
                            "the run to PATH as JSON")
    score.add_argument("--trace-jsonl", default=None, metavar="PATH",
                       help="write the request traces of the run to "
                            "PATH as JSON lines (one trace per line)")
    score.add_argument("addresses", nargs="+")

    stats = sub.add_parser(
        "stats",
        help="render a repro.obs metrics snapshot (from --stats-json)",
    )
    stats.add_argument("--input", required=True,
                       help="snapshot JSON written by score --stats-json")
    stats.add_argument("--format", choices=("json", "prometheus"),
                       default="prometheus",
                       help="output rendering (default: prometheus text)")

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant linter (repro.analysis) over the tree",
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: src)")
    lint.add_argument("--baseline", default=None,
                      help="baseline JSON of grandfathered findings "
                           "(default: scripts/lint_baseline.json when "
                           "present)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write current findings to the baseline file "
                           "with TODO justifications, then exit")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every registered rule and its scope")
    return parser


def _split_from_world(directory: str, min_transactions: int,
                      test_fraction: float, seed: int):
    from repro.datagen.dataset import LabeledAddressDataset

    _, index, labels, _ = load_world_chain(directory)
    eligible = [
        (address, label)
        for address, label in labels.items()
        if index.transaction_count(address) >= min_transactions
    ]
    dataset = LabeledAddressDataset(
        addresses=tuple(a for a, _ in eligible),
        labels=np.array([l for _, l in eligible], dtype=np.int64),
    )
    train, test = dataset.split(test_fraction=test_fraction, seed=seed)
    return index, train, test


def _cmd_simulate(args) -> int:
    config = WorldConfig(
        seed=args.seed, num_blocks=args.blocks, num_retail=args.retail
    )
    print(f"Simulating {args.blocks} blocks (seed {args.seed}) ...")
    world = generate_world(config)
    save_world(world, args.out)
    counts = world.class_counts(min_transactions=1)
    print(
        f"Saved to {args.out}: height={world.chain.height}, "
        f"txs={world.chain.transaction_count():,}, labels="
        + ", ".join(f"{CLASS_NAMES[k]}={v}" for k, v in counts.items())
    )
    return 0


def _cmd_train(args) -> int:
    index, train, _ = _split_from_world(
        args.world, args.min_transactions, args.test_fraction, args.seed
    )
    print(f"Training on {len(train)} addresses ...")
    classifier = BAClassifier(
        BAClassifierConfig(
            slice_size=args.slice_size,
            gnn_epochs=args.gnn_epochs,
            head_epochs=args.head_epochs,
            head_learning_rate=3e-3,
            seed=args.seed,
        )
    )
    classifier.fit(train.addresses, train.labels, index)
    classifier.save(args.out)
    print(f"Model saved to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    index, _, test = _split_from_world(
        args.world, args.min_transactions, args.test_fraction, args.seed
    )
    classifier = BAClassifier.load(args.model)
    print(f"Evaluating on {len(test)} held-out addresses ...")
    predictions = classifier.predict(test.addresses, index)
    print(classification_report(test.labels, predictions, class_names=CLASS_NAMES))
    return 0


def _cmd_classify(args) -> int:
    _, index, _, _ = load_world_chain(args.world)
    classifier = BAClassifier.load(args.model)
    known = [a for a in args.addresses if index.transaction_count(a) > 0]
    unknown = [a for a in args.addresses if index.transaction_count(a) == 0]
    for address in unknown:
        print(f"{address}  <no transactions on chain>")
    if known:
        predictions = classifier.predict(known, index)
        for address, label in zip(known, predictions):
            print(f"{address}  {CLASS_NAMES[label]}")
    return 0


def _cmd_score(args) -> int:
    from repro.serve import ClusterConfig, ClusterScoringService

    chain, index, _, _ = load_world_chain(args.world)
    classifier = BAClassifier.load(args.model)
    service = ClusterScoringService(
        classifier,
        index,
        chain=chain,
        config=ClusterConfig(
            num_shards=args.shards,
            num_workers=args.workers,
            cache_capacity=args.cache_capacity,
            store_dir=args.store_dir,
        ),
        class_names=CLASS_NAMES,
    )
    if args.warm_dir:
        restored = service.load_warm(args.warm_dir)
        print(f"warm store: restored {restored} cached slice graphs")
    known = [a for a in args.addresses if index.transaction_count(a) > 0]
    unknown = [a for a in args.addresses if index.transaction_count(a) == 0]
    for address in unknown:
        print(f"{address}  <no transactions on chain>")
    if known:
        scores = service.score(known)
        for address in known:
            result = scores[address]
            distribution = " ".join(
                f"{p:.3f}" for p in result.probabilities
            )
            print(f"{address}  {result.class_name}  [{distribution}]")
    if args.warm_dir:
        service.save_warm(args.warm_dir)
        print(f"warm store: saved to {args.warm_dir}")
    if args.stats:
        stats = service.stats
        print(
            f"cache: hits={stats.hits} misses={stats.misses} "
            f"evictions={stats.evictions} "
            f"invalidations={stats.invalidations} "
            f"hit_rate={stats.hit_rate:.2%}"
        )
        for row in service.shard_stats():
            print(
                "  shard {shard}: entries={entries} "
                "nbytes={nbytes} hits={hits} misses={misses}".format(**row)
            )
    if args.stats_json:
        from repro import obs
        from repro.obs import render_json

        with open(args.stats_json, "w", encoding="utf-8") as handle:
            handle.write(render_json(obs.snapshot()))
            handle.write("\n")
        print(f"stats: snapshot written to {args.stats_json}")
    if args.trace_jsonl:
        from repro import obs

        count = obs.export_trace_jsonl(args.trace_jsonl)
        print(f"traces: {count} written to {args.trace_jsonl}")
    service.close()
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import render_json, render_prometheus

    with open(args.input, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if args.format == "json":
        sys.stdout.write(render_json(snapshot))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_prometheus(snapshot))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.engine import run_lint

    return run_lint(args)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "classify": _cmd_classify,
    "score": _cmd_score,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
