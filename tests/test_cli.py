"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--seed", "9", "--blocks", "50", "--out", "w"]
        )
        assert args.command == "simulate"
        assert args.seed == 9
        assert args.blocks == 50

    def test_classify_requires_addresses(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "--world", "w", "--model", "m"])

    def test_score_args(self):
        args = build_parser().parse_args(
            ["score", "--world", "w", "--model", "m", "--workers", "2",
             "--cache-capacity", "64", "--stats", "addr1", "addr2"]
        )
        assert args.command == "score"
        assert args.workers == 2
        assert args.cache_capacity == 64
        assert args.stats is True
        assert args.addresses == ["addr1", "addr2"]
        assert args.shards == 1  # one shard by default
        assert args.warm_dir is None

    def test_score_cluster_args(self):
        args = build_parser().parse_args(
            ["score", "--world", "w", "--model", "m", "--shards", "4",
             "--workers", "2", "--warm-dir", "/tmp/warm",
             "--store-dir", "/tmp/chain_store", "addr1"]
        )
        assert args.shards == 4
        assert args.workers == 2
        assert args.warm_dir == "/tmp/warm"
        assert args.store_dir == "/tmp/chain_store"

    def test_score_obs_args(self):
        args = build_parser().parse_args(
            ["score", "--world", "w", "--model", "m",
             "--stats-json", "snap.json",
             "--trace-jsonl", "traces.jsonl", "addr1"]
        )
        assert args.stats_json == "snap.json"
        assert args.trace_jsonl == "traces.jsonl"

    def test_stats_args(self):
        args = build_parser().parse_args(
            ["stats", "--input", "snap.json", "--format", "json"]
        )
        assert args.command == "stats"
        assert args.input == "snap.json"
        assert args.format == "json"
        default = build_parser().parse_args(
            ["stats", "--input", "snap.json"]
        )
        assert default.format == "prometheus"

    def test_lint_args(self):
        args = build_parser().parse_args(
            ["lint", "src", "--baseline", "b.json", "--list-rules"]
        )
        assert args.command == "lint"
        assert args.paths == ["src"]
        assert args.baseline == "b.json"
        assert args.list_rules is True
        assert args.write_baseline is False


class TestLintCommand:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        assert "stable-hash" in output
        assert "lock-discipline" in output

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "serve" / "clean.py"
        target.parent.mkdir(parents=True)
        target.write_text("def shard_of(n):\n    return n % 4\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding" in capsys.readouterr().out

    def test_violation_exits_one_and_renders(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "serve" / "dirty.py"
        target.parent.mkdir(parents=True)
        target.write_text("def shard_of(n):\n    return hash(n) % 4\n")
        assert main(["lint", str(tmp_path)]) == 1
        output = capsys.readouterr().out
        assert "[stable-hash]" in output
        assert "dirty.py:2" in output
        assert "lint-ignore[stable-hash]" in output

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2

    def test_write_baseline_round_trip(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "chain" / "dirty.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def apply(tx):\n"
            "    try:\n"
            "        return tx.apply()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        baseline = tmp_path / "baseline.json"
        assert main(
            ["lint", str(tmp_path), "--baseline", str(baseline),
             "--write-baseline"]
        ) == 0
        capsys.readouterr()
        # With the written baseline the same tree now passes.
        assert main(
            ["lint", str(tmp_path), "--baseline", str(baseline)]
        ) == 0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def world_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "world"
        code = main(
            [
                "simulate", "--seed", "4", "--blocks", "60",
                "--retail", "15", "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_train_evaluate_classify(self, world_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        assert main(
            [
                "train", "--world", str(world_dir), "--out", str(model_dir),
                "--gnn-epochs", "2", "--head-epochs", "2",
                "--slice-size", "30", "--min-transactions", "4",
            ]
        ) == 0
        assert main(
            [
                "evaluate", "--world", str(world_dir), "--model", str(model_dir),
                "--min-transactions", "4",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "Weighted Avg" in output

        # Classify one known address plus one unknown.
        from repro.chain.serialize import load_world_chain

        _, index, labels, _ = load_world_chain(world_dir)
        known = next(
            a for a in labels if index.transaction_count(a) >= 4
        )
        assert main(
            [
                "classify", "--world", str(world_dir), "--model", str(model_dir),
                known, "1UnknownAddressXYZ",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert known in output
        assert "<no transactions on chain>" in output

        # Score the same address through the caching service.
        assert main(
            [
                "score", "--world", str(world_dir), "--model", str(model_dir),
                "--stats", known, "1UnknownAddressXYZ",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert known in output
        assert "<no transactions on chain>" in output
        assert "cache:" in output and "hit_rate" in output

        # Score through the sharded cluster with a warm store: the
        # first run saves, the second restarts fully warm (no misses).
        warm_dir = tmp_path / "warm"
        cluster_args = [
            "score", "--world", str(world_dir), "--model", str(model_dir),
            "--shards", "2", "--warm-dir", str(warm_dir), "--stats", known,
        ]
        assert main(cluster_args) == 0
        output = capsys.readouterr().out
        assert "restored 0 cached slice graphs" in output
        assert "shard 0:" in output and "shard 1:" in output
        assert main(cluster_args) == 0
        output = capsys.readouterr().out
        assert "misses=0" in output

        # Store-backed cluster: shards read mapped chain segments and
        # the store directory materializes on first use.
        store_dir = tmp_path / "chain_store"
        assert main(
            cluster_args + ["--store-dir", str(store_dir)]
        ) == 0
        output = capsys.readouterr().out
        assert known in output
        assert (store_dir / "manifest.json").exists()

        # The default single shard takes a chain store as well.
        single_store_dir = tmp_path / "single_chain_store"
        assert main(
            [
                "score", "--world", str(world_dir),
                "--model", str(model_dir),
                "--store-dir", str(single_store_dir), "--stats", known,
            ]
        ) == 0
        output = capsys.readouterr().out
        assert known in output
        assert "shard 0:" in output and "shard 1:" not in output
        assert (single_store_dir / "manifest.json").exists()

    def test_score_exports_stats_and_traces(
        self, world_dir, tmp_path, capsys
    ):
        import json

        from repro import obs

        model_dir = tmp_path / "model"
        assert main(
            [
                "train", "--world", str(world_dir), "--out", str(model_dir),
                "--gnn-epochs", "1", "--head-epochs", "1",
                "--slice-size", "30", "--min-transactions", "4",
            ]
        ) == 0
        from repro.chain.serialize import load_world_chain

        _, index, labels, _ = load_world_chain(world_dir)
        known = next(
            a for a in labels if index.transaction_count(a) >= 4
        )
        obs.reset()
        stats_path = tmp_path / "snapshot.json"
        trace_path = tmp_path / "traces.jsonl"
        assert main(
            [
                "score", "--world", str(world_dir),
                "--model", str(model_dir),
                "--stats-json", str(stats_path),
                "--trace-jsonl", str(trace_path),
                known,
            ]
        ) == 0
        output = capsys.readouterr().out
        assert f"snapshot written to {stats_path}" in output

        snapshot = json.loads(stats_path.read_text())
        assert snapshot["counters"]["serve_requests_total"] >= 1
        assert "serve_request_seconds" in snapshot["histograms"]

        traces = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        score_roots = [
            tree for tree in traces
            if any(s["name"] == "serve.score" for s in tree["spans"])
        ]
        assert score_roots, "no serve.score trace exported"

        # The snapshot renders through the stats verb in both formats.
        assert main(
            ["stats", "--input", str(stats_path), "--format",
             "prometheus"]
        ) == 0
        rendered = capsys.readouterr().out
        assert "# TYPE serve_requests_total counter" in rendered
        assert main(
            ["stats", "--input", str(stats_path), "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == snapshot
