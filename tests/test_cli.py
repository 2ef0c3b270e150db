"""The ``python -m repro`` command-line interface."""

import json

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.graph.store import StoreError


class TestCLI:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "G-thinker" in out
        assert "Dorylus" in out

    def test_generate_and_analyze(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        assert main(["generate", "ba", path, "--n", "120", "--m", "3"]) == 0
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "triangles" in out
        assert "max core" in out
        assert "graphlets" in out

    def test_analyze_json(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        main(["generate", "ba", path, "--n", "120", "--m", "3"])
        capsys.readouterr()
        assert main(["analyze", path, "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["num_vertices"] == 120
        assert profile["degree"]["min"] >= 1
        assert "triangles" in profile
        assert "graphlets" in profile

    def test_analyze_parallel_flags(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        main(["generate", "ba", path, "--n", "150", "--m", "3"])
        capsys.readouterr()
        assert main(["analyze", path, "--backend", "thread",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend=thread" in out
        assert "workers=2" in out
        assert "efficiency=" in out

    def test_analyze_parallel_json_profile(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        main(["generate", "er", path, "--n", "100", "--p", "0.08"])
        capsys.readouterr()
        # Default (auto) baseline and a threaded run must count identically.
        assert main(["analyze", path, "--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(["analyze", path, "--json", "--backend", "thread",
                     "--workers", "2"]) == 0
        threaded = json.loads(capsys.readouterr().out)
        assert default["parallel"]["backend"] == "auto"
        assert "cost_model" in default["parallel"]
        assert threaded["parallel"]["backend"] == "thread"
        assert threaded["parallel"]["workers"] == 2
        assert threaded["triangles"] == default["triangles"]
        assert 0.0 < threaded["parallel"]["efficiency"] <= 1.0

    def test_analyze_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "g.txt", "--backend", "gpu"])

    def test_obs_demo(self, capsys):
        assert main(["obs-demo", "--workers", "3"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        metrics = snapshot["metrics"]
        # All three engines reported into the one shared registry.
        assert "tlag.tasks_executed" in metrics
        assert "tlav.supersteps" in metrics
        assert "cluster.messages" in metrics
        assert "core.pipeline.stages" in metrics
        (root,) = snapshot["spans"]
        assert root["name"] == "obs-demo"
        child_names = {c["name"] for c in root["children"]}
        assert "tlag.run" in child_names
        assert "stage:pagerank" in child_names
        assert snapshot["workload"]["workers"] == 3

    def test_generate_all_kinds(self, tmp_path):
        for kind in ("er", "ba", "rmat", "ws", "grid"):
            path = str(tmp_path / f"{kind}.txt")
            args = ["generate", kind, path, "--n", "30", "--m", "2",
                    "--p", "0.1", "--scale", "5"]
            assert main(args) == 0

    def test_match_planned_vs_worst_same_count(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        main(["generate", "er", path, "--n", "60", "--p", "0.15"])
        capsys.readouterr()
        assert main(["match", path, "triangle", "--order", "planned"]) == 0
        planned = capsys.readouterr().out
        assert main(["match", path, "triangle", "--order", "worst"]) == 0
        worst = capsys.readouterr().out
        count_planned = int(planned.split("instances:")[1].split()[0])
        count_worst = int(worst.split("instances:")[1].split()[0])
        assert count_planned == count_worst

    def test_unknown_pattern_rejected(self, tmp_path):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["match", "g.txt", "pentagon"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


BAD_INPUTS = {
    "malformed line": ("0 1\n1 x\n", "g.txt:2: malformed edge line '1 x'"),
    "negative id": ("0 1\n-1 2\n", "g.txt:2: negative vertex id in '-1 2'"),
    "missing file": (None, "No such file or directory"),
}


class TestBadInput:
    @pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("command, args", [
        ("analyze", []),
        ("match", ["triangle"]),
        ("store build", ["store"]),
    ], ids=["analyze", "match", "store build"])
    def test_reported_in_one_line(self, tmp_path, monkeypatch, capsys,
                                  command, args, kind):
        monkeypatch.chdir(tmp_path)
        text, message = BAD_INPUTS[kind]
        if text is not None:
            (tmp_path / "g.txt").write_text(text)
        argv = command.split() + ["g.txt"] + args
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: ")
        assert message in err
        assert err.count("\n") == 1


def test_errors_outside_input_commands_keep_their_traceback(monkeypatch):
    def broken(_args):
        raise StoreError("internal")

    monkeypatch.setattr(cli, "_cmd_tables", broken)
    with pytest.raises(StoreError):
        main(["tables"])


class TestChaosCLI:
    def test_chaos_all_scenarios_recover(self, capsys):
        assert main(["chaos", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for scenario in ("executor", "network", "tlav", "tlag", "gnn",
                         "lambda"):
            assert f"{scenario}" in out
        assert "FAILED" not in out
        assert "fault seed 7" in out

    def test_chaos_json_report(self, capsys):
        assert main(["chaos", "--scenario", "tlav", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fault_seed"] == 0
        assert report["scenarios"]["tlav"]["ok"] is True
        assert "resilience.faults_injected" in report["resilience_metrics"]
        assert any(
            s["attrs"]["engine"] == "tlav" for s in report["recover_spans"]
        )

    def test_chaos_single_scenario(self, capsys):
        assert main(["chaos", "--scenario", "network"]) == 0
        out = capsys.readouterr().out
        assert "retransmits=" in out
        assert "tlav" not in out

    def test_chaos_seed_defaults_to_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "13")
        assert main(["chaos", "--scenario", "lambda"]) == 0
        assert "fault seed 13" in capsys.readouterr().out


class TestMinibatchCLI:
    def test_text_mode_reports_pipeline(self, capsys):
        assert main(["minibatch", "--n", "60", "--epochs", "2",
                     "--fanout", "2"]) == 0
        out = capsys.readouterr().out
        assert "minibatch" in out
        assert "overlap speedup" in out
        assert "hit rate" in out
        assert "coverage" in out and "OK" in out

    def test_json_mode_smoke_contract(self, capsys):
        assert main(["minibatch", "--n", "60", "--epochs", "2",
                     "--fanout", "2", "--prefetch", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["steps"] == 2 * report["batches_per_epoch"]
        assert len(report["losses"]) == report["steps"]
        assert report["schedule"]["overlap_speedup"] >= 1.0
        assert "gnn.loader.batches" in report["metrics"]
        assert "gnn.cache.hits" in report["metrics"]

    def test_cache_kinds(self, capsys):
        assert main(["minibatch", "--n", "60", "--epochs", "1",
                     "--fanout", "2", "--cache", "static", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["cache"] == "static"
        assert report["cache_report"]["hits"] > 0
        assert "full_eval" not in report
        assert main(["minibatch", "--n", "60", "--epochs", "1",
                     "--fanout", "2", "--cache", "none", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cache_report"]["hits"] == 0
