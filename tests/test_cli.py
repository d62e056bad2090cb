"""CLI smoke tests (python -m repro ...)."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

README = Path(__file__).parent.parent / "README.md"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "crash"
        assert args.rounds == 15
        assert not args.guidance

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "ghost"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.chaos == "lossy-workers"
        assert args.seed == 7

    def test_chaos_profile_alias_feeds_shared_dest(self):
        args = build_parser().parse_args(["chaos", "--profile", "wild"])
        assert args.chaos == "wild"
        args = build_parser().parse_args(
            ["chaos", "--chaos", "partitioned"])
        assert args.chaos == "partitioned"

    def test_bad_chaos_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--profile", "tsunami"])

    def test_common_flags_defined_once(self):
        # The consolidation contract: every loop command inherits the
        # shared execution flags from common_exec_flags() — uniformly
        # present, with per-command set_defaults not leaking across
        # subparsers (argparse parents share action objects unless each
        # subparser gets a fresh instance).
        for command, extra in [("run", []), ("stats", []),
                               ("chaos", []), ("serve", []),
                               ("trace", ["--out", "/dev/null"])]:
            args = build_parser().parse_args([command] + extra)
            assert args.backend == "auto", command
            assert args.solver_cache == "none", command
            assert hasattr(args, "workers"), command
            assert hasattr(args, "chaos"), command
            assert not hasattr(args, "batch_traces"), command
        # A command takes only the shared flags it reads.
        explore = build_parser().parse_args(["explore"])
        assert (explore.workers, explore.solver_cache) == (4, "none")
        registry = build_parser().parse_args(["registry", "run"])
        assert (registry.backend, registry.workers) == ("auto", 0)
        for args, absent in ((explore, ("backend", "chaos")),
                             (registry, ("solver_cache", "chaos"))):
            for name in absent:
                assert not hasattr(args, name), name
        # Per-command defaults stay per-command.
        assert build_parser().parse_args(["run"]).chaos == "none"
        assert build_parser().parse_args(["run"]).rounds == 15
        assert build_parser().parse_args(["run"]).seed == 2
        assert build_parser().parse_args(["stats"]).rounds == 10
        assert build_parser().parse_args(["chaos"]).rounds == 8
        assert build_parser().parse_args(["serve"]).chaos == "none"
        assert build_parser().parse_args(["explore"]).workers == 4

    @pytest.mark.parametrize("argv", [
        ["explore", "--chaos", "lossy-workers"],
        ["explore", "--backend", "process"],
        ["registry", "run", "--solver-cache", "collective"],
        ["registry", "run", "--chaos", "lossy-workers"],
        ["run", "--batch-traces", "3"],
    ])
    def test_flags_a_command_would_ignore_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_explore_needs_a_positive_worker_count(self, workers, capsys):
        # Explore's workers are simulated nodes, not backend shards:
        # there is no 0 = auto, so a count below one is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--workers", workers])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro explore" in err
        assert "--workers: must be a positive integer" in err

    @pytest.mark.parametrize("argv", [
        ["portfolio", "--budget", "0"],
        ["portfolio", "--instances", "0"],
        ["fleet", "--programs", "0"],
        ["registry", "run", "--pods", "0"],
    ])
    def test_counts_below_one_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"{flag}: must be a positive integer" in \
            capsys.readouterr().err

    def test_readme_documents_every_flag(self):
        # Every option of every subcommand appears in README.md as a
        # whole token (``--out`` does not count for ``--snapshot-out``).
        readme = README.read_text(encoding="utf-8")
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        missing = sorted({
            option
            for command in subparsers.choices.values()
            for action in command._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
            and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])",
                              readme)})
        assert not missing, f"flags missing from README.md: {missing}"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.ticks == 90
        assert args.users == 0
        assert args.balance == "round-robin"
        assert args.chaos == "none"
        assert args.backend == "auto"


class TestCommands:
    def test_run_crash_loop(self, capsys):
        code = main(["run", "--scenario", "crash", "--rounds", "6",
                     "--executions", "20", "--guidance"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Closed loop" in out
        assert "fixes deployed" in out

    def test_run_no_fixing(self, capsys):
        code = main(["run", "--scenario", "crash", "--rounds", "4",
                     "--executions", "15", "--no-fixing"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fixes deployed : none" in out

    def test_run_json_emits_metrics_snapshot(self, capsys):
        import json
        code = main(["run", "--scenario", "crash", "--rounds", "5",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 3
        assert doc["config"]["rounds"] == 5
        assert doc["execution"]["backend"] in ("serial", "process")
        assert doc["execution"]["workers"] >= 1
        assert "batch_max_traces" not in doc["config"]
        assert doc["hive"]["traces_ingested"] == doc["obs"]["counters"][
            "hive.traces_ingested"]
        assert doc["report"]["total_executions"] == 200
        round_timer = doc["obs"]["timers"]["platform.round"]
        assert round_timer["count"] == 5
        assert "p50" in round_timer and "p95" in round_timer
        for phase in ("replay", "analysis", "repair"):
            assert f"hive.phase.{phase}" in doc["obs"]["timers"]
        assert "hive.phase.merge" not in doc["obs"]["timers"]

    def test_run_json_with_explicit_backend(self, capsys):
        import json
        code = main(["run", "--scenario", "crash", "--rounds", "3",
                     "--executions", "10", "--backend", "process",
                     "--workers", "2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["execution"] == {"backend": "process", "workers": 2,
                                    "epoch": 0}
        assert doc["obs"]["counters"]["exec.rounds"] == 3
        assert "exec.worker_busy" in doc["obs"]["timers"]

    def test_run_json_observability_block(self, capsys):
        import json
        code = main(["run", "--rounds", "3", "--executions", "10",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # v2 readers keep the top-level obs; the v3 block mirrors it.
        assert doc["observability"]["obs"] == doc["obs"]
        assert "tracing" not in doc["observability"]  # tracing off

    def test_run_trace_writes_chrome_trace(self, capsys, tmp_path):
        import json
        out = tmp_path / "trace.json"
        code = main(["run", "--rounds", "3", "--executions", "10",
                     "--trace", str(out)])
        assert code == 0
        assert f"-> {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"round", "pod.run", "wire.encode",
                "wire.decode"} <= names
        assert doc["otherData"]["spans"] > 0

    def test_run_trace_json_has_tracing_summary(self, capsys, tmp_path):
        import json
        out = tmp_path / "trace.json"
        code = main(["run", "--rounds", "3", "--executions", "10",
                     "--trace", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        tracing = doc["observability"]["tracing"]
        assert tracing["enabled"] is True
        assert tracing["spans"] > 0
        assert tracing["spans_dropped"] == 0
        assert tracing["flight_events"] > 0

    def test_trace_command_formats(self, capsys, tmp_path):
        import json
        chrome = tmp_path / "t.json"
        code = main(["trace", "--rounds", "3", "--executions", "10",
                     "--out", str(chrome)])
        assert code == 0
        assert "spans ->" in capsys.readouterr().out
        assert json.loads(chrome.read_text())["traceEvents"]
        jsonl = tmp_path / "t.jsonl"
        assert main(["trace", "--rounds", "2", "--executions", "10",
                     "--out", str(jsonl), "--format", "jsonl"]) == 0
        capsys.readouterr()
        lines = jsonl.read_text().strip().splitlines()
        assert all(json.loads(line)["span_id"] for line in lines)
        prom = tmp_path / "t.prom"
        assert main(["trace", "--rounds", "2", "--executions", "10",
                     "--out", str(prom), "--format", "prom"]) == 0
        capsys.readouterr()
        assert "# TYPE repro_hive_traces_ingested_total counter" in \
            prom.read_text()

    def test_trace_process_backend_parents_resolve(self, capsys, tmp_path):
        # The acceptance path: a multi-process traced run produces one
        # well-formed Chrome trace whose parentage all resolves.
        import json
        out = tmp_path / "t.json"
        code = main(["run", "--backend", "process", "--workers", "4",
                     "--rounds", "3", "--executions", "20",
                     "--trace", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        ids = {e["args"]["span_id"] for e in spans}
        assert len(ids) == len(spans)  # no id collisions
        for event in spans:
            parent = event["args"]["parent_id"]
            assert parent is None or parent in ids
        names = {e["name"] for e in spans}
        assert {"pod.run", "wire.encode", "wire.decode",
                "hive.ingest_batch"} <= names

    def test_stats_renders_registry(self, capsys):
        code = main(["stats", "--rounds", "3", "--executions", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hive.traces_ingested" in out
        assert "platform.round" in out

    def test_stats_json(self, capsys):
        import json
        code = main(["stats", "--rounds", "3", "--executions", "10",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["platform.executions"] == 30
        assert doc["observability"]["obs"]["counters"] == doc["counters"]

    def test_run_check_invariants(self, capsys):
        code = main(["run", "--rounds", "4", "--executions", "15",
                     "--check-invariants"])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants     : all checks green" in out

    def test_chaos_smoke(self, capsys):
        # The CI smoke contract: a seeded lossy-workers run completes
        # every round with invariants green and exits 0.
        code = main(["chaos", "--profile", "lossy-workers", "--seed", "7",
                     "--rounds", "5", "--executions", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Chaos: profile 'lossy-workers'" in out
        assert "invariants: all checks green" in out
        assert "failed': 0" in out

    def test_chaos_json(self, capsys):
        import json
        code = main(["chaos", "--profile", "flaky-hive", "--seed", "5",
                     "--rounds", "4", "--executions", "15", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["invariants"]["ok"] is True
        assert doc["chaos"]["profile"] == "flaky-hive"
        assert len(doc["chaos"]["rounds"]) == 4
        assert doc["chaos"]["verdicts"]["failed"] == 0

    def test_chaos_none_profile(self, capsys):
        code = main(["chaos", "--profile", "none", "--rounds", "2",
                     "--executions", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "injects no faults" in out

    def test_portfolio(self, capsys):
        code = main(["portfolio", "--instances", "1",
                     "--budget", "200000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "portfolio(3)" in out
        assert "winner split" in out

    def test_explore(self, capsys):
        code = main(["explore", "--workers", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "paths found" in out
        assert "completed" in out

    def test_show(self, capsys):
        code = main(["show", "--seed", "3", "--bug", "crash"])
        out = capsys.readouterr().out
        assert code == 0
        assert "program shown" in out
        assert "# seeded: bug:crash:" in out

    def test_fleet(self, capsys):
        code = main(["fleet", "--programs", "2", "--rounds", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet of 2 programs" in out
        assert "residual fails/1k" in out

    def test_serve_table(self, capsys):
        code = main(["serve", "--ticks", "40", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Service on" in out
        assert "ingest lag" in out and "OK" in out
        assert "scaling" in out

    def test_serve_json_snapshot(self, capsys, tmp_path):
        import json
        snap_path = tmp_path / "serve.json"
        code = main(["serve", "--ticks", "30", "--seed", "4",
                     "--users", "5000", "--json",
                     "--snapshot-out", str(snap_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["serve_schema_version"] == 2
        assert doc["ingest_lag"]["ok"] is True
        assert doc["health"]["ok"] is True
        assert doc["execution"]["population_users"] == 5000
        assert doc["report"]["total_executions"] > 0
        assert len(doc["report"]["ticks"]) == 30
        # --snapshot-out writes the same document.
        assert json.loads(snap_path.read_text()) == doc

    def test_serve_trace_has_scale_spans(self, capsys, tmp_path):
        import json
        out = tmp_path / "serve_trace.json"
        code = main(["serve", "--ticks", "60", "--seed", "5",
                     "--trace", str(out)])
        capsys.readouterr()
        assert code == 0
        names = {event["name"]
                 for event in json.loads(out.read_text())["traceEvents"]}
        assert "serve.scale_up" in names
        assert "serve.scale_down" in names
        assert {"serve.tick", "serve.execute", "serve.drain"} <= names

    def test_serve_slo_override_gates_exit_code(self, capsys):
        # An unreachable detection objective must fail the SLO gate.
        code = main(["serve", "--ticks", "30", "--seed", "4",
                     "--slo", "family-detection=1.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DEGRADED" in out

    def test_health_command_renders_snapshot(self, capsys, tmp_path):
        snap_path = tmp_path / "serve.json"
        assert main(["serve", "--ticks", "30", "--seed", "4", "--json",
                     "--snapshot-out", str(snap_path)]) == 0
        capsys.readouterr()
        code = main(["health", str(snap_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Health: OK" in out
        assert "ingest-lag" in out

    def test_health_command_json_block(self, capsys, tmp_path):
        import json
        snap_path = tmp_path / "serve.json"
        assert main(["serve", "--ticks", "30", "--seed", "4", "--json",
                     "--snapshot-out", str(snap_path)]) == 0
        capsys.readouterr()
        assert main(["health", str(snap_path), "--json"]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["health_schema_version"] == 1
        assert block["ok"] is True

    def test_health_command_without_block_exits_2(self, capsys,
                                                  tmp_path):
        import json
        snap_path = tmp_path / "bare.json"
        snap_path.write_text(json.dumps({"serve_schema_version": 2,
                                         "health": None}))
        assert main(["health", str(snap_path)]) == 2
