"""Command-line interface: ``python -m repro <command>``.

The common "kick the tires" flows:

* ``run`` — the closed loop on a canned scenario, with the round table
  (``--json`` emits the full config/report/obs snapshot instead);
* ``serve`` — the continuous-service hive: a tick-driven control plane
  with autoscaled pod fleets streaming traces through the ingest pump
  (``--json`` emits the deterministic service snapshot); the health
  plane is on by default — ``--slo NAME=TARGET`` retargets objectives
  and the exit code gates on SLOs plus ingest lag;
* ``health`` — render SLOs, alert states, and incident timelines from
  a saved snapshot; the exit code is the SLO gate;
* ``stats`` — same loop, but the output is the ``repro.obs`` registry
  snapshot: where the wall-clock went, trace-ingest counts, latency
  percentiles;
* ``trace`` — same loop with causal span tracing enabled; exports the
  span tree as Chrome trace-event JSON (Perfetto), span JSONL, or
  Prometheus text (``run --trace PATH`` is the one-flag shortcut);
* ``portfolio`` — the 3-solver SAT portfolio on a small instance mix;
* ``explore`` — cooperative symbolic exploration of a corpus program.

Flags shared by the execution-shaped commands (``--backend``,
``--workers``, ``--solver-cache``, ``--chaos``) are defined **once**,
in :func:`common_exec_flags`, and inherited via argparse parent
parsers — each command takes only the ones it reads, and per-command
defaults are applied with ``set_defaults`` so the definitions never
fork.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.metrics.report import render_round_table, render_table

__all__ = ["main", "build_parser", "common_exec_flags",
           "common_loop_flags"]

SCENARIOS = ["crash", "deadlock", "shortread", "race"]


def common_exec_flags(*names: str) -> argparse.ArgumentParser:
    """The execution-substrate flags a command inherits.

    One definition, many subcommands: ``parents=[common_exec_flags()]``
    gives a command ``--backend/--workers/--solver-cache/--chaos`` with
    uniform help text and choices; a command that reads only some of
    them names their dests, e.g. ``common_exec_flags("backend",
    "workers")``, so it never accepts a flag it would ignore.
    Override a default for one command with ``set_defaults``
    (parser-level defaults beat argument-level ones), never by
    redefining the flag.
    """
    from repro.chaos import profile_names
    flags = {
        "backend": dict(
            default="auto", choices=["auto", "serial", "process"],
            help="execution backend (auto = $REPRO_BACKEND or serial);"
                 " reports are bit-identical across backends for a"
                 " fixed seed"),
        "workers": dict(
            type=int, default=0,
            help="worker shards for the process backend (0 = auto: one"
                 " worker per core, os.cpu_count(), capped at the pod"
                 " count; same rule on run/chaos/serve)"),
        "solver_cache": dict(
            default="none", choices=["none", "local", "collective"],
            help="constraint recycling: local = per-engine reuse only,"
                 " collective = shard deltas merge into the hive cache"
                 " and redistribute each round (see docs/SOLVING.md)"),
        "chaos": dict(
            default="none", choices=profile_names(),
            help="fault profile to inject (see docs/CHAOS.md)"),
    }
    parent = argparse.ArgumentParser(add_help=False)
    for name in names or flags:
        parent.add_argument("--" + name.replace("_", "-"), **flags[name])
    return parent


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text}")
    return value


def common_loop_flags() -> argparse.ArgumentParser:
    """The closed-loop shape flags (scenario/rounds/executions/seed)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scenario", default="crash", choices=SCENARIOS)
    parent.add_argument("--rounds", type=int, default=15)
    parent.add_argument("--executions", type=int, default=40)
    parent.add_argument("--seed", type=int, default=2)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SoftBorg: collective information recycling"
                    " (HotDep'11 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subparser gets a *fresh* parent instance: argparse adds
    # parent actions by reference, and ``set_defaults`` mutates the
    # action object — a shared instance would leak one command's
    # defaults into every other.
    run = sub.add_parser(
        "run", parents=[common_loop_flags(), common_exec_flags()],
        help="run the closed loop on a scenario")
    run.add_argument("--guidance", action="store_true")
    run.add_argument("--no-fixing", action="store_true")
    run.add_argument("--check-invariants", action="store_true",
                     help="run the platform-wide invariant checks after"
                          " every round; exit non-zero on violation")
    run.add_argument("--json", action="store_true",
                     help="emit the unified config/report/obs snapshot"
                          " as JSON instead of tables (schema v3)")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="record causal spans for the run and write a"
                          " Chrome trace-event file (load in Perfetto /"
                          " chrome://tracing) to PATH")
    run.add_argument("--health", action="store_true",
                     help="enable the round-aligned health plane (SLOs,"
                          " alerts, incidents; adds the snapshot's"
                          " additive health block — see"
                          " docs/OBSERVABILITY.md)")

    serve = sub.add_parser(
        "serve", parents=[common_exec_flags()],
        help="run the hive as a continuous service: tick-driven"
             " control plane, autoscaled pod fleet, streaming ingest"
             " (see docs/SERVICE.md)")
    serve.add_argument("--scenario", default="crash", choices=SCENARIOS)
    serve.add_argument("--ticks", type=int, default=90,
                       help="virtual-clock ticks to run")
    serve.add_argument("--users", type=int, default=0,
                       help="population size (lazy Zipf; scales to"
                            " millions); 0 = the scenario's default"
                            " population")
    serve.add_argument("--seed", type=int, default=5)
    serve.add_argument("--balance", default="round-robin",
                       choices=["round-robin", "least-backlog",
                                "consistent-hash"],
                       help="run-to-pod load-balancing policy")
    serve.add_argument("--json", action="store_true",
                       help="emit the deterministic service snapshot"
                            " as JSON (byte-identical across backends"
                            " for a fixed seed)")
    serve.add_argument("--snapshot-out", metavar="PATH", default=None,
                       help="also write the service snapshot JSON to"
                            " PATH")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="record causal spans (incl. serve.scale_*)"
                            " and write a Chrome trace-event file")
    serve.add_argument("--slo", action="append", default=[],
                       metavar="NAME=TARGET",
                       help="override an SLO objective (repeatable),"
                            " e.g. --slo ingest-lag=2.0 --slo"
                            " family-detection=0.5; unknown names are"
                            " an error (see docs/OBSERVABILITY.md)")
    serve.add_argument("--no-health", dest="health",
                       action="store_false",
                       help="disable the health plane (no SLO"
                            " evaluation, no health block, exit code"
                            " gates on ingest lag only)")

    stats = sub.add_parser(
        "stats", parents=[common_loop_flags(), common_exec_flags()],
        help="run the closed loop and print the repro.obs"
             " metrics snapshot (wall-clock split, ingest"
             " counts, latency percentiles)")
    stats.set_defaults(rounds=10)
    stats.add_argument("--guidance", action="store_true")
    stats.add_argument("--portfolio", type=int, default=0, metavar="N",
                       help="also run the 3-solver SAT portfolio on N"
                            " instances per family and include its"
                            " report")
    stats.add_argument("--json", action="store_true",
                       help="emit the registry snapshot as JSON")

    chaos = sub.add_parser(
        "chaos", parents=[common_loop_flags(), common_exec_flags()],
        help="run the closed loop under a named fault profile"
             " and report survived/degraded/failed per round")
    # `chaos` injects by default; `--profile` stays as the historical
    # spelling of the shared `--chaos` flag (same dest, same choices).
    chaos.set_defaults(rounds=8, seed=7, chaos="lossy-workers")
    from repro.chaos import profile_names
    chaos.add_argument("--profile", dest="chaos",
                       choices=profile_names(),
                       default=argparse.SUPPRESS,
                       help="alias for --chaos")
    chaos.add_argument("--json", action="store_true",
                       help="emit the chaos summary + invariant report"
                            " as JSON")

    from repro.obs.export import TRACE_FORMATS
    trace = sub.add_parser(
        "trace", parents=[common_loop_flags(), common_exec_flags()],
        help="run the closed loop with causal span tracing on"
             " and export the trace (Chrome trace-event JSON,"
             " span JSONL, or Prometheus text)")
    trace.set_defaults(rounds=8)
    trace.add_argument("--guidance", action="store_true")
    trace.add_argument("--out", required=True, metavar="PATH",
                       help="file to write the exported trace to")
    trace.add_argument("--format", default="chrome",
                       choices=list(TRACE_FORMATS),
                       help="chrome = trace-event JSON (Perfetto),"
                            " jsonl = one span per line,"
                            " prom = Prometheus text exposition of the"
                            " metrics registry")

    portfolio = sub.add_parser(
        "portfolio", help="run the 3-solver SAT portfolio (E1, small)")
    portfolio.add_argument("--instances", type=_positive_int, default=2,
                           help="instances per family")
    portfolio.add_argument("--budget", type=_positive_int,
                           default=400_000)

    explore = sub.add_parser(
        "explore", parents=[common_exec_flags("solver_cache")],
        help="cooperative symbolic exploration of a corpus program")
    explore.add_argument("--workers", type=_positive_int, default=4,
                         help="simulated worker nodes")
    explore.add_argument("--mode", default="dynamic",
                         choices=["dynamic", "static"])
    explore.add_argument("--loss", type=float, default=0.0)
    explore.add_argument("--seed", type=int, default=9)

    fleet = sub.add_parser(
        "fleet", help="run the closed loop over a corpus of programs")
    fleet.add_argument("--programs", type=_positive_int, default=4)
    fleet.add_argument("--rounds", type=int, default=12)
    fleet.add_argument("--seed", type=int, default=3)

    show = sub.add_parser(
        "show", help="print a generated corpus program (pretty IR)")
    show.add_argument("--seed", type=int, default=0)
    show.add_argument("--segments", type=int, default=6)
    show.add_argument("--bug", default="crash",
                      choices=["crash", "assert", "hang", "short_read",
                               "deadlock", "race", "leak",
                               "prio_inversion", "lost_wakeup", "toctou",
                               "provenance"])

    profile = sub.add_parser(
        "profile", parents=[common_loop_flags(), common_exec_flags()],
        help="run the closed loop under cProfile and print the top-N"
             " hot functions; --out saves the raw .pstats artifact"
             " (see docs/PERFORMANCE.md). The profiler observes this"
             " process, so the serial backend gives the full picture"
             " while process runs profile the coordinator side")
    profile.set_defaults(rounds=6, executions=200, backend="serial")
    profile.add_argument("--guidance", action="store_true")
    profile.add_argument("--no-fixing", action="store_true")
    profile.add_argument("--top", type=int, default=25,
                         help="rows of the hot-function table")
    profile.add_argument("--sort", default="cumulative",
                         choices=["cumulative", "tottime", "ncalls"],
                         help="pstats sort key")
    profile.add_argument("--out", metavar="PATH", default=None,
                         help="dump raw cProfile stats to PATH (load"
                              " with pstats or any flamegraph viewer"
                              " that reads .pstats)")

    health = sub.add_parser(
        "health", help="render SLOs, alerts, and incident timelines"
                       " from a snapshot file; exit code is the SLO"
                       " gate (see docs/OBSERVABILITY.md)")
    health.add_argument("snapshot", metavar="PATH",
                        help="a snapshot JSON file (repro serve"
                             " --snapshot-out, or repro run/serve"
                             " --json output saved to a file)")
    health.add_argument("--json", action="store_true",
                        help="emit the health block as JSON")

    from repro.registry.model import FAMILIES
    registry = sub.add_parser(
        "registry", parents=[common_exec_flags("backend", "workers")],
        help="the named bug registry: list curated bugs, run their"
             " triggering tests standalone + as hive workloads, emit"
             " per-family scorecards (see docs/REGISTRY.md)")
    registry.add_argument("action", choices=["list", "run", "score"],
                          help="list = catalogue table; run = per-bug"
                               " reproduction/detection table; score ="
                               " per-family scorecard")
    registry.add_argument("--family", default="all",
                          choices=["all", *FAMILIES])
    registry.add_argument("--seed", type=int, default=0)
    registry.add_argument("--runs", type=int, default=24,
                          help="background (unguided) executions shipped"
                               " per bug alongside the triggering-test"
                               " directives")
    registry.add_argument("--pods", type=_positive_int, default=2)
    registry.add_argument("--no-validate", action="store_true",
                          help="skip pushing known patches through"
                               " RepairLab (faster; repair columns"
                               " become '-')")
    registry.add_argument("--json", action="store_true",
                          help="emit the scorecard JSON (schema"
                               " versioned; see docs/REGISTRY.md)")
    registry.add_argument("--out", metavar="PATH", default=None,
                          help="also write the scorecard JSON to PATH")
    return parser


def _scenario_factory(name: str):
    from repro.workloads.scenarios import (
        crash_scenario, deadlock_scenario, race_scenario,
        shortread_scenario,
    )
    return {
        "crash": crash_scenario,
        "deadlock": deadlock_scenario,
        "shortread": shortread_scenario,
        "race": race_scenario,
    }[name]


def _run_platform(args, fixing: bool = True, tracing: bool = False):
    """Build + run one closed loop from CLI args (run/stats share it)."""
    from repro.obs import Tracer, reset, set_tracer
    from repro.platform import PlatformConfig, SoftBorgPlatform
    # One CLI invocation = one snapshot: drop metrics accumulated by
    # any earlier in-process use of the registry, and install a fresh
    # tracer (enabled only when the caller asked for spans) before the
    # platform resolves its handle.
    reset()
    set_tracer(Tracer(enabled=tracing))
    scenario = _scenario_factory(args.scenario)(seed=args.seed)
    multithreaded = len(scenario.program.threads) > 1
    platform = SoftBorgPlatform(scenario, PlatformConfig(
        rounds=args.rounds,
        executions_per_round=args.executions,
        guidance=getattr(args, "guidance", False),
        fixing=fixing,
        enable_proofs=not multithreaded,
        seed=args.seed,
        backend=getattr(args, "backend", "auto"),
        workers=getattr(args, "workers", 0),
        chaos_profile=getattr(args, "chaos", "none"),
        check_invariants=getattr(args, "check_invariants", False),
        solver_cache=getattr(args, "solver_cache", "none"),
        health=getattr(args, "health", False),
    ))
    report = platform.run()
    return platform, report


def _write_trace(path: str, fmt: str = "chrome") -> int:
    """Export the current tracer's span log to ``path``; span count."""
    from repro.obs import get_registry, get_tracer
    from repro.obs.export import export_trace
    tracer = get_tracer()
    text = export_trace(tracer.log, fmt, registry=get_registry())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    return len(tracer.log)


def _cmd_run(args) -> int:
    platform, report = _run_platform(args, fixing=not args.no_fixing,
                                     tracing=bool(args.trace))
    violated = bool(platform.invariant_violations)
    spans = _write_trace(args.trace) if args.trace else 0
    if args.json:
        print(json.dumps(platform.snapshot(), sort_keys=True, indent=2))
        return 1 if violated else 0
    scenario = platform.scenario
    print(render_round_table(
        report, title=f"Closed loop on {scenario.program.name!r}"))
    print()
    print(f"fixes deployed : {report.fixes or 'none'}")
    print(f"open bugs      : {sorted(report.density.open_bugs) or 'none'}")
    if platform.solver_cache is not None:
        cache = platform.solver_cache
        solver = platform.hive.solver_stats()
        print(f"solver cache   : {platform.config.solver_cache},"
              f" {len(cache)} entries,"
              f" {cache.stats.hits} hits / {cache.stats.misses} misses"
              f" (hit rate {cache.stats.hit_rate():.0%},"
              f" {solver.evaluations} hive evaluations)")
    if report.proofs:
        print(f"final proof    : {report.proofs[-1][1].describe()}")
    print()
    print("hive knowledge:")
    for key, value in platform.hive.status().items():
        print(f"  {key}: {value}")
    if args.trace:
        print()
        print(f"trace          : {spans} spans -> {args.trace}"
              f" (Chrome trace-event JSON)")
    if args.check_invariants:
        print()
        if violated:
            for round_index, result in platform.invariant_violations:
                for violation in result.violations:
                    print(f"INVARIANT VIOLATION (round {round_index}):"
                          f" {violation.name}: {violation.detail}")
        else:
            print("invariants     : all checks green")
    return 1 if violated else 0


def _cmd_serve(args) -> int:
    from repro.obs import Tracer, reset, set_tracer
    from repro.obs.health import parse_slo_overrides
    from repro.serve import Service, ServiceConfig
    reset()
    set_tracer(Tracer(enabled=bool(args.trace)))
    scenario = _scenario_factory(args.scenario)(seed=args.seed)
    service = Service(scenario, ServiceConfig(
        ticks=args.ticks,
        users=args.users,
        seed=args.seed,
        balance=args.balance,
        backend=args.backend,
        workers=args.workers,
        chaos_profile=args.chaos,
        solver_cache=args.solver_cache,
        enable_proofs=False,
        health=args.health,
        slo_overrides=parse_slo_overrides(args.slo),
    ))
    report = service.run()
    snapshot = service.snapshot()
    spans = _write_trace(args.trace) if args.trace else 0
    if args.snapshot_out:
        with open(args.snapshot_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, sort_keys=True, indent=2)
            handle.write("\n")
    lag_ok = snapshot["ingest_lag"]["ok"]
    health_block = snapshot["health"]
    health_ok = health_block is None or health_block["ok"]
    exit_code = 0 if (lag_ok and health_ok) else 1
    if args.json:
        print(json.dumps(snapshot, sort_keys=True, indent=2))
        return exit_code
    pods = snapshot["autoscalers"]["pods"]
    ingest = snapshot["autoscalers"]["ingest_workers"]
    rows = [[event["tick"], event["pool"], event["direction"],
             event["from_replicas"], event["to_replicas"], event["load"]]
            for event in sorted(
                pods["events"] + ingest["events"],
                key=lambda event: (event["tick"], event["pool"]))]
    print(render_table(
        ["tick", "pool", "dir", "from", "to", "load"], rows,
        title=f"Service on {scenario.program.name!r}:"
              f" {args.ticks} ticks, seed {args.seed}"))
    print()
    print(f"executions : {report.total_executions}"
          f" ({report.total_failures} failures,"
          f" rate {report.failure_rate():.2%})")
    print(f"fleet      : {snapshot['fleet']['ready']} ready /"
          f" {snapshot['fleet']['desired']} desired"
          f" (max {snapshot['fleet']['max_pods']},"
          f" {snapshot['fleet']['restarts']} restarts)")
    print(f"scaling    : pods {pods['scale_ups']} up /"
          f" {pods['scale_downs']} down;"
          f" ingest {ingest['scale_ups']} up /"
          f" {ingest['scale_downs']} down")
    print(f"ingest lag : max {report.max_ingest_lag_ticks:.2f} ticks"
          f" (bound {service.config.max_ingest_lag_ticks:.2f},"
          f" {'OK' if lag_ok else 'EXCEEDED'})")
    print(f"pump       : {snapshot['pump']['entries_drained']} entries"
          f" ingested, {snapshot['pump']['frames_discarded']} frames"
          f" lost, {snapshot['pump']['wire_bytes']} wire bytes")
    print(f"fixes      : {report.fixes or 'none'}")
    if health_block is not None:
        fires = sum(slo["fires"] for slo in health_block["slos"])
        incidents = health_block["incidents"]
        still_open = sum(1 for incident in incidents
                         if incident["open"])
        print(f"health     : {'OK' if health_block['ok'] else 'DEGRADED'}"
              f" ({len(health_block['slos'])} SLOs, {fires} alert"
              f" fires, {len(incidents)} incidents,"
              f" {still_open} open)")
    if args.trace:
        print(f"trace      : {spans} spans -> {args.trace}")
    if args.snapshot_out:
        print(f"snapshot   : -> {args.snapshot_out}")
    return exit_code


def _cmd_chaos(args) -> int:
    platform, _report = _run_platform(args)
    chaos = platform.chaos
    if chaos is None:  # --chaos none: nothing injected, nothing to grade
        print(f"profile {args.chaos!r} injects no faults; run completed")
        return 0
    violated = bool(platform.invariant_violations)
    failed = violated or not chaos.all_survived()
    if args.json:
        doc = {
            "chaos": chaos.summary(),
            "invariants": {
                "ok": not violated,
                "violations": [
                    {"round": round_index, **result.as_dict()}
                    for round_index, result in
                    platform.invariant_violations],
            },
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 1 if failed else 0
    rows = []
    for stats in chaos.rounds:
        rows.append([stats.round_index, stats.faults_injected,
                     stats.worker_deaths, stats.runs_lost,
                     stats.frames_dropped + stats.frames_discarded
                     + stats.frames_abandoned,
                     stats.entries_delivered,
                     "yes" if stats.invariants_ok else "NO",
                     stats.verdict])
    print(render_table(
        ["round", "faults", "deaths", "runs lost", "frames lost",
         "delivered", "invariants", "verdict"],
        rows,
        title=f"Chaos: profile {chaos.profile.name!r} on"
              f" {platform.scenario.program.name!r}"
              f" (seed {platform.config.seed})"))
    summary = chaos.summary()
    faults = sum(stats.faults_injected for stats in chaos.rounds)
    print()
    print(f"verdicts  : {summary['verdicts']}")
    print(f"faults    : {faults} injected,"
          f" {summary['runs_lost']} runs lost,"
          f" {summary['frames_abandoned']} frames abandoned")
    print(f"fixes     : {_report.fixes or 'none'}")
    print(f"invariants: {'VIOLATED' if violated else 'all checks green'}")
    return 1 if failed else 0


def _cmd_stats(args) -> int:
    from repro.obs import get_registry, get_tracer
    platform, _report = _run_platform(args)
    registry = get_registry()
    # The uniform as_dict() contract: hive-wide SolverStats (steering,
    # validation, prover) always; cache accounting when recycling is
    # on; the E1 PortfolioReport when --portfolio N asks for it.
    solver_doc = platform.hive.solver_stats().as_dict()
    cache_doc = None
    if platform.solver_cache is not None:
        cache_doc = {
            "mode": platform.config.solver_cache,
            "entries": len(platform.solver_cache),
            **platform.solver_cache.stats.as_dict(),
        }
    portfolio_doc = None
    if args.portfolio > 0:
        portfolio_doc = _portfolio_report(args.portfolio).as_dict()
    if args.json:
        doc = registry.snapshot()
        # Mirror the run-snapshot layout: the observability block is
        # the one place v3 readers look for metrics + tracing state.
        observability = {"obs": registry.snapshot()}
        tracer = get_tracer()
        if tracer.enabled:
            observability["tracing"] = tracer.summary()
        doc["observability"] = observability
        doc["solver"] = solver_doc
        if cache_doc is not None:
            doc["solver_cache"] = cache_doc
        if portfolio_doc is not None:
            doc["portfolio"] = portfolio_doc
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    print(registry.render())
    print()
    print("solver:")
    for key, value in solver_doc.items():
        print(f"  {key}: {value}")
    if cache_doc is not None:
        print("solver cache:")
        for key, value in cache_doc.items():
            print(f"  {key}: {value}")
    if portfolio_doc is not None:
        print("portfolio:")
        for key, value in portfolio_doc.items():
            print(f"  {key}: {value}")
    return 0


def _portfolio_report(instances_per_family: int, budget: int = 400_000):
    """The E1 portfolio experiment (stats/portfolio commands share it)."""
    import random

    from repro.solvers.cnf import (
        graph_coloring, implication_chain, random_ksat,
    )
    from repro.solvers.dpll import DPLLSolver
    from repro.solvers.lookahead import LookaheadSolver
    from repro.solvers.portfolio import run_portfolio_experiment
    from repro.solvers.walksat import WalkSATSolver

    instances = []
    for seed in range(instances_per_family):
        instances.append(random_ksat(
            100, 420, rng=random.Random(seed), force_satisfiable=True))
        instances.append(implication_chain(
            30, 14, rng=random.Random(seed)))
        instances.append(graph_coloring(
            10, 0.5, 3, rng=random.Random(seed + 7)))
    return run_portfolio_experiment(
        [DPLLSolver("jw"), WalkSATSolver(seed=2), LookaheadSolver()],
        instances, budget=budget)


def _cmd_trace(args) -> int:
    platform, _report = _run_platform(args, tracing=True)
    spans = _write_trace(args.out, args.format)
    violated = bool(platform.invariant_violations)
    what = ("metrics registry" if args.format == "prom"
            else f"{spans} spans")
    print(f"trace: {what} -> {args.out} ({args.format})")
    return 1 if violated else 0


def _cmd_portfolio(args) -> int:
    report = _portfolio_report(args.instances, budget=args.budget)
    rows = []
    for name in ("dpll-jw", "walksat", "lookahead"):
        rows.append([name, report.total_single_time(name),
                     float(report.speedup_vs(name))])
    rows.append(["portfolio(3)", report.total_portfolio_time, 1.0])
    print(render_table(
        ["as single solver", "total cost", "portfolio speedup"],
        rows,
        title=f"Portfolio over {len(report.outcomes)} instances"))
    print(f"winner split: {report.wins_by_solver()}")
    return 0


def _cmd_explore(args) -> int:
    from repro.hive.cooperative import (
        CooperativeConfig, explore_cooperatively,
    )
    from repro.progmodel.bugs import BugKind
    from repro.progmodel.corpus import CorpusConfig, generate_program

    seeded = generate_program(
        "cli_explore", CorpusConfig(seed=args.seed, n_segments=8),
        (BugKind.CRASH,))
    result = explore_cooperatively(seeded.program, CooperativeConfig(
        n_workers=args.workers, mode=args.mode, loss_rate=args.loss,
        task_timeout=3.0, seed=args.seed,
        solver_cache=args.solver_cache))
    rows = [["paths found", result.path_count],
            ["completed", "yes" if result.completed else "no"],
            ["virtual time (s)", float(result.virtual_time)],
            ["tasks processed", result.tasks_processed],
            ["tasks reassigned", result.tasks_reassigned],
            ["messages lost", result.messages_lost]]
    if result.cache_stats is not None:
        rows.append(["solver evaluations", result.solver_evaluations])
        rows.append(["cache hit rate",
                     f"{result.cache_stats['hit_rate']:.0%}"])
        rows.append(["cache facts merged", result.cache_stats["merged"]])
    print(render_table(
        ["metric", "value"], rows,
        title=f"Cooperative exploration: {args.mode} x{args.workers},"
              f" loss {args.loss:.0%}"))
    return 0


def _cmd_fleet(args) -> int:
    from repro.fleet import Fleet
    from repro.platform import PlatformConfig
    from repro.workloads.scenarios import mixed_corpus_scenario

    scenarios = mixed_corpus_scenario(
        n_programs=args.programs, n_users=40, seed=args.seed)
    fleet = Fleet(scenarios, PlatformConfig(
        rounds=args.rounds, executions_per_round=40, guidance=True,
        enable_proofs=False, seed=args.seed))
    report = fleet.run()
    rows = []
    for program in report.programs:
        if program.exterminated:
            verdict = "exterminated"
        elif program.preempted:
            verdict = "preempted"
        elif program.bugs_seen == 0:
            verdict = "never manifested"
        else:
            verdict = "OPEN"
        rows.append([program.program_name,
                     program.report.total_failures,
                     len(program.report.fixes), verdict])
    print(render_table(
        ["program", "user failures", "fixes", "verdict"],
        rows, title=f"Fleet of {len(report.programs)} programs"))
    print(f"residual fails/1k: {report.residual_failure_rate():.2f}")
    return 0


def _cmd_show(args) -> int:
    from repro.progmodel.bugs import BugKind
    from repro.progmodel.corpus import CorpusConfig, generate_program
    from repro.progmodel.pretty import format_program

    seeded = generate_program(
        "shown", CorpusConfig(seed=args.seed, n_segments=args.segments),
        (BugKind(args.bug),))
    print(format_program(seeded.program))
    print()
    for bug in seeded.bugs:
        print(f"# seeded: {bug.message} at {bug.site_function}:"
              f"{bug.site_block} trigger={bug.trigger}")
    return 0


def _cmd_health(args) -> int:
    """Render a snapshot's health block; exit code = the SLO gate."""
    with open(args.snapshot, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    block = doc.get("health")
    if block is None:
        print("snapshot has no health block (health plane disabled;"
              " rerun without --no-health / with --health)",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(block, sort_keys=True, indent=2))
        return 0 if block["ok"] else 1
    rows = []
    for slo in block["slos"]:
        worst = slo.get("worst")
        rows.append([
            slo["name"], slo["sli"],
            f"{slo['objective']:g}", slo["direction"],
            "OK" if slo["ok"] else "FIRING", slo["fires"],
            (f"{worst['value']:.3g} @ {worst['tick']}"
             if worst else "-")])
    print(render_table(
        ["slo", "sli", "objective", "dir", "state", "fires", "worst"],
        rows,
        title=f"Health: {'OK' if block['ok'] else 'DEGRADED'}"
              f" (schema v{block['health_schema_version']},"
              f" {block['ticks_observed']} ticks observed)"))
    incidents = block["incidents"]
    if incidents:
        print()
        rows = []
        for incident in incidents:
            evidence = incident.get("evidence", {})
            rows.append([
                incident["incident_id"], incident["slo"],
                incident["severity"], incident["opened_tick"],
                ("open" if incident["open"]
                 else incident["closed_tick"]),
                len(evidence.get("chaos", [])),
                len(evidence.get("scaling", []))])
        print(render_table(
            ["incident", "slo", "sev", "opened", "closed",
             "chaos ev", "scale ev"],
            rows, title="Incident timeline"))
    return 0 if block["ok"] else 1


def _cmd_registry(args) -> int:
    from repro.exec.backends import resolve_backend_name
    from repro.metrics.scorecard import build_scorecard
    from repro.registry import (
        RegistryRunConfig, build_registry, run_registry,
    )

    backend = resolve_backend_name(args.backend)
    registry = build_registry(seed=args.seed)
    bugs = registry.bugs(args.family)

    if args.action == "list":
        rows = [[bug.ref, bug.family, bug.spec.kind.value,
                 len(bug.trigger_tests), len(bug.passing_tests),
                 bug.patch.fix_id if bug.patch else "-",
                 ",".join(bug.modified_functions)]
                for bug in bugs]
        print(render_table(
            ["ref", "family", "kind", "trig", "pass", "known patch",
             "modifies"],
            rows, title=f"Bug registry (seed {args.seed},"
                        f" {len(bugs)} bugs)"))
        return 0

    config = RegistryRunConfig(
        seed=args.seed, backend=backend, workers=args.workers,
        family=args.family, background_runs=args.runs, pods=args.pods,
        validate_patches=not args.no_validate)
    results = run_registry(registry, config)
    card = build_scorecard(results, seed=args.seed, backend=backend)
    healthy = all(
        result.detected and result.reproduction_rate == 1.0
        and result.invariants_ok
        and result.repair_valid is not False
        for result in results)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(card.to_json())
            handle.write("\n")

    if args.action == "run":
        if args.json:
            print(card.to_json())
        else:
            rows = [[r.ref, r.trigger_tests,
                     f"{r.trigger_reproduced}/{r.trigger_tests}",
                     "yes" if r.detected else "NO",
                     r.localization_rank or "-",
                     ("-" if r.repair_valid is None
                      else "yes" if r.repair_valid else "NO"),
                     "yes" if r.invariants_ok else "NO"]
                    for r in results]
            print(render_table(
                ["ref", "trig", "reproduced", "detected", "loc-rank",
                 "repair", "inv-ok"],
                rows, title=f"Registry run: family {args.family!r},"
                            f" backend {backend}, seed {args.seed}"))
            if args.out:
                print(f"scorecard -> {args.out}")
        return 0 if healthy else 1

    # score
    if args.json:
        print(card.to_json())
    else:
        print(card.render())
        if args.out:
            print(f"scorecard -> {args.out}")
    return 0 if healthy else 1


def _cmd_profile(args) -> int:
    """One closed-loop run under cProfile: where do the cycles go?

    The table answers "what should the next optimization touch"; the
    ``--out`` artifact keeps the full call graph for offline digging.
    The run itself is an ordinary :func:`_run_platform` loop, so the
    numbers profile exactly what ``repro run`` executes.
    """
    import cProfile
    import io
    import pstats
    import time

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    platform, report = _run_platform(args, fixing=not args.no_fixing)
    profiler.disable()
    wall = max(time.perf_counter() - started, 1e-9)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    print(f"profiled {args.rounds} rounds x {args.executions}"
          f" executions on {platform.backend.name}"
          f" ({args.scenario!r}, seed {args.seed}): {wall:.2f}s wall,"
          f" {args.rounds / wall:.2f} rounds/sec,"
          f" failure rate {report.failure_rate():.3f}")
    print(stream.getvalue().rstrip())
    if args.out:
        stats.dump_stats(args.out)
        print(f"pstats -> {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "chaos": _cmd_chaos,
        "portfolio": _cmd_portfolio,
        "explore": _cmd_explore,
        "fleet": _cmd_fleet,
        "show": _cmd_show,
        "profile": _cmd_profile,
        "health": _cmd_health,
        "registry": _cmd_registry,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
