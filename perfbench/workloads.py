"""The three closed-loop workloads: fleet, repair and serve.

Each workload builds a ready-to-run ``SoftBorgPlatform`` or ``Service``
from the seed alone; the benchmark then calls its ``run()`` and reads
the report. The seed drives the user population and every in-program
random draw; the program itself is fixed per workload, because the cost
of generated programs varies 10-50x and a seed that picked the program
would measure the program, not the change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "report_digest", "inputs_digest",
           "audited_fixes", "bugs_fixed", "failed_operations", "wire_bytes",
           "conservation_errors"]

#: Loop entry points: once per platform round / once per serve tick.
ROUND_ENTRY = "repro.exec.backends:SerialBackend.run_round"
TICK_ENTRY = "repro.serve.control:ControlPlane.reconcile"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    service: bool                   # Service (ticks) or SoftBorgPlatform
    loop_entry: str
    #: Layers the workload is built to load; a traced run in which one
    #: of them records no call fails instead of reporting a zero.
    heavy: Tuple[str, ...]
    #: Nominal wall time of one episode (set-up plus run) on a 2-core
    #: x86 container; sets the episode count for ``--seconds``.
    episode_seconds: float
    #: Loop iterations (rounds or ticks) per episode: (full, small).
    iterations: Tuple[int, int]
    build: Callable[..., object]    # (seed, small, backend) -> object

    def loop_intervals(self, small: bool) -> int:
        """Loop-latency samples one episode yields."""
        return self.iterations[small] - 1


FLEET_ROUNDS = (40, 12)
REPAIR_ROUNDS = (12, 12)
SERVE_TICKS = (160, 40)


def _fleet(seed: int, small: bool = False, backend: str = "process"):
    from repro.platform import PlatformConfig, SoftBorgPlatform
    from repro.workloads.scenarios import crash_scenario
    platform = SoftBorgPlatform(
        crash_scenario(n_users=60, volatility=0.5, seed=seed),
        PlatformConfig(n_pods=40, rounds=FLEET_ROUNDS[small],
                       executions_per_round=50 if small else 400,
                       fixing=True, enable_proofs=False, seed=seed,
                       backend=backend, workers=1))
    if backend == "process":
        # The worker starts lazily on the first round; the public probe
        # starts it now, so set-up covers the fork and round 0 (and with
        # it time_to_fix_s) measures the loop alone.
        platform.backend.probe()
    return platform


def _repair(seed: int, small: bool = False, backend: str = "serial"):
    from repro.platform import PlatformConfig, SoftBorgPlatform
    from repro.progmodel.bugs import BugKind
    from repro.progmodel.corpus import CorpusConfig, generate_program
    from repro.workloads.population import UserPopulation
    from repro.workloads.scenarios import Scenario
    # Corpus seed 1 at this size: a 0.15 s prover oracle, both bugs
    # fixed within ~1 s on every population seed tried (seeds 0-6).
    program_config = (CorpusConfig(seed=3, n_segments=6, input_domain=16)
                      if small else
                      CorpusConfig(seed=1, n_segments=8, input_domain=24))
    seeded = generate_program("repair", program_config,
                              (BugKind.CRASH, BugKind.ASSERT))
    population = UserPopulation(seeded.program, 40, volatility=0.4,
                                seed=seed)
    return SoftBorgPlatform(
        Scenario(seeded=seeded, population=population,
                 description="generated crash + assert program"),
        PlatformConfig(n_pods=8, rounds=REPAIR_ROUNDS[small],
                       executions_per_round=25, guidance=True,
                       enable_proofs=True, solver_cache="collective",
                       seed=seed, backend=backend))


def _serve(seed: int, small: bool = False, backend: str = "serial"):
    from repro.serve.service import Service, ServiceConfig
    from repro.workloads.scenarios import race_scenario
    ticks = SERVE_TICKS[small]
    return Service(
        race_scenario(seed=seed),
        ServiceConfig(ticks=ticks, users=20_000 if small else 1_000_000,
                      base_arrivals_per_tick=16, burst_arrivals_per_tick=64,
                      burst_start_tick=ticks // 4,
                      burst_end_tick=ticks // 2,
                      seed=seed, backend=backend))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="fleet",
            why="E18 crash fleet over a coordinator and one worker process:"
                " the data plane (pod, codec, pipe, hive ingest) does"
                " nearly all the work",
            service=False, loop_entry=ROUND_ENTRY,
            heavy=("exec", "tracing", "hive"),
            episode_seconds=3.5, iterations=FLEET_ROUNDS, build=_fleet),
        Workload(
            name="repair",
            why="two-bug generated program with proofs, guidance and the"
                " collective cache: fix synthesis, validation, prover and"
                " solver do most of the work",
            service=False, loop_entry=ROUND_ENTRY,
            heavy=("progmodel", "fixes", "proofs", "symbolic", "guidance"),
            episode_seconds=1.5, iterations=REPAIR_ROUNDS, build=_repair),
        Workload(
            name="serve",
            why="race program served to 1M Zipf users with a burst: the"
                " hive replays every trace off the CRC-framed ingest pump",
            service=True, loop_entry=TICK_ENTRY,
            heavy=("workloads", "pod", "progmodel", "tracing", "hive",
                   "tree", "analysis", "serve", "obs"),
            episode_seconds=3.8, iterations=SERVE_TICKS, build=_serve),
    )
}


def report_digest(subject, service: bool) -> str:
    """Hash of everything deterministic a run produced."""
    if service:
        doc = subject.snapshot()
    else:
        doc = {"report": subject.report.as_dict(),
               "hive": subject.hive.stats.as_dict(),
               "tree_paths": subject.hive.tree.path_count,
               "epoch": subject.backend.epoch}
    text = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def inputs_digest(subject, samples: int = 256) -> str:
    """Hash of the first executions a fresh copy of the population
    would emit (consumes the population: call on a throwaway build)."""
    population = getattr(subject, "population", None) \
        or subject.scenario.population
    draws = [sorted(population.sample_execution()[1].items())
             for _ in range(samples)]
    return hashlib.sha256(repr(draws).encode()).hexdigest()


def audited_fixes(scenario, program, seed: int, max_steps: int) -> int:
    """Seeded bugs whose signature no longer reproduces on ``program``.

    The same probe battery the platform's ground-truth audit uses:
    round-robin plus twelve random schedules, plus forced faults for
    fault-driven bugs. Applied to the unfixed program it must find
    every bug (otherwise the audit proves nothing) — the caller checks.
    """
    from repro.progmodel.interpreter import (
        Environment, ExecutionLimits, FaultPlan, Interpreter,
    )
    from repro.rng import make_rng
    from repro.sched.scheduler import RandomScheduler, RoundRobinScheduler

    limits = ExecutionLimits(max_steps=max_steps)
    fixed = 0
    for bug in scenario.bugs:
        trials = [(RoundRobinScheduler(), FaultPlan())]
        trials += [(RandomScheduler(rng=make_rng(seed, "audit", index)),
                    FaultPlan()) for index in range(12)]
        if bug.needs_fault:
            trials += [(RoundRobinScheduler(),
                        FaultPlan(forced={occurrence: 0}))
                       for occurrence in range(3)]
        inputs = bug.triggering_inputs(program.inputs)
        reproduced = False
        for scheduler, fault_plan in trials:
            result = Interpreter(program, limits=limits).run(
                inputs, environment=Environment(fault_plan=fault_plan),
                scheduler=scheduler)
            if (result.failure is not None
                    and bug.matches_result(result.outcome,
                                           result.failure.message,
                                           result.failure.block)):
                reproduced = True
                break
        fixed += not reproduced
    return fixed


def bugs_fixed(subject, service: bool, seed: int) -> Tuple[int,
                                                            Optional[str]]:
    """Seeded bugs confirmed fixed, and a check failure if any.

    The platform's own ground-truth audit (``report.density.bugs_fixed``)
    for fleet and repair; for serve, which keeps no ground truth, the
    same probe battery run on the final hive program — after checking
    that it does reproduce every bug on the unfixed program.
    """
    scenario = subject.scenario
    if service:
        steps = subject.config.max_steps
        if audited_fixes(scenario, scenario.program, seed, steps):
            return 0, "the audit cannot reproduce a bug on the unfixed program"
        fixed = audited_fixes(scenario, subject.hive.program, seed, steps)
    else:
        confirmed = subject.report.density.bugs_fixed
        fixed = sum(1 for bug in scenario.bugs if bug.message in confirmed)
    return fixed, None if fixed else "no seeded bug confirmed fixed"


def failed_operations(subject, service: bool, pod_raised: int) -> int:
    """Pod runs that raised, traces the hive could not replay,
    heartbeats for unknown traces, frames discarded at decode."""
    stats = subject.hive.stats
    failed = pod_raised + stats.replay_failures + stats.unknown_heartbeats
    if service:
        failed += subject.pump.frames_discarded
    return failed


def wire_bytes(subject, service: bool) -> int:
    if service:
        return subject.pump.wire_bytes
    return subject.report.wire_bytes


def conservation_errors(subject, service: bool, probes) -> Optional[str]:
    """Entry and execution conservation; None when everything adds up."""
    report, stats = subject.report, subject.hive.stats
    errors = []
    if probes.misrecorded_rounds:
        errors.append(f"{probes.misrecorded_rounds} rounds returned records"
                      " that differ from their plan")
    if report.total_executions != probes.planned:
        errors.append(f"report counts {report.total_executions} executions,"
                      f" plans held {probes.planned}")
    ingested = stats.traces_ingested + stats.heartbeats_ingested
    if not service:
        if probes.shipped != ingested:
            errors.append(f"{probes.shipped} entries shipped, hive ingested"
                          f" {ingested}")
    else:
        pump = subject.pump
        backlog = report.ticks[-1].backlog if report.ticks else 0
        if report.total_arrivals != report.total_admitted + backlog:
            errors.append(f"arrivals {report.total_arrivals} != admitted"
                          f" {report.total_admitted} + backlog {backlog}")
        if probes.framed != probes.shipped:
            errors.append(f"{probes.shipped} entries shipped, {probes.framed}"
                          " framed onto the pump")
        if pump.entries_enqueued > probes.framed:
            errors.append("pump enqueued more entries than were framed")
        lost = (pump.entries_enqueued - pump.entries_drained
                - pump.depth_entries)
        if lost < 0 or (lost > 0) != (pump.frames_discarded > 0):
            errors.append(f"pump enqueued {pump.entries_enqueued} !="
                          f" drained {pump.entries_drained} + depth"
                          f" {pump.depth_entries} + discarded")
        if pump.entries_drained != ingested:
            errors.append(f"pump drained {pump.entries_drained} entries,"
                          f" hive ingested {ingested}")
        if report.max_ingest_lag_ticks > subject.config.max_ingest_lag_ticks:
            errors.append(f"ingest lag {report.max_ingest_lag_ticks} ticks"
                          " breaks the serve SLO")
    if probes.deploys_unvalidated:
        errors.append(f"{probes.deploys_unvalidated} fixes deployed without"
                      " passing validation")
    return "; ".join(errors) or None
