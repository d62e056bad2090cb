"""Episodes, metrics and checks for one benchmark invocation.

An *episode* builds a workload from a seed (timed as set-up), runs it
to completion (timed as the run) and checks its outputs. An untraced
invocation runs about ``seconds / episode_seconds`` episodes (whole
groups, see :func:`episode_plan`), each on its own seed derived from
``--seed``, so every run at one seed does the same work on every
commit while per-seed differences in the input mix average out.

Each timing is taken per episode (the loop tail per group of episodes)
and the run reports its *slow quartile*: the 75th percentile
of the times, the 25th of the rates. On a host whose other tenants
switch it between a fast and a slow speed every few seconds, a median
flips between the two speeds from run to run; the slow quartile stays
on the slow one as long as a run spends a quarter of its time there.

A traced invocation runs an untraced episode, a traced one and another
untraced one, all on the first derived seed, and reports the per-layer
budget of the traced episode.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import layers, workloads
from perfbench.layers import LayerMissing, Patcher, SpanLog
from perfbench.probes import Probes

__all__ = ["END_TO_END", "PER_LAYER", "Episode", "run_benchmark"]

#: Consecutive episodes form groups of at least this many loop
#: intervals (small workloads: 11, the fewest a tail needs). At 85, a
#: repair group holds 16 fix rounds, so its tail (ten intervals beyond)
#: falls inside the fix rounds rather than on their edge.
GROUP_INTERVALS = (85, 11)
MIN_GROUPS = 3

#: name -> unit, in BENCHMARK.json order.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "executions_per_s": "1/s",
    "loop_p50_s": "s",
    "loop_tail_s": "s",
    "time_to_fix_s": "s",
    "bugs_fixed": "count",
    "peak_rss_mb": "MB",
    "wire_bytes_per_exec": "B",
}

PER_LAYER: Dict[str, str] = {
    **{name: "s" for name in layers.SELF_TIME_METRICS},
    # fixes.approved only feeds fixes.approved_ratio.
    **{name: "count" for name in layers.COUNT_METRICS
       if name != "fixes.approved"},
    "exec.worker_busy_s": "s",
    "exec.transport_s": "s",
    "tracing.wire_bytes": "B",
    "hive.stale_ratio": "ratio",
    "hive.replay_failures": "count",
    "fixes.approved_ratio": "ratio",
    "symbolic.cache_hit_ratio": "ratio",
    "serve.backlog_max": "count",
    "serve.backpressure_ticks": "count",
    "serve.frames_discarded": "count",
    "serve.ingest_lag_max_ticks": "ticks",
    "failed_ratio": "ratio",
    "unattributed_ratio": "ratio",
    "tracing_overhead_ratio": "ratio",
}


@dataclass
class Episode:
    """One workload instance, built, run and checked."""

    setup_s: float
    run_s: float
    loop_intervals: List[float]
    time_to_fix_s: Optional[float]
    digest: str
    executions: int
    wire_bytes: int
    bugs_fixed: int
    failed: int
    origin: float
    errors: List[str] = field(default_factory=list)
    probes: Optional[Probes] = None
    subject: object = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def run_episode(workload, seed: int, small: bool = False,
                log: Optional[SpanLog] = None, keep: bool = False,
                backend: Optional[str] = None) -> Episode:
    """Build, run and check one episode; traced when ``log`` is given."""
    probes = Probes(workload.loop_entry)
    patcher = Patcher()
    gc.collect()
    try:
        if log is not None:
            layers.install_layers(patcher, log)
        probes.install(patcher)
        kwargs = {} if backend is None else {"backend": backend}
        if log is not None:
            log.active = True
        started = time.perf_counter()
        subject = workload.build(seed, small, **kwargs)
        built = time.perf_counter()
        subject.run()
        finished = time.perf_counter()
    finally:
        if log is not None:
            log.active = False
        patcher.restore()
    return _finish(workload, seed, subject, probes, started, built,
                   finished, keep)


def _finish(workload, seed, subject, probes, started, built, finished,
            keep) -> Episode:
    service = workload.service
    starts = probes.loop_starts
    errors = []
    problem = workloads.conservation_errors(subject, service, probes)
    if problem:
        errors.append(problem)
    if not probes.fix_times:
        errors.append("no fix deployed, so time_to_fix_s is undefined")
    fixed, problem = workloads.bugs_fixed(subject, service, seed)
    if problem:
        errors.append(problem)
    episode = Episode(
        setup_s=built - started,
        run_s=finished - built,
        loop_intervals=[later - earlier
                        for earlier, later in zip(starts, starts[1:])],
        time_to_fix_s=(probes.fix_times[-1] - built
                       if probes.fix_times else None),
        digest=workloads.report_digest(subject, service),
        executions=subject.report.total_executions,
        wire_bytes=workloads.wire_bytes(subject, service),
        bugs_fixed=fixed,
        failed=workloads.failed_operations(subject, service,
                                           probes.pod_raised),
        origin=started,
        errors=errors,
        probes=probes,
        subject=subject if keep else None,
    )
    return episode


def episode_seed(seed: int, index: int) -> int:
    """The seed of episode ``index`` of a run at ``seed``."""
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``."""
    ordered = sorted(values)
    if len(ordered) < 11:
        raise ValueError(f"{len(ordered)} loop samples; the tail needs 11")
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def episode_plan(workload, seconds: float, small: bool) -> Tuple[int, int]:
    """``(groups, episodes per group)`` for a ``seconds`` budget."""
    per_episode = workload.loop_intervals(small)
    size = -(-GROUP_INTERVALS[small] // per_episode)
    groups = max(MIN_GROUPS,
                 round(seconds / (size * workload.episode_seconds)))
    return groups, size


def slow_quartile(values, rate: bool = False) -> float:
    """The 75th percentile of times, or the 25th of rates."""
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low if rate else high


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(episodes: List[Episode],
               size: int) -> Tuple[Dict[str, float], str]:
    groups = [[value for episode in episodes[start:start + size]
               for value in episode.loop_intervals]
              for start in range(0, len(episodes), size)]
    tails = [tail(group) for group in groups]
    total_executions = sum(episode.executions for episode in episodes)
    values = {
        "setup_s": slow_quartile([e.setup_s for e in episodes]),
        "executions_per_s": slow_quartile(
            [e.executions / e.run_s for e in episodes], rate=True),
        "loop_p50_s": slow_quartile([statistics.median(e.loop_intervals)
                                     for e in episodes]),
        "loop_tail_s": slow_quartile([value for value, _ in tails]),
        "time_to_fix_s": slow_quartile([e.time_to_fix_s for e in episodes]),
        "bugs_fixed": statistics.median(e.bugs_fixed for e in episodes),
        "peak_rss_mb": peak_rss_mb(),
        "wire_bytes_per_exec": (sum(e.wire_bytes for e in episodes)
                                / total_executions),
    }
    note = (f"slow quartile over {len(episodes)} episodes; loop_tail_s over"
            f" {len(groups)} groups of {size} episodes ({len(groups[0])} loop"
            f" intervals each) of the group's p{tails[0][1]:.1f}, the highest"
            " percentile with ten intervals beyond it")
    return values, note


def per_layer(workload, seed: int, traced: Episode, log: SpanLog,
              untraced_wall: float,
              out_dir: Path) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics of the traced episode; writes the Chrome trace
    and the self-time table next to each other in ``out_dir``."""
    subject = traced.subject
    wall = traced.wall_s
    self_time, unattributed = layers.layer_budget(log, wall)
    by_layer = layers.calls_by(log, lambda entry: entry.layer)
    silent = [layer for layer in workload.heavy if not by_layer.get(layer)]
    if silent:
        raise LayerMissing(f"{workload.name}: layers {silent} recorded no"
                           " calls in the traced run")
    counters = log.counters
    stats = subject.hive.stats
    cache = getattr(subject, "solver_cache", None)
    values: Dict[str, float] = dict(self_time)
    values.update(counters)
    values.update({
        "exec.worker_busy_s": traced.probes.busy_s,
        "exec.transport_s": traced.probes.transport_s,
        "hive.stale_ratio": (stats.stale_traces / stats.traces_ingested
                             if stats.traces_ingested else 0.0),
        "hive.replay_failures": stats.replay_failures,
        "fixes.approved_ratio": (counters["fixes.approved"]
                                 / counters["fixes.validations"]
                                 if counters["fixes.validations"] else 0.0),
        "symbolic.cache_hit_ratio": (cache.stats.hit_rate()
                                     if cache is not None else 0.0),
        "failed_ratio": traced.failed / traced.executions,
        "unattributed_ratio": unattributed / wall,
        "tracing_overhead_ratio": wall / untraced_wall - 1.0,
    })
    if workload.service:
        report = subject.report
        values.update({
            "serve.backlog_max": report.max_backlog,
            "serve.backpressure_ticks": report.backpressure_ticks,
            "serve.frames_discarded": subject.pump.frames_discarded,
            "serve.ingest_lag_max_ticks": report.max_ingest_lag_ticks,
        })
    else:
        values.update({name: 0 for name in (
            "serve.backlog_max", "serve.backpressure_ticks",
            "serve.frames_discarded", "serve.ingest_lag_max_ticks")})

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    title = f"{workload.name} seed {seed} traced"
    layers.write_chrome_trace(out_dir / f"{stem}.trace.json", log,
                              traced.origin, title)
    table = layers.write_budget_table(
        out_dir / f"{stem}.layers.txt", self_time, unattributed, wall,
        layers.calls_by(log, lambda entry: entry.metric),
        f"{title}: self time per layer (wall {wall:.4f} s)")
    return values, table


def run_benchmark(workload_name: str, seed: int, seconds: float,
                  trace: bool, out_dir: Path,
                  small: bool = False) -> Tuple[dict, List[str]]:
    """Run one invocation; returns the result object and report lines.
    Traced runs write their span and budget files into ``out_dir``."""
    workload = workloads.WORKLOADS[workload_name]
    lines: List[str] = []
    if not trace:
        groups, size = episode_plan(workload, seconds, small)
        seeds = [episode_seed(seed, index) for index in range(groups * size)]
        episodes = [run_episode(workload, each, small) for each in seeds]
        values, note = end_to_end(episodes, size)
        units = END_TO_END
        lines.append(note)
        lines.append("episodes (seed: setup_s run_s): " + ", ".join(
            f"{each}: {episode.setup_s:.3f} {episode.run_s:.3f}"
            for each, episode in zip(seeds, episodes)))
    else:
        log = SpanLog()
        first_seed = episode_seed(seed, 0)
        first = run_episode(workload, first_seed, small)
        traced = run_episode(workload, first_seed, small, log=log,
                             keep=True)
        last = run_episode(workload, first_seed, small)
        episodes = [first, traced, last]
        untraced_wall = (first.wall_s + last.wall_s) / 2
        values, table = per_layer(workload, seed, traced, log,
                                  untraced_wall, out_dir)
        units = PER_LAYER
        lines.append(table.rstrip("\n"))
        lines.append(f"chrome trace: {out_dir}/{workload_name}-seed{seed}"
                     ".trace.json")
    errors = [error for episode in episodes for error in episode.errors]
    if trace and len({episode.digest for episode in episodes}) != 1:
        errors.append("traced and untraced reports differ at one seed")
    for name, unit in units.items():
        lines.append(f"{name} = {values[name]!r} {unit}")
    for error in errors:
        lines.append(f"CHECK FAILED: {error}")
    if not errors:
        lines.append("checks: all passed")
    result = {
        "correct": not errors,
        "attempted": sum(episode.executions for episode in episodes),
        "failed": sum(episode.failed for episode in episodes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines
