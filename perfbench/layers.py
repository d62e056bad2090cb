"""Outside-in layer tracing for the benchmark's traced runs.

Every layer of the closed loop is entered through a few public entry
points (``Pod.execute``, ``Interpreter.replay``, ``Hive.ingest_batch``,
...). A traced run wraps each of them from here, records one span per
call (name, start, end, parent) in memory, and turns the spans into a
per-layer self-time budget: a span's self time is its duration minus
the time its child spans cover, so the budget rows plus the time no
top-level span covers add up to the traced wall time exactly.

Nothing under ``src/`` is touched: the wrappers are installed on the
classes and modules at run time and removed when the run ends. A
function that other modules import by name is wrapped wherever it is
looked up, not only where it is defined.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ENTRY_POINTS", "LayerMissing", "Patcher", "SpanLog", "Entry",
    "calls_by", "install_layers", "layer_budget", "resolve",
    "write_chrome_trace", "write_budget_table",
]


class LayerMissing(RuntimeError):
    """An entry point the budget relies on no longer resolves, or a
    layer the workload is built to load recorded no calls."""


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    Its spans' self time adds to ``metric``; each call adds one to
    ``count``; ``meter(args, kwargs, result, token)`` adds to the
    counter ``meter_metric``, where ``token`` is what ``pre(args,
    kwargs)`` returned before the call.
    """

    metric: str
    target: str
    count: Optional[str] = None
    meter_metric: Optional[str] = None
    meter: Optional[Callable] = None
    pre: Optional[Callable] = None

    @property
    def layer(self) -> str:
        return self.metric.split(".", 1)[0]


def _solver_evaluations(args, kwargs):
    return args[0].stats.evaluations


ENTRY_POINTS: Tuple[Entry, ...] = (
    # workloads: user populations
    Entry("workloads.sample_s",
          "repro.workloads.population:UserPopulation.sample_execution",
          count="workloads.samples"),
    Entry("workloads.sample_s",
          "repro.workloads.population:ZipfPopulation.sample_execution",
          count="workloads.samples"),
    Entry("workloads.build_s",
          "repro.workloads.population:ZipfPopulation.__init__"),
    # exec: executor backends (run_round/publish live on the shared base)
    Entry("exec.round_s", "repro.exec.backends:SerialBackend.run_round",
          count="exec.rounds"),
    Entry("exec.round_s", "repro.exec.backends:ProcessBackend.run_round",
          count="exec.rounds"),
    Entry("exec.publish_s", "repro.exec.backends:SerialBackend.publish",
          count="exec.publishes"),
    Entry("exec.publish_s", "repro.exec.backends:ProcessBackend.publish",
          count="exec.publishes"),
    # pod
    Entry("pod.execute_s", "repro.pod.pod:Pod.execute",
          count="pod.executions"),
    # progmodel: the concrete interpreter
    Entry("progmodel.run_s", "repro.progmodel.interpreter:Interpreter.run",
          count="progmodel.runs"),
    Entry("progmodel.replay_s",
          "repro.progmodel.interpreter:Interpreter.replay",
          count="progmodel.replays"),
    Entry("progmodel.replay_s",
          "repro.progmodel.interpreter:Interpreter.replay_prefix",
          count="progmodel.replays"),
    # tracing: the wire codec
    Entry("tracing.encode_s", "repro.tracing.encode:encode_trace",
          count="tracing.encodes"),
    Entry("tracing.decode_s", "repro.tracing.encode:decode_trace",
          count="tracing.decodes", meter_metric="tracing.wire_bytes",
          meter=lambda args, kwargs, result, token: len(args[0])),
    Entry("tracing.encode_s", "repro.exec.batch:encode_batch",
          count="tracing.encodes"),
    Entry("tracing.decode_s", "repro.exec.batch:decode_batch",
          count="tracing.decodes"),
    # hive
    Entry("hive.ingest_s", "repro.hive.hive:Hive.ingest_batch",
          meter_metric="hive.entries",
          meter=lambda args, kwargs, result, token: result),
    Entry("hive.ingest_s", "repro.hive.hive:Hive.ingest_trace"),
    # tree
    Entry("tree.insert_s", "repro.tree.exectree:ExecutionTree.insert_path",
          count="tree.inserts", meter_metric="tree.paths",
          meter=lambda args, kwargs, result, token: kwargs.get("count", 1)),
    Entry("tree.insert_s", "repro.tree.exectree:ExecutionTree.merge",
          count="tree.inserts"),
    # analysis
    Entry("analysis.add_s", "repro.analysis.crashes:CrashBucketer.add",
          count="analysis.adds"),
    Entry("analysis.add_s",
          "repro.analysis.deadlock:DeadlockAnalyzer.add_execution",
          count="analysis.adds"),
    Entry("analysis.add_s", "repro.analysis.races:RaceAnalyzer.add_execution",
          count="analysis.adds"),
    Entry("analysis.add_s",
          "repro.analysis.invariants:InvariantMiner.add_execution",
          count="analysis.adds"),
    Entry("analysis.add_s", "repro.analysis.cbi:CbiAnalyzer.add_trace",
          count="analysis.adds"),
    # fixes
    Entry("fixes.repair_s", "repro.hive.hive:Hive.maybe_fix",
          meter_metric="fixes.deployed",
          meter=lambda args, kwargs, result, token: int(result is not None)),
    Entry("fixes.suite_s", "repro.fixes.validation:make_validation_suite"),
    Entry("fixes.validate_s", "repro.fixes.validation:FixValidator.validate",
          count="fixes.validations", meter_metric="fixes.approved",
          meter=lambda args, kwargs, result, token: int(result.deployable)),
    # proofs
    Entry("proofs.observe_s", "repro.hive.hive:Hive.current_proof"),
    Entry("proofs.install_s", "repro.proofs.prover:CumulativeProver.__init__"),
    Entry("proofs.install_s",
          "repro.proofs.prover:CumulativeProver.on_fix_deployed"),
    # symbolic: engine, solver, constraint recycling
    Entry("symbolic.explore_s", "repro.symbolic.engine:SymbolicEngine.explore"),
    Entry("symbolic.solve_s", "repro.symbolic.solver:EnumerationSolver.solve",
          count="symbolic.solves",
          meter_metric="symbolic.solver_evaluations",
          pre=_solver_evaluations,
          meter=lambda args, kwargs, result, token:
              args[0].stats.evaluations - token),
    Entry("symbolic.recycle_s",
          "repro.symbolic.engine:SymbolicEngine.recycle_witness"),
    Entry("symbolic.recycle_s", "repro.hive.hive:Hive.adopt_cache_deltas"),
    # guidance
    Entry("guidance.steer_s", "repro.hive.hive:Hive.plan_steering",
          meter_metric="guidance.directives",
          meter=lambda args, kwargs, result, token: len(result)),
    # serve: ingest pump, control plane, autoscalers
    Entry("serve.pump_s", "repro.serve.pump:IngestPump.frame_entries"),
    Entry("serve.pump_s", "repro.serve.pump:IngestPump.offer"),
    Entry("serve.pump_s", "repro.serve.pump:IngestPump.drain"),
    Entry("serve.control_s", "repro.serve.control:ControlPlane.reconcile"),
    Entry("serve.autoscale_s", "repro.serve.autoscaler:Autoscaler.observe"),
    # obs: the health plane
    Entry("obs.health_s", "repro.obs.health:HealthPlane.observe"),
)

#: Every self-time and counter metric the entry points produce.
SELF_TIME_METRICS = tuple(dict.fromkeys(entry.metric
                                        for entry in ENTRY_POINTS))
COUNT_METRICS = tuple(dict.fromkeys(
    name for entry in ENTRY_POINTS
    for name in (entry.count, entry.meter_metric) if name))


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def resolve(target: str) -> List[Tuple[object, str]]:
    """Every ``(owner, attribute)`` through which ``target`` is called.

    A method resolves to the class in the MRO that defines it; a
    function resolves to its module plus every loaded ``repro`` module
    that imported it by name. Raises :class:`LayerMissing` when the
    target no longer exists.
    """
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise LayerMissing(f"{target}: {error}") from None
    parts = qualname.split(".")
    if len(parts) == 2:
        cls = getattr(module, parts[0], None)
        definer = next((klass for klass in getattr(cls, "__mro__", ())
                        if parts[1] in klass.__dict__), None)
        if definer is None:
            raise LayerMissing(f"{target} no longer resolves")
        return [(definer, parts[1])]
    original = module.__dict__.get(qualname)
    if not callable(original):
        raise LayerMissing(f"{target} no longer resolves")
    return [(loaded, qualname) for name, loaded in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and loaded is not None
            and loaded.__dict__.get(qualname) is original]


class SpanLog:
    """Spans of one traced run, held in parallel arrays until written.

    Span ``i`` has entry-point index ``entry[i]``, parent span
    ``parent[i]`` (-1 for a top-level span) and ``start[i]``/``end[i]``
    on the ``time.perf_counter`` clock. ``active`` is cleared in forked
    worker processes, whose calls stay unrecorded.
    """

    def __init__(self) -> None:
        self.entry = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = {name: 0 for name in COUNT_METRICS}
        self.active = False
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def entry_calls(self) -> List[int]:
        """Recorded calls per index into :data:`ENTRY_POINTS`."""
        calls = [0] * len(ENTRY_POINTS)
        for index in self.entry:
            calls[index] += 1
        return calls


def _traced(fn, log: SpanLog, index: int, entry: Entry):
    clock = time.perf_counter
    stack = log._stack
    counters = log.counters
    entries, parents = log.entry, log.parent
    starts, ends = log.start, log.end
    pre, meter = entry.pre, entry.meter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not log.active:
            return fn(*args, **kwargs)
        token = pre(args, kwargs) if pre is not None else None
        span = len(starts)
        entries.append(index)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(span)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[span] = clock()
            stack.pop()
        if entry.count is not None:
            counters[entry.count] += 1
        if meter is not None:
            counters[entry.meter_metric] += meter(args, kwargs, result, token)
        return result

    return traced


#: Modules that import wrapped functions by name; loaded before
#: resolution so every lookup site is found.
PRELOAD = ("repro.platform", "repro.serve.service")


def install_layers(patcher: Patcher, log: SpanLog) -> None:
    """Wrap every entry point; raises :class:`LayerMissing` if one is gone.

    Resolution happens for all entries before any wrapper goes in, so a
    missing layer fails the run before it starts.
    """
    for name in PRELOAD:
        importlib.import_module(name)
    import repro.exec.backends as backends

    resolved = [(index, entry, resolve(entry.target))
                for index, entry in enumerate(ENTRY_POINTS)]
    seen = set()
    for index, entry, sites in resolved:
        for owner, attr in sites:
            if (id(owner), attr) in seen:
                continue            # two targets, one shared definition
            seen.add((id(owner), attr))
            patcher.replace(owner, attr,
                            _traced(owner.__dict__[attr], log, index, entry))

    # A process-backend worker forks from a traced coordinator; its
    # copies of the wrappers must not record (the worker is opaque from
    # outside: its time shows up as ShardResult.busy_seconds).
    worker_main = backends.__dict__.get("_process_worker_main")
    if worker_main is None:
        raise LayerMissing("repro.exec.backends:_process_worker_main"
                           " no longer resolves")

    @functools.wraps(worker_main)
    def untraced_worker_main(*args, **kwargs):
        log.active = False
        return worker_main(*args, **kwargs)

    patcher.replace(backends, "_process_worker_main", untraced_worker_main)


def calls_by(log: SpanLog, key: Callable[[Entry], str]) -> Dict[str, int]:
    """Recorded calls summed per ``key(entry)`` (a layer or a metric)."""
    calls: Dict[str, int] = {}
    for entry, count in zip(ENTRY_POINTS, log.entry_calls()):
        calls[key(entry)] = calls.get(key(entry), 0) + count
    return calls


def layer_budget(log: SpanLog, wall: float) -> Tuple[Dict[str, float],
                                                      float]:
    """Self time per layer metric, and the traced time no span covers."""
    count = len(log)
    child = array("d", bytes(8 * count))
    start, end, parent = log.start, log.end, log.parent
    covered = 0.0
    for span in range(count):
        duration = end[span] - start[span]
        up = parent[span]
        if up >= 0:
            child[up] += duration
        else:
            covered += duration
    metric_of = [entry.metric for entry in ENTRY_POINTS]
    self_time = {name: 0.0 for name in SELF_TIME_METRICS}
    entry = log.entry
    for span in range(count):
        self_time[metric_of[entry[span]]] += (end[span] - start[span]
                                              - child[span])
    return self_time, wall - covered


def write_chrome_trace(path, log: SpanLog, origin: float,
                       title: str) -> None:
    """Chrome trace-event JSON (opens in Perfetto): one complete event
    per span, microseconds from ``origin``, the layer as category."""
    names = [json.dumps(entry.target.partition(":")[2])
             for entry in ENTRY_POINTS]
    cats = [json.dumps(entry.layer) for entry in ENTRY_POINTS]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        handle.write(json.dumps({"ph": "M", "name": "process_name",
                                 "pid": 1, "tid": 1,
                                 "args": {"name": title}}))
        for span in range(len(log)):
            index = log.entry[span]
            handle.write(
                ',\n{"name": %s, "cat": %s, "ph": "X", "pid": 1, "tid": 1,'
                ' "ts": %.3f, "dur": %.3f, "args": {"span": %d,'
                ' "parent": %d}}'
                % (names[index], cats[index],
                   (log.start[span] - origin) * 1e6,
                   (log.end[span] - log.start[span]) * 1e6,
                   span, log.parent[span]))
        handle.write("\n]}\n")


def write_budget_table(path, self_time: Dict[str, float],
                       unattributed: float, wall: float,
                       calls: Dict[str, int], title: str) -> str:
    """The per-layer self-time table; rows plus ``unattributed`` sum to
    the traced wall time. Returns the rendered text."""
    lines = [title, f"{'layer metric':<22} {'self_s':>10} {'share':>7}"
                    f" {'calls':>9}"]
    for name in SELF_TIME_METRICS:
        lines.append(f"{name:<22} {self_time[name]:>10.4f}"
                     f" {self_time[name] / wall:>7.1%}"
                     f" {calls.get(name, 0):>9}")
    lines.append(f"{'unattributed':<22} {unattributed:>10.4f}"
                 f" {unattributed / wall:>7.1%}")
    lines.append(f"{'traced wall':<22} {wall:>10.4f} {1:>7.1%}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
