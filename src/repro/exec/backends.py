"""Execution backends: how a round's planned runs actually execute.

The platform plans a round (all coordinator randomness, serialized),
hands the plan to an :class:`ExecutorBackend`, and gets back per-shard
:class:`ShardResult` lists. Two implementations:

* :class:`SerialBackend` — one in-process shard over every pod; the
  historical behaviour and the default.
* :class:`ProcessBackend` — pods partitioned across long-lived worker
  processes (one :class:`~repro.exec.shard.Shard` each), speaking the
  **session protocol** (``repro.exec.session``): full state crosses
  the pipe once at spawn, then only deltas — packed plans out, packed
  delta-shaped results back, epoch-stamped ``publish()`` broadcasts in
  between. This is the backend that buys wall-clock.

Both stream a round the same way: ``run_round(plan, sink)`` runs it in
:data:`~repro.exec.plan.WINDOWS` windows and calls ``sink`` with window
w from every shard as soon as all of them reported it; the process
workers are running window w+1 meanwhile, and the serial shard waits
for the sink. Without a sink nothing consumes a window early, so the
round runs as a single window.

Every backend is a context manager (``with make_backend(...) as b:``)
whose exit calls the idempotent :meth:`close`, and every backend feeds
``repro.obs``: round execute latency, batch count/size/bytes, per-shard
busy seconds, and worker utilization (busy / round wall-clock, the
parallel-efficiency signal).

Coordinator-side state changes go through one door:
:meth:`publish` takes a :class:`~repro.exec.session.SyncDelta` (hive
program deploy, staged rollout, constraint-cache facts — any
combination), stamps it with the session's next epoch, and applies it
to every shard.

Backend choice is config- or environment-driven (``REPRO_BACKEND``);
``resolve_backend_name`` centralizes the rule.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set

try:  # pragma: no cover
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from repro.errors import ConfigError
from repro.exec.batch import ShardResult, merge_windows
from repro.exec.plan import WINDOWS, RoundPlan, partition_windows
from repro.exec.session import (
    ResultPacker, ResultUnpacker, SyncDelta, pack_runs, unpack_runs,
)
from repro.exec.shard import Shard
from repro.obs import Instrumented, get_registry
from repro.obs.trace import get_tracer
from repro.pod.pod import Pod
from repro.progmodel.interpreter import ExecutionLimits
from repro.progmodel.ir import Program

__all__ = [
    "BACKEND_NAMES", "ExecutorBackend", "SyncDelta", "WindowSink",
    "SerialBackend", "ProcessBackend",
    "make_backend", "resolve_backend_name", "resolve_workers",
]

BACKEND_NAMES = ("serial", "process")

#: Called with one window's results from every shard, in shard order.
WindowSink = Callable[[List[ShardResult]], None]

_ENV_BACKEND = "REPRO_BACKEND"


def resolve_backend_name(name: str) -> str:
    """Map a config value to a concrete backend name.

    ``"auto"`` defers to the ``REPRO_BACKEND`` environment variable
    (the CI matrix leg sets it to ``process`` to run the whole suite
    through the parallel path), defaulting to ``serial``.
    """
    if name == "auto":
        name = os.environ.get(_ENV_BACKEND, "").strip().lower() or "serial"
    if name not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown backend {name!r}; expected one of"
            f" {', '.join(BACKEND_NAMES)} or 'auto'")
    return name


def resolve_workers(workers: int, backend: str, n_pods: int) -> int:
    """0 = auto: one worker per core (``os.cpu_count()``), capped at
    the pod count (a shard with no pods would just idle). The same rule
    applies on every CLI that takes ``--workers`` (run/chaos/serve)."""
    if backend == "serial":
        return 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_pods))


class ExecutorBackend(Protocol):
    """What the platform requires of an execution backend.

    The session protocol in four verbs: ``run_round`` executes a plan,
    ``publish`` applies an epoch-stamped state delta to every shard,
    ``close`` releases workers (idempotent), and the context-manager
    pair scopes the whole session.
    """

    name: str
    workers: int
    epoch: int

    def run_round(self, plan: RoundPlan,
                  sink: Optional[WindowSink] = None) -> List[ShardResult]:
        """Execute the plan; shard results ordered by shard id, each its
        shard's windows concatenated (:func:`merge_windows`). ``sink``
        (optional) receives each window from every shard as soon as
        all of them reported it, in window order."""

    def publish(self, delta: SyncDelta) -> int:
        """Apply a state delta to every shard; returns the stamped
        epoch. A worker (re)spawned later replays the cumulative
        session state before serving its first round."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutorBackend":
        ...

    def __exit__(self, *exc_info) -> None:
        ...


class _BackendBase(Instrumented):
    """Shared observability + session lifecycle for every backend."""

    obs_namespace = "exec"
    name = "abstract"

    def __init__(self, workers: int):
        self.workers = workers
        #: Monotonic session epoch: bumped by every (non-empty)
        #: publish. A pure function of the round plan, so it is
        #: backend-invariant and may appear in snapshots.
        self._epoch = 0
        #: Every recycle path a shard has walked on the current hive
        #: program (see :meth:`_count_divergences`).
        self._walked_paths: Set[tuple] = set()
        self._tracer = get_tracer()
        self._obs_rounds = self.obs_counter("rounds")
        self._obs_publishes = self.obs_counter("publishes")
        self._obs_batches = self.obs_counter("batches")
        self._obs_traces = self.obs_counter("batched_traces")
        self._obs_round_time = self.obs_timer("round_execute")
        self._obs_batch_traces = self.obs_histogram("batch_traces",
                                                    unit="traces")
        self._obs_batch_bytes = self.obs_histogram("batch_bytes",
                                                   unit="bytes")
        # Wall-clock-derived distributions register as timers: the
        # snapshot contract is that histogram values reproduce exactly
        # under a fixed seed while timers may vary run to run.
        self._obs_busy = self.obs_timer("worker_busy")
        self._obs_utilization = self.obs_timer("worker_utilization")
        self.obs_gauge("workers").set(workers)

    @property
    def epoch(self) -> int:
        return self._epoch

    # -- session lifecycle ----------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def publish(self, delta: SyncDelta) -> int:
        """Stamp ``delta`` with the next session epoch and apply it."""
        if delta.is_empty():
            return self._epoch
        self._epoch += 1
        delta.epoch = self._epoch
        self._obs_publishes.inc()
        if delta.hive_program is not None:
            self._walked_paths.clear()        # shards walk afresh too
        self._publish(delta)
        return self._epoch

    def _publish(self, delta: SyncDelta) -> None:
        raise NotImplementedError

    # -- rounds ---------------------------------------------------------------

    def run_round(self, plan: RoundPlan,
                  sink: Optional[WindowSink] = None) -> List[ShardResult]:
        import time
        started = time.perf_counter()
        # Shards record their spans into per-shard recorders rooted at
        # the coordinator's active span; the results carry them back
        # (across the worker pipe, for the process backend) and they
        # graft into one tree here.
        ctx = self._tracer.current_context()
        with self._obs_round_time.time():
            results = self._run_round(plan, ctx, sink)
        wall = max(time.perf_counter() - started, 1e-9)
        self._obs_rounds.inc()
        self._count_divergences(results)
        for result in results:
            if result.spans:
                self._tracer.adopt(result.spans)
            self._obs_busy.observe(result.busy_seconds)
            self._obs_utilization.observe(
                min(result.busy_seconds / wall, 1.0))
            for batch in result.batches:
                self._obs_batches.inc()
                self._obs_traces.inc(len(batch))
                self._obs_batch_traces.observe(len(batch))
                self._obs_batch_bytes.observe(
                    sum(len(entry.payload) for entry in batch.entries))
        return results

    def _run_round(self, plan: RoundPlan, ctx=None,
                   sink: Optional[WindowSink] = None) -> List[ShardResult]:
        raise NotImplementedError

    def _count_divergences(self, results: List[ShardResult]) -> None:
        """Count ``symbolic.recycle_diverged_<reason>`` once per path.

        Each shard walks its own first run of a path, so two shards may
        both walk it. Only the path's first walk in global order counts,
        the one a single shard makes, so the counters read alike on
        every backend and worker count.
        """
        walks = [walk for result in results for walk in result.recycle_walks]
        if not walks:
            return
        walks.sort(key=itemgetter(0))
        registry = get_registry()
        for _index, decisions, reason in walks:
            if decisions in self._walked_paths:
                continue
            self._walked_paths.add(decisions)
            if reason is not None:
                registry.counter(f"symbolic.recycle_diverged_{reason}").inc()

    def close(self) -> None:
        pass

    @staticmethod
    def _shard_cache(enabled: bool):
        if not enabled:
            return None
        from repro.symbolic.cache import ConstraintCache
        return ConstraintCache()


class SerialBackend(_BackendBase):
    """Everything in the coordinator process, one shard: the historical
    execution model, now expressed through the shard pipeline so its
    results define the cross-backend determinism baseline."""

    name = "serial"

    def __init__(self, pods: Sequence[Pod], hive_program: Program,
                 dedup: bool = False, solver_cache: bool = False):
        super().__init__(workers=1)
        self._shard = Shard(0, dict(enumerate(pods)), hive_program,
                            dedup=dedup,
                            solver_cache=self._shard_cache(solver_cache))

    def _run_round(self, plan: RoundPlan, ctx=None,
                   sink: Optional[WindowSink] = None) -> List[ShardResult]:
        windows = []
        for window in self._shard.run_windows(
                partition_windows(plan.runs, 1, _window_count(sink))[0],
                ctx):
            windows.append(window)
            if sink is not None:
                sink([window])
        return [merge_windows(windows)]

    def _publish(self, delta: SyncDelta) -> None:
        self._shard.apply_sync(delta)


class ProcessBackend(_BackendBase):
    """Long-lived worker processes, one shard each, session protocol.

    Workers start when the session opens (``with``) or on the first
    round, whichever comes first, and reconstruct their pods from
    picklable specs (pod id + seed + serialized program), so shard
    state is a pure function of (platform config, published payloads)
    — the same guarantee the coordinator's own pods give — under both
    ``fork`` and ``spawn`` start methods.

    State crosses the pipe once: the spawn arguments carry the base
    program plus every payload published so far, so a worker respawned
    after a crash **replays the current epoch** — each published
    deploy, rollout and cache delta in epoch order, through the same
    ``Shard.apply_sync`` a live publish takes — before it serves a
    round. Per round, only deltas cross: packed plans out (interned
    inputs), packed delta-shaped results back one window at a time
    (round-scoped outcome and payload tables, each trace payload
    encoded once), and worker counter *deltas* instead of totals. A
    worker that dies mid-round is respawned and re-runs only the
    windows the coordinator has not received.
    """

    name = "process"

    def __init__(self, pod_specs: Sequence[tuple], hive_program: Program,
                 capture, limits: Optional[ExecutionLimits] = None,
                 fault_rate: float = 0.0,
                 dedup: bool = False,
                 workers: int = 2, solver_cache: bool = False):
        super().__init__(workers=workers)
        from repro.progmodel.serialize import encode_program
        self._pod_specs = list(pod_specs)   # (global_index, pod_id, seed)
        self._program_blob = encode_program(hive_program)
        self._capture = capture
        self._limits = limits or ExecutionLimits()
        self._fault_rate = fault_rate
        self._dedup = dedup
        self._solver_cache = solver_cache
        self._procs: List = []
        self._pipes: List = []
        #: Every broadcast payload ``(epoch, hive_blob, rollout,
        #: cache)``, in epoch order; a worker that (re)spawns applies
        #: them all, which is what makes respawn epoch-correct.
        self._published: List[tuple] = []

    #: Respawn budget per shard per round, with capped backoff between
    #: attempts (real seconds — these are real crashes, not simulated).
    _MAX_RESPAWNS = 3
    _RESPAWN_BACKOFF_BASE = 0.05
    _RESPAWN_BACKOFF_CAP = 0.2

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self):
        # Workers boot while the coordinator plans the first round.
        self._start()
        return self

    def _context(self):
        import multiprocessing
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def _spawn(self, context, shard_id: int):
        """Start one worker; returns its (process, pipe) pair."""
        specs = [spec for spec in self._pod_specs
                 if spec[0] % self.workers == shard_id]
        parent_conn, child_conn = context.Pipe()
        proc = context.Process(
            target=_process_worker_main,
            args=(child_conn, shard_id, specs, self._program_blob,
                  self._capture, self._limits, self._fault_rate,
                  self._dedup,
                  # (enabled, clock): enough for the worker to build an
                  # equivalent tracer. The clock must be picklable —
                  # builtins and FixedClock are.
                  self._tracer.spec(),
                  self._solver_cache,
                  list(self._published),
                  get_registry().enabled),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _start(self) -> None:
        if self._procs:
            return
        context = self._context()
        for shard_id in range(self.workers):
            proc, pipe = self._spawn(context, shard_id)
            self._procs.append(proc)
            self._pipes.append(pipe)

    def _respawn(self, shard_id: int) -> None:
        """Replace a dead worker with a fresh one at the current epoch.

        The replacement starts from the base program and applies every
        published payload in epoch order — deploys, staged rollouts and
        cache facts — so it rejoins with exactly the state its
        predecessor had published to it. The one thing a real crash
        cannot restore is pod RNG position: streams restart from the
        pod seed, so a real crash (unlike an injected one) is outside
        the bit-determinism contract; see docs/CHAOS.md."""
        old = self._procs[shard_id]
        if old.is_alive():
            old.terminate()
        old.join(timeout=10)
        try:
            self._pipes[shard_id].close()
        except (BrokenPipeError, OSError):
            pass
        proc, pipe = self._spawn(self._context(), shard_id)
        self._procs[shard_id] = proc
        self._pipes[shard_id] = pipe

    def _publish(self, delta: SyncDelta) -> None:
        from repro.progmodel.serialize import encode_program
        rollout = None
        if delta.rollout is not None:
            program, indices = delta.rollout
            rollout = (encode_program(program), tuple(indices))
        payload = (delta.epoch,
                   encode_program(delta.hive_program)
                   if delta.hive_program is not None else None,
                   rollout, list(delta.cache_entries))
        self._published.append(payload)
        for pipe in self._pipes:
            try:
                pipe.send(("publish", payload))
            except (BrokenPipeError, OSError):
                # A dead worker misses the broadcast, not the delta: the
                # published list already holds it, the next round's send
                # to this pipe fails the same way, and the respawned
                # worker applies the list before it serves that round.
                pass

    def probe(self, shard_id: int = 0) -> Dict[str, object]:
        """Ask a live worker for its session state (tests and ops):
        epoch, hive program version, pod versions, cache size."""
        self._start()
        pipe = self._pipes[shard_id]
        pipe.send(("probe",))
        reply = pipe.recv()
        if reply[0] != "state":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected probe reply: {reply[0]}")
        return reply[1]

    def _run_round(self, plan: RoundPlan, ctx=None,
                   sink: Optional[WindowSink] = None) -> List[ShardResult]:
        self._start()
        count = _window_count(sink)
        streams = [_RoundStream(self, shard_id, windows, ctx)
                   for shard_id, windows in enumerate(
                       partition_windows(plan.runs, self.workers, count))]
        try:
            for stream in streams:
                stream.send()
            for _window in range(count):
                parts = [stream.receive() for stream in streams]
                if sink is not None:
                    sink(parts)
        except BaseException:
            # A worker error, a respawn budget spent, or a sink that
            # raised: workers left mid-round would answer the next round
            # with this one's windows, so drop them all; the next round
            # starts fresh ones at the current epoch.
            self.close()
            raise
        return [merge_windows(stream.received) for stream in streams]

    def _merge_counters(self, deltas: Dict[str, int]) -> None:
        """Fold worker-side counter *deltas* (pod executions, capture
        decisions, ...) into the coordinator registry, so counter
        metrics are backend-invariant. Workers track their own last
        shipped totals, which makes respawn bookkeeping free: a fresh
        worker simply starts its deltas from zero. Distribution metrics
        stay worker-local (documented in docs/PARALLEL.md)."""
        from repro.obs import get_registry
        registry = get_registry()
        for name, delta in deltas.items():
            registry.counter(name).inc(delta)

    def close(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
                pipe.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._procs = []
        self._pipes = []


def _window_count(sink: Optional[WindowSink]) -> int:
    """Stream in :data:`WINDOWS` windows only when a sink consumes them."""
    return WINDOWS if sink is not None else 1


class _RoundStream:
    """One worker's share of a streamed round, coordinator side.

    Sends the worker its windows, then takes its window results back
    in order; the round is done when every window it was sent has
    arrived. A worker that dies mid-round (EOF or a broken pipe) is
    replaced at the current epoch with capped backoff and sent only the
    windows not yet received: a received window — its records, entries
    and counter deltas — is kept, and never arrives twice.
    """

    def __init__(self, backend: ProcessBackend, shard_id: int,
                 windows: List[list], ctx):
        self.backend = backend
        self.shard_id = shard_id
        self.windows = windows
        self.ctx = ctx
        self.received: List[ShardResult] = []
        self._unpacker = ResultUnpacker()
        self._sent = False
        self._respawns = 0

    def send(self) -> None:
        """Hand the worker every window not yet received."""
        pending = self.windows[len(self.received):]
        try:
            self.backend._pipes[self.shard_id].send((
                "round", self.backend._epoch,
                pack_runs([run for window in pending for run in window]),
                self.ctx, [len(window) for window in pending]))
            self._sent = True
        except (BrokenPipeError, OSError):
            self._sent = False

    def receive(self) -> ShardResult:
        """The worker's next window result."""
        while True:
            if self._sent:
                try:
                    message = self.backend._pipes[self.shard_id].recv()
                except (EOFError, OSError):
                    pass                       # died: respawn, resend
                else:
                    if message[0] != "window":
                        raise RuntimeError(
                            f"exec worker shard {self.shard_id} failed:"
                            f"\n{message[1]}")
                    break
            self._respawn()
            self.send()
        result = self._unpacker.unpack(message[1])
        self.backend._merge_counters(message[2])
        self.received.append(result)
        return result

    def _respawn(self) -> None:
        import time

        registry = get_registry()
        if self._respawns == self.backend._MAX_RESPAWNS:
            registry.counter("retry.giveups").inc()
            raise RuntimeError(
                f"exec worker shard {self.shard_id} kept dying through"
                f" {self._respawns} respawns")
        self._respawns += 1
        registry.counter("exec.worker_respawns").inc()
        registry.counter("retry.attempts").inc()
        backoff = min(self.backend._RESPAWN_BACKOFF_CAP,
                      self.backend._RESPAWN_BACKOFF_BASE
                      * (2 ** (self._respawns - 1)))
        registry.histogram("retry.backoff_seconds",
                           unit="seconds").observe(backoff)
        time.sleep(backoff)
        self.backend._respawn(self.shard_id)
        self._unpacker = ResultUnpacker()     # a fresh worker, fresh tables


def _apply_published(shard: Shard, payload: tuple) -> int:
    """Apply one published payload ``(epoch, hive_blob, rollout,
    cache)`` to a worker's shard through :meth:`Shard.apply_sync`, the
    serial backend's path; returns its epoch. A (re)spawned worker
    applies every earlier payload this way, a live one each broadcast."""
    from repro.progmodel.serialize import decode_program
    epoch, hive_blob, rollout, cache = payload
    shard.apply_sync(SyncDelta(
        epoch=epoch,
        hive_program=(decode_program(hive_blob)
                      if hive_blob is not None else None),
        rollout=((decode_program(rollout[0]), rollout[1])
                 if rollout is not None else None),
        cache_entries=cache))
    return epoch


def _process_worker_main(conn, shard_id: int, specs, program_blob: bytes,
                         capture, limits, fault_rate: float,
                         dedup: bool, tracer_spec=(False, None),
                         solver_cache: bool = False,
                         published=(),
                         metrics_enabled: bool = True) -> None:
    """Worker entry point: rebuild the shard, apply every published
    payload, serve round requests at the session's epoch."""
    import gc
    import traceback

    from repro.obs import Registry, get_registry, set_registry
    from repro.obs.trace import Tracer, set_tracer
    from repro.progmodel.serialize import decode_program

    # A fresh worker-local registry (under fork the default one holds
    # the coordinator's accumulated metrics). Counter deltas ship back
    # with every window; a coordinator whose registry is disabled
    # would drop them, so the worker's is disabled too and its pods pay
    # nothing, as they would in the serial backend.
    set_registry(Registry(enabled=metrics_enabled))
    # Same for the tracer: rebuild it from the coordinator's spec so
    # shard-side spans use the same clock (and the same no-op fast
    # path when tracing is off). Spans ride back inside ShardResult.
    enabled, clock = tracer_spec
    set_tracer(Tracer(enabled=enabled, clock=clock))
    if capture is not None:
        capture._obs_handles = None
    epoch = 0
    try:
        program = decode_program(program_blob)
        pods = {
            global_index: Pod(pod_id=pod_id, program=program,
                              capture=capture, limits=limits,
                              fault_rate=fault_rate, seed=seed)
            for global_index, pod_id, seed in specs
        }
        shard = Shard(shard_id, pods, program, dedup=dedup,
                      solver_cache=_BackendBase._shard_cache(solver_cache))
        # Epoch replay: everything published since the session opened,
        # in epoch order, so this worker's pod/program/cache state is
        # exactly what a survivor's would be.
        for payload in published:
            epoch = _apply_published(shard, payload)
    except Exception:  # pragma: no cover - construction is config-pure
        conn.send(("error", traceback.format_exc()))
        return
    # Under fork the worker inherits the coordinator's whole heap, and
    # its shard state lives for the session: park both outside the
    # collector, so a full collection walks only what rounds allocate.
    gc.freeze()
    last_totals: Dict[str, int] = {}

    def counter_deltas() -> Dict[str, int]:
        totals = get_registry().counters()
        deltas = {name: value - last_totals.get(name, 0)
                  for name, value in totals.items()
                  if value != last_totals.get(name, 0)}
        last_totals.clear()
        last_totals.update(totals)
        return deltas

    while True:
        try:
            message = conn.recv()
        except EOFError:  # pragma: no cover - coordinator died
            return
        kind = message[0]
        try:
            if kind == "round":
                if message[1] != epoch:
                    raise RuntimeError(
                        f"shard {shard_id} at epoch {epoch} received a"
                        f" round stamped epoch {message[1]}")
                _kind, _epoch, packed, ctx, sizes = message
                runs = unpack_runs(packed)
                windows, start = [], 0
                for size in sizes:
                    windows.append(runs[start:start + size])
                    start += size
                # Each window goes down the pipe as soon as it finishes;
                # the coordinator ingests it while this loop runs on.
                packer = ResultPacker()
                for window in shard.run_windows(windows, ctx):
                    conn.send(("window", packer.pack(window),
                               counter_deltas()))
            elif kind == "publish":
                epoch = _apply_published(shard, message[1])
            elif kind == "probe":
                conn.send(("state", {
                    "epoch": epoch,
                    "hive_version": shard.hive_program.version,
                    "pod_versions": {index: pod.version
                                     for index, pod in shard.pods.items()},
                    "cache_entries": (len(shard.solver_cache)
                                      if shard.solver_cache is not None
                                      else 0),
                }))
            elif kind == "stop":
                return
        except Exception:
            conn.send(("error", traceback.format_exc()))


def make_backend(name: str, pods: Sequence[Pod], hive_program: Program,
                 *, capture=None, limits: Optional[ExecutionLimits] = None,
                 fault_rate: float = 0.0, dedup: bool = False,
                 workers: int = 0,
                 solver_cache: str = "none") -> ExecutorBackend:
    """Build the backend named by ``name`` (already resolved).

    ``solver_cache="collective"`` equips every shard with a private
    :class:`~repro.symbolic.cache.ConstraintCache` that recycles its
    runs into solver facts; ``"local"`` and ``"none"`` leave shards
    cache-free (a local cache lives hive-side only).
    """
    workers = resolve_workers(workers, name, len(pods))
    recycle = solver_cache == "collective"
    if name == "serial":
        return SerialBackend(pods, hive_program, dedup=dedup,
                             solver_cache=recycle)
    if name == "process":
        specs = [(index, pod.pod_id, pod.seed)
                 for index, pod in enumerate(pods)]
        return ProcessBackend(specs, hive_program, capture,
                              limits=limits, fault_rate=fault_rate,
                              dedup=dedup,
                              workers=workers, solver_cache=recycle)
    raise ConfigError(f"unknown backend {name!r}")
