"""Cooperative symbolic execution over an unreliable network (Sec. 4).

The hive parallelizes the exploration of a program's execution tree
across worker nodes (in the limit, end-user machines). Because "the
contents and shape of the execution tree remain unknown until the tree
is actually explored [...] finding an appropriate partition is
undecidable", two strategies are implemented:

* **static** — the coordinator pre-splits the tree at a fixed depth
  and assigns each subtree to a fixed worker. Simple, but imbalanced
  subtrees and dead workers stall the whole computation.
* **dynamic** — tasks are expanded on demand: shallow prefixes split
  into child tasks, deep prefixes are explored exhaustively; a central
  queue feeds whichever worker is free, and timed-out tasks are
  reassigned (tolerating message loss and node churn).

Worker selection among pending subtrees follows either FIFO or the
portfolio-theoretic allocation of :mod:`repro.hive.allocation`
(subtree = equity, worker time = capital).

Everything runs on the deterministic simulated network: worker compute
time is ``virtual work units / work_rate`` and messages suffer latency,
loss, and churn per the configured links.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import HiveError
from repro.hive.allocation import SubtreeStats, markowitz_weights
from repro.metrics.series import Series
from repro.net.network import Link, Network
from repro.net.simclock import SimClock
from repro.progmodel.ir import Program
from repro.rng import make_rng, running_sums, weighted_index
from repro.symbolic.engine import SymbolicEngine, SymbolicLimits, SymPath

__all__ = [
    "CooperativeConfig", "CooperativeResult", "CooperativeExploration",
    "explore_cooperatively",
]

Decision = Tuple[Tuple[int, str, str], bool]
Prefix = Tuple[Decision, ...]


@dataclass
class CooperativeConfig:
    n_workers: int = 4
    mode: str = "dynamic"              # "dynamic" | "static"
    split_depth: int = 3
    latency: float = 0.02
    loss_rate: float = 0.0
    work_rate: float = 20_000.0        # virtual work units per second
    task_timeout: float = 8.0
    allocation: str = "fifo"           # "fifo" | "markowitz"
    task_path_budget: int = 8          # workers split larger subtrees
    deadline: float = 10_000.0
    churn: Sequence[Tuple[float, int]] = ()   # (time, worker index) downs
    seed: int = 0
    solver_cache: str = "none"         # none | local | collective

    def validate(self) -> None:
        if self.n_workers < 1:
            raise HiveError("need at least one worker")
        if self.mode not in ("dynamic", "static"):
            raise HiveError(f"unknown mode {self.mode!r}")
        if self.allocation not in ("fifo", "markowitz"):
            raise HiveError(f"unknown allocation {self.allocation!r}")
        if self.work_rate <= 0:
            raise HiveError("work_rate must be positive")
        if self.solver_cache not in ("none", "local", "collective"):
            raise HiveError(
                "solver_cache must be one of none, local, collective")


@dataclass
class CooperativeResult:
    paths: List[SymPath]
    completed: bool
    virtual_time: float
    total_work_units: int
    tasks_processed: int
    tasks_reassigned: int
    messages_sent: int
    messages_lost: int
    discovery: Series
    solver_evaluations: int = 0        # across coordinator + all workers
    cache_stats: Optional[dict] = None  # merged worker cache accounting

    @property
    def path_count(self) -> int:
        return len(self.paths)


@dataclass
class _Task:
    task_id: int
    prefix: Prefix
    kind: str                  # "expand" | "explore"
    assigned_to: Optional[str] = None
    assigned_at: float = -1.0
    done: bool = False
    attempts: int = 0


class _Worker:
    """A hive node: owns a private engine, processes one task at a time."""

    def __init__(self, worker_id: str, program: Program, network: Network,
                 limits: Optional[SymbolicLimits], work_rate: float,
                 task_path_budget: int = 8, cache=None, share: bool = False):
        self.worker_id = worker_id
        self.network = network
        self.work_rate = work_rate
        self.task_path_budget = task_path_budget
        self.cache = cache
        self.share = share
        self.engine = SymbolicEngine(program, limits=limits, cache=cache)
        self._queue: Deque[tuple] = deque()
        self._busy = False
        network.register(worker_id, self._on_message)

    def _on_message(self, src: str, message: object) -> None:
        kind = message[0]
        if kind != "task":
            return
        self._queue.append((src, message))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        src, message = self._queue.popleft()
        _kind, task_id, prefix, task_kind = message[:4]
        # Element 5 (when present) is the coordinator's cache seed —
        # the collective facts gathered since this worker's last task.
        # Merging is idempotent, so lost or duplicated task messages
        # cannot corrupt the cache, only delay the sharing.
        seed = message[4] if len(message) > 4 else None
        if seed and self.cache is not None:
            self.cache.merge(seed)
        before = self.engine.work_done
        if task_kind == "expand":
            paths, children = self.engine.expand_node(prefix)
        else:
            # Bounded exploration: oversized subtrees split into child
            # tasks so no single worker serializes the computation.
            paths, children = self.engine.explore_subtree_bounded(
                prefix, self.task_path_budget)
        work = max(1, self.engine.work_done - before
                   + sum(p.steps for p in paths))
        duration = work / self.work_rate
        # Collective mode appends the worker's own new facts as an
        # optional trailing element (absent when sharing is off, so the
        # wire shape stays v1-compatible for non-caching peers).
        delta = (self.cache.export_delta()
                 if self.share and self.cache is not None else None)
        result = ("result", task_id, paths, children, work, self.worker_id)
        if delta is not None:
            result = result + (delta,)
        self.network.clock.schedule(
            duration, lambda: self._finish(src, result))

    def _finish(self, dst: str, result: tuple) -> None:
        if self.network.is_up(self.worker_id):
            self.network.send(self.worker_id, dst, result)
        self._start_next()


class CooperativeExploration:
    """Coordinator + workers on one simulated network."""

    COORDINATOR = "coordinator"

    def __init__(self, program: Program, config: CooperativeConfig,
                 limits: Optional[SymbolicLimits] = None):
        config.validate()
        self.program = program
        self.config = config
        self.clock = SimClock()
        self.network = Network(
            self.clock,
            default_link=Link(latency=config.latency,
                              loss_rate=config.loss_rate),
            rng=make_rng(config.seed, "coop", "net"))
        self._rng = make_rng(config.seed, "coop", "alloc")
        self.network.register(self.COORDINATOR, self._on_message)
        # "local": every worker keeps a private cache (intra-worker
        # reuse only). "collective": worker deltas ride result messages
        # back, the coordinator merges them canonically, and each task
        # assignment seeds the worker with everything shared since its
        # last assignment (per-worker log cursors).
        self._sharing = config.solver_cache == "collective"
        self.solver_cache = None
        self._worker_cursors: Dict[str, int] = {}
        if self._sharing:
            from repro.symbolic.cache import ConstraintCache
            self.solver_cache = ConstraintCache()
        def _worker_cache():
            if config.solver_cache == "none":
                return None
            from repro.symbolic.cache import ConstraintCache
            return ConstraintCache()
        self.workers = [
            _Worker(f"w{i}", program, self.network, limits,
                    config.work_rate, config.task_path_budget,
                    cache=_worker_cache(), share=self._sharing)
            for i in range(config.n_workers)]
        self._worker_free: Dict[str, bool] = {
            w.worker_id: True for w in self.workers}
        self._tasks: Dict[int, _Task] = {}
        self._pending: Deque[int] = deque()
        self._next_task_id = 0
        self._static_queues: Dict[str, Deque[int]] = {}
        self._subtree_stats: Dict[object, SubtreeStats] = {}
        self._seen_paths: Dict[Prefix, SymPath] = {}
        self.tasks_reassigned = 0
        self.tasks_processed = 0
        self.total_work_units = 0
        self.discovery = Series("paths-discovered")
        self._done = False
        self._coordinator_engine = SymbolicEngine(program, limits=limits,
                                                  cache=self.solver_cache)

    # -- driving -------------------------------------------------------------

    def run(self) -> CooperativeResult:
        self._bootstrap()
        for when, index in self.config.churn:
            worker = self.workers[index % len(self.workers)].worker_id
            self.clock.schedule(when, self._down_callback(worker))
        while (not self._done and self.clock.pending_events
               and self.clock.now < self.config.deadline):
            self.clock.step()
        return CooperativeResult(
            paths=list(self._seen_paths.values()),
            completed=self._done,
            virtual_time=self.clock.now,
            total_work_units=self.total_work_units,
            tasks_processed=self.tasks_processed,
            tasks_reassigned=self.tasks_reassigned,
            messages_sent=self.network.messages_sent,
            messages_lost=self.network.messages_lost,
            discovery=self.discovery,
            solver_evaluations=self._solver_evaluations(),
            cache_stats=self._cache_stats(),
        )

    def _solver_evaluations(self) -> int:
        total = self._coordinator_engine.solver.stats.evaluations
        return total + sum(w.engine.solver.stats.evaluations
                           for w in self.workers)

    def _cache_stats(self) -> Optional[dict]:
        if self.config.solver_cache == "none":
            return None
        caches = [w.cache for w in self.workers if w.cache is not None]
        if self.solver_cache is not None:
            caches.append(self.solver_cache)
        totals: Dict[str, float] = {}
        for cache in caches:
            for key, value in cache.stats.as_dict().items():
                if key == "hit_rate":
                    continue
                totals[key] = totals.get(key, 0) + value
        probes = totals.get("hits", 0) + totals.get("misses", 0)
        totals["hit_rate"] = (round(totals["hits"] / probes, 6)
                              if probes else 0.0)
        return totals

    def _down_callback(self, worker: str):
        return lambda: self.network.take_down(worker)

    # -- bootstrap ------------------------------------------------------------

    def _bootstrap(self) -> None:
        if self.config.mode == "dynamic":
            root = self._new_task((), "expand")
            self._pending.append(root.task_id)
            self.clock.schedule(0.0, self._dispatch)
            return
        # Static: centrally expand to split_depth, assign round-robin
        # permanently. The central expansion is serial coordinator work
        # and is charged as a time prologue.
        before = self._coordinator_engine.work_done
        prefixes: List[Prefix] = [()]
        for _depth in range(self.config.split_depth):
            next_level: List[Prefix] = []
            for prefix in prefixes:
                paths, children = self._coordinator_engine.expand_node(prefix)
                for path in paths:
                    self._record_path(path)
                next_level.extend(children)
            prefixes = next_level
            if not prefixes:
                break
        prologue_work = self._coordinator_engine.work_done - before
        self.total_work_units += prologue_work
        prologue = prologue_work / self.config.work_rate
        for index, prefix in enumerate(prefixes):
            task = self._new_task(prefix, "explore")
            worker = self.workers[index % len(self.workers)].worker_id
            queue = self._static_queues.setdefault(worker, deque())
            queue.append(task.task_id)
        if not self._tasks:
            self._done = True
            return
        self.clock.schedule(prologue, self._dispatch_static)

    # -- task management -----------------------------------------------------------

    def _new_task(self, prefix: Prefix, kind: str) -> _Task:
        task = _Task(task_id=self._next_task_id, prefix=prefix, kind=kind)
        self._next_task_id += 1
        self._tasks[task.task_id] = task
        return task

    def _subtree_key(self, prefix: Prefix) -> object:
        return prefix[0] if prefix else ("root",)

    def _dispatch(self) -> None:
        """Dynamic mode: hand pending tasks to free workers."""
        free = [w for w, is_free in self._worker_free.items()
                if is_free and self.network.is_up(w)]
        for worker in free:
            task_id = self._pick_pending()
            if task_id is None:
                break
            self._assign(task_id, worker)
        self._check_done()

    def _dispatch_static(self) -> None:
        for worker, queue in self._static_queues.items():
            if self._worker_free.get(worker) and queue:
                self._assign(queue[0], worker)

    def _pick_pending(self) -> Optional[int]:
        while self._pending and self._tasks[self._pending[0]].done:
            self._pending.popleft()
        if not self._pending:
            return None
        if self.config.allocation == "fifo" or len(self._pending) == 1:
            return self._pending.popleft()
        # Markowitz: group pending tasks by top-level subtree, weight
        # by risk-adjusted observed discovery rate, sample a subtree.
        groups: Dict[object, List[int]] = {}
        for task_id in self._pending:
            task = self._tasks[task_id]
            if task.done:
                continue
            groups.setdefault(self._subtree_key(task.prefix),
                              []).append(task_id)
        keys = sorted(groups, key=repr)
        stats = [self._subtree_stats.setdefault(key, SubtreeStats(key=key))
                 for key in keys]
        chosen = keys[weighted_index(
            self._rng, running_sums(markowitz_weights(stats)))]
        task_id = groups[chosen][0]
        self._pending.remove(task_id)
        return task_id

    def _assign(self, task_id: int, worker: str) -> None:
        task = self._tasks[task_id]
        if task.done:
            return
        task.assigned_to = worker
        task.assigned_at = self.clock.now
        task.attempts += 1
        self._worker_free[worker] = False
        message: tuple = ("task", task_id, task.prefix, task.kind)
        if self._sharing:
            # Piggyback everything shared since this worker's last
            # assignment. A lost task message loses its seed too —
            # sharing is best-effort and only affects solver cost,
            # never verdicts.
            seed, cursor = self.solver_cache.shared_since(
                self._worker_cursors.get(worker, 0))
            self._worker_cursors[worker] = cursor
            message = message + (seed,)
        self.network.send(self.COORDINATOR, worker, message)
        # Exponential backoff: a slow-but-alive worker should not be
        # flooded with duplicates of a long-running task.
        timeout = self.config.task_timeout * (2 ** (task.attempts - 1))
        self.clock.schedule(timeout,
                            lambda: self._on_timeout(task_id, worker))

    def _on_timeout(self, task_id: int, worker: str) -> None:
        task = self._tasks.get(task_id)
        if task is None or task.done or task.assigned_to != worker:
            return
        # The task is overdue: the message was lost, the worker died,
        # or the subtree is just big. Free the slot; dynamic mode
        # requeues for any worker, static retransmits to the owner.
        self._worker_free[worker] = True
        self.tasks_reassigned += 1
        task.assigned_to = None
        if self.config.mode == "dynamic":
            self._pending.append(task_id)
            self._dispatch()
        else:
            if self.network.is_up(worker):
                self._assign(task_id, worker)
            # A dead worker's static tasks are simply lost: that is the
            # point of the comparison.

    # -- message handling -------------------------------------------------------

    def _on_message(self, src: str, message: object) -> None:
        kind = message[0]
        if kind != "result":
            return
        _kind, task_id, paths, children, work, worker = message[:6]
        delta = message[6] if len(message) > 6 else None
        if delta and self.solver_cache is not None:
            # Even a duplicate completion carries valid facts; merging
            # is idempotent, and reshare=True queues them for the next
            # per-worker seed.
            self.solver_cache.merge(delta, reshare=True)
        task = self._tasks.get(task_id)
        if task is None or task.done:
            # Duplicate completion (reassigned task finished twice).
            self._worker_free[worker] = True
            self._continue(worker)
            return
        task.done = True
        self.tasks_processed += 1
        self.total_work_units += work
        key = self._subtree_key(task.prefix)
        stats = self._subtree_stats.setdefault(key, SubtreeStats(key=key))
        stats.record(len(paths) / max(1, work))
        for path in paths:
            self._record_path(path)
        for child_prefix in children:
            child = self._new_task(
                child_prefix,
                "expand" if (self.config.mode == "dynamic"
                             and len(child_prefix) < self.config.split_depth)
                else "explore")
            if self.config.mode == "dynamic":
                self._pending.append(child.task_id)
            else:
                # Static: splits stay with the worker that owns the
                # subtree — no stealing is the point of the baseline.
                self._static_queues.setdefault(
                    worker, deque()).append(child.task_id)
        self._worker_free[worker] = True
        self._continue(worker)

    def _continue(self, worker: str) -> None:
        if self.config.mode == "dynamic":
            self._dispatch()
            return
        queue = self._static_queues.get(worker)
        if queue:
            while queue and self._tasks[queue[0]].done:
                queue.popleft()
            if queue:
                self._assign(queue[0], worker)
        self._check_done()

    def _record_path(self, path: SymPath) -> None:
        if path.decisions not in self._seen_paths:
            self._seen_paths[path.decisions] = path
            self.discovery.record(self.clock.now, len(self._seen_paths))

    def _check_done(self) -> None:
        if self._done:
            return
        if all(task.done for task in self._tasks.values()):
            self._done = True


def explore_cooperatively(program: Program,
                          config: Optional[CooperativeConfig] = None,
                          limits: Optional[SymbolicLimits] = None,
                          ) -> CooperativeResult:
    """Run one cooperative exploration of ``program``."""
    return CooperativeExploration(
        program, config or CooperativeConfig(), limits).run()
