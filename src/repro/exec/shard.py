"""The shard: a slice of the fleet plus its local trace collector.

One :class:`Shard` owns a fixed subset of pods: it executes its planned
runs, deduplicates per pod, encodes each shipped trace, and packages
each window's entries into one :class:`TraceBatch`. It replays nothing:
the hive rebuilds every by-product by replaying what the shard shipped
(``Hive.ingest_batch``). The same class backs both executor backends —
inline (serial) and one-per-worker-process — which is what makes
backend choice invisible to results.

Determinism contract: a shard processes its runs in global-index order,
so each pod's RNG stream and dedup state advance exactly as under the
historical serial loop.

Round-scoped encoding: many users run the same few paths, so one round
(every window of one ``run_windows`` call) encodes each distinct trace
once. The memo lives for that one round and is keyed by the frozen
trace, whose bytes are a function of its fields (see
docs/PERFORMANCE.md).

Collective recycling: with a private constraint cache, the shard walks
the path of each run the hive will replay — a shipped, replayable trace
at the shard's hive version — with the inputs the pod ran, which the
wire never carries. The hive's replay of such a trace reproduces the
run's own path, so the walk is the one the replay would feed.

Streaming: the round runs in windows (``repro.exec.plan.WINDOWS``), and
each window's result is handed over as soon as its runs finish, so the
hive can ingest one window while the shard runs the next.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence

from repro.exec.batch import BatchEntry, RunRecord, ShardResult, TraceBatch
from repro.exec.plan import PlannedRun
from repro.obs.trace import NULL_SPAN, SpanContext, get_tracer
from repro.pod.pod import Pod
from repro.progmodel.interpreter import Outcome
from repro.progmodel.ir import Program
from repro.tracing.dedup import PodDeduplicator
from repro.tracing.encode import encode_trace
from repro.tracing.trace import Trace

__all__ = ["Shard"]


class Shard:
    """A pod subset plus the shard-local trace collector."""

    def __init__(self, shard_id: int, pods: Dict[int, Pod],
                 hive_program: Program,
                 dedup: bool = False,
                 solver_cache=None):
        self.shard_id = shard_id
        self.pods = pods                       # global pod index -> Pod
        self.hive_program = hive_program       # what the hive replays on
        # Collective constraint recycling: a private ConstraintCache the
        # shard fills with SAT facts mined from its runs (a concrete
        # run *is* a model of its own path condition). Private
        # per shard — no cross-thread mutation — with the round delta
        # shipped back in ShardResult for the hive's canonical merge.
        self.solver_cache = solver_cache
        self._recycle_engine = None
        self._recycled_paths = set()
        self._walks: List[tuple] = []          # this window's, see _recycle
        # Resolved once, like the metric handles; a disabled tracer
        # hands out a shared no-op recorder so the hot loop stays flat.
        self._tracer = get_tracer()
        self._dedup: Dict[str, PodDeduplicator] = {}
        if dedup:
            self._dedup = {pod.pod_id: PodDeduplicator()
                           for pod in pods.values()}

    # -- lifecycle ------------------------------------------------------------

    def apply_update(self, program: Program,
                     pod_indices: Sequence[int]) -> None:
        """Staged rollout: install ``program`` on the named pods."""
        for index in pod_indices:
            pod = self.pods.get(index)
            if pod is not None:
                pod.apply_update(program)

    def apply_sync(self, delta) -> None:
        """Apply one epoch-stamped :class:`~repro.exec.session.SyncDelta`
        — the session protocol's single state-change entry point. Order
        matters: a combined publish deploys the hive program (future
        batches and recycling target it) before the rollout that
        targets it, then adopts the hive-redistributed cache facts."""
        if delta.hive_program is not None:
            self.hive_program = delta.hive_program
            self._recycle_engine = None
            self._recycled_paths.clear()
        if delta.rollout is not None:
            program, indices = delta.rollout
            self.apply_update(program, indices)
        if delta.cache_entries and self.solver_cache is not None:
            self.solver_cache.merge(list(delta.cache_entries))

    # -- the round ------------------------------------------------------------

    def run_windows(self, windows: Sequence[Sequence[PlannedRun]],
                    ctx: Optional[SpanContext] = None,
                    ) -> Iterator[ShardResult]:
        """Execute this shard's slice of the round plan, window by
        window, in order; yields one :class:`ShardResult` per window.

        A window's result carries exactly its runs' records, entries
        (one batch, sequence = window index), spans and cache facts, so
        the consumer can ship or ingest it while the next window runs.
        The round-scoped encode memo spans every window, so each
        distinct trace is still encoded once per round.
        ``busy_seconds`` counts the shard's own time only, not the
        consumer's between windows.

        ``ctx`` is the coordinator's active span context; worker-side
        spans recorded under it ride back inside the results and are
        grafted into the coordinator's trace log. Span keys are
        backend-invariant coordinates (the global execution index), so
        the assembled tree is identical on every backend.
        """
        recorder = self._tracer.recorder(ctx)
        # Lazy span shipping: with tracing off the recorder is the
        # shared no-op and ``tracing`` gates every span call site, so
        # the hot loop allocates no span handles, no kwargs dicts, and
        # the result carries an empty tuple across the worker pipe.
        tracing = recorder.enabled
        program = self.hive_program
        recycling = self.solver_cache is not None
        # Round-scoped memo: trace -> payload.
        payloads: Dict[Trace, bytes] = {}
        for index, runs in enumerate(windows):
            started = time.perf_counter()
            records: List[RunRecord] = []
            entries: List[BatchEntry] = []
            for planned in runs:
                pod = self.pods[planned.pod_index]
                span = recorder.span("pod.run", key=planned.global_index,
                                     pod=planned.pod_index,
                                     guided=planned.guided) \
                    if tracing else NULL_SPAN
                with span:
                    try:
                        run = pod.execute(planned.inputs,
                                          directive=planned.directive)
                    except Exception as error:
                        # One broken execution must not take the whole
                        # shard (and, for the process backend, the
                        # whole worker) down with it: record the crash,
                        # ship nothing, move on.
                        from repro.obs import get_registry
                        get_registry().counter("exec.run_crashes").inc()
                        if tracing:
                            span.set(outcome="crash", shipped=False)
                        records.append(RunRecord(
                            global_index=planned.global_index,
                            guided=planned.guided,
                            failed=True,
                            outcome=Outcome.CRASH,
                            has_failure=True,
                            failure_message=f"pod execution raised: {error}",
                            failure_block=None,
                        ))
                        continue
                    trace = run.trace
                    outcome = run.result.outcome
                    failure = run.result.failure
                    if tracing:
                        span.set(outcome=outcome.value, shipped=planned.ship)
                    # Positional fields, as in ResultUnpacker: one record
                    # per run, so the keyword form's cost shows.
                    if failure is None:
                        records.append(RunRecord(
                            planned.global_index, run.guided,
                            outcome.is_failure, outcome))
                    else:
                        records.append(RunRecord(
                            planned.global_index, run.guided,
                            outcome.is_failure, outcome, True,
                            failure.message, failure.block))
                    if not planned.ship:
                        continue               # lost on the wire
                    entry = self._collect(planned.global_index, trace,
                                          recorder, tracing, payloads)
                    entries.append(entry)
                    if (recycling and not entry.is_heartbeat
                            and trace.replayable
                            and trace.program_version == program.version):
                        self._recycle(tuple(run.result.path_decisions),
                                      run.inputs, recorder,
                                      planned.global_index)
            batches = []
            if entries:
                batches.append(TraceBatch(
                    shard_id=self.shard_id, program_name=program.name,
                    program_version=program.version, sequence=index,
                    entries=entries))
            yield ShardResult(
                shard_id=self.shard_id,
                records=records,
                batches=batches,
                busy_seconds=time.perf_counter() - started,
                spans=recorder.take(),
                cache_delta=(self.solver_cache.export_delta()
                             if recycling else []),
                recycle_walks=self._take_walks(),
            )

    # -- constraint recycling --------------------------------------------------

    def _recycle(self, decisions, inputs, recorder, global_index) -> None:
        """Mine a run for solver facts (no solving happens).

        Each distinct decision path is walked once per program version;
        repeats — the common case inside a round — are skipped by the
        seen-set, so recycling cost is bounded by path diversity, not
        run count. Each walk is reported in the window's
        ``recycle_walks`` with its divergence reason; the backend counts
        a path's reason once however many shards walk it.
        """
        if not decisions:
            return
        if decisions in self._recycled_paths:
            return
        self._recycled_paths.add(decisions)
        if self._recycle_engine is None:
            from repro.symbolic.engine import SymbolicEngine
            self._recycle_engine = SymbolicEngine(
                self.hive_program, cache=self.solver_cache)
        with recorder.span("cache.recycle", key=global_index) as span:
            banked = self._recycle_engine.recycle_witness(decisions, inputs)
            span.set(banked=banked)
        self._walks.append((global_index, decisions,
                            self._recycle_engine.divergence))

    def _take_walks(self) -> List[tuple]:
        walks, self._walks = self._walks, []
        return walks

    # -- collection -----------------------------------------------------------

    def _collect(self, global_index: int, trace: Trace, recorder,
                 tracing: bool, payloads: Dict[Trace, bytes],
                 ) -> BatchEntry:
        if self._dedup:
            shipped, heartbeat = self._dedup[trace.pod_id].submit(trace)
            if shipped is None:
                return BatchEntry(global_index, b"", heartbeat)
            trace = shipped
        # A frozen trace's bytes are a function of its fields: equal
        # traces share one encode (and one wire.encode span).
        payload = payloads.get(trace)
        if payload is None:
            if tracing:
                with recorder.span("wire.encode",
                                   key=global_index) as span:
                    payload = encode_trace(trace)
                    span.set(bytes=len(payload))
            else:
                payload = encode_trace(trace)
            payloads[trace] = payload
        return BatchEntry(global_index, payload)
