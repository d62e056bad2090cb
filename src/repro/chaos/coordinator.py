"""The chaos coordinator: injects the fault plan, drives the recovery.

``ChaosCoordinator`` is a chaos platform's round executor, with the
backend's ``run_round(plan, sink)``, so a chaos round takes the same
execute step and sink as every other round. It makes the round's two
seams — *execute* (the backend runs the plan) and *deliver* (the
sink's delivery to the hive) — hostile according to the
:class:`~repro.chaos.plan.FaultPlan`:

**Execution** (:meth:`run_round`): after the backend runs the round,
every run owned by a dead *virtual shard* (``pod_index %
virtual_workers`` — a backend-invariant failure domain, deliberately
not the backend's physical shard id) loses its record and its trace,
modeling a worker that crashed after executing but before reporting.
The victims are then re-dispatched to the surviving workers as fresh
:class:`~repro.exec.plan.RoundPlan` waves with capped exponential
backoff (simulated — recorded in ``retry.*`` metrics, never slept);
a wave can itself die. Runs still pending after ``max_retries`` waves
are lost for good and the round is *degraded*, not failed. The sink
then gets every surviving result at once.

**Delivery** (:meth:`deliver`): instead of handing shard batches to
the hive directly, surviving entries are re-framed in global-execution
order into fixed-size wire frames, encoded through the real
``encode_batch`` path (which now carries a CRC32 trailer), and then
dropped, corrupted, duplicated, and reordered per the plan. Corrupt
frames fail the checksum on decode and are discarded — never ingested
— and each surviving frame is ingested with its own capped retry loop
against injected transient hive failures. The hive replays the
delivered traces as it does on the direct path: one memo per round,
so each distinct replay source replays once however many frames,
duplicates included, carry it.

Worker death composes with the session protocol: a process-backend
worker killed mid-round is respawned *at the current epoch* — it
applies every payload the backend has published (program deploys,
staged rollouts, cache facts, in epoch order) before serving its retry
wave, so the evidence it produces is computed against exactly the
state its predecessor held (see docs/PARALLEL.md).

Everything is a pure function of the chaos seed: two runs with the
same (platform seed, profile) see identical faults and produce
bit-identical reports on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.chaos.plan import FaultPlan
from repro.config import BaseReport
from repro.errors import TraceError
from repro.exec.backends import WindowSink
from repro.exec.batch import (
    ShardResult, TraceBatch, decode_batch, encode_batch,
)
from repro.exec.plan import PlannedRun, RoundPlan
from repro.floats import left_sum
from repro.obs import Instrumented, get_registry
from repro.obs.trace import get_tracer

__all__ = ["ChaosRoundStats", "ChaosCoordinator"]

#: Per-round outcome grades, worst last.
VERDICT_SURVIVED = "survived"
VERDICT_DEGRADED = "degraded"
VERDICT_FAILED = "failed"


@dataclass
class ChaosRoundStats(BaseReport):
    """What chaos did to one round, and how the platform fared."""

    round_index: int
    worker_deaths: int = 0        # virtual shards killed this round
    retry_waves: int = 0          # recovery dispatches (incl. dead ones)
    runs_recovered: int = 0       # victim runs that a retry completed
    runs_lost: int = 0            # victims still dead after max_retries
    frames_total: int = 0         # wire frames the round produced
    frames_dropped: int = 0       # vanished before the hive saw them
    frames_corrupted: int = 0     # mangled on the wire
    frames_discarded: int = 0     # failed the checksum, thrown away
    frames_duplicated: int = 0    # delivered twice
    frames_abandoned: int = 0     # ingest retries exhausted
    ingest_retries: int = 0       # transient ingest failures absorbed
    reordered: bool = False       # delivery order was shuffled
    entries_delivered: int = 0    # entries the hive actually ingested
    backoff_seconds: float = 0.0  # simulated backoff, never slept
    invariants_ok: bool = True
    verdict: str = VERDICT_SURVIVED

    @property
    def faults_injected(self) -> int:
        return (self.worker_deaths + self.frames_dropped
                + self.frames_corrupted + self.frames_duplicated
                + self.ingest_retries + self.frames_abandoned
                + int(self.reordered))

    @property
    def data_lost(self) -> bool:
        """Did anything fail past recovery (the degraded condition)?"""
        return bool(self.runs_lost or self.frames_dropped
                    or self.frames_discarded or self.frames_abandoned)


def _drop_runs(results: List[ShardResult], lost: Set[int]) -> None:
    """Strip the records and entries of the ``lost`` global indices
    from ``results``, and every batch that leaves empty; cache deltas
    stay."""
    for result in results:
        result.records = [record for record in result.records
                          if record.global_index not in lost]
        for batch in result.batches:
            batch.entries = [entry for entry in batch.entries
                             if entry.global_index not in lost]
        result.batches = [batch for batch in result.batches
                          if batch.entries]


class ChaosCoordinator(Instrumented):
    """Per-run fault injector + recovery driver (``chaos.*`` metrics)."""

    obs_namespace = "chaos"

    def __init__(self, plan: FaultPlan, backend):
        self.plan = plan
        self.backend = backend
        self.profile = plan.profile
        # Injected faults become events on the active span; retry
        # waves and wire frames get spans of their own (keys are
        # round/frame/attempt indices — backend-invariant).
        self._tracer = get_tracer()
        self.rounds: List[ChaosRoundStats] = []
        self._current: Optional[ChaosRoundStats] = None
        self._obs_worker_deaths = self.obs_counter("worker_deaths")
        self._obs_runs_recovered = self.obs_counter("runs_recovered")
        self._obs_runs_lost = self.obs_counter("runs_lost")
        self._obs_frames_dropped = self.obs_counter("frames_dropped")
        self._obs_frames_corrupted = self.obs_counter("frames_corrupted")
        self._obs_frames_discarded = self.obs_counter("frames_discarded")
        self._obs_frames_duplicated = self.obs_counter("frames_duplicated")
        self._obs_frames_abandoned = self.obs_counter("frames_abandoned")
        self._obs_ingest_failures = self.obs_counter("ingest_failures")
        registry = get_registry()
        self._retry_attempts = registry.counter("retry.attempts")
        self._retry_giveups = registry.counter("retry.giveups")
        self._retry_backoff = registry.histogram("retry.backoff_seconds",
                                                 unit="seconds")

    # -- execution: worker death + crash-tolerant retry waves -----------------

    def run_round(self, plan: RoundPlan,
                  sink: WindowSink) -> List[ShardResult]:
        """Run ``plan`` on the backend under worker-death faults, hand
        ``sink`` every surviving result at once, and return them.

        The backend runs the plan as one window. The results are every
        dispatch's, stripped of the runs that died: every planned run
        except the rare permanently lost ones keeps its record and
        entry, each global index at most once. A dead dispatch keeps
        its cache delta: deltas ride the reliable coordinator channel,
        not the faulted uplink, which keeps collective recycling
        bit-identical across backends under chaos.
        """
        stats = ChaosRoundStats(round_index=plan.round_index)
        self._current = stats
        results = self.backend.run_round(plan)
        dead = set(self.plan.dead_virtual_shards(plan.round_index))
        if not dead:
            sink(results)
            return results

        stats.worker_deaths = len(dead)
        self._obs_worker_deaths.inc(len(dead))
        self._tracer.event("chaos.worker_death",
                           round=plan.round_index,
                           virtual_shards=sorted(dead))
        workers = self.profile.virtual_workers
        pending: List[PlannedRun] = [run for run in plan.runs
                                     if run.pod_index % workers in dead]
        lost = {run.global_index for run in pending}
        _drop_runs(results, lost)
        attempt = 0
        while pending and attempt < self.profile.max_retries:
            attempt += 1
            stats.retry_waves += 1
            self._retry_attempts.inc()
            backoff = self.plan.backoff(attempt)
            stats.backoff_seconds += backoff
            self._retry_backoff.observe(backoff)
            # Each wave is its own span so the re-dispatched pod.run
            # spans parent under it, not under the initial dispatch
            # (distinct coordinates keep every span id unique).
            with self._tracer.span("chaos.retry_wave",
                                   key=(plan.round_index, attempt),
                                   attempt=attempt,
                                   runs=len(pending)) as wave_span:
                wave = self.backend.run_round(RoundPlan(
                    round_index=plan.round_index,
                    hive_version=plan.hive_version,
                    runs=pending))
                results.extend(wave)
                if self.plan.retry_wave_dies(plan.round_index, attempt):
                    # The replacement worker executed the runs, then
                    # died before reporting — the pods' RNG streams
                    # advanced, the results are gone. Next wave starts
                    # over.
                    wave_span.set(died=True)
                    _drop_runs(wave, lost)
                    continue
            stats.runs_recovered += len(pending)
            self._obs_runs_recovered.inc(len(pending))
            pending = []
        if pending:
            stats.runs_lost = len(pending)
            self._obs_runs_lost.inc(len(pending))
            self._retry_giveups.inc()
            self._tracer.event("chaos.runs_lost",
                               round=plan.round_index,
                               runs=len(pending))
        sink(results)
        return results

    # -- delivery: the hostile uplink -----------------------------------------

    def deliver(self, hive, results: List[ShardResult],
                round_index: int) -> Tuple[int, int]:
        """Carry the entries of ``results`` to the hive over the chaos
        wire.

        Entries are re-framed in global order, encoded through the real
        checksummed wire format, faulted per the plan, and ingested
        frame by frame with capped retries, all sharing one decode and
        replay memo, as the windows of a direct round do. Returns the
        bytes and the number of every transmission, duplicates
        included — dropped frames still burned uplink.
        """
        stats = self._current
        assert stats is not None, "deliver() before run_round()"
        ordered = sorted((entry for result in results
                          for batch in result.batches
                          for entry in batch.entries),
                         key=attrgetter("global_index"))
        size = self.profile.frame_traces or max(1, len(ordered))
        frames = [ordered[start:start + size]
                  for start in range(0, len(ordered), size)]
        stats.frames_total = len(frames)
        name = hive.program.name
        version = hive.program.version
        deliveries: List[bytes] = []
        sent: List[int] = []       # the size of every transmission
        for frame_index, chunk in enumerate(frames):
            # The frame span's context rides inside the frame (wire
            # format v3) so the receive-side ingest span parents here.
            with self._tracer.span("wire.frame",
                                   key=(round_index, frame_index),
                                   frame=frame_index,
                                   entries=len(chunk)) as frame_span:
                data = encode_batch(TraceBatch(
                    shard_id=0, program_name=name,
                    program_version=version, sequence=frame_index,
                    entries=list(chunk),
                    trace_context=frame_span.context))
                frame_span.set(bytes=len(data))
                sent.append(len(data))
                if self.plan.frame_dropped(round_index, frame_index):
                    stats.frames_dropped += 1
                    self._obs_frames_dropped.inc()
                    frame_span.event("chaos.frame_dropped",
                                     frame=frame_index)
                    continue
                if self.plan.frame_corrupted(round_index, frame_index):
                    data = self.plan.corrupt_bytes(data, round_index,
                                                   frame_index)
                    stats.frames_corrupted += 1
                    self._obs_frames_corrupted.inc()
                    frame_span.event("chaos.frame_corrupted",
                                     frame=frame_index)
                deliveries.append(data)
                if self.plan.frame_duplicated(round_index, frame_index):
                    stats.frames_duplicated += 1
                    self._obs_frames_duplicated.inc()
                    frame_span.event("chaos.frame_duplicated",
                                     frame=frame_index)
                    sent.append(len(data))
                    deliveries.append(data)
        order = self.plan.delivery_order(round_index, len(deliveries))
        if order != list(range(len(deliveries))):
            stats.reordered = True
            self._tracer.event("chaos.reordered", round=round_index)
        delivered = 0
        memo: Dict = {}
        for delivery_index, position in enumerate(order):
            try:
                # Zero-copy decode: the frame was encoded once above;
                # the memoryview materializes only per-entry payloads.
                batch = decode_batch(memoryview(deliveries[position]))
            except TraceError:
                # Partial or mangled frame: the checksum (or framing)
                # caught it. Discard — never feed the hive bad bytes.
                stats.frames_discarded += 1
                self._obs_frames_discarded.inc()
                self._tracer.event("chaos.frame_discarded",
                                   round=round_index,
                                   delivery=delivery_index)
                continue
            # Parent the hive-side work under the *sender's* frame
            # span, recovered from the wire context — the causal link
            # the duplicated/reordered deliveries make interesting.
            with self._tracer.span_at(batch.trace_context,
                                      "hive.ingest_frame",
                                      key=(round_index, delivery_index),
                                      delivery=delivery_index):
                if self._ingest_with_retry(hive, batch, round_index,
                                           delivery_index, memo):
                    delivered += len(batch.entries)
        stats.entries_delivered = delivered
        return sum(sent), len(sent)

    def _ingest_with_retry(self, hive, batch: TraceBatch,
                           round_index: int, delivery_index: int,
                           memo: Dict) -> bool:
        """Ingest one frame against injected transient hive failures.

        A failure fires *before* any hive mutation (the transactional
        model: a failed ingest leaves no partial state), so retrying is
        always safe. Gives up after ``ingest_max_retries`` extra
        attempts and reports the frame abandoned."""
        stats = self._current
        attempt = 0
        while self.plan.ingest_fails(round_index, delivery_index, attempt):
            stats.ingest_retries += 1
            self._obs_ingest_failures.inc()
            self._retry_attempts.inc()
            self._tracer.event("chaos.ingest_retry", round=round_index,
                              delivery=delivery_index, attempt=attempt)
            if attempt >= self.profile.ingest_max_retries:
                stats.frames_abandoned += 1
                self._obs_frames_abandoned.inc()
                self._retry_giveups.inc()
                self._tracer.event("chaos.frame_abandoned",
                                   round=round_index,
                                   delivery=delivery_index)
                return False
            attempt += 1
            backoff = self.plan.backoff(attempt)
            stats.backoff_seconds += backoff
            self._retry_backoff.observe(backoff)
        hive.ingest_batch([batch], memo)
        return True

    # -- round bookkeeping ----------------------------------------------------

    def finish_round(self, invariants_ok: bool = True) -> ChaosRoundStats:
        """Grade the round and file its stats: *survived* (every fault
        fully recovered), *degraded* (data lost past recovery, state
        still sound), or *failed* (an invariant broke)."""
        stats = self._current
        assert stats is not None, "finish_round() before run_round()"
        stats.invariants_ok = invariants_ok
        if not invariants_ok:
            stats.verdict = VERDICT_FAILED
        elif stats.data_lost:
            stats.verdict = VERDICT_DEGRADED
        else:
            stats.verdict = VERDICT_SURVIVED
        self.rounds.append(stats)
        self._current = None
        return stats

    def summary(self) -> dict:
        """JSON-ready run summary (rides the platform snapshot)."""
        verdicts = {VERDICT_SURVIVED: 0, VERDICT_DEGRADED: 0,
                    VERDICT_FAILED: 0}
        for stats in self.rounds:
            verdicts[stats.verdict] += 1
        return {
            "profile": self.profile.name,
            "seed": self.plan.seed,
            "rounds": [stats.as_dict() for stats in self.rounds],
            "verdicts": verdicts,
            "worker_deaths": sum(s.worker_deaths for s in self.rounds),
            "runs_recovered": sum(s.runs_recovered for s in self.rounds),
            "runs_lost": sum(s.runs_lost for s in self.rounds),
            "frames_total": sum(s.frames_total for s in self.rounds),
            "frames_dropped": sum(s.frames_dropped for s in self.rounds),
            "frames_discarded": sum(s.frames_discarded
                                    for s in self.rounds),
            "frames_abandoned": sum(s.frames_abandoned
                                    for s in self.rounds),
            "entries_delivered": sum(s.entries_delivered
                                     for s in self.rounds),
            "ingest_retries": sum(s.ingest_retries for s in self.rounds),
            "backoff_seconds": left_sum(s.backoff_seconds
                                        for s in self.rounds),
        }

    def all_survived(self) -> bool:
        return all(s.verdict != VERDICT_FAILED and s.invariants_ok
                   for s in self.rounds)
