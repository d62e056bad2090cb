"""The sequential hive core.

The hive is the only place a shipped trace is replayed (paper Sec. 3.1,
Fig. 2): pods ship bit-vectors, and every by-product the analyses read
— decision path, lock and global events, final globals, return values —
is rebuilt here by replaying the trace against the hive's program.
:meth:`Hive.ingest_batch` replays each distinct replay source once per
memo (one per round on the round-driven loop) and admits every entry
through the same path as :meth:`Hive.ingest_trace`; with a memo it
folds each distinct replay into the tree and the count-linear
analyzers once per call, with its count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.cbi import CbiAnalyzer
from repro.analysis.crashes import CrashBucketer
from repro.analysis.deadlock import DeadlockAnalyzer
from repro.analysis.invariants import InvariantMiner
from repro.analysis.races import RaceAnalyzer
from repro.config import BaseReport
from repro.errors import TraceError
from repro.obs import Instrumented
from repro.obs.trace import NULL_SPAN, get_tracer
from repro.fixes.deadlock_immunity import synthesize_immunity_fix
from repro.fixes.fix import Fix
from repro.fixes.patches import synthesize_recovery_fixes
from repro.fixes.repairlab import RepairLab
from repro.fixes.validation import (
    FixValidator, ValidationTable, make_validation_suite,
)
from repro.guidance.steering import Steering, SteeringDirective
from repro.progmodel.interpreter import ExecutionLimits, Interpreter, Outcome
from repro.progmodel.ir import Program, Syscall
from repro.proofs.properties import NO_FAILURES, OutcomeProperty
from repro.proofs.prover import CumulativeProver
from repro.symbolic.engine import SymbolicEngine
from repro.tracing.dedup import trace_digest
from repro.tracing.trace import Trace
from repro.tree.exectree import ExecutionTree

__all__ = ["Hive", "HiveStats"]


class _Replay(NamedTuple):
    """One replay's by-products, read like an ``ExecutionResult``. The
    sequences are tuples, so every entry that shares the replay folds
    it without a copy."""

    outcome: Outcome
    path_decisions: Tuple
    lock_events: Tuple
    global_events: Tuple
    final_globals: Dict[str, Optional[int]]
    return_values: Dict[int, Optional[int]]


@dataclass
class HiveStats(BaseReport):
    """Counters the hive exposes to experiments."""

    traces_ingested: int = 0
    stale_traces: int = 0
    replay_failures: int = 0
    fixes_deployed: int = 0
    fixes_escalated: int = 0
    gaps_steered: int = 0
    heartbeats_ingested: int = 0
    unknown_heartbeats: int = 0


class Hive(Instrumented):
    """Ingests by-products; produces fixes, proofs, and steering.

    One hive instance manages one program. The hive always holds the
    *current* (possibly already fixed) program version; traces from
    pods still running older versions are counted stale and dropped —
    their bit-vectors cannot be replayed against the rewritten CFG.
    """

    obs_namespace = "hive"

    def __init__(self, program: Program,
                 limits: Optional[ExecutionLimits] = None,
                 property: OutcomeProperty = NO_FAILURES,
                 validate_fixes: bool = True,
                 min_failure_reports: int = 1,
                 enable_proofs: bool = True,
                 solver_cache=None):
        self.program = program
        self.limits = limits or ExecutionLimits()
        # Collective constraint recycling: one ConstraintCache shared by
        # every solver the hive drives (steering, prover, validation).
        # Kept across fix deployments — cache keys are purely structural,
        # so facts about constraint shapes survive program rewrites.
        self.solver_cache = solver_cache
        self.validate_fixes = validate_fixes
        self.min_failure_reports = min_failure_reports
        self.stats = HiveStats()
        # Resolved-once tracer; span keys use a hive-local ingest
        # sequence (arrival order is deterministic on every backend —
        # entries reach the hive in global execution order).
        self._tracer = get_tracer()
        self._trace_seq = 0
        # Cached metric handles: the wall-clock split the redesign is
        # after is replay vs. analysis vs. repair (plus proofs and
        # steering, which can each dominate under some configs).
        self._obs_ingested = self.obs_counter("traces_ingested")
        self._obs_stale = self.obs_counter("stale_traces")
        self._obs_replay_failures = self.obs_counter("replay_failures")
        self._obs_heartbeats = self.obs_counter("heartbeats_ingested")
        self._obs_fixes = self.obs_counter("fixes_deployed")
        self._obs_phase_replay = self.obs_timer("phase.replay")
        self._obs_phase_analysis = self.obs_timer("phase.analysis")
        self._obs_phase_repair = self.obs_timer("phase.repair")
        self._obs_phase_proof = self.obs_timer("phase.proof")
        self._obs_phase_steering = self.obs_timer("phase.steering")
        # Keep the symbolic engine's step budget aligned with the
        # concrete interpreter's, so HANG classification agrees between
        # the oracle and real executions.
        from repro.symbolic.engine import SymbolicLimits
        self._sym_limits = SymbolicLimits(
            max_steps=self.limits.max_steps,
            max_call_depth=self.limits.max_call_depth)
        self._fault_validation = self._program_has_syscalls(program)

        self.tree = ExecutionTree(program.name, program.version)
        self.deadlocks = DeadlockAnalyzer()
        self.races = RaceAnalyzer()
        self.invariants = InvariantMiner()
        self.bucketer = CrashBucketer()
        self.cbi = CbiAnalyzer()
        self.deployed_fixes: List[Fix] = []
        self._fixed_sites: Set[Tuple[str, str]] = set()
        self._fixed_cycles: Set[Tuple[str, ...]] = set()
        self._fixed_race_vars: Set[str] = set()
        # Interleavings that produced schedule-dependent failures; the
        # steering layer re-drives pods down them (paper Sec. 3.3:
        # guide program copies toward dangerous thread schedules),
        # which both corroborates concurrency diagnoses and field-tests
        # deployed concurrency fixes. Kept across fix deployments.
        self._dangerous_schedules: List[Tuple[int, ...]] = []
        self._digest_paths: Dict[bytes, Tuple[Tuple, "Outcome"]] = {}
        self._failure_traces: List[Trace] = []
        self._steering: Optional[Steering] = None
        # Each validation case's result on the current program: every
        # validation of this version starts from it, and a deployed
        # fix's results replace it.
        self._validation_table = ValidationTable()

        # Solver work done by engines that have since been discarded
        # (steering resets on deploy) — folded here so solver_stats()
        # stays cumulative.
        from repro.symbolic.solver import SolverStats
        self._retired_solver_stats = SolverStats()

        self.prover: Optional[CumulativeProver] = None
        if enable_proofs:
            self.prover = CumulativeProver(program, property,
                                           limits=self._sym_limits,
                                           cache=self.solver_cache)

    @staticmethod
    def _program_has_syscalls(program: Program) -> bool:
        for func in program.functions.values():
            for block in func.blocks.values():
                if any(isinstance(i, Syscall) for i in block.instructions):
                    return True
        return False

    # -- ingestion --------------------------------------------------------------

    def _next_seq(self) -> int:
        seq = self._trace_seq
        self._trace_seq += 1
        return seq

    def ingest_trace(self, trace: Trace) -> None:
        """Fold one trace into the collective state."""
        replay = self._ingest(trace, None)
        if replay is not None:
            self._fold_replay(replay, 1)

    def _ingest(self, trace: Trace,
                memo: Optional[Dict]) -> Optional[_Replay]:
        """Admit one trace and do the work that stays per entry; return
        its replay for :meth:`_fold_replay`, or None when the trace is
        stale, not replayable, or does not replay.

        Per entry: the fix evidence and dangerous schedules (ordered),
        the crash bucket (``first_seen_index`` counts arrivals), the
        race analyzer (its lockset refinement starts only once a
        variable is seen shared, so a repeated fold refines accesses
        the first one skipped), and the digest's path, which a
        heartbeat later in the same call must find.
        """
        # The span's arguments cost about a quarter of a repeated
        # entry's work: build them only when tracing is on.
        span = (self._tracer.span("hive.ingest_trace", key=self._next_seq(),
                                  outcome=trace.outcome.value)
                if self._tracer.enabled else NULL_SPAN)
        with span:
            if not self._admit(trace):
                return None
            if not trace.replayable:
                if trace.branch_bits:
                    # Privacy-truncated trace: the retained bit prefix
                    # still reconstructs a path *prefix*, merged as
                    # partial evidence (Sec. 3.1's privacy/utility
                    # middle ground).
                    try:
                        with self._obs_phase_replay.time():
                            prefix = Interpreter(
                                self.program,
                                limits=self.limits).replay_prefix(
                                trace.replay_source())
                    except TraceError:
                        self._replay_failed(trace)
                        return None
                    self.tree.insert_path(prefix, trace.outcome)
                else:
                    self.cbi.add_trace(trace)
                self.bucketer.add(trace)
                return None
            replay = self._replay(trace, memo)
            if replay is None:
                self._replay_failed(trace)
                return None
            # Replayable failure dumps carry their full decision path —
            # feed it to the bucketer for WER-style bucket splitting.
            self.bucketer.add(trace, path=replay.path_decisions)
            self.races.add_execution(replay)
            # Remember the digest -> path association so later
            # heartbeats from deduplicating pods can bump this path's
            # usage counts without re-shipping the trace.
            self._digest_paths[trace_digest(trace)] = (
                replay.path_decisions, replay.outcome)
            return replay

    def _replay(self, trace: Trace,
                memo: Optional[Dict]) -> Optional[_Replay]:
        """Replay an admitted trace against the hive program, once per
        distinct replay source in ``memo`` when there is one; None when
        it does not replay.

        A replay is a function of the program and the recorded
        nondeterminism alone, so that is the memo key, and a failure is
        remembered like a result.
        """
        if memo is None:
            return self._replay_source(trace)
        source = (self.program.version, trace.branch_bits,
                  trace.syscall_returns, trace.schedule_rle)
        try:
            return memo[source]
        except KeyError:
            replay = memo[source] = self._replay_source(trace)
            return replay

    def _replay_source(self, trace: Trace) -> Optional[_Replay]:
        try:
            with self._obs_phase_replay.time():
                result = Interpreter(self.program, limits=self.limits).replay(
                    trace.replay_source())
        except TraceError:
            return None
        return _Replay(
            result.outcome, tuple(result.path_decisions),
            tuple(result.lock_events), tuple(result.global_events),
            result.final_globals, result.return_values)

    def _replay_failed(self, trace: Trace) -> None:
        self.stats.replay_failures += 1
        self._obs_replay_failures.inc()
        self.bucketer.add(trace)

    def _admit(self, trace: Trace) -> bool:
        """Count an arriving trace; False when it is stale. A failing
        trace joins the fix evidence, and its interleaving the
        dangerous schedules steering re-drives, if the schedule it
        claims fits the step budget."""
        self.stats.traces_ingested += 1
        self._obs_ingested.inc()
        if trace.program_version != self.program.version:
            self.stats.stale_traces += 1
            self._obs_stale.inc()
            return False
        if trace.outcome.is_failure:
            self._failure_traces.append(trace)
            if (trace.outcome in (Outcome.DEADLOCK, Outcome.ASSERT)
                    and len(trace.schedule_rle) > 1
                    and len(self._dangerous_schedules) < 8
                    and sum(length for _thread, length in trace.schedule_rle)
                    <= self.limits.max_steps):
                self._dangerous_schedules.append(trace.schedule_picks())
        return True

    def _fold_replay(self, replay: _Replay, count: int) -> None:
        """Fold ``count`` admitted entries that share ``replay`` into
        the tree and the deadlock and invariant analyzers, in one pass.

        Each is count-linear or idempotent in a repeated execution
        (tree visits and outcomes, deadlock count and invariant samples
        add ``count``; lock edges, bounds and candidate pairs move as
        for one), so this equals ``count`` single folds. The invariant
        miner's first healthy snapshot picks its candidate pairs, so
        callers fold distinct replays in first-appearance order.
        """
        with self._obs_phase_analysis.time():
            self.tree.insert_path(replay.path_decisions, replay.outcome,
                                  count=count)
            self.deadlocks.add_execution(replay, count=count)
            if replay.outcome is Outcome.OK:
                # Invariants are mined from healthy behaviour only:
                # "identify the correct code in P" (Sec. 2).
                self.invariants.add_execution(replay, count=count)

    def ingest_batch(self, batches, memo: Optional[Dict] = None) -> int:
        """Fold shard :class:`TraceBatch` flushes: a round's worth, one
        window of a streamed round, or one networked uplink frame.

        The :class:`~repro.interfaces.TraceSink` bulk entry point. All
        entries across all batches are ingested in global execution
        order, exactly the sequence the historical serial loop would
        have ingested them in, each through the single-trace path:
        heartbeats bump known paths, and every shipped trace is
        replayed here, against the hive program.

        ``memo`` maps each payload to its decoded :class:`Trace` and
        each replay source to its replay, so a distinct payload is
        decoded once (one ``wire.decode`` span per decode performed)
        and a distinct replay source replayed once per memo. Entries
        share that one frozen trace, which memoizes its digest; a
        decoded trace's encode prefix is the payload it came from, so
        even its first ``trace_digest`` re-walks nothing. With a memo,
        each entry is admitted, bucketed, race-analyzed and digested on
        arrival, and each distinct replay of the call folds into the
        tree and the deadlock and invariant analyzers once, with its
        entry count, at the end of the call, in first-appearance order
        (:meth:`_fold_replay`).
        Pass one dict to every window (or chaos wire frame) of a round,
        where many entries share a replay source. Without one, payloads
        decode once per call, every trace replays and folds at once:
        serve's pump frames repeat no source, and a memo would hold
        each frame's replays for nothing, which costs the collector. A
        payload that does not decode counts as an arrival whose replay
        failed, and the rest of the batches still ingest.

        Returns the number of entries consumed.
        """
        from repro.tracing.encode import decode_trace
        decoded = {} if memo is None else memo
        # Distinct replay -> [replay, entries sharing it], in
        # first-appearance order (with a memo only).
        pending: Optional[Dict[int, list]] = None if memo is None else {}
        ordered = sorted(batches, key=lambda b: (b.shard_id, b.sequence))
        entries = sorted(
            (entry for batch in ordered for entry in batch.entries),
            key=lambda entry: entry.global_index)
        with self._tracer.span("hive.ingest_batch",
                               key=self._next_seq(),
                               entries=len(entries)):
            for entry in entries:
                if entry.is_heartbeat:
                    self.ingest_heartbeat(entry.heartbeat)
                    continue
                trace = decoded.get(entry.payload)
                if trace is None:
                    try:
                        with self._tracer.span("wire.decode",
                                               key=entry.global_index,
                                               bytes=len(entry.payload)):
                            trace = decode_trace(entry.payload)
                    except TraceError:
                        # The frame's CRC vouches for the bytes in
                        # transit, not for the sender: an entry that
                        # does not decode arrived and cannot replay.
                        self.stats.traces_ingested += 1
                        self._obs_ingested.inc()
                        self.stats.replay_failures += 1
                        self._obs_replay_failures.inc()
                        continue
                    decoded[entry.payload] = trace
                replay = self._ingest(trace, memo)
                if replay is None:
                    continue
                if pending is None:
                    self._fold_replay(replay, 1)
                    continue
                # Keyed by identity: the memo holds one replay object
                # per source for the whole call.
                slot = pending.get(id(replay))
                if slot is None:
                    pending[id(replay)] = [replay, 1]
                else:
                    slot[1] += 1
            if pending:
                for replay, count in pending.values():
                    self._fold_replay(replay, count)
        return len(entries)

    def ingest_heartbeat(self, heartbeat) -> None:
        """Account a deduplicated repeat of an already-known trace."""
        self.stats.heartbeats_ingested += 1
        self._obs_heartbeats.inc()
        if heartbeat.program_version != self.program.version:
            self.stats.stale_traces += 1
            self._obs_stale.inc()
            return
        known = self._digest_paths.get(heartbeat.digest)
        if known is None:
            # The full trace was lost (or predates this hive): the
            # heartbeat alone carries no path information.
            self.stats.unknown_heartbeats += 1
            return
        decisions, outcome = known
        self.tree.insert_path(decisions, outcome, count=heartbeat.count)

    # -- fixing ------------------------------------------------------------------

    def maybe_fix(self) -> Optional[Program]:
        """Synthesize/validate/deploy at most one fix; returns the new
        program version when something shipped."""
        with self._obs_phase_repair.time():
            return self._maybe_fix()

    def _maybe_fix(self) -> Optional[Program]:
        candidates = self._candidate_fixes()
        if not candidates:
            return None
        if self.validate_fixes:
            # The prover explored this version when it was installed;
            # its paths' example inputs are the suite's, so it is not
            # explored again. Without an oracle the suite explores.
            oracle = (self.prover.oracle_inputs()
                      if self.prover is not None else None)
            validator = FixValidator(
                self.program, limits=self.limits,
                suite=make_validation_suite(
                    self.program, with_faults=self._fault_validation,
                    sym_limits=self._sym_limits,
                    cache=self.solver_cache,
                    stats=self._retired_solver_stats,
                    example_inputs=oracle))
            validator.table = self._validation_table
            lab = RepairLab(validator)
            ranked = lab.evaluate(candidates)
            winner = next((r for r in ranked if r.auto_approved), None)
            # Shelve candidates with no evidence of helping (benign
            # race reports, fixes whose failure never reproduces in the
            # suite) and escalate the harmful-but-promising ones, so
            # neither is re-validated round after round. Deployable
            # non-winners stay live: they ship on a later round.
            for entry in ranked:
                if entry is winner or entry.auto_approved:
                    continue
                if entry.report.mitigated > 0:
                    self.stats.fixes_escalated += 1
                self._note_fix_target(entry.fix)
            if winner is None:
                return None
            return self._deploy(winner.fix,
                                *validator.validated(winner.fix))
        chosen = candidates[0]
        return self._deploy(chosen, chosen.apply(self.program))

    def _candidate_fixes(self) -> List[Fix]:
        candidates: List[Fix] = []
        recovery = synthesize_recovery_fixes(
            self._failure_traces, self.program.name,
            min_reports=self.min_failure_reports)
        for fix in recovery:
            if (fix.function, fix.block) not in self._fixed_sites:
                candidates.append(fix)
        for diagnosis in self.deadlocks.diagnoses():
            if diagnosis.locks not in self._fixed_cycles:
                candidates.append(synthesize_immunity_fix(
                    diagnosis, self.program.name))
        from repro.fixes.lockify import synthesize_lockify_fix
        for report in self.races.reports():
            if report.variable not in self._fixed_race_vars:
                candidates.append(synthesize_lockify_fix(
                    report, self.program.name))
        return candidates

    def _note_fix_target(self, fix: Fix) -> None:
        from repro.fixes.deadlock_immunity import GateLockFix
        from repro.fixes.lockify import LockifyFix
        from repro.fixes.patches import SiteRecoveryFix
        if isinstance(fix, SiteRecoveryFix):
            self._fixed_sites.add((fix.function, fix.block))
        elif isinstance(fix, GateLockFix):
            self._fixed_cycles.add(tuple(sorted(fix.cycle_locks)))
        elif isinstance(fix, LockifyFix):
            self._fixed_race_vars.add(fix.variable)

    def _deploy(self, fix: Fix, fixed: Program,
                table: Optional[ValidationTable] = None) -> Program:
        """Ship ``fixed``, the program ``fix`` made; ``table`` holds the
        validation results it already has."""
        self.program = fixed
        self._validation_table = (table if table is not None
                                  else ValidationTable())
        self.deployed_fixes.append(fix)
        self._note_fix_target(fix)
        self.stats.fixes_deployed += 1
        self._obs_fixes.inc()
        # The rewritten CFG invalidates the tree and the in-flight
        # failure evidence; analyses restart against the new version.
        self.tree = ExecutionTree(fixed.name, fixed.version)
        self._failure_traces = []
        self.deadlocks = DeadlockAnalyzer()
        self.races = RaceAnalyzer()
        self.invariants = InvariantMiner()
        self._digest_paths = {}
        self._retire_steering()
        if self.prover is not None:
            self.prover.on_fix_deployed(fixed)
        return fixed

    def _retire_steering(self) -> None:
        """Discard the steering engine (its program is stale), folding
        its solver accounting into the cumulative total first."""
        if self._steering is not None:
            self._retired_solver_stats.add(
                self._steering.engine.solver.stats)
            self._steering = None

    # -- proofs -------------------------------------------------------------------

    def current_proof(self):
        if self.prover is None:
            return None
        with self._obs_phase_proof.time():
            self.prover.observe_tree(self.tree)
            return self.prover.current_proof()

    # -- collective solver cache ---------------------------------------------------

    def adopt_cache_deltas(self, deltas) -> int:
        """Merge a round's shard cache deltas, canonically ordered.

        The canonical order (content sort, first entry per key) is
        independent of shard composition, so the hive cache evolves
        identically on every backend; ``reshare=True`` re-logs the
        adopted facts so the next round-start redistribution carries
        them to every shard.
        """
        if self.solver_cache is None:
            return 0
        from repro.symbolic.cache import ConstraintCache
        merged = ConstraintCache.canonical_order(deltas)
        if not merged:
            return 0
        return self.solver_cache.merge(merged, reshare=True)

    def solver_stats(self):
        """Cumulative solver accounting across the hive's engines
        (steering incl. retired versions, fix validation, prover)."""
        from repro.symbolic.solver import SolverStats
        total = SolverStats().add(self._retired_solver_stats)
        if self._steering is not None:
            total.add(self._steering.engine.solver.stats)
        if self.prover is not None:
            total.add(self.prover.solver_stats)
        return total

    # -- introspection --------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """A human-oriented snapshot of the hive's collective knowledge."""
        from repro.tree.frontier import enumerate_gaps
        proof = self.current_proof()
        top_invariants = [str(inv) for inv in
                          self.invariants.invariants()[:5]]
        stats = self.stats.as_dict()
        return {
            "program": self.program.name,
            "version": self.program.version,
            "traces_ingested": stats["traces_ingested"],
            "tree_paths": self.tree.path_count,
            "tree_nodes": self.tree.node_count,
            "open_gaps": len(enumerate_gaps(self.tree)),
            "failure_buckets": len(self.bucketer.buckets()),
            "deadlock_cycles": len(self.deadlocks.diagnoses()),
            "racy_variables": [r.variable for r in self.races.reports()],
            "fixes_deployed": stats["fixes_deployed"],
            "proof": proof.describe() if proof else "disabled",
            "top_invariants": top_invariants,
        }

    # -- steering -----------------------------------------------------------------

    def plan_steering(self, max_directives: int = 8,
                      ) -> List[SteeringDirective]:
        with self._obs_phase_steering.time():
            return self._plan_steering(max_directives)

    def _plan_steering(self, max_directives: int,
                       ) -> List[SteeringDirective]:
        directives: List[SteeringDirective] = []
        # The prover's oracle knows exactly which feasible paths remain
        # unwitnessed, complete with satisfying inputs — the strongest
        # possible steering signal, so it goes first.
        if self.prover is not None:
            self.prover.observe_tree(self.tree)
            for path in self.prover.unwitnessed_paths():
                if len(directives) >= max_directives:
                    break
                inputs = self.prover.example_inputs_for(path)
                if inputs is None:
                    continue
                directives.append(SteeringDirective(
                    kind="input", inputs=inputs,
                    reason="witness unproved oracle path"))
        # Re-drive known-dangerous interleavings (at most two per
        # round): on the unfixed program they corroborate the
        # diagnosis; on a freshly fixed one they are the field test.
        if len(self.program.threads) > 1:
            for picks in self._dangerous_schedules[-2:]:
                if len(directives) >= max_directives:
                    break
                directives.append(SteeringDirective(
                    kind="replay_schedule", schedule_picks=tuple(picks),
                    reason="re-drive a schedule that previously failed"))
        if len(directives) < max_directives:
            if self._steering is None:
                self._steering = Steering(
                    self.program,
                    SymbolicEngine(self.program, limits=self._sym_limits,
                                   cache=self.solver_cache))
            directives.extend(self._steering.plan(
                self.tree, max_directives - len(directives)))
        self.stats.gaps_steered += sum(
            1 for d in directives if d.kind == "input")
        return directives
