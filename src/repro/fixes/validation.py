"""Pre-deployment fix validation.

The hive never ships a fix on faith (paper Sec. 3.3: it "must reason
about whether this instrumentation could affect P in undesired ways").
The validator executes original and fixed programs side by side over a
generated suite:

* **input coverage** — one input vector per feasible symbolic path of
  the original program (fault-free), so every behaviour class is
  exercised;
* **schedule coverage** — for multi-threaded programs, each input runs
  under round-robin plus a battery of seeded random schedules;
* **fault coverage** (optional) — a sweep of forced syscall faults.

Verdict: a fix is deployable iff it causes **zero regressions** (every
previously-successful run still succeeds, with the same thread-0
result) and mitigates at least one previously-failing run.

Validation does each run once per program version (see "The fix loop"
in docs/PERFORMANCE.md):

* **Skip what a fix cannot reach.** Every run records the blocks it
  entered, and :func:`changed_blocks` names the blocks a fix rewrote. A
  case whose run on the original entered none of them executes only
  unchanged ops on the fixed program, so the same steps and the same
  scheduler picks give the same result; it is not run again.
* **Carry results over.** A :class:`ValidationTable` holds each case's
  result on one program version. Validations of that version look
  their before-results up in it, and a deployed fix's after-results
  become the table of the version it creates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.errors import ProgramModelError
from repro.fixes.fix import Fix
from repro.progmodel.interpreter import (
    Environment, ExecutionLimits, FaultPlan, Interpreter, Outcome,
)
from repro.progmodel.ir import Program
from repro.progmodel.serialize import encode_block
from repro.rng import make_rng
from repro.sched.scheduler import RandomScheduler, RoundRobinScheduler
from repro.symbolic.engine import SymbolicEngine, SymbolicLimits

__all__ = ["ValidationReport", "FixValidator", "ValidationTable",
           "make_validation_suite", "changed_blocks"]

InputVector = Dict[str, int]
#: (sorted inputs, schedule seed, fault occurrence): what a run depends on.
CaseKey = Tuple[Tuple[Tuple[str, int], ...], Optional[int], Optional[int]]


@dataclass
class ValidationCase:
    """One (input, schedule seed, fault plan) execution scenario."""

    inputs: InputVector
    schedule_seed: Optional[int] = None   # None = round-robin
    fault_read_occurrence: Optional[int] = None

    @property
    def key(self) -> CaseKey:
        return (tuple(sorted(self.inputs.items())), self.schedule_seed,
                self.fault_read_occurrence)


class CaseResult(NamedTuple):
    """What validation compares of one run (results as sorted items),
    plus the (function, label) blocks the run entered."""

    outcome: Outcome
    return_values: Tuple[Tuple[int, Optional[int]], ...]
    final_globals: Tuple[Tuple[str, Optional[int]], ...]
    entered: FrozenSet[Tuple[str, str]]


class ValidationTable:
    """Each case's :class:`CaseResult` on one program version, keyed by
    :attr:`ValidationCase.key`; equal results share one object."""

    def __init__(self):
        self._results: Dict[CaseKey, CaseResult] = {}
        self._distinct: Dict[CaseResult, CaseResult] = {}

    def get(self, key: CaseKey) -> Optional[CaseResult]:
        return self._results.get(key)

    def put(self, key: CaseKey, result: CaseResult) -> CaseResult:
        result = self._distinct.setdefault(result, result)
        self._results[key] = result
        return result


@dataclass
class ValidationReport:
    """Side-by-side comparison of original vs fixed program."""

    fix_id: str
    cases_run: int = 0
    regressions: int = 0          # OK before, not OK (or changed) after
    mitigated: int = 0            # failing before, OK after
    unmitigated: int = 0          # failing before, still failing after
    still_ok: int = 0             # OK before and unchanged after
    regression_examples: List[ValidationCase] = field(default_factory=list)

    @property
    def deployable(self) -> bool:
        return self.regressions == 0 and self.mitigated > 0

    @property
    def mitigation_rate(self) -> float:
        failing = self.mitigated + self.unmitigated
        return self.mitigated / failing if failing else 0.0


def make_validation_suite(program: Program,
                          max_paths: int = 2048,
                          schedule_seeds: int = 8,
                          with_faults: bool = False,
                          fault_occurrences: Sequence[int] = (0, 1, 2),
                          sym_limits: Optional[SymbolicLimits] = None,
                          cache=None,
                          stats=None,
                          example_inputs: Optional[
                              Sequence[InputVector]] = None,
                          ) -> List[ValidationCase]:
    """Generate the validation scenarios for ``program``.

    Input vectors come from exhaustive symbolic exploration of the
    first thread (each feasible path contributes its example inputs).
    Multi-threaded programs cross every input with round-robin and
    ``schedule_seeds`` random schedules. ``cache`` is the hive's shared
    :class:`~repro.symbolic.cache.ConstraintCache`, when enabled;
    ``stats`` an optional :class:`~repro.symbolic.solver.SolverStats`
    accumulator the exploration's solver accounting is folded into
    (the engine itself is transient). ``example_inputs``, the paths'
    example inputs in exploration order, skips the exploration when
    the caller already made it: the hive passes its prover's oracle.
    """
    if example_inputs is None:
        engine = SymbolicEngine(
            program,
            limits=sym_limits or SymbolicLimits(max_paths=max_paths),
            cache=cache)
        paths = engine.explore()
        if stats is not None:
            stats.add(engine.solver.stats)
        example_inputs = [path.example_inputs for path in paths]
    seen = set()
    inputs: List[InputVector] = []
    for example in example_inputs:
        key = tuple(sorted(example.items()))
        if key not in seen:
            seen.add(key)
            inputs.append(dict(example))

    multithreaded = len(program.threads) > 1
    cases: List[ValidationCase] = []
    for vector in inputs:
        cases.append(ValidationCase(inputs=vector))
        if multithreaded:
            for seed in range(schedule_seeds):
                cases.append(ValidationCase(inputs=vector,
                                            schedule_seed=seed))
        if with_faults:
            for occurrence in fault_occurrences:
                cases.append(ValidationCase(
                    inputs=vector, fault_read_occurrence=occurrence))
    return cases


def changed_blocks(old: Program, new: Program,
                   ) -> Optional[Set[Tuple[str, str]]]:
    """The (function, label) blocks whose bytes differ between ``old``
    and ``new``, added and removed blocks included; None when the
    programs differ outside their blocks (threads, inputs, globals, the
    functions, a function's params or entry), so every case can change.

    Bytes, not ``==``: an IR expression's ``==`` builds a comparison
    node, so dataclass equality would ignore expressions.
    """
    if (tuple(old.threads) != tuple(new.threads)
            or old.inputs != new.inputs or old.globals != new.globals
            or old.functions.keys() != new.functions.keys()):
        return None
    changed: Set[Tuple[str, str]] = set()
    try:
        for fname, func in old.functions.items():
            other = new.functions[fname]
            if (tuple(func.params) != tuple(other.params)
                    or func.entry != other.entry):
                return None
            for label in func.blocks.keys() | other.blocks.keys():
                mine, theirs = func.blocks.get(label), other.blocks.get(label)
                if (mine is None or theirs is None
                        or encode_block(mine) != encode_block(theirs)):
                    changed.add((fname, label))
    except ProgramModelError:
        return None                # a block the codec cannot write
    return changed


class FixValidator:
    """Runs the suite on original and fixed programs and compares.

    ``table`` holds the original program's results; validators of one
    program version may share it (the hive does). :meth:`validated`
    hands back the fixed program a validation ran and its results, so
    deploying the fix neither re-applies it nor re-runs its cases.
    """

    def __init__(self, program: Program,
                 limits: Optional[ExecutionLimits] = None,
                 suite: Optional[List[ValidationCase]] = None,
                 with_faults: bool = False):
        self.program = program
        self.limits = limits or ExecutionLimits()
        self.suite = suite if suite is not None else make_validation_suite(
            program, with_faults=with_faults)
        self.table = ValidationTable()
        self._validated: Dict[int, Tuple[Fix, Program, ValidationTable]] = {}

    def validated(self, fix: Fix) -> Tuple[Program, ValidationTable]:
        """The fixed program :meth:`validate` built for ``fix``, and
        each case's result on it."""
        _fix, fixed, table = self._validated[id(fix)]
        return fixed, table

    def validate(self, fix: Fix) -> ValidationReport:
        fixed = fix.apply(self.program)
        changed = changed_blocks(self.program, fixed)
        results = ValidationTable()
        report = ValidationReport(fix_id=fix.fix_id)
        for case in self.suite:
            key = case.key
            before = self.table.get(key)
            if before is None:
                before = self.table.put(key, self._run(self.program, case))
            if changed is not None and changed.isdisjoint(before.entered):
                after = results.put(key, before)
            else:
                after = results.put(key, self._run(fixed, case))
            report.cases_run += 1
            if before.outcome is Outcome.OK:
                # A previously-successful run must stay successful AND
                # observationally identical: same per-thread results and
                # same final global state. Recovery stubs deliberately
                # raise a global flag, so a fix that reroutes healthy
                # code through recovery is caught right here.
                same_result = (after.outcome is Outcome.OK
                               and after.return_values == before.return_values
                               and after.final_globals == before.final_globals)
                if same_result:
                    report.still_ok += 1
                else:
                    report.regressions += 1
                    if len(report.regression_examples) < 5:
                        report.regression_examples.append(case)
            else:
                if after.outcome is Outcome.OK:
                    report.mitigated += 1
                else:
                    report.unmitigated += 1
        # Keyed by identity; holding the fix keeps its id from reuse.
        self._validated[id(fix)] = (fix, fixed, results)
        return report

    def _run(self, program: Program, case: ValidationCase) -> CaseResult:
        if case.schedule_seed is None:
            scheduler = RoundRobinScheduler()
        else:
            scheduler = RandomScheduler(
                rng=make_rng(case.schedule_seed, "validate"))
        fault_plan = FaultPlan()
        if case.fault_read_occurrence is not None:
            fault_plan = FaultPlan(
                forced={case.fault_read_occurrence: 0})
        environment = Environment(fault_plan=fault_plan)
        entered: Set[Tuple[str, str]] = set()
        result = Interpreter(program, limits=self.limits).run(
            case.inputs, environment=environment, scheduler=scheduler,
            entered=entered)
        return CaseResult(result.outcome,
                          tuple(sorted(result.return_values.items())),
                          tuple(sorted(result.final_globals.items())),
                          frozenset(entered))
