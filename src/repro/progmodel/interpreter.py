"""Concrete multi-threaded interpreter for the program IR.

The interpreter plays two roles:

* **Pod-side (live) execution** — run a program on a concrete input
  vector under a scheduler, emitting the execution *by-products* the
  paper cares about: one event per input-dependent branch, lock
  acquire/release events, syscall return values, scheduling decisions,
  and the execution outcome.

* **Hive-side replay** — run the *same* interpreter with *unknown*
  inputs, consuming a recorded trace (branch bits, syscall returns,
  schedule). Untainted ("deterministic") computation is reconstructed
  concretely; only the recorded bits are consumed at input-dependent
  decision points. This is exactly the paper's "reconstructing the
  deterministic branches" step of tree merging (Sec. 3.2), and it never
  needs a constraint solver because the path really happened.

Values are ``(int | None, tainted: bool)`` pairs: ``None`` appears only
during replay, for data derived from inputs the hive does not know.

Both roles run the same code: each block of a program is lowered, on
first entry, into a list of closures (one per instruction, terminator
last), cached per program, and the step loop makes one call per step.
"""

from __future__ import annotations

import random
import sys
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError, ScheduleError, TraceError
from repro.progmodel.ir import (
    COMPARISONS,
    INTEGER_OPS,
    Assert,
    Assign,
    BinOp,
    Branch,
    Call,
    Const,
    Crash,
    Expr,
    Halt,
    Input,
    Jump,
    LoadGlobal,
    Lock,
    Program,
    Return,
    StoreGlobal,
    Syscall,
    UnOp,
    Unlock,
    Var,
)

__all__ = [
    "Outcome", "InputVector", "Environment", "FaultPlan", "ExecutionLimits",
    "Event", "BranchEvent", "LockEvent", "SyscallEvent", "SchedEvent",
    "GlobalEvent", "FailureInfo", "ExecutionResult", "Interpreter",
    "ReplaySource", "TraceExhausted", "slotted_dataclass",
]


class Outcome(Enum):
    """Terminal outcome of one execution — the trace's success label."""

    OK = "ok"
    CRASH = "crash"
    ASSERT = "assert"
    DEADLOCK = "deadlock"
    HANG = "hang"

    @property
    def is_failure(self) -> bool:
        return self is not Outcome.OK


InputVector = Dict[str, int]

# A value during interpretation: concrete int (or None when unknown in
# replay), plus two taint bits. ``ext`` marks data derived from any
# program-external source (inputs or syscall returns); ``inp`` marks
# data derived from *inputs* specifically. The distinction matters at
# replay time: syscall returns travel in the trace, so ext-but-not-inp
# data is reconstructable by the hive and costs no recorded branch bit,
# whereas inp data is unknown and each branch on it ships one bit —
# exactly the paper's "one bit per input-dependent branch".
Value = Tuple[Optional[int], bool, bool]


# --------------------------------------------------------------------------
# Events (the raw by-products; the tracing layer filters/encodes these)
# --------------------------------------------------------------------------

# Events, like the per-run records of the pod and the executor
# (``PodRun``, ``PlannedRun``, ``RunRecord``, ``BatchEntry``), are
# allocated on the hot path; ``slots=True`` (3.10+) drops the
# per-instance dict. Field set, equality, and repr are identical
# either way.
if sys.version_info >= (3, 10):
    slotted_dataclass = dataclass(slots=True)
    _frozen_eventclass = dataclass(slots=True, frozen=True)
else:  # pragma: no cover - 3.9 compatibility fallback
    slotted_dataclass = dataclass
    _frozen_eventclass = dataclass(frozen=True)


@slotted_dataclass
class BranchEvent:
    """One dynamic conditional decision.

    ``tainted`` marks decisions on program-external data (inputs or
    syscall returns) — these form the execution's path identity.
    ``input_dependent`` marks the subset whose direction the hive
    cannot reconstruct (depends on raw inputs): only those ship one
    recorded bit each; everything else is rebuilt by replay — the
    paper's key capture-cost reduction (Sec. 3.1).
    ``kind`` is "branch" for CFG branches and "assert" for assertion
    checks, which are conditionals for trace purposes.
    """
    thread: int
    function: str
    block: str
    taken: bool
    tainted: bool
    kind: str = "branch"
    input_dependent: bool = False

    @property
    def site(self) -> Tuple[int, str, str]:
        return (self.thread, self.function, self.block)


@slotted_dataclass
class LockEvent:
    """op is "acquire" (granted), "release", or "request" (may block)."""
    thread: int
    op: str
    lock_name: str
    function: str
    block: str


@slotted_dataclass
class SyscallEvent:
    thread: int
    name: str
    value: int


@slotted_dataclass
class GlobalEvent:
    """One shared-variable access: op is "read" or "write".

    ``held_locks`` snapshots the accessing thread's lock set — the
    input to Eraser-style lockset race detection. Like lock events,
    these are by-products the hive reconstructs via replay; they cost
    nothing on the wire.
    """
    thread: int
    op: str
    name: str
    function: str
    block: str
    held_locks: Tuple[str, ...] = ()


@_frozen_eventclass
class SchedEvent:
    """One scheduling decision: which thread ran the next step.

    Frozen, so the step loop appends one shared event per thread id
    (see :meth:`_Lowered.sched_events`) instead of allocating one per
    step."""
    thread: int


Event = object  # union of the event classes above; kept loose for speed


@dataclass
class FailureInfo:
    """Where and why an execution failed."""
    outcome: Outcome
    message: str
    thread: int
    function: str
    block: str


@dataclass
class ExecutionResult:
    """Everything one execution produced.

    ``events`` is the full ordered by-product stream; the tracing layer
    turns it into a compact wire trace. ``branch_bits`` is the
    convenience projection used everywhere: the directions of tainted
    conditionals, in order.
    """
    program_name: str
    program_version: int
    outcome: Outcome
    events: List[Event]
    steps: int
    failure: Optional[FailureInfo] = None
    return_values: Dict[int, Optional[int]] = field(default_factory=dict)
    final_globals: Dict[str, Optional[int]] = field(default_factory=dict)

    @property
    def branch_bits(self) -> List[bool]:
        """Directions of input-dependent conditionals — the bit-vector
        a pod ships (1 bit per branch the hive cannot reconstruct)."""
        return list(self._by_products()[0])

    @property
    def branch_events(self) -> List[BranchEvent]:
        return list(self._by_products()[1])

    @property
    def tainted_branch_events(self) -> List[BranchEvent]:
        return list(self._by_products()[2])

    @property
    def lock_events(self) -> List[LockEvent]:
        return list(self._by_products()[3])

    @property
    def global_events(self) -> List["GlobalEvent"]:
        return list(self._by_products()[4])

    @property
    def syscall_values(self) -> List[int]:
        return list(self._by_products()[5])

    @property
    def schedule_picks(self) -> List[int]:
        return list(self._by_products()[6])

    @property
    def path_decisions(self) -> List[Tuple[Tuple[int, str, str], bool]]:
        """(site, taken) decisions at tainted conditionals — the path
        identity used by the collective execution tree."""
        return list(self._by_products()[7])

    def _by_products(self) -> Tuple[list, ...]:
        """Every projection above, split from ``events`` in one pass on
        the first read. The parts live in the instance dict, outside
        the fields, so ``==`` and ``repr`` do not see them."""
        split = self.__dict__.get("_split")
        if split is None:
            split = self.__dict__["_split"] = ([], [], [], [], [], [], [], [])
            bits, branches, tainted, locks, globals_, syscalls, picks, path \
                = split
            for event in self.events:
                kind = type(event)
                if kind is SchedEvent:
                    picks.append(event.thread)
                elif kind is BranchEvent:
                    branches.append(event)
                    if event.input_dependent:
                        bits.append(event.taken)
                    if event.tainted:
                        tainted.append(event)
                        path.append((event.site, event.taken))
                elif kind is GlobalEvent:
                    globals_.append(event)
                elif kind is LockEvent:
                    locks.append(event)
                elif kind is SyscallEvent:
                    syscalls.append(event.value)
        return split


# --------------------------------------------------------------------------
# Environment: the syscall model
# --------------------------------------------------------------------------

@dataclass
class FaultPlan:
    """Forces specific syscalls (by global occurrence index) to fail.

    Used by the guidance layer (Sec. 3.3: "system call faults to be
    injected, e.g. a short socket read()").
    """
    forced: Dict[int, int] = field(default_factory=dict)

    def override(self, occurrence: int) -> Optional[int]:
        return self.forced.get(occurrence)


class Environment:
    """Models the program-external world reachable through syscalls.

    Supported syscalls (all integer in/out):

    * ``open(path_id)`` — returns a fresh fd, or -1 on failure.
    * ``read(fd, n)`` / ``recv(fd, n)`` — returns bytes transferred;
      possibly a *short* count (< n) or -1 when faulty.
    * ``write(fd, n)`` — returns n or -1.
    * ``close(fd)`` — 0 or -1.
    * ``time()`` — a monotonically increasing virtual timestamp.
    * ``rand(m)`` — uniform in [0, m).

    ``fault_rate`` is the natural probability of a degraded result;
    a :class:`FaultPlan` can force failures deterministically
    (``fault_plan`` is None when none is given). Draws come from
    ``rng``, or else from a generator seeded with ``seed`` on the first
    draw.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 fault_rate: float = 0.0,
                 fault_plan: Optional[FaultPlan] = None,
                 seed: int = 0):
        self._rng = rng
        self._seed = seed
        self.fault_rate = fault_rate
        self.fault_plan = fault_plan
        self._clock = 0
        self._open_fds: set = set()
        self._occurrence = 0

    def call(self, name: str, args: Sequence[int]) -> int:
        """Execute one syscall and return its integer result."""
        occurrence = self._occurrence
        self._occurrence += 1
        if self.fault_plan is not None:
            forced = self.fault_plan.override(occurrence)
            if forced is not None:
                return forced
        faulty = (self.fault_rate > 0.0
                  and self._random().random() < self.fault_rate)
        return self._dispatch(name, list(args), faulty)

    def _random(self) -> random.Random:
        """The generator, seeded from ``seed`` on the first draw, so a
        run that makes no draw never pays for seeding one."""
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    def _dispatch(self, name: str, args: List[int], faulty: bool) -> int:
        if name == "open":
            if faulty:
                return -1
            # Lowest free descriptor >= 3, POSIX-style: a program that
            # closes what it opens sees a stable fd; one that leaks
            # watches its descriptors climb (the LEAK bug family).
            fd = 3
            while fd in self._open_fds:
                fd += 1
            self._open_fds.add(fd)
            return fd
        if name in ("read", "recv"):
            requested = args[1] if len(args) > 1 else (args[0] if args else 0)
            requested = max(0, requested)
            if faulty:
                # Short read: strictly less than requested (possibly 0).
                return self._random().randrange(0, requested) if requested > 0 else -1
            return requested
        if name == "write":
            requested = args[1] if len(args) > 1 else (args[0] if args else 0)
            return -1 if faulty else max(0, requested)
        if name == "close":
            if faulty:
                return -1
            fd = args[0] if args else -1
            if fd in self._open_fds:
                self._open_fds.discard(fd)
                return 0
            return -1
        if name == "time":
            self._clock += 1
            return self._clock
        if name == "rand":
            bound = args[0] if args and args[0] > 0 else 2
            return self._random().randrange(bound)
        # Unknown syscalls behave as benign no-ops returning 0 (or -1 when
        # faulty) so corpora can invent descriptive names freely.
        return -1 if faulty else 0


# --------------------------------------------------------------------------
# Replay source (hive side)
# --------------------------------------------------------------------------

class TraceExhausted(TraceError):
    """A replay consumed all recorded bits before the execution ended.

    For full traces this means corruption or a program-version
    mismatch; for deliberately truncated (privacy-coarsened) traces it
    is the expected end of the recorded prefix —
    :meth:`Interpreter.replay_prefix` catches it.
    """


class ReplaySource:
    """Feeds recorded nondeterminism back into the interpreter.

    Exhaustion of the bit stream mid-replay raises
    :class:`TraceExhausted` (a :class:`TraceError`): corruption for
    full traces, the expected end for truncated ones. The streams are
    consumed lazily, so any iterable works, a generator included.

    ``next_pick()`` returns the next recorded schedule pick, or None
    once the schedule ends. It is ``next`` bound to the pick stream
    (a ``functools.partial``), so the step loop's per-step call runs
    in C.
    """

    def __init__(self, branch_bits: Sequence[bool],
                 syscall_returns: Sequence[int],
                 schedule_picks: Sequence[int]):
        self._bits: Iterator[bool] = iter(branch_bits)
        self._sys: Iterator[int] = iter(syscall_returns)
        self._sched: Iterator[int] = iter(schedule_picks)
        self.next_pick = partial(next, self._sched, None)

    def next_bit(self) -> bool:
        try:
            return next(self._bits)
        except StopIteration:
            raise TraceExhausted("replay ran out of branch bits")

    def next_syscall(self) -> int:
        try:
            return next(self._sys)
        except StopIteration:
            raise TraceError("replay ran out of syscall returns")

    def unconsumed(self) -> Optional[str]:
        """The first recorded stream with items left over, if any."""
        for name, stream in (("branch bits", self._bits),
                             ("syscall returns", self._sys),
                             ("schedule picks", self._sched)):
            for _item in stream:
                return name
        return None


# --------------------------------------------------------------------------
# Interpreter internals
# --------------------------------------------------------------------------

class _Frame:
    """One call frame: ``code`` is the current block's lowered op list
    and ``index`` the next op in it; ``function``/``block`` name the
    position for failure sites."""

    __slots__ = ("function", "block", "index", "locals", "return_dst",
                 "code")

    def __init__(self, function: str, block: str, locals: Dict[str, Value],
                 return_dst: Optional[str], code: list):
        self.function = function
        self.block = block
        self.index = 0
        self.locals = locals
        self.return_dst = return_dst
        self.code = code


class _Thread:
    __slots__ = ("tid", "frames", "status", "blocked_on", "held", "return_value")

    def __init__(self, tid: int, frame: _Frame):
        self.tid = tid
        self.frames: List[_Frame] = [frame]
        self.status = "runnable"  # runnable | blocked | done
        self.blocked_on: Optional[str] = None
        self.held: List[str] = []
        self.return_value: Optional[int] = None


class _Run:
    """The state of one execution that lowered ops read and write.
    ``inputs`` is None during replay, where ``replay`` supplies the
    recorded nondeterminism instead."""

    __slots__ = ("inputs", "replay", "environment", "events", "globals",
                 "lock_owner", "threads", "max_call_depth", "entered")


@dataclass
class ExecutionLimits:
    """Bounds that turn non-termination into a HANG outcome."""
    max_steps: int = 20_000
    max_call_depth: int = 64


def _crashes_on_zero(fn, message: str):
    """``fn`` with a zero divisor turned into the running frame's
    CRASH, ``message`` its failure message."""
    def checked(a: int, b: int) -> int:
        if b == 0:
            raise _ProgramFailure(message)
        return fn(a, b)
    return checked


def _as_int(compare):
    """A comparison whose bool becomes 1 or 0: values must stay exactly
    ``int`` (a ``bool`` would leak into reprs of globals/returns and
    change report bytes)."""
    return lambda a, b: 1 if compare(a, b) else 0


# Binary operators on known values: the IR's shared semantics
# (``repro.progmodel.ir``), with a zero divisor crashing the run.
_BINOPS = {op: _as_int(compare) for op, compare in COMPARISONS.items()}
_BINOPS.update(INTEGER_OPS)
_BINOPS["//"] = _crashes_on_zero(INTEGER_OPS["//"], "division by zero")
_BINOPS["%"] = _crashes_on_zero(INTEGER_OPS["%"], "modulo by zero")


class _ProgramFailure(Exception):
    """Internal control flow: a division or modulo by zero mid-evaluation;
    the step loop turns it into a CRASH at the running frame."""


class Interpreter:
    """Executes a :class:`Program` and collects its by-products.

    One interpreter instance is single-use per ``run``/``replay`` call;
    it holds no state between executions. The program's code is lowered
    into closures once (see :func:`_lowered`) and shared by every
    interpreter that runs it.
    """

    def __init__(self, program: Program,
                 limits: Optional[ExecutionLimits] = None):
        self.program = program
        self.limits = limits or ExecutionLimits()

    # -- public entry points -------------------------------------------------

    def run(self, inputs: InputVector,
            environment: Optional[Environment] = None,
            scheduler=None,
            entered: Optional[Set[Tuple[str, str]]] = None,
            ) -> ExecutionResult:
        """Execute concretely on ``inputs`` (pod side).

        ``entered``, when given, gains ``(function, label)`` for each
        block whose first op runs (fix validation reads it to skip the
        cases a fix cannot reach); the run then uses a recording copy
        of the lowered code, so runs without it execute the same ops.
        """
        self._validate_inputs(inputs)
        return self._execute(dict(inputs), None, environment or Environment(),
                             scheduler, [], entered)

    def replay(self, source: ReplaySource) -> ExecutionResult:
        """Reconstruct an execution from a recorded trace (hive side).

        A trace whose recorded nondeterminism outlasts the execution is
        corrupt: the first stream left unconsumed is named in a
        :class:`TraceError`.
        """
        result = self._execute(None, source, None, None, [])
        leftover = source.unconsumed()
        if leftover is not None:
            raise TraceError(f"replay left recorded {leftover} unconsumed")
        return result

    def replay_prefix(self, source: ReplaySource) -> List[Tuple]:
        """Reconstruct as much of an execution as a (possibly
        truncated) trace allows; returns the decision-path prefix.

        Used for privacy-coarsened traces (Sec. 3.1): the retained bit
        prefix still pins down a path *prefix*, which merges into the
        collective tree as partial evidence.
        """
        events: List[Event] = []
        try:
            return self._execute(None, source, None, None, events).path_decisions
        except TraceExhausted:
            return [(e.site, e.taken) for e in events
                    if isinstance(e, BranchEvent) and e.tainted]

    # -- helpers ----------------------------------------------------------------

    def _validate_inputs(self, inputs: InputVector) -> None:
        for name, (lo, hi) in self.program.inputs.items():
            if name not in inputs:
                raise ExecutionError(f"missing input {name!r}")
            if not lo <= inputs[name] <= hi:
                raise ExecutionError(
                    f"input {name!r}={inputs[name]} outside domain [{lo},{hi}]")
        for name in inputs:
            if name not in self.program.inputs:
                raise ExecutionError(f"unknown input {name!r}")

    # -- main loop -------------------------------------------------------------

    def _execute(self, inputs, replay, environment, scheduler,
                 events: List[Event], entered=None) -> ExecutionResult:
        program = self.program
        lowered = _lowered(program)
        if entered is not None:
            lowered = lowered.recording()
        run = _Run()
        run.inputs, run.replay, run.environment = inputs, replay, environment
        run.events, run.lock_owner, run.threads = events, {}, []
        run.entered = entered
        initial_globals, entries = lowered.start()
        run.globals = initial_globals.copy()
        run.max_call_depth = self.limits.max_call_depth
        threads = run.threads
        for tid, (function, label, code) in enumerate(entries):
            threads.append(_Thread(tid, _Frame(
                function, label, {}, None, code)))

        # The runnable set changes only when an op reports _CHANGED (a
        # thread blocked, woke or finished); it is then rebuilt, never
        # changed in place, so the scheduler is handed the list itself.
        next_pick = replay.next_pick if replay is not None else None
        pick = scheduler.pick if scheduler else None
        max_steps = self.limits.max_steps
        append = events.append
        sched_events = lowered.sched_events()
        failure: Optional[FailureInfo] = None
        runnable: Optional[List[int]] = None
        steps = 0
        while True:
            if runnable is None:
                runnable = [t.tid for t in threads if t.status == "runnable"]
                if not runnable:
                    for victim in threads:
                        if victim.status == "blocked":
                            break
                    else:
                        break                  # every thread is done
                    frame = victim.frames[-1]
                    failure = FailureInfo(
                        Outcome.DEADLOCK,
                        f"deadlock: thread {victim.tid} blocked on"
                        f" lock {victim.blocked_on!r}",
                        victim.tid, frame.function, frame.block)
                    break
            if steps >= max_steps:
                frame = threads[runnable[0]].frames[-1]
                failure = FailureInfo(
                    Outcome.HANG, "step budget exhausted",
                    runnable[0], frame.function, frame.block)
                break

            if next_pick is not None:
                tid = next_pick()
                if tid is None:
                    # Trace ended with threads still live: the recorded
                    # run stopped here (e.g. HANG cut off at the budget);
                    # follow round-robin for any residual steps.
                    tid = runnable[steps % len(runnable)]
                elif tid not in runnable:
                    raise TraceError(
                        f"recorded schedule picks thread {tid}, not runnable")
            elif pick is not None:
                tid = pick(steps, runnable)
                if tid not in runnable:
                    raise ScheduleError(
                        f"scheduler picked thread {tid}, not in runnable"
                        f" set {runnable}")
            else:
                tid = runnable[steps % len(runnable)]
            append(sched_events[tid])
            steps += 1
            thread = threads[tid]
            frame = thread.frames[-1]
            try:
                signal = frame.code[frame.index](run, thread, frame)
            except _ProgramFailure as exc:
                failure = FailureInfo(Outcome.CRASH, exc.args[0], tid,
                                      frame.function, frame.block)
                break
            if signal is not None:
                if signal is not _CHANGED:
                    failure = signal
                    break
                runnable = None

        # Loops, not comprehensions: a comprehension makes a function
        # call, and most programs have one thread and no globals.
        return_values = {}
        for thread in threads:
            return_values[thread.tid] = thread.return_value
        final_globals = {}
        for name, (value, _e, _i) in run.globals.items():
            final_globals[name] = value
        return ExecutionResult(
            program.name, program.version,
            failure.outcome if failure is not None else Outcome.OK,
            events, steps, failure, return_values, final_globals)


# --------------------------------------------------------------------------
# Lowering: each block becomes a list of closures on first entry
# --------------------------------------------------------------------------

# An op is ``op(run, thread, frame)``: it returns None to go on, _CHANGED
# after a thread blocked, woke or finished, or the FailureInfo that ends
# the execution. An expression is ``expr(locals, inputs) -> Value``.
_CHANGED = object()
_ZERO: Value = (0, False, False)
_UNKNOWN: Value = (None, True, True)

# Lowered code per live program, keyed by ``id(program)``. It lives
# outside the Program so clones, deep copies and pickles never carry
# stale code, and each entry's weak reference drops it when its program
# dies. Sound because programs are never changed after they run.
_LOWERED: Dict[int, "_Lowered"] = {}


def _lowered(program: Program) -> "_Lowered":
    entry = _LOWERED.get(id(program))
    if entry is None or entry.program() is not program:
        entry = _LOWERED[id(program)] = _Lowered(program)
    return entry


class _Lowered:
    """One program's lowered code: each block's op list, keyed by
    (function, label) and lowered on first entry.

    :meth:`recording` is the same program's second copy, whose blocks
    first add their (function, label) to the run's ``entered`` set.
    Its jumps and calls link to recording code only, so a run uses one
    copy throughout; the copy is built on first use, by validation."""

    __slots__ = ("program", "blocks", "records", "_recording",
                 "_sched_events", "_start")

    def __init__(self, program: Program, records: bool = False):
        key = id(program)
        self.program = weakref.ref(program,
                                   lambda _ref: _LOWERED.pop(key, None))
        self.blocks: Dict[Tuple[str, str], list] = {}
        self.records = records
        self._recording: Optional[_Lowered] = None
        self._sched_events: Optional[Tuple[SchedEvent, ...]] = None
        self._start: Optional[tuple] = None

    def recording(self) -> "_Lowered":
        if self._recording is None:
            self._recording = _Lowered(self.program(), records=True)
        return self._recording

    def sched_events(self) -> Tuple[SchedEvent, ...]:
        """One shared schedule event per thread id, made on first use."""
        if self._sched_events is None:
            self._sched_events = tuple(
                SchedEvent(tid) for tid in range(len(self.program().threads)))
        return self._sched_events

    def start(self) -> Tuple[Dict[str, Value],
                             Tuple[Tuple[str, str, list], ...]]:
        """What every run starts from, made on first use: the initial
        globals (each run copies them) and each thread's entry
        ``(function, label, code)``."""
        if self._start is None:
            program = self.program()
            entries = []
            for function in program.threads:
                label = program.function(function).entry
                entries.append((function, label, self.code(function, label)))
            self._start = ({name: (value, False, False)
                            for name, value in program.globals.items()},
                           tuple(entries))
        return self._start

    def code(self, fname: str, label: str) -> list:
        """The ops of block ``label`` in ``fname``, lowered on first use;
        a missing function or block raises here, at the transfer."""
        code = self.blocks.get((fname, label))
        if code is None:
            block = self.program().function(fname).block(label)
            code = _lower_block(self, fname, label, block)
            if self.records:
                code[0] = _entering((fname, label), code[0])
            self.blocks[fname, label] = code
        return code


def _entering(site: Tuple[str, str], first):
    """``first``, preceded by recording that its block was entered."""
    def op(run, thread, frame):
        run.entered.add(site)
        return first(run, thread, frame)
    return op


def _raiser(error: type, message: str):
    """An op or expression that fails when reached: malformed code
    raises at the step that runs it, never at lowering."""
    def fail(*_args):
        raise error(message)
    return fail


def _lower_block(lowered: _Lowered, fname: str, label: str, block) -> list:
    code = []
    for instr in block.instructions:
        lower = _LOWER_INSTRUCTION.get(type(instr))
        code.append(_raiser(ExecutionError, f"unknown instruction {instr!r}")
                    if lower is None else lower(lowered, fname, label, instr))
    term = block.terminator
    if isinstance(term, Jump):
        code.append(_lower_jump(lowered, fname, term.target))
    elif isinstance(term, Branch):
        code.append(_lower_branch(lowered, fname, label, term))
    elif isinstance(term, Return):
        code.append(_lower_return(_lower_expr(term.value)))
    elif isinstance(term, Halt):
        code.append(_halt)
    else:
        code.append(_raiser(ExecutionError,
                            f"block {label!r} has no terminator"))
    return code


def _replay_bit(run: _Run, input_dependent: bool) -> bool:
    """Resolve a conditional on an unknown value: only replay meets
    one, and only an input-dependent one consumes a recorded bit."""
    if run.replay is None:
        raise ExecutionError("unknown value outside replay mode")
    if not input_dependent:
        raise TraceError("non-input condition has unknown value")
    return run.replay.next_bit()


def _wake(run: _Run, lock_name: str):
    """Threads blocked on this lock become runnable again (they retry
    the Lock instruction when next scheduled); _CHANGED if any did."""
    woke = None
    for thread in run.threads:
        if thread.status == "blocked" and thread.blocked_on == lock_name:
            thread.status = "runnable"
            thread.blocked_on = None
            woke = _CHANGED
    return woke


def _finish(run: _Run, thread: _Thread):
    thread.status = "done"
    # A finished thread releases anything it still holds, so model
    # programs that forget an Unlock do not wedge the whole run.
    for lock_name in thread.held:
        run.lock_owner[lock_name] = None
        _wake(run, lock_name)
    thread.held.clear()
    return _CHANGED


def _lower_assign(lowered, fname, label, instr):
    dst, expr = instr.dst, _lower_expr(instr.expr)

    def op(run, thread, frame):
        frame.locals[dst] = expr(frame.locals, run.inputs)
        frame.index += 1
    return op


def _lower_store_global(lowered, fname, label, instr):
    name, expr = instr.name, _lower_expr(instr.expr)

    def op(run, thread, frame):
        run.globals[name] = expr(frame.locals, run.inputs)
        run.events.append(GlobalEvent(thread.tid, "write", name, fname,
                                      label, tuple(thread.held)))
        frame.index += 1
    return op


def _lower_load_global(lowered, fname, label, instr):
    dst, name = instr.dst, instr.name

    def op(run, thread, frame):
        frame.locals[dst] = run.globals.get(name, _ZERO)
        run.events.append(GlobalEvent(thread.tid, "read", name, fname,
                                      label, tuple(thread.held)))
        frame.index += 1
    return op


def _lower_lock(lowered, fname, label, instr):
    name = instr.lock_name

    def op(run, thread, frame):
        owner = run.lock_owner.get(name)
        if owner is None:
            run.lock_owner[name] = thread.tid
            thread.held.append(name)
            run.events.append(LockEvent(thread.tid, "acquire", name,
                                        fname, label))
            frame.index += 1
            return None
        # Held by another thread, or by this one: re-acquiring a held
        # lock self-deadlocks in this model.
        thread.status = "blocked"
        thread.blocked_on = name
        run.events.append(LockEvent(thread.tid, "request", name,
                                    fname, label))
        return _CHANGED
    return op


def _lower_unlock(lowered, fname, label, instr):
    name = instr.lock_name
    message = f"unlock of lock {name!r} not held"

    def op(run, thread, frame):
        if run.lock_owner.get(name) != thread.tid:
            return FailureInfo(Outcome.CRASH, message, thread.tid,
                               fname, label)
        run.lock_owner[name] = None
        thread.held.remove(name)
        run.events.append(LockEvent(thread.tid, "release", name,
                                    fname, label))
        frame.index += 1
        return _wake(run, name)
    return op


def _lower_syscall(lowered, fname, label, instr):
    dst, name = instr.dst, instr.name
    args = [_lower_expr(arg) for arg in instr.args]

    def op(run, thread, frame):
        inputs = run.inputs
        if inputs is None:
            value = run.replay.next_syscall()
        else:
            values = []
            for arg in args:
                value = arg(frame.locals, inputs)[0]
                if value is None:
                    raise TraceError("syscall argument unknown during live run")
                values.append(value)
            value = run.environment.call(name, values)
        run.events.append(SyscallEvent(thread.tid, name, value))
        # Syscall results are program-external (ext) but travel in
        # the trace, so the hive can reconstruct them (not inp).
        frame.locals[dst] = (value, True, False)
        frame.index += 1
    return op


def _lower_assert(lowered, fname, label, instr):
    cond, message = _lower_expr(instr.cond), instr.message

    def op(run, thread, frame):
        value, ext, inp = cond(frame.locals, run.inputs)
        passed = value != 0 if value is not None else _replay_bit(run, inp)
        run.events.append(BranchEvent(thread.tid, fname, label, passed, ext,
                                      "assert", inp))
        if not passed:
            return FailureInfo(Outcome.ASSERT, message, thread.tid,
                               fname, label)
        frame.index += 1
    return op


def _lower_crash(lowered, fname, label, instr):
    message = instr.message
    return lambda run, thread, frame: FailureInfo(
        Outcome.CRASH, message, thread.tid, fname, label)


def _lower_call(lowered, fname, label, instr):
    name, dst = instr.callee, instr.dst
    args = [_lower_expr(arg) for arg in instr.args]
    callee = params = entry = None

    def op(run, thread, frame):
        nonlocal callee, params, entry
        frames = thread.frames
        if len(frames) >= run.max_call_depth:
            return FailureInfo(Outcome.CRASH, "call depth exceeded",
                               thread.tid, fname, label)
        if callee is None:
            callee = lowered.program().function(name)
            params = tuple(zip(callee.params, args))
        local, inputs = frame.locals, run.inputs
        values = {param: arg(local, inputs) for param, arg in params}
        if entry is None:
            entry = lowered.code(name, callee.entry)
        frames.append(_Frame(name, callee.entry, values, dst, entry))
    return op


def _lower_jump(lowered, fname, target):
    code = None

    def op(run, thread, frame):
        nonlocal code
        if code is None:
            code = lowered.code(fname, target)
        frame.code = code
        frame.block = target
        frame.index = 0
    return op


def _lower_branch(lowered, fname, label, term):
    """The branch op installs its target's code itself, resolving each
    target on its first use, as a jump does."""
    cond = _lower_expr(term.cond)
    then_label, else_label = term.then_block, term.else_block
    then_code = else_code = None

    def op(run, thread, frame):
        nonlocal then_code, else_code
        value, ext, inp = cond(frame.locals, run.inputs)
        taken = value != 0 if value is not None else _replay_bit(run, inp)
        run.events.append(BranchEvent(thread.tid, fname, label, taken, ext,
                                      "branch", inp))
        if taken:
            if then_code is None:
                then_code = lowered.code(fname, then_label)
            frame.code = then_code
            frame.block = then_label
        else:
            if else_code is None:
                else_code = lowered.code(fname, else_label)
            frame.code = else_code
            frame.block = else_label
        frame.index = 0
    return op


def _lower_return(value_of):
    def op(run, thread, frame):
        value = value_of(frame.locals, run.inputs)
        frames = thread.frames
        frames.pop()
        if frames:
            caller = frames[-1]
            if frame.return_dst is not None:
                caller.locals[frame.return_dst] = value
            caller.index += 1
            return None
        thread.return_value = value[0]
        return _finish(run, thread)
    return op


def _halt(run, thread, frame):
    thread.frames.clear()
    return _finish(run, thread)


_LOWER_INSTRUCTION = {
    Assign: _lower_assign,
    StoreGlobal: _lower_store_global,
    LoadGlobal: _lower_load_global,
    Lock: _lower_lock,
    Unlock: _lower_unlock,
    Syscall: _lower_syscall,
    Assert: _lower_assert,
    Crash: _lower_crash,
    Call: _lower_call,
}


def _lower_expr(expr: Expr):
    # Exact-type tests: the IR node classes are closed (no subclasses).
    kind = type(expr)
    if kind is Var:
        name = expr.name
        # Uninitialised locals read as 0, like the paper's C-ish target
        # language would after memset — keeps generated corpora robust.
        return lambda local, inputs: local.get(name, _ZERO)
    if kind is Const:
        value = (expr.value, False, False)
        return lambda local, inputs: value
    if kind is Input:
        name = expr.name

        def read_input(local, inputs):
            if inputs is None:
                return _UNKNOWN
            value = inputs.get(name)
            if value is None:
                raise ExecutionError(f"input {name!r} not supplied")
            return (value, True, True)
        return read_input
    if kind is BinOp:
        return _lower_binop(expr)
    if kind is UnOp:
        operand, neg = _lower_expr(expr.operand), expr.op == "neg"

        def unop(local, inputs):
            value, ext, inp = operand(local, inputs)
            if value is None:
                return _UNKNOWN
            return (-value if neg else int(value == 0), ext, inp)
        return unop
    return _raiser(ExecutionError, f"cannot evaluate {expr!r}")


def _lower_binop(expr: BinOp):
    op = expr.op
    left, right = expr.left, expr.right
    if (op in _BINOPS and type(left) is Var and type(right) is Const
            and type(right.value) is int):
        return _lower_var_const(op, left.name, right.value)
    left, right = _lower_expr(left), _lower_expr(right)
    fn = _BINOPS.get(op)
    if fn is None:
        def fn(a, b):
            raise ExecutionError(f"unknown operator {op!r}")

    def binop(local, inputs):
        a, ae, ai = left(local, inputs)
        b, be, bi = right(local, inputs)
        if a is None or b is None:
            return _UNKNOWN
        return (fn(a, b), ae or be, ai or bi)
    return binop


def _lower_var_const(op: str, name: str, b: int):
    """``local <op> constant`` fused into one closure. The constant's
    taint bits are False, so the local's are the result's; a
    comparison calls the C function from :mod:`operator` and makes the
    bool an ``int``, exactly as its ``_BINOPS`` entry does."""
    compare = COMPARISONS.get(op)
    if compare is not None:
        def var_compare(local, inputs):
            a, ext, inp = local.get(name, _ZERO)
            if a is None:
                return _UNKNOWN
            return (int(compare(a, b)), ext, inp)
        return var_compare
    fn = _BINOPS[op]

    def var_const(local, inputs):
        a, ext, inp = local.get(name, _ZERO)
        if a is None:
            return _UNKNOWN
        return (fn(a, b), ext, inp)
    return var_const
