"""Symbolic executor over the program IR.

Explores the *feasible* execution tree of a (single-threaded view of a)
program: inputs are symbolic, deterministic computation folds to
constants, and every branch on a symbolic condition forks the state —
with each side's feasibility decided by the enumeration solver before
it is explored further. This is the classic King-style construction the
paper contrasts against dynamic tree building (Sec. 3.2), and the
oracle SoftBorg's prover and guidance layers lean on.

Scope notes (documented substitutions):

* Threads: the engine explores one thread function in isolation;
  schedule-dependent behaviour (deadlocks) is handled by concrete
  schedule exploration in the fixes/validation layer, not symbolically.
  Lock operations are tracked for self-deadlock only.
* Syscalls: ``symbolic_syscalls=False`` (default) models the
  fault-free environment deterministically, so the enumerated tree
  matches natural fault-free executions. With ``symbolic_syscalls=True``
  each ``open``/``read``/``recv``/``write`` return becomes a fresh
  bounded symbol, over-approximating all environment behaviours (used
  to reason about fault paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SymbolicError
from repro.obs import Instrumented
from repro.progmodel.interpreter import Outcome
from repro.progmodel.ir import (
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
)
from repro.symbolic.expr import evaluator, fold, substitute
from repro.symbolic.pathcond import PathCondition
from repro.symbolic.solver import EnumerationSolver, Model

__all__ = ["SymPath", "SymbolicLimits", "SymbolicEngine"]

Site = Tuple[int, str, str]
Decision = Tuple[Site, bool]


@dataclass
class SymPath:
    """One fully explored feasible path."""

    decisions: Tuple[Decision, ...]
    condition: PathCondition
    outcome: Outcome
    failure_message: Optional[str] = None
    example_inputs: Dict[str, int] = field(default_factory=dict)
    steps: int = 0


@dataclass
class SymbolicLimits:
    """Exploration budgets. Exceeding ``max_paths`` raises (the caller
    asked for an exhaustive answer it cannot have); exceeding
    ``max_steps`` on one path marks that path HANG, mirroring the
    concrete interpreter's budget semantics."""

    max_paths: int = 4096
    max_steps: int = 20_000
    max_call_depth: int = 64


@dataclass
class _SymFrame:
    function: str
    block: str
    index: int
    locals: Dict[str, Expr]
    return_dst: Optional[str] = None


@dataclass
class _SymState:
    frames: List[_SymFrame]
    globals: Dict[str, Expr]
    condition: PathCondition
    decisions: List[Decision]
    witness: Model
    held_locks: List[str]
    steps: int = 0
    syscall_counter: int = 0
    open_fds: Tuple[int, ...] = ()
    clock: int = 0
    pending_assert: Optional[Assert] = None
    assert_failed: Optional[str] = None

    def clone(self) -> "_SymState":
        return _SymState(
            frames=[_SymFrame(f.function, f.block, f.index, dict(f.locals),
                              f.return_dst) for f in self.frames],
            globals=dict(self.globals),
            condition=self.condition,
            decisions=list(self.decisions),
            witness=dict(self.witness),
            held_locks=list(self.held_locks),
            steps=self.steps,
            syscall_counter=self.syscall_counter,
            open_fds=self.open_fds,
            clock=self.clock,
            pending_assert=self.pending_assert,
            assert_failed=self.assert_failed,
        )


# What _advance_to_decision can yield.
_DONE = "done"
_Fork = Tuple[Site, Expr]


class _RecycleNode:
    """One node of the recycle trie: the state reached by forcing one
    sequence of fork decisions, advanced once to its next fork.

    ``fork`` is None until the first walk arrives, then ``(site, cond)``
    or :data:`_DONE` when the path ends before another fork. ``banks``
    are the slices a walk entering this node stores: the ``(key, order,
    symbols)`` of each slice of the extended condition that holds the
    new conjunct. ``state`` is dropped once both children exist or the
    node is terminal."""

    __slots__ = ("state", "fork", "children", "banks")

    def __init__(self, state: "_SymState", banks=()):
        self.state: Optional[_SymState] = state
        self.fork = None
        self.children: List[Optional[_RecycleNode]] = [None, None]
        self.banks = banks


class SymbolicEngine(Instrumented):
    """Feasible-path enumeration for one program."""

    obs_namespace = "symbolic"

    def __init__(self, program: Program,
                 solver: Optional[EnumerationSolver] = None,
                 limits: Optional[SymbolicLimits] = None,
                 symbolic_syscalls: bool = False,
                 syscall_read_size: int = 64,
                 cache=None):
        self.program = program
        self.solver = solver or EnumerationSolver(cache=cache)
        if cache is not None and self.solver.cache is None:
            self.solver.cache = cache
        self.limits = limits or SymbolicLimits()
        self.symbolic_syscalls = symbolic_syscalls
        self._read_size = syscall_read_size
        self._domains: Dict[str, Tuple[int, int]] = dict(program.inputs)
        self._recycle_root: Optional[_RecycleNode] = None
        #: Why the last :meth:`recycle_witness` walk diverged, or None.
        self.divergence: Optional[str] = None
        self._obs_paths = self.obs_counter("paths_explored")
        self._obs_solver_calls = self.obs_counter("solver_calls")
        self._obs_explore = self.obs_timer("explore")

    # -- public API -----------------------------------------------------------

    def explore(self, entry: Optional[str] = None) -> List[SymPath]:
        """Enumerate all feasible paths from ``entry`` (default: the
        program's first thread function)."""
        entry = entry or self.program.threads[0]
        return self._explore_from(self._initial_state(entry))

    def explore_function(self, function: str,
                         param_domains: Dict[str, Tuple[int, int]],
                         ) -> List[SymPath]:
        """Unit-level exploration: run ``function`` with each parameter
        a fresh unconstrained symbol over ``param_domains`` — the
        relaxed-consistency overapproximation (paper Sec. 4)."""
        func = self.program.function(function)
        locals_: Dict[str, Expr] = {}
        for param in func.params:
            symbol = f"__param_{param}"
            if param not in param_domains:
                raise SymbolicError(f"no domain for parameter {param!r}")
            self._domains[symbol] = param_domains[param]
            locals_[param] = Input(symbol)
        state = _SymState(
            frames=[_SymFrame(function, func.entry, 0, locals_)],
            globals={name: Const(value)
                     for name, value in self.program.globals.items()},
            condition=PathCondition(),
            decisions=[],
            witness={},
            held_locks=[],
        )
        return self._explore_from(state)

    def solve_prefix(self, decisions: Sequence[Decision],
                     ) -> Optional[Dict[str, int]]:
        """Find inputs that drive execution along ``decisions``.

        Walks the program symbolically, *forcing* each symbolic branch
        to the scripted direction; returns a satisfying input vector or
        None when the scripted path is infeasible or diverges (e.g. a
        decision that was syscall-fault-driven in the original run).
        This is the guidance layer's test-case generator (Sec. 3.3).
        """
        state = self._initial_state(self.program.threads[0])
        script = list(decisions)
        forced_last = not script  # empty script is trivially satisfied
        while script:
            step = self._advance_to_decision(state)
            if step == _DONE or isinstance(step, SymPath):
                return None  # path ended before reaching the gap
            site, cond = step
            # Recorded paths include decisions the engine resolves
            # concretely (syscall-return-driven branches under the
            # fault-free model); those never become fork points, so
            # skip script entries until one names this fork site. The
            # *final* entry — the direction the caller actually wants —
            # must be forced, never skipped.
            while script and script[0][0] != site:
                if len(script) == 1:
                    return None
                script.pop(0)
            if not script:
                break
            want_site, want_taken = script.pop(0)
            if not script:
                forced_last = True
            extended = state.condition.extended(cond, want_taken)
            model = self.solver.solve(extended, self._domains, state.witness)
            if model is None:
                return None
            state.condition = extended
            state.witness.update(model)
            state.decisions.append((site, want_taken))
            self._take_branch(state, want_taken)
        if not forced_last:
            return None
        inputs = {}
        for name, (lo, _hi) in self.program.inputs.items():
            inputs[name] = state.witness.get(name, lo)
        return inputs

    def recycle_witness(self, decisions: Sequence[Decision],
                        inputs: Mapping[str, int]) -> bool:
        """Recycle one concrete execution's by-products into the cache.

        ``decisions``/``inputs`` come from one concrete run: the inputs
        *provably* drove execution along those decisions, so every
        prefix of the path condition is SAT with the inputs as witness —
        a free solver fact. This walks the program forcing the script
        (no solving; every fork direction is verified by concrete
        evaluation against ``inputs``) and stores the changed slice of
        each extension step, exactly the slices the guidance layer's
        incremental :meth:`solve_prefix` will probe next round.

        Walks share one trie per engine, keyed by the forced decisions:
        each node advances to its next fork, extends its condition and
        slices it once, however many walks pass through it. Each walk
        still checks every fork against its own inputs and stores its
        own values, in path order.

        Returns False when the walk diverges (fault-driven decisions
        the fault-free model cannot force) — nothing wrong, just no
        recyclable by-product; facts banked before the divergence are
        still sound. The walk leaves its reason in :attr:`divergence`
        (None when it banks): the model forks at a site the recorded
        path never decided (``fork``), evaluating the fork's condition
        raises (``error``), the run's inputs take the other direction
        (``direction``), or the model's path ends before the recorded
        one (``ended``). The executor backend counts each distinct
        path's reason once (``symbolic.recycle_diverged_<reason>``).
        """
        self.divergence = None
        cache = self.solver.cache
        if cache is None:
            return False
        if self._recycle_root is None:
            self._recycle_root = _RecycleNode(
                self._initial_state(self.program.threads[0]))
        node = self._recycle_root
        position, end = 0, len(decisions)
        while position < end:
            fork = node.fork
            if fork is None:
                fork = self._advance_node(node)
            if fork is _DONE:
                return self._diverged("ended")
            site, cond = fork
            # Same skip rule as solve_prefix: concretely-resolved
            # decisions in the recorded path never become fork sites.
            while position < end and decisions[position][0] != site:
                position += 1
            if position == end:
                return self._diverged("fork")
            taken = decisions[position][1]
            position += 1
            try:
                value = evaluator(cond)(inputs)
            except (ZeroDivisionError, SymbolicError):
                return self._diverged("error")
            if bool(value) != taken:
                # The run's inputs and the fault-free model disagree.
                return self._diverged("direction")
            child = node.children[taken]
            if child is None:
                child = self._grow_node(node, site, cond, taken)
            for key, order, symbols in child.banks:
                if all(name in inputs for name in symbols):
                    cache.store_sat(key, order,
                                    {name: inputs[name] for name in symbols})
            node = child
        return True

    def _diverged(self, reason: str) -> bool:
        """Record why a recycle walk stopped short; always False."""
        self.divergence = reason
        return False

    def _advance_node(self, node: _RecycleNode):
        """Advance a new trie node to its next fork, once."""
        try:
            step = self._advance_to_decision(node.state)
        except Exception:
            # The state is half-advanced: start the trie afresh, so the
            # next walk here raises again, as a walk from the root would.
            self._recycle_root = None
            raise
        if step == _DONE or isinstance(step, SymPath):
            node.fork, node.state = _DONE, None
        else:
            node.fork = step
        return node.fork

    def _grow_node(self, node: _RecycleNode, site: Site, cond: Expr,
                   taken: bool) -> _RecycleNode:
        """The child of ``node`` for direction ``taken``: the slices its
        extension banks, and the state past the branch (the parent's
        own state when the other child already has a copy)."""
        from repro.symbolic.cache import condition_slices
        state = node.state
        extended = state.condition.extended(cond, taken)
        banks = () if extended is state.condition else tuple(
            (piece.key, piece.order, piece.symbols)
            for piece in condition_slices(extended)
            if piece.symbols and any(expr is cond and t == taken
                                     for expr, t in piece.conjuncts))
        if node.children[not taken] is None:
            state = state.clone()
        else:
            node.state = None
        state.condition = extended
        state.decisions.append((site, taken))
        self._take_branch(state, taken)
        child = node.children[taken] = _RecycleNode(state, banks)
        return child

    # -- cooperative-exploration API (paper Sec. 4) ------------------------------

    def state_at_prefix(self, decisions: Sequence[Decision],
                        ) -> Optional[_SymState]:
        """Walk the program forcing ``decisions`` exactly; the returned
        state is positioned ready to continue exploration below that
        prefix. None when the prefix is infeasible or diverges.

        Unlike :meth:`solve_prefix`, every scripted decision must match
        a fork in order — this is the work-distribution primitive, and
        prefixes here come from the engine itself.
        """
        state = self._initial_state(self.program.threads[0])
        for want_site, want_taken in decisions:
            step = self._advance_to_decision(state)
            if step == _DONE or isinstance(step, SymPath):
                return None
            site, cond = step
            if site != want_site:
                return None
            extended = state.condition.extended(cond, want_taken)
            model = self.solver.solve(extended, self._domains, state.witness)
            if model is None:
                return None
            state.condition = extended
            state.witness.update(model)
            state.decisions.append((site, want_taken))
            self._take_branch(state, want_taken)
        return state

    def explore_subtree_bounded(self, prefix: Sequence[Decision],
                                max_paths: int,
                                ) -> Tuple[List[SymPath],
                                           List[Tuple[Decision, ...]]]:
        """Explore below ``prefix``; stop after ``max_paths`` paths and
        hand back the *unexplored frontier* as child-task prefixes.

        This is how cooperative workers keep task granularity adaptive:
        an unexpectedly large subtree yields its completed paths plus
        the DFS frontier for other workers to continue from — no work
        is redone and no single worker serializes the computation.
        """
        state = self.state_at_prefix(prefix)
        if state is None:
            return [], []
        paths: List[SymPath] = []
        stack = [state]
        while stack:
            current = stack.pop()
            step = self._advance_to_decision(current)
            if step == _DONE:
                paths.append(self._finish(current, Outcome.OK, None))
            elif isinstance(step, SymPath):
                paths.append(step)
            else:
                site, cond = step
                for taken in (True, False):
                    extended = current.condition.extended(cond, taken)
                    model = self.solver.solve(extended, self._domains,
                                              current.witness)
                    if model is None:
                        continue
                    successor = current.clone()
                    successor.condition = extended
                    successor.witness.update(model)
                    successor.decisions.append((site, taken))
                    self._take_branch(successor, taken)
                    stack.append(successor)
            if len(paths) >= max_paths and stack:
                frontier = [tuple(s.decisions) for s in stack]
                return paths, frontier
        return paths, []

    def expand_node(self, prefix: Sequence[Decision],
                    ) -> Tuple[List[SymPath], List[Tuple[Decision, ...]]]:
        """One-step expansion below ``prefix``: returns (terminal paths,
        feasible child prefixes). Exactly one of the two lists is
        non-empty for a feasible prefix."""
        state = self.state_at_prefix(prefix)
        if state is None:
            return [], []
        step = self._advance_to_decision(state)
        if step == _DONE:
            return [self._finish(state, Outcome.OK, None)], []
        if isinstance(step, SymPath):
            return [step], []
        site, cond = step
        children = []
        for taken in (True, False):
            extended = state.condition.extended(cond, taken)
            if self.solver.solve(extended, self._domains,
                                 state.witness) is not None:
                children.append(tuple(state.decisions) + ((site, taken),))
        return [], children

    @property
    def work_done(self) -> int:
        """Cumulative virtual work (solver evaluations) — the cost
        meter cooperative exploration charges workers by."""
        return self.solver.stats.evaluations

    # -- exploration core -------------------------------------------------------

    def _explore_from(self, initial: _SymState) -> List[SymPath]:
        with self._obs_explore.time():
            return self._explore_from_inner(initial)

    def _explore_from_inner(self, initial: _SymState) -> List[SymPath]:
        paths: List[SymPath] = []
        stack = [initial]
        while stack:
            state = stack.pop()
            step = self._advance_to_decision(state)
            if step == _DONE:
                paths.append(self._finish(state, Outcome.OK, None))
            elif isinstance(step, SymPath):
                paths.append(step)
            else:
                site, cond = step
                for taken in (True, False):
                    extended = state.condition.extended(cond, taken)
                    self._obs_solver_calls.inc()
                    model = self.solver.solve(extended, self._domains,
                                              state.witness)
                    if model is None:
                        continue
                    successor = state.clone()
                    successor.condition = extended
                    successor.witness.update(model)
                    successor.decisions.append((site, taken))
                    self._take_branch(successor, taken)
                    stack.append(successor)
            if len(paths) > self.limits.max_paths:
                raise SymbolicError(
                    f"path budget {self.limits.max_paths} exceeded")
        paths.reverse()  # stable, roughly left-to-right order
        self._obs_paths.inc(len(paths))
        return paths

    def _initial_state(self, entry: str) -> _SymState:
        func = self.program.function(entry)
        if func.params:
            raise SymbolicError(f"entry function {entry!r} takes parameters")
        return _SymState(
            frames=[_SymFrame(entry, func.entry, 0, {})],
            globals={name: Const(value)
                     for name, value in self.program.globals.items()},
            condition=PathCondition(),
            decisions=[],
            witness={},
            held_locks=[],
        )

    def _advance_to_decision(self, state: _SymState,
                             ) -> Union[str, SymPath, _Fork]:
        """Execute deterministically until a symbolic decision point.

        Returns ``(site, cond_expr)`` when a fork is needed, a SymPath
        when the path terminated with a failure, or ``"done"`` on clean
        termination.
        """
        program = self.program
        while True:
            if not state.frames:
                return _DONE
            if state.steps >= self.limits.max_steps:
                return self._finish(state, Outcome.HANG,
                                    "step budget exhausted")
            frame = state.frames[-1]
            func = program.function(frame.function)
            block = func.block(frame.block)
            state.steps += 1

            if frame.index < len(block.instructions):
                try:
                    result = self._exec_instruction(
                        state, frame, block.instructions[frame.index])
                except _DivisionByZero:
                    return self._finish(state, Outcome.CRASH,
                                        "division by zero")
                if result is not None:
                    return result
                continue

            term = block.terminator
            if isinstance(term, Jump):
                frame.block, frame.index = term.target, 0
                continue
            if isinstance(term, Halt):
                state.frames.clear()
                return _DONE
            if isinstance(term, Return):
                try:
                    value = self._value(state, frame, term.value)
                except _DivisionByZero:
                    return self._finish(state, Outcome.CRASH,
                                        "division by zero")
                state.frames.pop()
                if not state.frames:
                    return _DONE
                caller = state.frames[-1]
                call = program.function(caller.function) \
                    .block(caller.block).instructions[caller.index]
                if call.dst is not None:
                    caller.locals[call.dst] = value
                caller.index += 1
                continue
            if isinstance(term, Branch):
                try:
                    cond = self._value(state, frame, term.cond)
                except _DivisionByZero:
                    return self._finish(state, Outcome.CRASH,
                                        "division by zero")
                if isinstance(cond, Const):
                    taken = cond.value != 0
                    frame.block = term.then_block if taken else term.else_block
                    frame.index = 0
                    continue
                return ((0, frame.function, frame.block), cond)
            raise SymbolicError(f"unknown terminator {term!r}")

    def _exec_instruction(self, state: _SymState, frame: _SymFrame, instr,
                          ) -> Union[None, SymPath, _Fork]:
        program = self.program
        if isinstance(instr, Assign):
            frame.locals[instr.dst] = self._value(state, frame, instr.expr)
            frame.index += 1
            return None
        if isinstance(instr, StoreGlobal):
            state.globals[instr.name] = self._value(state, frame, instr.expr)
            frame.index += 1
            return None
        if isinstance(instr, LoadGlobal):
            frame.locals[instr.dst] = state.globals.get(instr.name, Const(0))
            frame.index += 1
            return None
        if isinstance(instr, Lock):
            if instr.lock_name in state.held_locks:
                return self._finish(state, Outcome.DEADLOCK,
                                    f"self-deadlock on {instr.lock_name!r}")
            state.held_locks.append(instr.lock_name)
            frame.index += 1
            return None
        if isinstance(instr, Unlock):
            if instr.lock_name not in state.held_locks:
                return self._finish(
                    state, Outcome.CRASH,
                    f"unlock of lock {instr.lock_name!r} not held")
            state.held_locks.remove(instr.lock_name)
            frame.index += 1
            return None
        if isinstance(instr, Crash):
            return self._finish(state, Outcome.CRASH, instr.message)
        if isinstance(instr, Syscall):
            frame.locals[instr.dst] = self._syscall(state, frame, instr)
            frame.index += 1
            return None
        if isinstance(instr, Call):
            if len(state.frames) >= self.limits.max_call_depth:
                return self._finish(state, Outcome.CRASH,
                                    "call depth exceeded")
            callee = program.function(instr.callee)
            locals_ = {}
            for param, arg in zip(callee.params, instr.args):
                locals_[param] = self._value(state, frame, arg)
            state.frames.append(_SymFrame(
                instr.callee, callee.entry, 0, locals_, instr.dst))
            return None
        if isinstance(instr, Assert):
            cond = self._value(state, frame, instr.cond)
            if isinstance(cond, Const):
                if cond.value != 0:
                    frame.index += 1
                    return None
                return self._finish(state, Outcome.ASSERT, instr.message)
            # Symbolic assert: fork like a branch; _take_branch resolves
            # via pending_assert instead of the block terminator.
            state.pending_assert = instr
            return ((0, frame.function, frame.block), cond)
        raise SymbolicError(f"unknown instruction {instr!r}")

    def _take_branch(self, state: _SymState, taken: bool) -> None:
        """Apply a decided direction to a state positioned at a fork."""
        frame = state.frames[-1]
        if state.pending_assert is not None:
            pending = state.pending_assert
            state.pending_assert = None
            if taken:
                frame.index += 1
            else:
                state.assert_failed = pending.message
                state.frames.clear()
            return
        func = self.program.function(frame.function)
        term = func.block(frame.block).terminator
        frame.block = term.then_block if taken else term.else_block
        frame.index = 0

    def _finish(self, state: _SymState, outcome: Outcome,
                message: Optional[str]) -> SymPath:
        if state.assert_failed is not None and outcome is Outcome.OK:
            outcome, message = Outcome.ASSERT, state.assert_failed
        example = dict(state.witness)
        for name, (lo, _hi) in self.program.inputs.items():
            example.setdefault(name, lo)
        return SymPath(
            decisions=tuple(state.decisions),
            condition=state.condition,
            outcome=outcome,
            failure_message=message,
            example_inputs=example,
            steps=state.steps,
        )

    # -- values ------------------------------------------------------------------

    def _value(self, state: _SymState, frame: _SymFrame, expr: Expr) -> Expr:
        resolved = fold(substitute(expr, frame.locals))
        division = _first_bad_division(resolved)
        if division is _SYMBOLIC_DENOMINATOR:
            raise SymbolicError(
                "symbolic denominator not supported; corpus"
                " programs divide by constants only")
        if division is _ZERO_DENOMINATOR:
            raise _DivisionByZero()
        return resolved

    def _syscall(self, state: _SymState, frame: _SymFrame,
                 instr: Syscall) -> Expr:
        state.syscall_counter += 1
        if self.symbolic_syscalls and instr.name in ("open", "read", "recv",
                                                     "write"):
            symbol = f"__sys{state.syscall_counter}"
            if instr.name == "open":
                self._domains[symbol] = (-1, 255)
            else:
                self._domains[symbol] = (-1, self._read_size)
            return Input(symbol)
        # Fault-free deterministic environment model (mirrors
        # Environment's non-faulty semantics).
        if instr.name == "open":
            # Mirror Environment: lowest free descriptor >= 3.
            fd = 3
            while fd in state.open_fds:
                fd += 1
            state.open_fds = state.open_fds + (fd,)
            return Const(fd)
        if instr.name in ("read", "recv", "write"):
            if len(instr.args) > 1:
                requested = self._value(state, frame, instr.args[1])
            elif instr.args:
                requested = self._value(state, frame, instr.args[0])
            else:
                requested = Const(0)
            if isinstance(requested, Const):
                return Const(max(0, requested.value))
            return requested  # symbolic size passes through unfaulted
        if instr.name == "close":
            if instr.args:
                fd = self._value(state, frame, instr.args[0])
                if isinstance(fd, Const):
                    if fd.value in state.open_fds:
                        state.open_fds = tuple(
                            f for f in state.open_fds if f != fd.value)
                        return Const(0)
                    return Const(-1)
            # Symbolic descriptor: model success, leave the table alone.
            return Const(0)
        if instr.name == "time":
            state.clock += 1
            return Const(state.clock)
        return Const(0)


class _DivisionByZero(Exception):
    """Internal: concrete division by zero on a symbolic path."""


_SYMBOLIC_DENOMINATOR = "symbolic"
_ZERO_DENOMINATOR = "zero"


def _first_bad_division(node: Expr) -> Optional[str]:
    """The first ``//`` or ``%`` in pre-order whose denominator is
    symbolic or the constant 0 (which of the two, or None), memoized on
    the (immutable) node, so a value resolved again reads one
    attribute and a new node walks only its own new spine."""
    try:
        return node._bad_division
    except AttributeError:
        pass
    found = None
    if isinstance(node, BinOp):
        if node.op in ("//", "%"):
            right = node.right
            if not isinstance(right, Const):
                found = _SYMBOLIC_DENOMINATOR
            elif right.value == 0:
                found = _ZERO_DENOMINATOR
        if found is None:
            found = (_first_bad_division(node.left)
                     or _first_bad_division(node.right))
    elif isinstance(node, UnOp):
        found = _first_bad_division(node.operand)
    node._bad_division = found
    return found
