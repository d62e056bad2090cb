"""Intermediate representation for SoftBorg's synthetic programs.

A :class:`Program` is a set of named :class:`Function` objects, each a
control-flow graph of :class:`Block` objects. Blocks hold straight-line
:class:`Instruction` lists and end in a terminator (:class:`Branch`,
:class:`Jump`, :class:`Return`, or :class:`Halt`).

Expressions are integer-valued trees built from :class:`Const`,
:class:`Var` (function-local), :class:`Input` (program input, the source
of external nondeterminism) and arithmetic/comparison operators.
Comparison and logic operators yield 0/1, C-style. Python operator
overloading is provided so model programs read naturally::

    cond = (v("x") + 1 < Input("n")) & (v("y") != 0)

The IR is deliberately small but complete enough to express every bug
pattern the paper discusses: crashes, assertion violations, deadlocks
(via ``Lock``/``Unlock``), hangs (loops), and unchecked syscall results
(via ``Syscall``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProgramModelError

__all__ = [
    "Expr", "Const", "Var", "Input", "BinOp", "UnOp", "c", "v",
    "Instruction", "Assign", "StoreGlobal", "LoadGlobal", "Lock", "Unlock",
    "Syscall", "Assert", "Crash", "Call",
    "Terminator", "Branch", "Jump", "Return", "Halt",
    "Block", "Function", "Program", "BINARY_OPS", "UNARY_OPS",
    "INTEGER_OPS", "COMPARISONS",
]


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

# Operator names in wire order: the program codec writes each as its
# index here.
BINARY_OPS = (
    "+", "-", "*", "//", "%",
    "==", "!=", "<", "<=", ">", ">=",
    "and", "or", "min", "max",
)
UNARY_OPS = ("neg", "not")


def _and(left: int, right: int) -> int:
    return 1 if left and right else 0


def _or(left: int, right: int) -> int:
    return 1 if left or right else 0


def _min(left: int, right: int) -> int:
    return left if left <= right else right


def _max(left: int, right: int) -> int:
    return left if left >= right else right


# The integer semantics of every binary operator, the one definition
# the interpreter, constant folding and symbolic lowering share:
# INTEGER_OPS yield the int itself, COMPARISONS a bool that each caller
# makes 1 or 0 (values stay exactly ``int``). ``//`` and ``%`` raise
# ZeroDivisionError on a zero divisor, and each caller decides what
# that means. ``and``/``or`` are functions, so both operands always
# evaluate.
INTEGER_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "//": operator.floordiv, "%": operator.mod, "min": _min, "max": _max,
    "and": _and, "or": _or,
}
COMPARISONS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class Expr:
    """Base class for integer expressions.

    Subclasses are immutable value objects; equality is structural.
    Operator overloads build :class:`BinOp`/:class:`UnOp` nodes, with
    ``&``/``|`` standing in for logical and/or (Python's ``and``/``or``
    cannot be overloaded).
    """

    def _wrap(self, other: object) -> "Expr":
        if isinstance(other, Expr):
            return other
        if isinstance(other, bool):
            return Const(int(other))
        if isinstance(other, int):
            return Const(other)
        raise ProgramModelError(f"cannot use {other!r} as an expression operand")

    def __add__(self, other): return BinOp("+", self, self._wrap(other))
    def __radd__(self, other): return BinOp("+", self._wrap(other), self)
    def __sub__(self, other): return BinOp("-", self, self._wrap(other))
    def __rsub__(self, other): return BinOp("-", self._wrap(other), self)
    def __mul__(self, other): return BinOp("*", self, self._wrap(other))
    def __rmul__(self, other): return BinOp("*", self._wrap(other), self)
    def __floordiv__(self, other): return BinOp("//", self, self._wrap(other))
    def __rfloordiv__(self, other): return BinOp("//", self._wrap(other), self)
    def __mod__(self, other): return BinOp("%", self, self._wrap(other))
    def __rmod__(self, other): return BinOp("%", self._wrap(other), self)
    def __neg__(self): return UnOp("neg", self)

    # Comparisons intentionally return expressions, so IR nodes must not
    # be used as dict keys through == ; identity or .key() should be used.
    def __eq__(self, other): return BinOp("==", self, self._wrap(other))  # type: ignore[override]
    def __ne__(self, other): return BinOp("!=", self, self._wrap(other))  # type: ignore[override]
    def __lt__(self, other): return BinOp("<", self, self._wrap(other))
    def __le__(self, other): return BinOp("<=", self, self._wrap(other))
    def __gt__(self, other): return BinOp(">", self, self._wrap(other))
    def __ge__(self, other): return BinOp(">=", self, self._wrap(other))
    def __and__(self, other): return BinOp("and", self, self._wrap(other))
    def __or__(self, other): return BinOp("or", self, self._wrap(other))
    def __invert__(self): return UnOp("not", self)

    __hash__ = None  # type: ignore[assignment]

    # Nodes are immutable, and the symbolic layer memoizes derived
    # values on them (key, inputs, fold, evaluator, renamed keys). A
    # deep copy therefore shares the node, memos and all; a pickle
    # carries only the structure (every subclass's ``__slots__`` are its
    # constructor arguments, in order), so no memo, closure included,
    # ever crosses a process boundary.
    def __deepcopy__(self, memo) -> "Expr":
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    def key(self) -> Tuple:
        """A hashable structural key (used instead of __eq__/__hash__).

        Memoized per node: expressions are immutable, and the hot
        symbolic paths (path-condition dedup, canonical cache keys)
        re-ask the same nodes constantly.
        """
        try:
            return self._key
        except AttributeError:
            key = self._key = self._compute_key()
            return key

    def _compute_key(self) -> Tuple:
        raise NotImplementedError

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def inputs(self) -> Tuple[str, ...]:
        """Names of :class:`Input` nodes referenced by this expression,
        first-seen in pre-order (memoized, like :meth:`key`)."""
        try:
            return self._inputs
        except AttributeError:
            names = []
            for node in self.walk():
                if isinstance(node, Input) and node.name not in names:
                    names.append(node.name)
            inputs = self._inputs = tuple(names)
            return inputs

    def variables(self) -> Tuple[str, ...]:
        """Names of :class:`Var` nodes referenced by this expression
        (memoized, like :meth:`key`)."""
        try:
            return self._variables
        except AttributeError:
            names = []
            for node in self.walk():
                if isinstance(node, Var) and node.name not in names:
                    names.append(node.name)
            variables = self._variables = tuple(names)
            return variables


class Const(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int):
            raise ProgramModelError(f"Const requires an int, got {value!r}")
        self.value = value

    def _compute_key(self): return ("const", self.value)
    def __repr__(self): return f"Const({self.value})"


class Var(Expr):
    """A function-local variable reference."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _compute_key(self): return ("var", self.name)
    def __repr__(self): return f"Var({self.name!r})"


class Input(Expr):
    """A program input — the paper's "program-external event" source.

    Inputs are the only expression leaves whose value is unknown to the
    hive; branches whose conditions reach an ``Input`` (directly or via
    dataflow) are the *input-dependent branches* recorded one bit each
    in the trace (paper Sec. 3.1).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _compute_key(self): return ("input", self.name)
    def __repr__(self): return f"Input({self.name!r})"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPS:
            raise ProgramModelError(f"unknown binary op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _compute_key(self):
        return ("bin", self.op, self.left.key(), self.right.key())
    def children(self): return (self.left, self.right)
    def __repr__(self): return f"({self.left!r} {self.op} {self.right!r})"


class UnOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op not in UNARY_OPS:
            raise ProgramModelError(f"unknown unary op {op!r}")
        self.op = op
        self.operand = operand

    def _compute_key(self): return ("un", self.op, self.operand.key())
    def children(self): return (self.operand,)
    def __repr__(self): return f"{self.op}({self.operand!r})"


def c(value: int) -> Const:
    """Shorthand constructor for :class:`Const`."""
    return Const(value)


def v(name: str) -> Var:
    """Shorthand constructor for :class:`Var`."""
    return Var(name)


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------

class Instruction:
    """Base class for straight-line instructions."""

    def expressions(self) -> Sequence[Expr]:
        """Expressions evaluated by this instruction (for static analysis)."""
        return ()


@dataclass
class Assign(Instruction):
    """``dst = expr`` over function-local variables."""
    dst: str
    expr: Expr

    def expressions(self): return (self.expr,)


@dataclass
class StoreGlobal(Instruction):
    """``globals[name] = expr`` — writes shared (cross-thread) state."""
    name: str
    expr: Expr

    def expressions(self): return (self.expr,)


@dataclass
class LoadGlobal(Instruction):
    """``dst = globals[name]`` — reads shared (cross-thread) state."""
    dst: str
    name: str


@dataclass
class Lock(Instruction):
    """Acquire the named mutex; blocks while held by another thread."""
    lock_name: str


@dataclass
class Unlock(Instruction):
    """Release the named mutex; releasing a lock not held is a crash."""
    lock_name: str


@dataclass
class Syscall(Instruction):
    """``dst = syscall(name, *args)``.

    Return values come from the :class:`~repro.progmodel.interpreter.Environment`
    and are treated as external (tainted) data, like inputs. The trace
    records each return value so the hive can replay deterministically.
    """
    dst: str
    name: str
    args: Tuple[Expr, ...] = ()

    def expressions(self): return self.args


@dataclass
class Assert(Instruction):
    """Terminate the execution with an assertion failure if cond == 0."""
    cond: Expr
    message: str = "assertion failed"

    def expressions(self): return (self.cond,)


@dataclass
class Crash(Instruction):
    """Unconditional crash (models a segfault / fatal error site)."""
    message: str = "crash"


@dataclass
class Call(Instruction):
    """``dst = callee(args...)``; call-by-value integer arguments."""
    dst: Optional[str]
    callee: str
    args: Tuple[Expr, ...] = ()

    def expressions(self): return self.args


# --------------------------------------------------------------------------
# Terminators
# --------------------------------------------------------------------------

class Terminator:
    """Base class for block terminators."""

    def targets(self) -> Tuple[str, ...]:
        return ()


@dataclass
class Branch(Terminator):
    """Two-way conditional branch: nonzero cond -> then_block."""
    cond: Expr
    then_block: str
    else_block: str

    def targets(self): return (self.then_block, self.else_block)


@dataclass
class Jump(Terminator):
    target: str

    def targets(self): return (self.target,)


@dataclass
class Return(Terminator):
    value: Expr = field(default_factory=lambda: Const(0))


@dataclass
class Halt(Terminator):
    """End the executing thread (only meaningful in a thread's entry
    function; in nested calls it still terminates the whole thread)."""


# --------------------------------------------------------------------------
# Blocks / functions / programs
# --------------------------------------------------------------------------

@dataclass
class Block:
    """A basic block: a label, straight-line instructions, a terminator."""

    label: str
    instructions: List[Instruction] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def branch_site(self) -> Optional[Branch]:
        term = self.terminator
        return term if isinstance(term, Branch) else None


@dataclass
class Function:
    """A named function: parameter list plus a CFG of blocks."""

    name: str
    params: Tuple[str, ...] = ()
    blocks: Dict[str, Block] = field(default_factory=dict)
    entry: str = "entry"

    def block(self, label: str) -> Block:
        try:
            return self.blocks[label]
        except KeyError:
            raise ProgramModelError(f"function {self.name!r} has no block {label!r}")

    def branch_sites(self) -> List[Tuple[str, Branch]]:
        """All (block_label, Branch) pairs in deterministic order."""
        sites = []
        for label in sorted(self.blocks):
            branch = self.blocks[label].branch_site()
            if branch is not None:
                sites.append((label, branch))
        return sites


@dataclass
class Program:
    """A complete program.

    ``threads`` names the entry function of each thread; a conventional
    single-threaded program has ``threads=("main",)``. ``inputs`` maps
    each input name to its inclusive integer domain — the interpreter
    validates supplied input vectors against it and the symbolic engine
    uses it to bound search.

    A program is never changed after it runs: the builder seals each
    block, and every :class:`~repro.fixes.fix.Fix` transforms a clone.
    The interpreter relies on this to lower each program's code once.
    """

    name: str
    functions: Dict[str, Function] = field(default_factory=dict)
    threads: Tuple[str, ...] = ("main",)
    inputs: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    globals: Dict[str, int] = field(default_factory=dict)
    version: int = 1

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise ProgramModelError(f"program {self.name!r} has no function {name!r}")

    # -- static queries ----------------------------------------------------

    def branch_sites(self) -> List[Tuple[str, str]]:
        """All (function, block) branch sites, in deterministic order."""
        sites = []
        for fname in sorted(self.functions):
            for label, _branch in self.functions[fname].branch_sites():
                sites.append((fname, label))
        return sites

    def lock_names(self) -> Tuple[str, ...]:
        names = set()
        for func in self.functions.values():
            for block in func.blocks.values():
                for instr in block.instructions:
                    if isinstance(instr, (Lock, Unlock)):
                        names.add(instr.lock_name)
        return tuple(sorted(names))

    def instruction_count(self) -> int:
        """Total instructions + terminators; a proxy for lines of code."""
        total = 0
        for func in self.functions.values():
            for block in func.blocks.values():
                total += len(block.instructions) + 1
        return total

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness; raise ProgramModelError.

        Verifies that every block has a terminator, every jump target and
        callee exists, thread entry functions exist and take no
        parameters, and input domains are non-empty.
        """
        if not self.threads:
            raise ProgramModelError(f"program {self.name!r} declares no threads")
        for tfunc in self.threads:
            if tfunc not in self.functions:
                raise ProgramModelError(
                    f"thread entry function {tfunc!r} is not defined")
            if self.functions[tfunc].params:
                raise ProgramModelError(
                    f"thread entry function {tfunc!r} must take no parameters")
        for name, (lo, hi) in self.inputs.items():
            if lo > hi:
                raise ProgramModelError(f"input {name!r} has empty domain [{lo},{hi}]")
        for fname, func in self.functions.items():
            if func.name != fname:
                raise ProgramModelError(
                    f"function registered as {fname!r} is named {func.name!r}")
            if func.entry not in func.blocks:
                raise ProgramModelError(
                    f"function {fname!r}: entry block {func.entry!r} missing")
            for label, block in func.blocks.items():
                if block.label != label:
                    raise ProgramModelError(
                        f"function {fname!r}: block registered as {label!r}"
                        f" is labelled {block.label!r}")
                if block.terminator is None:
                    raise ProgramModelError(
                        f"function {fname!r}: block {label!r} has no terminator")
                for target in block.terminator.targets():
                    if target not in func.blocks:
                        raise ProgramModelError(
                            f"function {fname!r}: block {label!r} targets"
                            f" unknown block {target!r}")
                for instr in block.instructions:
                    if isinstance(instr, Call):
                        if instr.callee not in self.functions:
                            raise ProgramModelError(
                                f"function {fname!r}: call to unknown"
                                f" function {instr.callee!r}")
                        callee = self.functions[instr.callee]
                        if len(callee.params) != len(instr.args):
                            raise ProgramModelError(
                                f"function {fname!r}: call to {instr.callee!r}"
                                f" passes {len(instr.args)} args,"
                                f" expected {len(callee.params)}")
                    for expr in instr.expressions():
                        self._validate_expr(fname, label, expr)
                if isinstance(block.terminator, Branch):
                    self._validate_expr(fname, label, block.terminator.cond)
                elif isinstance(block.terminator, Return):
                    self._validate_expr(fname, label, block.terminator.value)

    def _validate_expr(self, fname: str, label: str, expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, Input) and node.name not in self.inputs:
                raise ProgramModelError(
                    f"function {fname!r} block {label!r}: unknown input"
                    f" {node.name!r}")
