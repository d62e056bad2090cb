"""Symbolic expression utilities over the program IR.

Symbolic values *are* IR expressions whose only non-constant leaves are
:class:`~repro.progmodel.ir.Input` nodes (program inputs, or fresh
symbols the engine mints for symbolic syscall returns). This module
provides constant folding, substitution, and concrete evaluation,
through a closure each node is lowered into once (:func:`evaluator`),
over the operator semantics the IR defines for the interpreter too
(``repro.progmodel.ir.INTEGER_OPS``/``COMPARISONS``).

**Interning.** The engine re-derives the same sub-expressions at every
fork (``fold(substitute(...))`` per branch), so :func:`fold` and
:func:`substitute` route every node they build through a hash-consing
table keyed by the structural :meth:`~repro.progmodel.ir.Expr.key`.
α-identical structures collapse to one shared node whose memoized
``key()``/``inputs()``/skeleton are computed once, and both functions
return the *original* node (identity fast path) whenever no rewrite
applies. Interning changes object identity only — never structure,
``key()`` output, or ``repr`` — so cache keys, dedup sets, and every
deterministic report are byte-for-byte unaffected (see
docs/PERFORMANCE.md for the invariant argument).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.errors import SymbolicError
from repro.progmodel.ir import (
    COMPARISONS, INTEGER_OPS, BinOp, Const, Expr, Input, UnOp, Var,
)

__all__ = ["apply_op", "fold", "substitute", "eval_concrete", "evaluator",
           "is_const", "intern_expr"]

# Hash-consing table: structural key -> canonical node. Bounded by a
# wholesale clear (entries are pure caches; losing them loses sharing,
# never correctness), sized far above any single program's expression
# population so a clear only happens on pathological fleet churn.
_INTERN: Dict[tuple, Expr] = {}
_INTERN_MAX = 1 << 16

# Small-integer constants are by far the most common leaves.
_CONST_CACHE = {value: Const(value) for value in range(-16, 257)}


def intern_expr(expr: Expr) -> Expr:
    """The canonical shared node for ``expr``'s structure.

    Identity-based fast paths elsewhere (``a is b``) are sound for any
    two nodes that both came out of this table; the reverse direction
    (distinct identity) proves nothing, callers still fall back to
    ``key()`` comparison.
    """
    key = expr.key()
    cached = _INTERN.get(key)
    if cached is not None:
        return cached
    if len(_INTERN) >= _INTERN_MAX:
        _INTERN.clear()
    _INTERN[key] = expr
    return expr


def _const(value: int) -> Const:
    node = _CONST_CACHE.get(value)
    if node is not None:
        return node
    return intern_expr(Const(value))


def apply_op(op: str, left: int, right: int) -> int:
    """Integer semantics shared with the concrete interpreter.

    Raises ZeroDivisionError for ``// 0`` and ``% 0`` — callers decide
    whether that is a crash path or an infeasible evaluation.
    """
    fn = INTEGER_OPS.get(op)
    if fn is not None:
        return fn(left, right)
    compare = COMPARISONS.get(op)
    if compare is None:
        raise SymbolicError(f"unknown operator {op!r}")
    return 1 if compare(left, right) else 0


def is_const(expr: Expr) -> bool:
    return isinstance(expr, Const)


def fold(expr: Expr) -> Expr:
    """Constant-fold an expression bottom-up.

    Folding is conservative: ``// 0`` and ``% 0`` on constants are left
    unfolded so the engine can turn them into crash paths rather than
    silently failing here.

    The result is memoized on the node and interned, so re-folding a
    shared (or structurally repeated) expression is O(1); a fixpoint
    node folds to itself.
    """
    try:
        return expr._folded
    except AttributeError:
        pass
    folded = _fold_inner(expr)
    expr._folded = folded
    folded._folded = folded
    return folded


def _fold_inner(expr: Expr) -> Expr:
    if isinstance(expr, (Const, Input, Var)):
        return expr
    if isinstance(expr, UnOp):
        operand = fold(expr.operand)
        if isinstance(operand, Const):
            if expr.op == "neg":
                return _const(-operand.value)
            return _const(int(operand.value == 0))
        if operand is expr.operand:
            return intern_expr(expr)
        return intern_expr(UnOp(expr.op, operand))
    if isinstance(expr, BinOp):
        left = fold(expr.left)
        right = fold(expr.right)
        if isinstance(left, Const) and isinstance(right, Const):
            if expr.op in ("//", "%") and right.value == 0:
                if left is expr.left and right is expr.right:
                    return intern_expr(expr)
                return intern_expr(BinOp(expr.op, left, right))
            return _const(apply_op(expr.op, left.value, right.value))
        # Cheap algebraic identities keep path conditions small.
        #
        # Only *taint-faithful* rules are allowed: a rule may never turn
        # an input-dependent expression into a constant, because the
        # pods' dynamic taint tracking is conservative (x*0 is tainted
        # when x is) and path identities must agree between concrete
        # executions and the symbolic oracle. Absorption rules like
        # ``x * 0 -> 0`` or ``0 and x -> 0`` are therefore forbidden;
        # the solver prunes the degenerate direction instead.
        if isinstance(right, Const):
            if expr.op == "+" and right.value == 0:
                return left
            if expr.op == "*" and right.value == 1:
                return left
        if isinstance(left, Const):
            if expr.op == "+" and left.value == 0:
                return right
            if expr.op == "*" and left.value == 1:
                return right
        if left is expr.left and right is expr.right:
            return intern_expr(expr)
        return intern_expr(BinOp(expr.op, left, right))
    raise SymbolicError(f"cannot fold {expr!r}")


def substitute(expr: Expr, variables: Mapping[str, Expr],
               inputs: Optional[Mapping[str, Expr]] = None) -> Expr:
    """Replace Var leaves (and optionally Input leaves) by expressions.

    Missing Var bindings default to Const(0), mirroring the concrete
    interpreter's uninitialised-local semantics.

    Subtrees the substitution cannot touch are returned as-is (the
    memoized ``variables()``/``inputs()`` make that check O(1) on
    shared nodes); rebuilt nodes are interned.
    """
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return variables.get(expr.name, _ZERO)
    if isinstance(expr, Input):
        if inputs is not None and expr.name in inputs:
            return inputs[expr.name]
        return expr
    if not expr.variables() and (
            inputs is None
            or not any(name in inputs for name in expr.inputs())):
        return expr
    if isinstance(expr, UnOp):
        operand = substitute(expr.operand, variables, inputs)
        if operand is expr.operand:
            return expr
        return intern_expr(UnOp(expr.op, operand))
    if isinstance(expr, BinOp):
        left = substitute(expr.left, variables, inputs)
        right = substitute(expr.right, variables, inputs)
        if left is expr.left and right is expr.right:
            return expr
        return intern_expr(BinOp(expr.op, left, right))
    raise SymbolicError(f"cannot substitute into {expr!r}")


_ZERO = _const(0)


def eval_concrete(expr: Expr, env: Mapping[str, int]) -> int:
    """Evaluate an expression whose Input leaves are bound by ``env``.

    Var leaves are not allowed here — substitute them away first.
    Raises ZeroDivisionError on division/modulo by zero.
    """
    return evaluator(expr)(env)


Evaluator = Callable[[Mapping[str, int]], int]


def evaluator(expr: Expr) -> Evaluator:
    """``expr`` lowered once into a closure over ``env``.

    ``evaluator(expr)(env)`` is :func:`eval_concrete`'s value, exactly:
    operands evaluate left to right and both always do (``0 and x // 0``
    still raises ZeroDivisionError), ``//`` and ``%`` floor, and an
    unbound Input or a Var raises the same SymbolicError. The closure
    is memoized on the (immutable) node, and so are its operands', so a
    conjunct the solver checks thousands of times is lowered once, on
    its first evaluation.
    """
    try:
        return expr._eval
    except AttributeError:
        pass
    if isinstance(expr, BinOp):
        lowered = _lower_binop(expr.op, expr.left, expr.right)
    elif isinstance(expr, UnOp):
        operand = evaluator(expr.operand)
        if expr.op == "neg":
            lowered = lambda env: -operand(env)
        else:
            lowered = lambda env: 1 if operand(env) == 0 else 0
    elif isinstance(expr, Const):
        value = expr.value
        lowered = lambda env: value
    elif isinstance(expr, Input):
        lowered = _reader(expr.name)
    elif isinstance(expr, Var):
        lowered = _raiser(
            f"eval_concrete saw unresolved variable {expr.name!r}")
    else:
        lowered = _raiser(f"cannot evaluate {expr!r}")
    expr._eval = lowered
    return lowered


def _reader(name: str) -> Evaluator:
    def read(env):
        try:
            return env[name]
        except KeyError:
            raise SymbolicError(f"unbound symbol {name!r}")
    return read


def _raiser(message: str) -> Evaluator:
    def fail(env):
        raise SymbolicError(message)
    return fail


def _lower_binop(op: str, left: Expr, right: Expr) -> Evaluator:
    """A BinOp's closure. A constant operand is bound as a value, and
    ``Input <op> Const``, the commonest leaf pair in branch conditions,
    reads ``env`` itself: one call for the pair instead of three."""
    fn = INTEGER_OPS.get(op)
    compare = COMPARISONS.get(op)
    if isinstance(right, Const):
        b = right.value
        if isinstance(left, Input):
            name = left.name

            def input_const(env):
                try:
                    a = env[name]
                except KeyError:
                    raise SymbolicError(f"unbound symbol {name!r}")
                if compare is None:
                    return fn(a, b)
                return 1 if compare(a, b) else 0
            return input_const
        first = evaluator(left)
        if compare is not None:
            return lambda env: 1 if compare(first(env), b) else 0
        return lambda env: fn(first(env), b)
    second = evaluator(right)
    if isinstance(left, Const):
        a = left.value
        if compare is not None:
            return lambda env: 1 if compare(a, second(env)) else 0
        return lambda env: fn(a, second(env))
    first = evaluator(left)
    if compare is not None:
        return lambda env: 1 if compare(first(env), second(env)) else 0
    return lambda env: fn(first(env), second(env))
