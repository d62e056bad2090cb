"""Reference tests for the symbolic layer's per-node memos.

Each expression node lowers once into an evaluator closure and keeps
its renamed slice keys, key ``repr`` and denominator check as memos.
These tests hold every memoized path to a test-local copy of the
recursive, walk-based code it replaced: same values, same exceptions
with the same messages, same canonical keys and orders. They also pin
the node contract the memos rely on: a deep copy shares the node, and
a pickle carries its structure and no memo.
"""

import copy
import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SymbolicError
from repro.fixes.fix import clone_program
from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import CorpusConfig, generate_program
from repro.progmodel.ir import (
    BINARY_OPS, UNARY_OPS, BinOp, Branch, Const, Input, Return, UnOp, Var,
)
from repro.progmodel.serialize import encode_program
from repro.symbolic.cache import (
    canonical_slice_key, conjunct_slices, extend_slice_memos,
)
from repro.symbolic.engine import SymbolicEngine, _first_bad_division
from repro.symbolic.expr import apply_op, eval_concrete, evaluator, fold
from repro.symbolic.pathcond import PathCondition


# -- the replaced code, copied as it was --------------------------------------

def _apply_op(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "//":
        return left // right
    if op == "%":
        return left % right
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "and":
        return int(bool(left) and bool(right))
    if op == "or":
        return int(bool(left) or bool(right))
    if op == "min":
        return min(left, right)
    if op == "max":
        return max(left, right)
    raise SymbolicError(f"unknown operator {op!r}")


def _reference_eval(expr, env):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Input):
        try:
            return env[expr.name]
        except KeyError:
            raise SymbolicError(f"unbound symbol {expr.name!r}")
    if isinstance(expr, Var):
        raise SymbolicError(
            f"eval_concrete saw unresolved variable {expr.name!r}")
    if isinstance(expr, UnOp):
        value = _reference_eval(expr.operand, env)
        return -value if expr.op == "neg" else int(value == 0)
    if isinstance(expr, BinOp):
        return _apply_op(expr.op,
                         _reference_eval(expr.left, env),
                         _reference_eval(expr.right, env))
    raise SymbolicError(f"cannot evaluate {expr!r}")


def _masked(key):
    if isinstance(key, tuple):
        if key and key[0] == "input":
            return ("input", "?")
        return tuple(_masked(part) for part in key)
    return key


def _renamed(key, renaming):
    if isinstance(key, tuple):
        if key and key[0] == "input":
            return ("input", renaming[key[1]])
        return tuple(_renamed(part, renaming) for part in key)
    return key


def _key_symbols(key, out):
    if isinstance(key, tuple):
        if key and key[0] == "input":
            if key[1] not in out:
                out.append(key[1])
            return
        for part in key:
            _key_symbols(part, out)


def _reference_slice_key(conjuncts):
    tagged = [(repr(_masked(expr.key())), truth, expr.key())
              for expr, truth in conjuncts]
    tagged.sort(key=lambda item: (item[0], item[1]))
    order = []
    for _skeleton, _truth, key_tuple in tagged:
        _key_symbols(key_tuple, order)
    renaming = {name: index for index, name in enumerate(order)}
    key = tuple((_renamed(key_tuple, renaming), truth)
                for _skeleton, truth, key_tuple in tagged)
    return key, tuple(order)


def _reference_division(expr):
    for node in expr.walk():
        if isinstance(node, BinOp) and node.op in ("//", "%"):
            if not isinstance(node.right, Const):
                return "symbolic"
            if node.right.value == 0:
                return "zero"
    return None


def _reference_digest(conjuncts):
    digest = hashlib.blake2b(b"", digest_size=16).hexdigest()
    for expr, truth in conjuncts:
        payload = (digest.encode("ascii")
                   + repr((expr.key(), truth)).encode("utf-8"))
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    return digest


# -- strategies ----------------------------------------------------------------

_NAMES = ("a", "b", "c", "__sys0", "__sys1", "__sys12")


def _leaves(var_weight=0):
    leaves = [st.integers(-9, 9).map(Const),
              st.sampled_from(_NAMES).map(Input)]
    if var_weight:
        leaves.append(st.just(Var("x")))
    return st.one_of(*leaves)


def _exprs(leaves, max_leaves=10):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(BinOp, st.sampled_from(BINARY_OPS), inner, inner),
            st.builds(UnOp, st.sampled_from(UNARY_OPS), inner)),
        max_leaves=max_leaves)


_ENVS = st.dictionaries(st.sampled_from(_NAMES), st.integers(-6, 6))


def _outcome(fn, *args):
    """A value with its type, or an exception's type and message."""
    try:
        value = fn(*args)
    except (SymbolicError, ZeroDivisionError) as error:
        return ("raises", type(error), str(error))
    return ("returns", type(value), value)


def _agree(expr, env):
    expected = _outcome(_reference_eval, expr, env)
    assert _outcome(evaluator(expr), env) == expected
    assert _outcome(eval_concrete, expr, env) == expected


# -- the evaluator -------------------------------------------------------------

class TestEvaluator:
    @settings(max_examples=400, deadline=None)
    @given(expr=_exprs(_leaves(var_weight=1)),
           envs=st.lists(_ENVS, min_size=1, max_size=4))
    def test_matches_the_recursive_evaluator(self, expr, envs):
        # Several environments per node: the memoized closure must not
        # keep anything of an earlier call.
        for env in envs:
            _agree(expr, env)
        folded = fold(expr)
        for env in envs:
            _agree(folded, env)

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_every_operator_in_every_operand_shape(self, op):
        a, b, cell = Input("a"), Input("b"), UnOp("neg", Input("b"))
        values = (-7, -3, -1, 0, 1, 2, 5)
        shapes = [BinOp(op, a, b), BinOp(op, cell, a), BinOp(op, a, cell)]
        shapes += [BinOp(op, a, Const(k)) for k in values]
        shapes += [BinOp(op, Const(k), a) for k in values]
        shapes += [BinOp(op, cell, Const(k)) for k in values]
        shapes += [BinOp(op, Const(j), Const(k))
                   for j in values for k in values]
        for expr in shapes:
            for x in values:
                for y in values:
                    _agree(expr, {"a": x, "b": y})
            _agree(expr, {"b": 1})                  # ``a`` unbound
            _agree(expr, {"a": 1})                  # ``b`` unbound

    @pytest.mark.parametrize("op", BINARY_OPS + ("**",))
    def test_folding_reads_the_same_operators(self, op):
        # ``apply_op`` (constant folding) and the closures take every
        # operator from one table; both must match the replaced code.
        values = (-7, -3, -1, 0, 1, 2, 5)
        for x in values:
            for y in values:
                assert (_outcome(apply_op, op, x, y)
                        == _outcome(_apply_op, op, x, y))

    @pytest.mark.parametrize("op", UNARY_OPS)
    def test_unary_operators(self, op):
        for operand in (Input("a"), BinOp("-", Input("a"), Const(3))):
            for x in (-4, -1, 0, 1, 3, 8):
                _agree(UnOp(op, operand), {"a": x})
            _agree(UnOp(op, operand), {})

    @pytest.mark.parametrize("expr", [
        BinOp("//", Const(-7), Const(2)),
        BinOp("%", Const(-7), Const(3)),
        BinOp("//", Input("a"), Const(-3)),
        BinOp("%", Input("a"), Const(-4)),
        BinOp("//", Const(7), Input("a")),
        BinOp("%", Input("b"), Input("a")),
    ])
    def test_floor_division_and_modulo(self, expr):
        for x in (-9, -4, -1, 0, 1, 4, 9):
            _agree(expr, {"a": x, "b": -11})

    @pytest.mark.parametrize("op", ("and", "or", "min", "max", "*"))
    def test_both_operands_always_evaluate(self, op):
        # ``0 and x // 0`` raises: no operator short-circuits.
        crash = BinOp("//", Input("a"), Const(0))
        for first in (Const(0), Const(1), Input("a")):
            for expr in (BinOp(op, first, crash), BinOp(op, crash, first)):
                _agree(expr, {"a": 0})
                with pytest.raises(ZeroDivisionError):
                    evaluator(expr)({"a": 0})

    def test_left_operand_raises_first(self):
        expr = BinOp("+", Input("ghost"), BinOp("%", Input("a"), Const(0)))
        _agree(expr, {"a": 1})
        with pytest.raises(SymbolicError, match="unbound symbol 'ghost'"):
            eval_concrete(expr, {"a": 1})

    def test_unbound_input_and_var_messages(self):
        for expr in (Input("ghost"), Var("x"),
                     BinOp("<", Input("ghost"), Const(3)),
                     BinOp("-", Const(3), Var("x"))):
            _agree(expr, {"a": 1})

    def test_nesting_150_levels(self):
        expr = Input("a")
        for level in range(150):
            if level % 3 == 0:
                expr = BinOp(BINARY_OPS[level % len(BINARY_OPS)], expr,
                             Const(level % 7 + 1))
            elif level % 3 == 1:
                expr = UnOp(UNARY_OPS[level % 2], expr)
            else:
                expr = BinOp(BINARY_OPS[level % len(BINARY_OPS)],
                             Const(level % 5 - 2), expr)
        for x in (-3, 0, 2, 11):
            _agree(expr, {"a": x})
        _agree(expr, {})
        deep_crash = Input("a")
        for _ in range(150):
            deep_crash = BinOp("+", Const(1), deep_crash)
        deep_crash = BinOp("and", Const(0),
                           BinOp("//", deep_crash, Const(0)))
        _agree(deep_crash, {"a": 1})


# -- canonical slice keys ------------------------------------------------------

def _conjunct_lists():
    """Lists of conjuncts drawn from one pool of nodes, so nodes recur
    across lists and meet different renamings; templates instantiated
    over several symbols give equal skeletons."""
    @st.composite
    def draw_lists(draw):
        templates = draw(st.lists(_exprs(st.one_of(
            st.integers(-3, 3).map(Const),
            st.sampled_from(("p", "q")).map(Input)), max_leaves=5),
            min_size=1, max_size=4))
        pool = []
        for template in templates:
            for p, q in draw(st.lists(
                    st.tuples(st.sampled_from(_NAMES),
                              st.sampled_from(_NAMES)),
                    min_size=1, max_size=3)):
                pool.append(_instantiate(template, {"p": p, "q": q}))
        pool.extend(draw(st.lists(_exprs(_leaves(), max_leaves=6),
                                  max_size=3)))
        pool.append(BinOp("<", Const(1), Const(2)))       # constant
        conjunct = st.tuples(st.sampled_from(pool), st.booleans())
        return draw(st.lists(st.lists(conjunct, min_size=1, max_size=8),
                             min_size=1, max_size=4))
    return draw_lists()


def _instantiate(template, names):
    if isinstance(template, Input):
        return Input(names[template.name])
    if isinstance(template, BinOp):
        return BinOp(template.op, _instantiate(template.left, names),
                     _instantiate(template.right, names))
    if isinstance(template, UnOp):
        return UnOp(template.op, _instantiate(template.operand, names))
    return template


class TestSliceKeys:
    @settings(max_examples=120, deadline=None)
    @given(lists=_conjunct_lists())
    @example(lists=[[(Input("b") + Input("a") > 2, True)],
                    [(Input("a") + Input("b") > 2, True)]])
    @example(lists=[[(Input("__sys1") > Input("__sys12"), False),
                     (Input("__sys12") > 4, True),
                     (Input("__sys1") > 4, True)]])
    def test_matches_the_walk_based_key(self, lists):
        for conjuncts in lists:
            assert canonical_slice_key(conjuncts) \
                == _reference_slice_key(conjuncts)
            # Interned copies: the memos land on shared nodes.
            folded = [(fold(expr), truth) for expr, truth in conjuncts]
            assert canonical_slice_key(folded) \
                == _reference_slice_key(folded)

    @settings(max_examples=60, deadline=None)
    @given(lists=_conjunct_lists())
    def test_slices_key_like_the_walk(self, lists):
        for conjuncts in lists:
            pieces = conjunct_slices(conjuncts)
            memos = ()
            for position, conjunct in enumerate(conjuncts):
                memos = extend_slice_memos(memos, position, conjunct)
            assert len(pieces) == len(memos)
            for piece, memo in zip(pieces, memos):
                expected = _reference_slice_key(piece.conjuncts)
                assert (piece.key, piece.order) == expected
                assert (memo.key, memo.order) == expected
                # Identity: ``==`` on expressions builds a node.
                assert [(id(e), t) for e, t in memo.conjuncts] \
                    == [(id(e), t) for e, t in piece.conjuncts]
                assert memo.symbols == piece.symbols

    @settings(max_examples=60, deadline=None)
    @given(lists=_conjunct_lists())
    def test_digest_is_the_walk_based_digest(self, lists):
        for conjuncts in lists:
            condition = PathCondition()
            kept = []
            for expr, truth in conjuncts:
                grown = condition.extended(expr, truth)
                if grown is not condition:
                    kept.append((expr, truth))
                condition = grown
            assert condition.digest() == _reference_digest(kept)
            assert PathCondition(list(kept)).digest() \
                == _reference_digest(kept)


# -- the engine's denominator check --------------------------------------------

class TestDivisionCheck:
    @settings(max_examples=300, deadline=None)
    @given(expr=_exprs(st.one_of(st.integers(-2, 2).map(Const),
                                 st.sampled_from(_NAMES).map(Input))))
    def test_matches_the_walk(self, expr):
        assert _first_bad_division(expr) == _reference_division(expr)
        assert _first_bad_division(fold(expr)) \
            == _reference_division(fold(expr))


# -- node sharing, pickles and clones ------------------------------------------

def _repair_program():
    return generate_program(
        "repair", CorpusConfig(seed=1, n_segments=8, input_domain=24),
        (BugKind.CRASH, BugKind.ASSERT)).program


def _expressions(program):
    """Every expression a program's code holds, in a fixed order."""
    for fname in sorted(program.functions):
        func = program.functions[fname]
        for label in sorted(func.blocks):
            block = func.blocks[label]
            for instr in block.instructions:
                yield from instr.expressions()
            term = block.terminator
            if isinstance(term, Branch):
                yield term.cond
            elif isinstance(term, Return):
                yield term.value


class TestNodeContract:
    def test_memoized_node_pickles_by_structure(self):
        expr = fold((Input("b") * 3 + Input("a")) % 7 < Input("b") - 2)
        env = {"a": 4, "b": 5}
        value = eval_concrete(expr, env)
        canonical_slice_key([(expr, True), (Input("a") > 1, False)])
        canonical_slice_key([(Input("z") > 1, False), (expr, True)])
        PathCondition().extended(expr, True).digest()
        _first_bad_division(expr)
        assert "_eval" in vars(expr) and "_renamed" in vars(expr)
        data = pickle.dumps(expr)
        fresh = (Input("b") * 3 + Input("a")) % 7 < Input("b") - 2
        assert data == pickle.dumps(fresh)        # no memo rides along
        back = pickle.loads(data)
        assert back.key() == expr.key()
        assert eval_concrete(back, env) == value
        assert canonical_slice_key([(back, True)]) \
            == canonical_slice_key([(expr, True)])

    def test_deepcopy_shares_the_node(self):
        expr = Input("a") + 1
        evaluator(expr)
        assert copy.deepcopy(expr) is expr
        assert copy.deepcopy([expr, {"k": expr}])[1]["k"] is expr

    def test_clone_shares_expressions(self):
        program = _repair_program()
        SymbolicEngine(program).explore()
        for expr in _expressions(program):
            fold(expr)                         # a memo on every original
        clone = clone_program(program)
        originals = list(_expressions(program))
        copies = list(_expressions(clone))
        assert len(originals) == len(copies) > 50
        assert all(a is b for a, b in zip(originals, copies))
        # Blocks and instructions are the clone's own.
        main, cloned = program.functions["main"], clone.functions["main"]
        for label, block in main.blocks.items():
            assert cloned.blocks[label] is not block
            assert cloned.blocks[label].instructions \
                is not block.instructions
        assert clone.version == program.version + 1
        assert encode_program(dataclasses.replace(
            clone, version=program.version)) == encode_program(program)
        assert encode_program(clone_program(program, bump_version=False)) \
            == encode_program(program)
