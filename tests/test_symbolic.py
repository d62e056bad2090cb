"""Symbolic engine tests: expression utilities, solver, exploration,
prefix solving, and the relaxed-consistency comparison."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError, SymbolicError
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo,
)
from repro.progmodel.bugs import BugKind
from repro.progmodel.interpreter import Interpreter, Outcome
from repro.progmodel.ir import BINARY_OPS, BinOp, Const, Input, Var, c, v
from repro.symbolic.engine import SymbolicEngine, SymbolicLimits
from repro.symbolic.expr import apply_op, eval_concrete, fold, substitute
from repro.symbolic.pathcond import PathCondition
from repro.symbolic.relaxed import compare_unit_explorations
from repro.symbolic.solver import EnumerationSolver


class TestExprUtilities:
    def test_fold_constants(self):
        assert fold(c(2) + c(3)).value == 5
        assert fold((c(2) + c(3)) * c(4)).value == 20

    def test_fold_identities(self):
        expr = fold(Input("n") + 0)
        assert isinstance(expr, Input)
        expr = fold(Input("n") * 1)
        assert isinstance(expr, Input)

    def test_fold_is_taint_faithful(self):
        """Absorption rules are forbidden: folding must never turn an
        input-dependent expression into a constant, or the oracle's
        path identities would diverge from the pods' conservative
        dynamic taint (see expr.fold)."""
        assert isinstance(fold(Input("n") * 0), BinOp)
        assert isinstance(fold((Input("n") > 1) & 0), BinOp)

    def test_fold_preserves_division_by_zero(self):
        expr = fold(c(4) // c(0))
        assert isinstance(expr, BinOp)  # left unfolded for crash handling

    def test_substitute_vars(self):
        expr = substitute(v("x") + v("y"), {"x": Input("n")})
        # y missing -> Const(0)
        assert eval_concrete(expr, {"n": 5}) == 5

    def test_eval_concrete(self):
        expr = (Input("a") * 2 + Input("b")) % 7
        assert eval_concrete(expr, {"a": 3, "b": 4}) == 3

    def test_eval_concrete_unbound_raises(self):
        with pytest.raises(SymbolicError):
            eval_concrete(Input("ghost"), {})

    def test_apply_op_matches_interpreter_semantics(self):
        assert apply_op("//", -7, 2) == -4  # Python floor semantics
        assert apply_op("%", -7, 3) == 2
        assert apply_op("and", 5, 0) == 0
        assert apply_op("min", 2, 9) == 2

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_interpreter_runs_apply_op(self, op):
        """Every operator, run by the interpreter both as ``a <op> b``
        over two inputs and fused as ``local <op> constant``, yields
        ``apply_op``'s int, and crashes exactly where ``apply_op``
        raises ZeroDivisionError."""
        values = (-7, -3, -1, 0, 1, 2, 5)

        def program(expr):
            b = ProgramBuilder("op", inputs={"a": (-7, 5), "b": (-7, 5)},
                               global_vars={"out": 0})
            entry = b.function("main").block("entry")
            entry.assign("x", Input("a"))
            entry.store_global("out", expr)
            entry.halt()
            return b.build()

        on_inputs = program(BinOp(op, Input("a"), Input("b")))
        for right in values:
            fused = program(BinOp(op, v("x"), Const(right)))
            for left in values:
                try:
                    expected = apply_op(op, left, right)
                except ZeroDivisionError:
                    expected = None
                for subject in (on_inputs, fused):
                    result = Interpreter(subject).run({"a": left,
                                                       "b": right})
                    if expected is None:
                        assert result.outcome is Outcome.CRASH
                        assert result.failure.message == (
                            "division by zero" if op == "//"
                            else "modulo by zero")
                    else:
                        assert result.outcome is Outcome.OK
                        value = result.final_globals["out"]
                        assert type(value) is int
                        assert value == expected

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(-50, 50), b=st.integers(-50, 50),
           op=st.sampled_from(["+", "-", "*", "==", "<", "<=", ">", ">=",
                               "!=", "and", "or", "min", "max"]))
    def test_fold_agrees_with_eval(self, a, b, op):
        expr = BinOp(op, Const(a), Const(b))
        assert fold(expr).value == eval_concrete(expr, {})


class TestPathCondition:
    def test_extended_is_persistent(self):
        base = PathCondition()
        ext = base.extended(Input("n") > 2, True)
        assert len(base) == 0
        assert len(ext) == 1

    def test_satisfied_by(self):
        cond = PathCondition().extended(Input("n") > 2, True) \
                              .extended(Input("n") < 5, True)
        assert cond.satisfied_by({"n": 3})
        assert not cond.satisfied_by({"n": 7})
        assert not cond.satisfied_by({"n": 1})

    def test_negated_constraint(self):
        cond = PathCondition().extended(Input("n") > 2, False)
        assert cond.satisfied_by({"n": 1})
        assert not cond.satisfied_by({"n": 5})

    def test_symbols_ordered(self):
        cond = PathCondition().extended(Input("b") + Input("a") > 0, True)
        assert cond.symbols() == ("b", "a")

    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.integers(-20, 20), st.sampled_from("><="),
                  st.booleans()),
        max_size=12))
    def test_incremental_state_matches_from_scratch(self, steps):
        """The derived state ``extended()`` folds forward — slice
        memos, canonical keys, digest, symbol order — must equal what a
        from-scratch rebuild over the same conjunct list computes.
        Cache probes key on these bytes, so any divergence would make
        the incremental fast path observable."""
        from repro.symbolic.cache import condition_slices

        ops = {">": lambda l, r: l > r, "<": lambda l, r: l < r,
               "=": lambda l, r: l == r}
        cond = PathCondition()
        for left, right, k, op, truth in steps:
            expr = ops[op](Input(f"x{left}") + Input(f"x{right}"),
                           Const(k))
            cond = cond.extended(expr, truth)

        scratch = PathCondition(constraints=list(cond.constraints))
        assert cond.digest() == scratch.digest()
        assert cond.symbols() == scratch.symbols()
        fast, slow = condition_slices(cond), condition_slices(scratch)
        assert [(s.key, s.order, tuple(s.symbols)) for s in fast] == \
               [(s.key, s.order, tuple(s.symbols)) for s in slow]


class TestSolver:
    def test_simple_sat(self):
        solver = EnumerationSolver()
        cond = PathCondition().extended(Input("n") == 5, True)
        model = solver.solve(cond, {"n": (0, 9)})
        assert model == {"n": 5}

    def test_unsat(self):
        solver = EnumerationSolver()
        cond = PathCondition().extended(Input("n") > 9, True)
        assert solver.solve(cond, {"n": (0, 9)}) is None
        assert solver.stats.unsat_results == 1

    def test_hint_hit_avoids_search(self):
        solver = EnumerationSolver()
        cond = PathCondition().extended(Input("n") > 2, True)
        model = solver.solve(cond, {"n": (0, 9)}, hint={"n": 7})
        assert model == {"n": 7}
        assert solver.stats.hint_hits == 1

    def test_multi_variable(self):
        solver = EnumerationSolver()
        cond = (PathCondition()
                .extended(Input("a") + Input("b") == 7, True)
                .extended(Input("a") > Input("b"), True))
        model = solver.solve(cond, {"a": (0, 9), "b": (0, 9)})
        assert model["a"] + model["b"] == 7
        assert model["a"] > model["b"]

    def test_only_mentioned_symbols_bound(self):
        solver = EnumerationSolver()
        cond = PathCondition().extended(Input("a") == 1, True)
        model = solver.solve(cond, {"a": (0, 3), "b": (0, 3)})
        assert set(model) == {"a"}

    def test_missing_domain_raises(self):
        solver = EnumerationSolver()
        cond = PathCondition().extended(Input("ghost") == 1, True)
        with pytest.raises(SolverError):
            solver.solve(cond, {})

    def test_budget_enforced(self):
        solver = EnumerationSolver(max_evaluations=10)
        cond = (PathCondition()
                .extended(Input("a") + Input("b") + Input("c") == 700, True))
        with pytest.raises(SolverError):
            solver.solve(cond, {"a": (0, 99), "b": (0, 99), "c": (0, 99)})


def _two_branch_program():
    b = ProgramBuilder("two", inputs={"n": (0, 9), "m": (0, 9)})
    main = b.function("main")
    main.block("entry").branch(Input("n") > 4, "hi", "lo")
    main.block("hi").branch(Input("m") == 3, "boom", "end")
    main.block("boom").crash("boom")
    main.block("boom").halt()
    main.block("lo").jump("end")
    main.block("end").halt()
    return b.build()


class TestEngine:
    def test_enumerates_all_feasible_paths(self):
        program = _two_branch_program()
        paths = SymbolicEngine(program).explore()
        assert len(paths) == 3
        outcomes = sorted(p.outcome.value for p in paths)
        assert outcomes == ["crash", "ok", "ok"]

    def test_example_inputs_reproduce_paths(self):
        program = _two_branch_program()
        for path in SymbolicEngine(program).explore():
            result = Interpreter(program).run(path.example_inputs)
            assert result.outcome is path.outcome
            assert list(result.path_decisions) == list(path.decisions)

    def test_infeasible_paths_pruned(self):
        b = ProgramBuilder("inf", inputs={"n": (0, 9)})
        main = b.function("main")
        main.block("entry").branch(Input("n") > 4, "a", "end")
        # n > 4 and n < 3 is impossible: the "dead" block is unreachable.
        main.block("a").branch(Input("n") < 3, "dead", "end")
        main.block("dead").crash("unreachable")
        main.block("dead").halt()
        main.block("end").halt()
        paths = SymbolicEngine(b.build()).explore()
        assert all(p.outcome is Outcome.OK for p in paths)
        assert len(paths) == 2

    def test_matches_concrete_executions_exhaustively(self):
        """The symbolic tree must contain exactly the concretely
        reachable decision paths (fault-free, single-threaded)."""
        demo = make_crash_demo()
        paths = SymbolicEngine(demo.program).explore()
        symbolic = {p.decisions for p in paths}
        concrete = set()
        for n in range(10):
            for mode in range(4):
                result = Interpreter(demo.program).run(
                    {"n": n, "mode": mode})
                concrete.add(tuple(result.path_decisions))
        assert symbolic == concrete

    def test_deterministic_branches_do_not_fork(self):
        b = ProgramBuilder("det", inputs={"n": (0, 3)})
        main = b.function("main")
        entry = main.block("entry")
        entry.assign("k", c(5))
        entry.branch(v("k") == 5, "a", "b")
        main.block("a").halt()
        main.block("b").crash("never")
        main.block("b").halt()
        paths = SymbolicEngine(b.build()).explore()
        assert len(paths) == 1
        assert paths[0].outcome is Outcome.OK
        assert paths[0].decisions == ()

    def test_symbolic_assert_forks(self):
        b = ProgramBuilder("sa", inputs={"n": (0, 9)})
        main = b.function("main")
        main.block("entry").check(Input("n") != 7, "seven").halt()
        paths = SymbolicEngine(b.build()).explore()
        assert len(paths) == 2
        by_outcome = {p.outcome: p for p in paths}
        assert by_outcome[Outcome.ASSERT].failure_message == "seven"
        assert by_outcome[Outcome.ASSERT].example_inputs == {"n": 7}

    def test_division_by_zero_path(self):
        b = ProgramBuilder("dz", inputs={"n": (0, 3)})
        main = b.function("main")
        main.block("entry").branch(Input("n") == 0, "zero", "safe")
        main.block("zero").assign("x", c(1) // c(0)).halt()
        main.block("safe").halt()
        paths = SymbolicEngine(b.build()).explore()
        outcomes = {p.outcome for p in paths}
        assert Outcome.CRASH in outcomes

    def test_loop_paths_bounded(self):
        b = ProgramBuilder("loop", inputs={"n": (0, 3)})
        main = b.function("main")
        entry = main.block("entry")
        entry.assign("i", 0)
        entry.jump("head")
        main.block("head").branch(v("i") < Input("n"), "body", "end")
        main.block("body").assign("i", v("i") + 1).jump("head")
        main.block("end").halt()
        paths = SymbolicEngine(b.build()).explore()
        assert len(paths) == 4  # n = 0..3 iterations

    def test_corpus_program_explorable(self):
        seeded = generate_program(
            "sym", CorpusConfig(seed=5, n_segments=5), (BugKind.CRASH,))
        paths = SymbolicEngine(seeded.program).explore()
        assert paths
        # The seeded crash must appear among feasible paths.
        crash_msgs = {p.failure_message for p in paths
                      if p.outcome is Outcome.CRASH}
        assert seeded.bugs[0].message in crash_msgs

    def test_path_budget_enforced(self):
        seeded = generate_program(
            "sym2", CorpusConfig(seed=6, n_segments=8), (BugKind.CRASH,))
        with pytest.raises(SymbolicError):
            SymbolicEngine(seeded.program,
                           limits=SymbolicLimits(max_paths=1)).explore()


class TestSolvePrefix:
    def test_solves_existing_path_prefix(self):
        program = _two_branch_program()
        engine = SymbolicEngine(program)
        site_entry = (0, "main", "entry")
        site_hi = (0, "main", "hi")
        inputs = engine.solve_prefix([(site_entry, True), (site_hi, True)])
        assert inputs is not None
        result = Interpreter(program).run(inputs)
        assert result.outcome is Outcome.CRASH

    def test_infeasible_prefix_returns_none(self):
        b = ProgramBuilder("inf", inputs={"n": (0, 9)})
        main = b.function("main")
        main.block("entry").branch(Input("n") > 4, "a", "end")
        main.block("a").branch(Input("n") < 3, "dead", "end")
        main.block("dead").halt()
        main.block("end").halt()
        engine = SymbolicEngine(b.build())
        inputs = engine.solve_prefix([((0, "main", "entry"), True),
                                      ((0, "main", "a"), True)])
        assert inputs is None

    def test_wrong_site_returns_none(self):
        program = _two_branch_program()
        engine = SymbolicEngine(program)
        inputs = engine.solve_prefix([((0, "main", "nonexistent"), True)])
        assert inputs is None

    def test_gap_filling_end_to_end(self):
        """Find inputs for the missing direction of an observed gap."""
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 1, "mode": 0})
        prefix = list(result.path_decisions)
        # Flip the last decision -> the unexplored sibling.
        site, taken = prefix[-1]
        target = prefix[:-1] + [(site, not taken)]
        inputs = SymbolicEngine(demo.program).solve_prefix(target)
        assert inputs is not None
        replay = Interpreter(demo.program).run(inputs)
        assert list(replay.path_decisions)[:len(target)] == target


class TestRelaxedConsistency:
    def _unit_program(self):
        b = ProgramBuilder("unit", inputs={"n": (0, 9)})
        helper = b.function("helper", params=("a",))
        helper.block("entry").branch(v("a") > 5, "hi", "lo")
        helper.block("hi").ret(v("a") - 5)
        helper.block("lo").ret(v("a") + 1)
        main = b.function("main")
        entry = main.block("entry")
        # In vivo, helper only ever sees a in {0, 1}: the "hi" unit path
        # is infeasible at system level.
        entry.assign("arg", Input("n") % 2)
        entry.call("r", "helper", v("arg"))
        entry.halt()
        return b.build()

    def test_relaxed_is_superset(self):
        report = compare_unit_explorations(
            self._unit_program(), "helper", {"a": (0, 9)})
        assert report.is_superset
        assert report.overapproximation_ratio >= 2.0

    def test_relaxed_cheaper_on_branchy_host(self):
        """When the host program is much bigger than the unit, unit-level
        exploration costs far less."""
        b = ProgramBuilder("host", inputs={f"i{k}": (0, 3) for k in range(6)})
        helper = b.function("helper", params=("a",))
        helper.block("entry").branch(v("a") > 1, "hi", "lo")
        helper.block("hi").ret(1)
        helper.block("lo").ret(0)
        main = b.function("main")
        prev = "entry"
        for k in range(6):
            blk = main.block(prev)
            then_label, join = f"t{k}", f"j{k}"
            blk.branch(Input(f"i{k}") > 1, then_label, join)
            main.block(then_label).assign("x", Input(f"i{k}")).jump(join)
            prev = join
        last = main.block(prev)
        last.call("r", "helper", Input("i0"))
        last.halt()
        report = compare_unit_explorations(b.build(), "helper",
                                           {"a": (0, 3)})
        assert report.is_superset
        assert report.cost_ratio > 5.0
