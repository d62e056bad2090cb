"""Draw the next round during this one.

A round's sink draws the next round's runs (population sample, pod
choice, loss draw) once it has ingested the round's first window, while
the shards run the rest (a chaos round's sink gets the whole round at
once, after its retry waves); ``_plan_round`` then attaches
the steering directives and the hive version. Nothing else draws from
the platform's and the population's generators, and a fix deployed at
a round's end changes only what is attached, so every plan equals the
one the single-step planner below (the planner before the split) draws
at the start of each round. The round also folds each window's records
as the window arrives, which must leave the report unchanged.
"""

import pytest

from repro.exec.plan import PlannedRun, RoundPlan
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.workloads.scenarios import crash_scenario

GRID = (("serial", 1), ("process", 2))


def _reference_plan_round(self, round_index):
    """The planner before the split: every draw and directive pop at
    the start of the round, in the historical order."""
    config = self.config
    directives = []
    if config.guidance:
        directives = self.hive.plan_steering(config.guided_per_round)
    pod_indices = range(len(self.pods))
    runs = []
    for execution in range(config.executions_per_round):
        _user, inputs = self.scenario.population.sample_execution()
        pod_index = self._rng.choice(pod_indices)
        directive = directives.pop() if directives else None
        ship = not (config.trace_loss_rate
                    and self._rng.random() < config.trace_loss_rate)
        runs.append(PlannedRun(execution, pod_index, inputs, directive,
                               ship))
    return RoundPlan(round_index=round_index,
                     hive_version=self.hive.program.version, runs=runs)


def _platform(backend, workers, **overrides):
    config = dict(n_pods=8, rounds=6, executions_per_round=40,
                  guidance=True, trace_loss_rate=0.2, enable_proofs=False,
                  seed=3, backend=backend, workers=workers)
    config.update(overrides)
    return SoftBorgPlatform(
        crash_scenario(n_users=30, volatility=0.5, seed=3),
        PlatformConfig(**config))


def _run(platform, reference=False):
    """Run ``platform``; returns the plans its rounds executed and
    everything deterministic the run produced."""
    if reference:
        platform._plan_round = _reference_plan_round.__get__(platform)
        # The reference draws at the start of each round only.
        platform._draw_runs = lambda: None
    plans = []
    run_round = platform.backend.run_round

    def recording(plan, sink=None):
        plans.append(plan)
        return run_round(plan, sink)
    platform.backend.run_round = recording
    platform.run()
    return plans, {
        "report": platform.report.as_dict(),
        "rounds": [stats.as_dict() for stats in platform.report.rounds],
        "hive": platform.hive.stats.as_dict(),
        "paths": platform.hive.tree.canonical_paths(),
        "epoch": platform.backend.epoch,
    }


def _record_draws(platform):
    """Record, for each of ``platform``'s draws, the round whose
    execute step was running then (None between rounds)."""
    executing = [None]
    draws = []
    execute = platform._execute
    draw = platform._draw_runs

    def recording_execute(plan, span, sink=None):
        executing[0] = plan.round_index
        try:
            return execute(plan, span, sink)
        finally:
            executing[0] = None

    def recording_draw():
        draws.append(executing[0])
        return draw()
    platform._execute = recording_execute
    platform._draw_runs = recording_draw
    return draws


class TestDrawAhead:
    @pytest.mark.parametrize("backend,workers", GRID)
    def test_every_plan_equals_the_single_step_planner(self, backend,
                                                       workers):
        plans, outputs = _run(_platform(backend, workers))
        ref_plans, ref_outputs = _run(_platform(backend, workers),
                                      reference=True)
        assert plans == ref_plans
        assert outputs == ref_outputs
        # The grid exercises what the split must survive: a fix
        # deployed mid-run, steering directives, lost traces.
        versions = [plan.hive_version for plan in plans]
        assert versions[0] < versions[-1]
        assert any(run.directive is not None
                   for plan in plans[1:] for run in plan.runs)
        assert any(not run.ship for plan in plans for run in plan.runs)
        serial_plans, serial_outputs = _run(_platform("serial", 1))
        assert plans == serial_plans
        assert outputs == serial_outputs

    def test_draws_come_one_round_ahead(self):
        platform = _platform("serial", 1, rounds=4)
        draws = _record_draws(platform)
        platform.run()
        # Round 0 draws its own runs before it starts; each later
        # round's runs are drawn while the round before runs, and the
        # last round draws nothing ahead.
        assert draws == [None, 0, 1, 2]
        assert platform._drawn is None

    @pytest.mark.parametrize("backend,workers", GRID)
    def test_chaos_rounds_draw_ahead(self, backend, workers):
        # A chaos round hands its sink every surviving result at once,
        # and the sink draws the next round's runs then, inside the
        # round's execute step.
        platform = _platform(backend, workers,
                             chaos_profile="lossy-workers")
        draws = _record_draws(platform)
        plans, outputs = _run(platform)
        assert draws == [None, 0, 1, 2, 3, 4]
        assert platform._drawn is None
        ref_plans, ref_outputs = _run(
            _platform(backend, workers, chaos_profile="lossy-workers"),
            reference=True)
        assert plans == ref_plans
        assert outputs == ref_outputs
        assert platform.chaos.summary()["worker_deaths"] > 0

    def test_plan_round_draws_when_nothing_was_drawn_ahead(self):
        platform = _platform("serial", 1)
        reference = _platform("serial", 1)
        assert platform._plan_round(0) == _reference_plan_round(reference,
                                                                0)
