"""The fleet: SoftBorg across an ecosystem of programs.

The paper's vision is not one program but *all* end-user software
("ideally every instance of a program P executing anywhere in the
world"). A :class:`Fleet` runs one closed loop per program — each with
its own pods, hive, tree, and fixes — and aggregates the ecosystem
view: total bugs exterminated, residual failure mass, and which
programs' proofs completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import BaseReport
from repro.obs import Instrumented
from repro.platform import PlatformConfig, PlatformReport, SoftBorgPlatform
from repro.workloads.scenarios import Scenario

__all__ = ["FleetProgramResult", "FleetReport", "Fleet"]


@dataclass
class FleetProgramResult(BaseReport):
    """One program's outcome within the fleet."""

    program_name: str
    report: PlatformReport
    bugs_seeded: int
    bugs_seen: int
    bugs_fixed: int
    final_version: int

    @property
    def exterminated(self) -> bool:
        """Every *manifested* bug got fixed (latent never-seen bugs do
        not count against the loop — nothing reported them)."""
        return self.bugs_seen > 0 and self.bugs_seen == self.bugs_fixed

    @property
    def preempted(self) -> bool:
        """A fix deployed although no user ever saw a failure: the
        pattern (e.g. a lock-order cycle) was diagnosed from healthy
        executions' by-products — the collective fixed the bug before
        it hurt anyone."""
        return self.bugs_seen == 0 and bool(self.report.fixes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "program_name": self.program_name,
            "bugs_seeded": self.bugs_seeded,
            "bugs_seen": self.bugs_seen,
            "bugs_fixed": self.bugs_fixed,
            "final_version": self.final_version,
            "exterminated": self.exterminated,
            "preempted": self.preempted,
            "report": self.report.as_dict(),
        }


@dataclass
class FleetReport(BaseReport):
    """Ecosystem-wide aggregation."""

    programs: List[FleetProgramResult] = field(default_factory=list)

    @property
    def total_executions(self) -> int:
        return sum(p.report.total_executions for p in self.programs)

    @property
    def total_failures(self) -> int:
        return sum(p.report.total_failures for p in self.programs)

    @property
    def total_fixes(self) -> int:
        return sum(len(p.report.fixes) for p in self.programs)

    @property
    def programs_with_failures(self) -> int:
        return sum(1 for p in self.programs if p.bugs_seen > 0)

    @property
    def programs_exterminated(self) -> int:
        return sum(1 for p in self.programs if p.exterminated)

    @property
    def programs_preempted(self) -> int:
        return sum(1 for p in self.programs if p.preempted)

    def residual_failure_rate(self, last_rounds: int = 3) -> float:
        """Failures per 1k executions across the fleet's final rounds."""
        executions = 0
        failures = 0
        for program in self.programs:
            for stats in program.report.rounds[-last_rounds:]:
                executions += stats.executions
                failures += stats.failures
        return 1000.0 * failures / executions if executions else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "programs": [p.as_dict() for p in self.programs],
            "total_executions": self.total_executions,
            "total_failures": self.total_failures,
            "total_fixes": self.total_fixes,
            "programs_with_failures": self.programs_with_failures,
            "programs_exterminated": self.programs_exterminated,
            "programs_preempted": self.programs_preempted,
            "residual_failure_rate": self.residual_failure_rate(),
        }


class Fleet(Instrumented):
    """Runs the closed loop for every scenario, one hive each."""

    obs_namespace = "fleet"

    def __init__(self, scenarios: Sequence[Scenario],
                 config: Optional[PlatformConfig] = None):
        self.config = config or PlatformConfig()
        self.validate()
        self.platforms = [SoftBorgPlatform(scenario, self._config_for(
            scenario)) for scenario in scenarios]
        self.report: Optional[FleetReport] = None
        self._obs_programs = self.obs_counter("programs_run")

    # -- the shared config/report surface -----------------------------------

    @property
    def seed(self) -> int:
        return self.config.seed

    def validate(self) -> None:
        """Same contract as the platform configs: raise ConfigError."""
        self.config.validate()

    def snapshot(self) -> Dict[str, object]:
        """Unified fleet state: config, aggregate report, metrics."""
        return {
            "config": self.config.as_dict(),
            "execution": {
                "backend": self.config.resolved_backend(),
                "workers": self.config.resolved_workers(),
            },
            "report": self.report.as_dict() if self.report else None,
            "obs": self.obs.snapshot(),
        }

    def _config_for(self, scenario: Scenario) -> PlatformConfig:
        import dataclasses
        # Proofs need the symbolic oracle; multi-threaded programs run
        # without them (partial proofs only), as the hive would.
        if len(scenario.program.threads) > 1 and self.config.enable_proofs:
            return dataclasses.replace(self.config, enable_proofs=False)
        return self.config

    def run(self) -> FleetReport:
        fleet_report = FleetReport()
        for platform in self.platforms:
            report = platform.run()
            self._obs_programs.inc()
            scenario = platform.scenario
            seen = report.density.bugs_seen
            fixed = report.density.bugs_fixed & seen
            fleet_report.programs.append(FleetProgramResult(
                program_name=scenario.program.name,
                report=report,
                bugs_seeded=len(scenario.bugs),
                bugs_seen=len(seen),
                bugs_fixed=len(fixed),
                final_version=platform.hive.program.version,
            ))
        self.report = fleet_report
        return fleet_report
