"""SoftBorg — a reproduction of "Exterminating Bugs via Collective
Information Recycling" (Candea, HotDep 2011).

The package implements the full platform the paper proposes, on
simulated substrates: pods capture execution by-products from a
synthetic program population, the hive merges them into collective
execution trees, detects misbehaviours, synthesizes and validates
fixes, assembles cumulative proofs, steers pods toward unexplored
behaviour, and scales its symbolic analysis cooperatively across
simulated worker nodes — or runs continuously as a service
(``repro serve``) with an autoscaled pod fleet streaming traces in.

Quickstart::

    from repro import SoftBorgPlatform, PlatformConfig, crash_scenario

    platform = SoftBorgPlatform(crash_scenario(), PlatformConfig(rounds=20))
    report = platform.run()
    print(report.failure_rate(), report.fixes)

For scripting against the curated surface, ``repro.api`` re-exports
the load-bearing names in one flat namespace::

    from repro.api import Service, ServiceConfig, Hive, Tracer

Every top-level name is imported **lazily** (PEP 562): ``import
repro`` touches nothing but this module, so the solver, chaos, and
symbolic subsystems stay out of memory until a caller actually asks
for them.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment index.
"""

from typing import TYPE_CHECKING

__version__ = "0.3.0"

#: Exported name -> defining module. The single source of truth for
#: the top-level surface; ``__getattr__`` resolves through it on first
#: touch and caches the result in the module dict.
_EXPORTS = {
    "SoftBorgPlatform": "repro.platform",
    "PlatformConfig": "repro.platform",
    "PlatformReport": "repro.platform",
    "RoundStats": "repro.platform",
    "SNAPSHOT_SCHEMA_VERSION": "repro.platform",
    "NetworkedPlatform": "repro.netplatform",
    "NetworkedConfig": "repro.netplatform",
    "Fleet": "repro.fleet",
    "FleetReport": "repro.fleet",
    "BaseConfig": "repro.config",
    "BaseReport": "repro.config",
    "ExecutorBackend": "repro.exec",
    "SerialBackend": "repro.exec",
    "ProcessBackend": "repro.exec",
    "TraceBatch": "repro.exec",
    "make_backend": "repro.exec",
    "TraceSink": "repro.interfaces",
    "Instrumented": "repro.obs",
    "Registry": "repro.obs",
    "get_registry": "repro.obs",
    "Program": "repro.progmodel",
    "ProgramBuilder": "repro.progmodel",
    "Interpreter": "repro.progmodel",
    "Environment": "repro.progmodel",
    "ExecutionLimits": "repro.progmodel",
    "ExecutionResult": "repro.progmodel",
    "BugKind": "repro.progmodel",
    "BugSpec": "repro.progmodel",
    "CorpusConfig": "repro.progmodel",
    "generate_corpus": "repro.progmodel",
    "generate_program": "repro.progmodel",
    "Trace": "repro.tracing",
    "FullCapture": "repro.tracing",
    "SampledCapture": "repro.tracing",
    "ExecutionTree": "repro.tree",
    "Hive": "repro.hive",
    "Pod": "repro.pod",
    "explore_cooperatively": "repro.hive",
    "CumulativeProver": "repro.proofs",
    "NO_FAILURES": "repro.proofs",
    "SymbolicEngine": "repro.symbolic",
    "Service": "repro.serve",
    "ServiceConfig": "repro.serve",
    "ServiceReport": "repro.serve",
    "BugRegistry": "repro.registry",
    "RegisteredBug": "repro.registry",
    "TriggeringTest": "repro.registry",
    "build_registry": "repro.registry",
    "RegistryRunConfig": "repro.registry",
    "run_registry": "repro.registry",
    "Scorecard": "repro.metrics",
    "build_scorecard": "repro.metrics",
    "SCORECARD_SCHEMA_VERSION": "repro.metrics",
    "Scenario": "repro.workloads",
    "UserPopulation": "repro.workloads",
    "ZipfPopulation": "repro.workloads",
    "crash_scenario": "repro.workloads",
    "deadlock_scenario": "repro.workloads",
    "shortread_scenario": "repro.workloads",
    "race_scenario": "repro.workloads",
    "mixed_corpus_scenario": "repro.workloads",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value            # cache: resolve each name once
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.config import BaseConfig, BaseReport
    from repro.exec import (
        ExecutorBackend, ProcessBackend, SerialBackend, TraceBatch,
        make_backend,
    )
    from repro.fleet import Fleet, FleetReport
    from repro.hive import Hive, explore_cooperatively
    from repro.interfaces import TraceSink
    from repro.netplatform import NetworkedConfig, NetworkedPlatform
    from repro.obs import Instrumented, Registry, get_registry
    from repro.platform import (
        SNAPSHOT_SCHEMA_VERSION, PlatformConfig, PlatformReport,
        RoundStats, SoftBorgPlatform,
    )
    from repro.pod import Pod
    from repro.progmodel import (
        BugKind, BugSpec, CorpusConfig, Environment, ExecutionLimits,
        ExecutionResult, Interpreter, Program, ProgramBuilder,
        generate_corpus, generate_program,
    )
    from repro.metrics import (
        SCORECARD_SCHEMA_VERSION, Scorecard, build_scorecard,
    )
    from repro.proofs import NO_FAILURES, CumulativeProver
    from repro.registry import (
        BugRegistry, RegisteredBug, RegistryRunConfig, TriggeringTest,
        build_registry, run_registry,
    )
    from repro.serve import Service, ServiceConfig, ServiceReport
    from repro.symbolic import SymbolicEngine
    from repro.tracing import FullCapture, SampledCapture, Trace
    from repro.tree import ExecutionTree
    from repro.workloads import (
        Scenario, UserPopulation, ZipfPopulation, crash_scenario,
        deadlock_scenario, mixed_corpus_scenario, race_scenario,
        shortread_scenario,
    )
