"""Exception hierarchy for the SoftBorg reproduction.

All library-specific errors derive from :class:`SoftBorgError`, so callers
can catch one base class at API boundaries while tests can assert on the
precise subclass.
"""

from __future__ import annotations


class SoftBorgError(Exception):
    """Base class for every error raised by this library."""


class ProgramModelError(SoftBorgError):
    """Malformed program IR: dangling block references, bad operands, etc."""


class ExecutionError(SoftBorgError):
    """The interpreter was driven into an invalid state (library bug or
    malformed schedule), as opposed to a *program* failure, which is a
    normal outcome reported in the trace."""


class ScheduleError(SoftBorgError):
    """A schedule refers to threads that cannot run or does not exist."""


class TraceError(SoftBorgError):
    """A trace could not be decoded, merged, or replayed against its
    program (e.g. version mismatch between pod and hive)."""


class TreeError(SoftBorgError):
    """The collective execution tree was driven into an inconsistent
    state, e.g. two traces disagree on a deterministic branch."""


class SolverError(SoftBorgError):
    """A constraint/SAT solver was given an ill-formed problem."""


class SymbolicError(SoftBorgError):
    """The symbolic engine failed to evaluate an expression or path."""


class FixError(SoftBorgError):
    """A fix could not be synthesized, validated, or applied."""


class ProofError(SoftBorgError):
    """A proof object is inconsistent with the evidence backing it."""


class HiveError(SoftBorgError):
    """Hive-side coordination failure (partitioning, allocation)."""


class NetworkError(SoftBorgError):
    """Simulated-network misuse (unknown endpoint, negative latency)."""


class ConfigError(SoftBorgError):
    """Invalid configuration values passed to a public constructor."""


class InvariantError(SoftBorgError):
    """A platform-wide invariant was violated: the collective state is
    no longer sound (see ``repro.chaos.invariants``)."""
