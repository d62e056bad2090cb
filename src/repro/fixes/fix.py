"""Fix base class and program-transformation utilities."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FixError
from repro.progmodel.ir import Program

__all__ = ["Fix", "clone_program"]

# Global flag set by recovery stubs; analyses can count recoveries.
RECOVERY_FLAG = "__recovered"


def clone_program(program: Program, bump_version: bool = True) -> Program:
    """Deep-copy a program's blocks and instructions, which a fix may
    change; its expressions are immutable and shared, memos included
    (``Expr.__deepcopy__``). Optionally bumps the version so traces
    from unfixed pods cannot be replayed against the wrong program."""
    cloned = copy.deepcopy(program)
    if bump_version:
        cloned.version = program.version + 1
    return cloned


@dataclass
class Fix:
    """Base class for synthesized fixes.

    Subclasses implement :meth:`transform` on an already-cloned
    program; :meth:`apply` handles cloning, version bump, and
    validation of the result.
    """

    fix_id: str
    description: str = ""
    target_bug_message: Optional[str] = None

    def apply(self, program: Program) -> Program:
        cloned = clone_program(program)
        self.transform(cloned)
        try:
            cloned.validate()
        except Exception as exc:
            raise FixError(
                f"fix {self.fix_id} produced an invalid program: {exc}"
            ) from exc
        return cloned

    def transform(self, program: Program) -> None:
        raise NotImplementedError
