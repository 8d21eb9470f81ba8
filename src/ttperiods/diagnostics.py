"""Shared diagnosis value for validators that report rather than raise,
and the one base class of the errors that mean the input was unusable."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class UsageError(Exception):
    """The input cannot be used: the command line exits 2, not 1.

    Every error class the package defines derives from this one, so a
    new error cannot fall through to a traceback by accident.
    """


class SizeBound(UsageError):
    """Enumeration would exceed the configured finite limits."""


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of a structural check.

    ok:     whether every checked condition held.
    reason: short machine-readable tag for the first violated condition.
    detail: the offending data (points, relation, degree pair, ...).
    """

    ok: bool
    reason: str = ""
    detail: tuple[Any, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "PASS"
        items = ", ".join(repr(x) for x in self.detail)
        return f"FAIL({self.reason}: {items})" if items else f"FAIL({self.reason})"


PASS = Diagnosis(True)


def failure(reason: str, *detail: Any) -> Diagnosis:
    return Diagnosis(False, reason, tuple(detail))
