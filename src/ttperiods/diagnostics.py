"""Shared diagnosis value for validators that report rather than raise, the
base class of the errors that mean the input was unusable, LIMITS,
first_failure, which names the failure of an axiom checked on generators,
and the one rule by which every JSON reader reads integers and flags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple


class UsageError(Exception):
    """The input cannot be used: the command line exits 2, not 1.

    Every error class the package defines derives from this one, so a
    new error cannot fall through to a traceback by accident.
    """


class SizeBound(UsageError):
    """An input past a row of LIMITS; raised only by require_within."""


class Limit(NamedTuple):
    """A row of the size budget: value bounds what; seconds is the cost at
    the limit, rounded up (the README's Limits table says what was timed)."""

    name: str
    value: int
    what: str
    seconds: float


LIMITS = {row.name: row for row in (
    Limit("MAX_PRIME", 2**31 - 1, "the number tested for primality", 0.05),
    Limit("MAX_GROUP_ORDER", 729, "the order of a permutation group", 0.5),
    Limit("MAX_SUBGROUP_LOOKUPS", 500_000, "the table lookups of a subgroup lattice search", 1.0),
    Limit("MAX_DEGREE", 4096, "the number of points of a permutation group", 0.5),
    Limit("MAX_FREE_GENERATORS", 13, "the number of non-invertible generators", 2.0),
    Limit("MAX_POINTS", 384, "the number of points of a section table", 2.0),
    Limit("MAX_SECTIONS", 1500, "the number of sections of a section table", 2.0),
    Limit("MAX_COMPONENT_DIM", 3, "the dimension of a ring or 2-ring component", 3.0),
    Limit("MAX_COMPONENT_SIZE", 125, "the element count p^d of a ring or 2-ring component", 1.0),
    Limit("MAX_OBJECTS", 12, "the number of objects of a 2-ring", 2.0),
    Limit("MAX_FRACTION_PAIRS", 20000, "the number of fraction pairs of a localization", 5.0),
    Limit("MAX_SPANS", 20000, "the number of spans of a 2-ring localization", 10.0),
)}


def require_within(name: str, seen: int, at_least: bool = False) -> None:
    """Raise SizeBound "<NAME> = <value>: <what> is <seen>" when seen is past
    the named row; at_least marks seen as a lower bound, as is any seen past
    2^64, which is shown as 2^64 since its digits can be too many to print."""
    row = LIMITS[name]
    if seen <= row.value:
        return
    if seen.bit_length() > 64:
        seen, at_least = 2**64, True
    raise SizeBound(f"{name} = {row.value}: {row.what} is {'at least ' if at_least else ''}{seen}")


def json_int(value: Any) -> int:
    """value, if it is a JSON integer.  A float (2.0 included), a boolean or
    a string raises TypeError, never coerced; each reader reports it as
    malformed input."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def json_flag(value: Any) -> bool:
    """value, if it is a JSON boolean; anything else raises TypeError."""
    if type(value) is not bool:
        raise TypeError(f"{value!r} is not true or false")
    return value


def json_list(value: Any) -> list:
    """value, if it is a JSON array; a string or an object raises
    TypeError, never read as its characters or its keys."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is not an array")
    return value


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


def first_failure(fast: Iterable, exhaustive: Callable[[], Iterable]) -> Diagnosis:
    """PASS when fast yields no failure; otherwise the first failure that
    exhaustive() yields.

    fast checks an axiom on a generating set, which decides it exactly;
    exhaustive() scans every case in a fixed order, so the failure it
    names does not depend on the generators.  A fast failure that the scan
    cannot find is a bug in the generating-set check, not an input error.
    """
    if next(iter(fast), None) is None:
        return PASS
    found = next(iter(exhaustive()), None)
    if found is None:
        raise RuntimeError("a generating-set check failed where the exhaustive scan passes")
    return found
