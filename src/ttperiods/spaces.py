"""Finite spectral spaces as posets, plus period assignments over them.

A finite T0 space is the same thing as a finite poset: we store the
specialization relation p -> q ("q lies in the closure of {p}") and read
the topology off it.  Opens are the generalization-closed subsets.

Periods live in the divisibility monoid on the nonnegative integers where
0 sits at the top: every d divides 0 and 0 divides only 0.  A period of 0
means "not periodic at all", which is why it has to dominate everything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .diagnostics import Diagnosis, PASS, UsageError, failure

# Sentinel for "every nonnegative integer", the one infinite open we need.
ALL = "all"


class ModelError(UsageError):
    """Malformed model or assignment data."""


class MissingLabel(ModelError):
    """A point of the model carries no period."""


class NotOpen(ModelError):
    """The given subset is not generalization-closed."""


class NotStable(ModelError):
    """A tower sequence is not eventually constant in the required form."""


def divides(a: int, b: int) -> bool:
    """Divisibility with 0 on top: everything divides 0, 0 divides only 0."""
    if a < 0 or b < 0:
        raise ValueError("periods are nonnegative")
    if b == 0:
        return True
    if a == 0:
        return False
    return b % a == 0


def is_prime(n: int) -> bool:
    """Whether n is a prime number."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def is_alexandrov_open(ds) -> bool:
    """True iff the set of periods is divisor-closed.

    Pass ALL for the full poset.  No finite set containing 0 is open,
    since every integer divides 0.
    """
    if ds == ALL:
        return True
    values = set(ds)
    if any(d < 0 for d in values):
        raise ValueError("periods are nonnegative")
    if 0 in values:
        return False
    return all(
        e in values for d in values for e in range(1, d + 1) if d % e == 0
    )


class FiniteSpectralModel:
    """Finite poset of named points under specialization.

    specializes(p, q) holds when q lies in the closure of {p}; the stored
    relation is the reflexive-transitive closure of the input pairs and
    must be antisymmetric.
    """

    def __init__(self, points: Iterable[str], specializes: Iterable[tuple[str, str]] = ()):
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise ModelError("duplicate point names")
        self.points: tuple[str, ...] = tuple(sorted(pts))
        index = set(self.points)
        down: dict[str, set[str]] = {p: {p} for p in self.points}
        for a, b in specializes:
            if a not in index or b not in index:
                raise ModelError(f"edge ({a!r}, {b!r}) mentions an unknown point")
            down[a].add(b)
        # Transitive closure; n is tiny so the repeated sweep is fine.
        changed = True
        while changed:
            changed = False
            for p in self.points:
                extra = set()
                for q in down[p]:
                    extra |= down[q]
                if not extra <= down[p]:
                    down[p] |= extra
                    changed = True
        for p in self.points:
            for q in down[p]:
                if p != q and p in down[q]:
                    raise ModelError(f"specialization cycle through {p!r} and {q!r}")
        self._down = {p: frozenset(qs) for p, qs in down.items()}
        self._up = {
            p: frozenset(q for q in self.points if p in self._down[q])
            for p in self.points
        }

    @classmethod
    def from_inclusions(cls, named_sets: Mapping[str, frozenset]) -> "FiniteSpectralModel":
        """One point per name; p -> q when the set of p lies strictly inside that of q."""
        pairs = [(a, b) for a, i in named_sets.items() for b, j in named_sets.items() if i < j]
        return cls(named_sets, pairs)

    # -- order ---------------------------------------------------------

    def specializes(self, p: str, q: str) -> bool:
        return q in self._down[p]

    def specializations(self, p: str) -> frozenset[str]:
        """All q with p -> q, i.e. the closure of {p}."""
        return self._down[p]

    def generalizations(self, p: str) -> frozenset[str]:
        """All q with q -> p; this is the minimal open neighborhood of p."""
        return self._up[p]

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        out: set[str] = set()
        for p in subset:
            out |= self._down[p]
        return frozenset(out)

    def generalization_closure(self, subset: Iterable[str]) -> frozenset[str]:
        out: set[str] = set()
        for p in subset:
            out |= self._up[p]
        return frozenset(out)

    def is_open(self, subset: Iterable[str]) -> bool:
        sub = frozenset(subset)
        if not sub <= set(self.points):
            raise ModelError("subset mentions unknown points")
        return all(self._up[p] <= sub for p in sub)

    def is_closed(self, subset: Iterable[str]) -> bool:
        sub = frozenset(subset)
        if not sub <= set(self.points):
            raise ModelError("subset mentions unknown points")
        return all(self._down[p] <= sub for p in sub)

    def closed_points(self) -> frozenset[str]:
        """Closed points of a finite spectral space: the maximal elements."""
        return frozenset(p for p in self.points if self._down[p] == frozenset({p}))

    def open_sets(self) -> list[frozenset[str]]:
        """Every open subset, as unions of minimal open neighborhoods."""
        opens = {frozenset()}
        for p in self.points:
            opens |= {u | self._up[p] for u in opens}
        return sorted(opens, key=lambda u: (len(u), tuple(sorted(u))))

    def cover_pairs(self) -> list[tuple[str, str]]:
        """Transitive reduction, for emission: p covers q when nothing sits between."""
        out = []
        for p in self.points:
            for q in sorted(self._down[p] - {p}):
                if not any(
                    r != p and r != q and q in self._down[r]
                    for r in self._down[p] - {p, q}
                ):
                    out.append((p, q))
        return out

    def restrict(self, subset: Iterable[str]) -> "FiniteSpectralModel":
        sub = frozenset(subset)
        if not sub <= set(self.points):
            raise ModelError("subset mentions unknown points")
        pairs = [
            (p, q) for p in sub for q in self._down[p] if q != p and q in sub
        ]
        return FiniteSpectralModel(sub, pairs)

    # -- equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSpectralModel):
            return NotImplemented
        return self.points == other.points and self._down == other._down

    def __hash__(self) -> int:
        return hash((self.points, tuple(sorted(self._down.items()))))

    def __repr__(self) -> str:
        return f"FiniteSpectralModel({len(self.points)} points)"


# Provenance tag of a period derived by the engine itself.
TAG_COMPUTED = "computed"


@dataclass(frozen=True)
class PeriodAssignment:
    """Period per point; 0 means non-periodic."""

    values: Mapping[str, int]

    def __getitem__(self, point: str) -> int:
        return self.values[point]

    def image(self) -> frozenset[int]:
        return frozenset(self.values.values())


def _values(per) -> dict[str, int]:
    if isinstance(per, PeriodAssignment):
        return dict(per.values)
    return dict(per)


def check_period_map(model: FiniteSpectralModel, per) -> Diagnosis:
    """Continuity and monotonicity of a period assignment.

    (a) for every d > 0 the sublevel set {p : per(p) divides d} is open;
        checking the d that occur as labels suffices, since for any other
        d the sublevel set is a union of those.
    (b) p -> q implies per(p) divides per(q): specialization can only
        multiply the period, with 0 (non-periodic) as absorbing top.
    Both are checked, independently, even though they agree on finite models.
    """
    vals = _values(per)
    for p in model.points:
        if p not in vals:
            raise MissingLabel(p)
        if vals[p] < 0:
            raise ModelError(f"negative period at {p!r}")
    open_fail = None
    for d in sorted(v for v in set(vals.values()) if v > 0):
        sub = {p for p in model.points if divides(vals[p], d)}
        if not model.is_open(sub):
            p = next(p for p in sub if not model.generalizations(p) <= sub)
            g = next(g for g in model.generalizations(p) if g not in sub)
            open_fail = failure("sublevel-not-open", g, p)
            break
    monotone_fail = None
    for p in model.points:
        for q in model.specializations(p):
            if not divides(vals[p], vals[q]):
                monotone_fail = failure("not-monotone", p, q)
                break
        if monotone_fail:
            break
    if monotone_fail is not None:
        return monotone_fail
    if open_fail is not None:
        return open_fail
    return PASS


@dataclass(frozen=True)
class Stratum:
    """A fiber {per = d} together with its locally-closed certificate."""

    members: frozenset[str]
    locally_closed: bool
    open_part: frozenset[str]
    closed_part: frozenset[str]


def strata(model: FiniteSpectralModel, per, d: int) -> Stratum:
    """The fiber {p : per(p) = d}, certified locally closed.

    A subset is locally closed iff it equals the intersection of its
    generalization closure (an open) with its closure (a closed set).
    """
    diag = check_period_map(model, per)
    if not diag:
        raise ModelError(f"period map invalid: {diag.describe()}")
    vals = _values(per)
    members = frozenset(p for p in model.points if vals[p] == d)
    open_part = model.generalization_closure(members)
    closed_part = model.closure(members)
    return Stratum(
        members=members,
        locally_closed=(open_part & closed_part) == members,
        open_part=open_part,
        closed_part=closed_part,
    )


def restrict_to_open(
    model: FiniteSpectralModel, per, subset: Iterable[str]
) -> tuple[FiniteSpectralModel, PeriodAssignment]:
    """Induced model on an open subset, periods copied unchanged.

    Localizing away a specialization-closed set does not move local
    periods, so restriction is literal.
    """
    sub = frozenset(subset)
    if not model.is_open(sub):
        raise NotOpen(tuple(sorted(sub)))
    vals = _values(per)
    return model.restrict(sub), PeriodAssignment({p: vals[p] for p in sub})


def tower_period(point_systems: Sequence[int]) -> int:
    """Eventual period of a filtered system, from its finite sampled values.

    The last entry declares the stable tail d.  A zero tail forces every
    entry to be zero; a nonzero tail must hold from its first occurrence
    onward.  Anything else is invalid input data, not a tolerated state.
    """
    seq = list(point_systems)
    if not seq:
        raise NotStable("empty sequence")
    if any(v < 0 for v in seq):
        raise ValueError("periods are nonnegative")
    d = seq[-1]
    if d == 0:
        if any(v != 0 for v in seq):
            raise NotStable(tuple(seq))
        return 0
    start = seq.index(d)
    if any(v != d for v in seq[start:]):
        raise NotStable(tuple(seq))
    return d


# -- serialization -----------------------------------------------------

def model_to_obj(model: FiniteSpectralModel, per=None) -> dict:
    obj: dict = {
        "points": list(model.points),
        "specializes": [list(e) for e in model.cover_pairs()],
    }
    if per is not None:
        vals = _values(per)
        obj["periods"] = {p: vals[p] for p in model.points}
    return obj


def model_from_obj(obj: Mapping) -> tuple[FiniteSpectralModel, PeriodAssignment | None]:
    try:
        points = list(obj["points"])
        edges = [tuple(e) for e in obj.get("specializes", [])]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model object: {exc}") from exc
    model = FiniteSpectralModel(points, edges)
    per = None
    if "periods" in obj:
        raw = dict(obj["periods"])
        missing = set(model.points) - set(raw)
        if missing:
            raise MissingLabel(sorted(missing)[0])
        per = PeriodAssignment({p: int(raw[p]) for p in model.points})
    return model, per


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# Fixed color legend for DOT figures, keyed by period.
DOT_COLORS = {0: "black", 1: "blue", 2: "red", 4: "red"}
DOT_DEFAULT_COLOR = "gray"


def model_to_dot(model: FiniteSpectralModel, per=None, name: str = "model") -> str:
    """Deterministic DOT text; specialization edges point upward."""
    vals = _values(per) if per is not None else None
    lines = [f'digraph "{name}" {{', "  rankdir=BT;", '  node [shape=ellipse, style=filled];']
    for p in model.points:
        if vals is None:
            lines.append(f'  "{p}" [fillcolor=white];')
            continue
        color = DOT_COLORS.get(vals[p], DOT_DEFAULT_COLOR)
        font = "white" if color == "black" else "black"
        lines.append(
            f'  "{p}" [label="{p} ({vals[p]})", fillcolor={color}, fontcolor={font}];'
        )
    for a, b in model.cover_pairs():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
