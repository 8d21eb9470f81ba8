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

from .diagnostics import Diagnosis, PASS, UsageError, failure, json_int, json_list, require_within

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


class NegativePeriod(ModelError, ValueError):
    """A period below zero: periods are nonnegative."""


def divides(a: int, b: int) -> bool:
    """Divisibility with 0 on top: everything divides 0, 0 divides only 0."""
    if a < 0 or b < 0:
        raise NegativePeriod("periods are nonnegative")
    if b == 0:
        return True
    if a == 0:
        return False
    return b % a == 0


def is_prime(n: int) -> bool:
    """Whether n is a prime number."""
    require_within("MAX_PRIME", n)
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _bits(mask: int):
    """Indices of the set bits of mask, ascending.

    Scans the binary digits as text, least significant first, so each bit
    costs one str.find instead of a big-int operation.
    """
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _inclusions_by_table(masks, holders, full):
    """Each mask's supersets and subsets, from two tables over every element
    set k, doubled once per element: every[k] holds the points holding each
    element of k, none[k] those holding no element of k."""
    every, none = [full], [full]
    for h in holders:
        every += [s & h for s in every]
        none += [s & ~h for s in none]
    top = len(every) - 1
    return [every[m] for m in masks], [none[top ^ m] for m in masks]


def _inclusions_by_point(masks, holders, full):
    """Each mask's supersets and subsets, one holder AND or OR per
    (point, element)."""
    supersets, subsets = [], []
    for m in masks:
        every, outside = full, 0
        for e, h in enumerate(holders):
            if m >> e & 1:
                every &= h
            else:
                outside |= h
        supersets.append(every)
        subsets.append(full & ~outside)
    return supersets, subsets


class FiniteSpectralModel:
    """Finite poset of named points under specialization.

    specializes(p, q) holds when q lies in the closure of {p}; the stored
    relation is the reflexive-transitive closure of the input pairs and
    must be antisymmetric.

    Points are numbered 0..N-1 in sorted order and the relation is kept as
    one int bitmask per point: bit j of _down[i] is set when i -> j, and bit
    i of _up[j] likewise.  Public methods take and return point names.
    """

    def __init__(self, points: Iterable[str], specializes: Iterable[tuple[str, str]] = ()):
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise ModelError("duplicate point names")
        names = tuple(sorted(pts))
        index = {p: i for i, p in enumerate(names)}
        succ: list[set[int]] = [set() for _ in names]
        for a, b in specializes:
            if a not in index or b not in index:
                raise ModelError(f"edge ({a!r}, {b!r}) mentions an unknown point")
            if a != b:
                succ[index[a]].add(index[b])
        self._set(names, *_close(names, succ))

    def _set(self, names: tuple[str, ...], down: Sequence[int], up: Sequence[int]) -> None:
        """Install closed down- and up-masks over the sorted point names."""
        self.points: tuple[str, ...] = names
        self._index = {p: i for i, p in enumerate(names)}
        self._down = tuple(down)
        self._up = tuple(up)

    @classmethod
    def _from_masks(cls, names, down, up) -> "FiniteSpectralModel":
        model = cls.__new__(cls)
        model._set(names, down, up)
        return model

    @classmethod
    def from_inclusion_masks(
        cls, named_masks: Mapping[str, int], width: int
    ) -> "FiniteSpectralModel":
        """One point per name; p -> q when the mask of p lies strictly inside that of q.

        Masks are sets of element bits below width.  Each element's "holder"
        mask marks the points whose set contains it.  The sets containing
        that of p hold each of its elements; the sets inside it hold none
        outside it.  When the 2^width element sets number no more than the
        (point, element) pairs, both come from two tables over every element
        set; otherwise each point reads the holders one by one.  A set equal
        to that of p under another name lies in both, and is taken out of
        both, so equal sets stay incomparable.
        """
        names = tuple(sorted(named_masks))
        masks = [named_masks[p] for p in names]
        # Row i spells mask n-1-i in width digits, most significant first,
        # so column j, read as a binary number, holds element width-1-j.
        rows = [bin(m | 1 << width)[3:] for m in reversed(masks)]
        holders = [int("".join(col), 2) for col in zip(*rows)][::-1]
        full = (1 << len(names)) - 1
        if 1 << width <= len(names) * width:
            supersets, subsets = _inclusions_by_table(masks, holders, full)
        else:
            supersets, subsets = _inclusions_by_point(masks, holders, full)
        if len(set(masks)) == len(masks):
            return cls._from_masks(names, supersets, subsets)
        down = [s & ~t | 1 << i for i, (s, t) in enumerate(zip(supersets, subsets))]
        up = [t & ~s | 1 << i for i, (s, t) in enumerate(zip(supersets, subsets))]
        return cls._from_masks(names, down, up)

    # -- name <-> mask boundary ----------------------------------------

    def _at(self, p: str) -> int:
        """Number of a point; ModelError on an unknown name."""
        i = self._index.get(p)
        if i is None:
            raise ModelError(f"unknown point {p!r}")
        return i

    def _mask(self, subset: Iterable[str]) -> int:
        """Mask of a subset of points; ModelError on an unknown name."""
        index = self._index
        mask = 0
        for p in subset:
            i = index.get(p)
            if i is None:
                raise ModelError("subset mentions unknown points")
            mask |= 1 << i
        return mask

    def _names(self, mask: int) -> frozenset[str]:
        points = self.points
        return frozenset(points[i] for i in _bits(mask))

    # -- order ---------------------------------------------------------

    def specializes(self, p: str, q: str) -> bool:
        return bool(self._down[self._at(p)] >> self._at(q) & 1)

    def specializations(self, p: str) -> frozenset[str]:
        """All q with p -> q, i.e. the closure of {p}."""
        return self._names(self._down[self._at(p)])

    def _spread(self, masks: Sequence[int], subset: Iterable[str]) -> frozenset[str]:
        out = 0
        for p in subset:
            out |= masks[self._at(p)]
        return self._names(out)

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        return self._spread(self._down, subset)

    def generalization_closure(self, subset: Iterable[str]) -> frozenset[str]:
        return self._spread(self._up, subset)

    def is_open(self, subset: Iterable[str]) -> bool:
        sub = self._mask(subset)
        up = self._up
        return not any(up[i] & ~sub for i in _bits(sub))

    def closed_points(self) -> frozenset[str]:
        """Closed points of a finite spectral space: the maximal elements."""
        return frozenset(p for i, p in enumerate(self.points) if self._down[i] == 1 << i)

    def open_sets(self) -> list[frozenset[str]]:
        """Every open subset, as unions of minimal open neighborhoods."""
        opens = {0}
        for u_p in self._up:
            opens |= {u | u_p for u in opens}
        ordered = sorted(opens, key=lambda u: (u.bit_count(), tuple(_bits(u))))
        return [self._names(u) for u in ordered]

    def cover_pairs(self) -> list[tuple[str, str]]:
        """Transitive reduction, for emission: p covers q when nothing sits between.

        The covers of p are its strict specializations less the OR of the
        strict specializations of those.  A q already known to lie below
        adds nothing to that OR and is skipped.  Taking the highest index
        first only makes skips more likely (pattern names sort a set before
        the shorter name it extends); the result does not depend on it.
        Pairs come p ascending, then q ascending.
        """
        points, down = self.points, self._down
        strict = [m ^ (1 << i) for i, m in enumerate(down)]
        outside = [~m for m in down]
        out = []
        for i, s in enumerate(strict):
            below = 0
            rest = s
            while rest:
                j = rest.bit_length() - 1
                below |= strict[j]
                rest &= outside[j]
            p = points[i]
            out.extend((p, points[j]) for j in _bits(s & ~below))
        return out

    def restrict(self, subset: Iterable[str]) -> "FiniteSpectralModel":
        """Induced order on a subset: the closed relation, masked and renumbered."""
        sub = self._mask(subset)
        kept = list(_bits(sub))
        renumber = {i: k for k, i in enumerate(kept)}

        def moved(mask: int) -> int:
            out = 0
            for i in _bits(mask & sub):
                out |= 1 << renumber[i]
            return out

        return FiniteSpectralModel._from_masks(
            tuple(self.points[i] for i in kept),
            [moved(self._down[i]) for i in kept],
            [moved(self._up[i]) for i in kept],
        )

    # -- equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSpectralModel):
            return NotImplemented
        return self.points == other.points and self._down == other._down

    def __hash__(self) -> int:
        return hash((self.points, self._down))

    def __repr__(self) -> str:
        return f"FiniteSpectralModel({len(self.points)} points)"


def _close(names: Sequence[str], succ: list[set[int]]) -> tuple[list[int], list[int]]:
    """Down- and up-masks of the reflexive-transitive closure of succ.

    succ[i] holds the direct successors of point i.  One topological pass
    (Kahn's algorithm, sinks first) ORs each point's successors' down-masks
    into its own, and the reverse pass does the same for up-masks: one OR
    per edge each way.  Points left over lie on or above a cycle.
    """
    n = len(succ)
    succs = [sorted(js) for js in succ]
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, js in enumerate(succs):
        for j in js:
            preds[j].append(i)
    pending = [len(js) for js in succs]
    order = [i for i in range(n) if not pending[i]]
    for j in order:
        for i in preds[j]:
            pending[i] -= 1
            if not pending[i]:
                order.append(i)
    if len(order) < n:
        # Every point left has a successor left, so walking to the least one
        # must come round to a point already seen.
        seen = set()
        p = next(i for i, c in enumerate(pending) if c)
        while p not in seen:
            seen.add(p)
            p = next(j for j in succs[p] if pending[j])
        q = next(j for j in succs[p] if pending[j])
        raise ModelError(f"specialization cycle through {names[p]!r} and {names[q]!r}")
    down = [0] * n
    for j in order:
        m = 1 << j
        for k in succs[j]:
            m |= down[k]
        down[j] = m
    up = [0] * n
    for j in reversed(order):
        m = 1 << j
        for i in preds[j]:
            m |= up[i]
        up[j] = m
    return down, up


# Provenance tag of a period derived by the engine itself.
TAG_COMPUTED = "computed"


@dataclass(frozen=True)
class PeriodAssignment:
    """Period per point; 0 means non-periodic."""

    values: Mapping[str, int]

    def __getitem__(self, point: str) -> int:
        return self.values[point]


def _values(per) -> dict[str, int]:
    if isinstance(per, PeriodAssignment):
        return dict(per.values)
    return dict(per)


def check_period_map(model: FiniteSpectralModel, per) -> Diagnosis:
    """Monotonicity of a period assignment, which is also its continuity.

    p -> q must imply per(p) divides per(q): specialization can only
    multiply the period, with 0 (non-periodic) as absorbing top.  On a
    finite model this makes every sublevel set {p : per(p) divides d},
    d > 0, open: if g -> p and per(p) divides d, then per(g) divides
    per(p), which divides d.  So one check decides both, and a failure is
    always "not-monotone".
    """
    vals = _values(per)
    labels = []
    for p in model.points:
        if p not in vals:
            raise MissingLabel(p)
        if vals[p] < 0:
            raise ModelError(f"negative period at {p!r}")
        labels.append(vals[p])
    # Per label value: its points, and everything they specialize to, as
    # masks.
    level: dict[int, int] = {}
    reach: dict[int, int] = {}
    for i, v in enumerate(labels):
        level[v] = level.get(v, 0) | 1 << i
        reach[v] = reach.get(v, 0) | model._down[i]
    # Per label value v, what its points specialize to must lie among the
    # points whose label v divides.
    allowed: dict[int, int] = {}
    for v in level:
        allowed[v] = 0
        for w, mask in level.items():
            if divides(v, w):
                allowed[v] |= mask
    if any(reach[v] & ~allowed[v] for v in reach):
        i = next(i for i, v in enumerate(labels) if model._down[i] & ~allowed[v])
        j = next(_bits(model._down[i] & ~allowed[labels[i]]))
        return failure("not-monotone", model.points[i], model.points[j])
    return PASS


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
        raise NegativePeriod("periods are nonnegative")
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
        points = list(json_list(obj["points"]))
        edges = [tuple(json_list(e)) for e in json_list(obj.get("specializes", []))]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model object: {exc}") from exc
    if not all(isinstance(x, str) for x in points):
        raise ModelError("malformed model object: a point is not a string")
    if not all(len(e) == 2 and all(isinstance(x, str) for x in e) for e in edges):
        raise ModelError("malformed model object: an edge is not a pair of points")
    model = FiniteSpectralModel(points, edges)
    per = None
    if "periods" in obj:
        raw = obj["periods"]
        if not isinstance(raw, Mapping):
            raise ModelError("malformed periods: not an object")
        missing = set(model.points) - set(raw)
        if missing:
            raise MissingLabel(sorted(missing)[0])
        try:
            per = PeriodAssignment({p: json_int(raw[p]) for p in model.points})
        except (TypeError, ValueError) as exc:
            raise ModelError(f"malformed periods: {exc}") from exc
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
