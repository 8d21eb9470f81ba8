"""Finitely presented graded-commutative rings and their vanishing-pattern spectra.

A homogeneous prime is represented by its trace on the generators: the set
of generator names it contains, held as a mask with one bit per
non-invertible generator (names and frozensets are views of the mask).  For
monomial quotients that trace data is a complete description and the whole
spectrum can be enumerated as a hitting-set problem; for other
presentations, supplied witness patterns are validated against sound
necessary conditions instead.

Local periods come from the gcd formula: the period at a pattern is the
gcd of the degrees of the generators outside it, with gcd of nothing
being 0 (non-periodic).  oracle_local_period is the deliberately dumb
monomial-enumeration counterpart used to keep that reduction honest.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .diagnostics import Diagnosis, PASS, UsageError, failure, json_flag, json_int, require_within
from .spaces import ALL, FiniteSpectralModel, divides, is_prime


class GradedError(UsageError):
    """Malformed ring or pattern data."""


class NonMonomialWithoutWitnesses(GradedError):
    """Pattern enumeration needs monomial relations or explicit witnesses."""


class InvalidPattern(GradedError):
    """A supplied pattern violates a soundness constraint."""


class BoundTooSmall(GradedError):
    """The brute-force degree bound admits no qualifying monomial."""


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    invertible: bool = False
    nilpotent: bool = False


@dataclass(frozen=True)
class Term:
    """coeff * product of generators with positive exponents."""

    coeff: int
    monomial: tuple[tuple[str, int], ...]

    def variables(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.monomial)


Relation = tuple[Term, ...]


@dataclass(frozen=True)
class TauTable:
    """Finite transposition table: degree pair -> unit scalar."""

    entries: Mapping[tuple[int, int], int]


@dataclass(frozen=True)
class GradedRingPresentation:
    char: int
    generators: tuple[Generator, ...]
    relations: tuple[Relation, ...] = ()
    constraint: "str | TauTable" = "koszul"

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise GradedError(f"unknown generator {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def free_names(self) -> tuple[str, ...]:
        """The non-invertible generators, in declaration order: bit i of a
        pattern mask stands for the i-th."""
        return tuple(g.name for g in self.generators if not g.invertible)

    def pattern_mask(self, names: Iterable[str]) -> int:
        """Mask of the non-invertible generators among names; units and
        undeclared names set no bit (pattern_mask(names()) is all bits)."""
        chosen = set(names)
        return sum(1 << i for i, n in enumerate(self.free_names()) if n in chosen)

    def term_degree(self, term: Term) -> int:
        return sum(self.generator(n).degree * e for n, e in term.monomial)


def make_ring(
    char: int,
    generators: Sequence[tuple],
    relations: Sequence[Sequence[tuple[int, Mapping[str, int]]]] = (),
    constraint: "str | TauTable" = "koszul",
) -> GradedRingPresentation:
    """Convenience constructor with coefficient canonicalization.

    generators: (name, degree[, invertible[, nilpotent]]) tuples.
    relations: lists of (coeff, {name: exponent}) terms; like terms are
    merged and coefficients reduced mod char, so formally zero relations
    vanish here rather than confusing the pattern constraints later.
    """
    gens = tuple(Generator(*g) for g in generators)
    rels = []
    for raw in relations:
        acc: dict[tuple[tuple[str, int], ...], int] = {}
        for coeff, mono in raw:
            key = tuple(sorted((n, int(e)) for n, e in mono.items() if int(e) > 0))
            acc[key] = acc.get(key, 0) + int(coeff)
        terms = []
        for key, coeff in sorted(acc.items()):
            if char:
                coeff %= char
            if coeff != 0:
                terms.append(Term(coeff, key))
        if terms:
            rels.append(tuple(terms))
    return GradedRingPresentation(char, gens, tuple(rels), constraint)


def validate_presentation(ring: GradedRingPresentation) -> Diagnosis:
    """Homogeneity, transposition axioms, and the odd-unit constraint."""
    names = ring.names()
    if len(set(names)) != len(names):
        return failure("duplicate-generator", names)
    if ring.char != 0 and not is_prime(ring.char):
        return failure("char-not-prime", ring.char)
    for g in ring.generators:
        if g.nilpotent and g.invertible:
            return failure("nilpotent-unit", g.name)
    known = set(names)
    for rel in ring.relations:
        degs = set()
        for term in rel:
            if not term.variables() <= known:
                return failure("unknown-generator", rel)
            degs.add(ring.term_degree(term))
        if len(degs) > 1:
            return failure("inhomogeneous", rel)
    if isinstance(ring.constraint, TauTable):
        tau = dict(ring.constraint.entries)
        for (a, b), u in tau.items():
            if ring.char and u % ring.char == 0:
                return failure("tau-not-unit", (a, b))
            if u == 0:
                return failure("tau-not-unit", (a, b))
            if (b, a) in tau and tau[(b, a)] != u:
                return failure("tau-not-symmetric", (a, b))
        for (a, b), u in tau.items():
            for (c, d), v in tau.items():
                if d == b and (a + c, b) in tau:
                    lhs = tau[(a + c, b)]
                    rhs = u * v
                    if ring.char:
                        lhs, rhs = lhs % ring.char, rhs % ring.char
                    if lhs != rhs:
                        return failure("tau-not-bilinear", (a, c, b))
    elif ring.constraint not in ("koszul", "trivial"):
        return failure("unknown-constraint", ring.constraint)
    if ring.constraint == "koszul":
        # An invertible element of odd degree forces 2 = 0 under the
        # Koszul sign rule: u*u = -u*u gives 2u^2 = 0 with u^2 a unit.
        for g in ring.generators:
            if g.invertible and g.degree % 2 != 0 and ring.char != 2:
                return failure("odd-period", g.name)
    return PASS


@dataclass(frozen=True)
class PrimePattern:
    """Trace of a homogeneous prime on the generators."""

    contains: frozenset[str]

    @staticmethod
    def of(*names: str) -> "PrimePattern":
        return PrimePattern(frozenset(names))


def pattern_name(ring: GradedRingPresentation, pattern: PrimePattern) -> str:
    ordered = [n for n in ring.names() if n in pattern.contains]
    return "⟨" + ",".join(ordered) + "⟩"


def pattern_diagnosis(ring: GradedRingPresentation, pattern: PrimePattern) -> Diagnosis:
    """Sound necessary conditions for a generator subset to trace a prime."""
    if not pattern.contains <= set(ring.names()):
        return failure("unknown-generator", sorted(pattern.contains - set(ring.names())))
    for g in ring.generators:
        if g.nilpotent and g.name not in pattern.contains:
            return failure("nilpotent-outside", g.name)
        if g.invertible and g.name in pattern.contains:
            return failure("invertible-inside", g.name)
    for rel in ring.relations:
        hit = [bool(t.variables() & pattern.contains) for t in rel]
        if len(rel) == 1:
            if not hit[0]:
                return failure("monomial-not-hit", rel)
        elif hit.count(False) == 1:
            # All monomials but one lie in the prime, so their sum forces
            # the last one in as well; primality then hits a variable.
            return failure("propagation", rel)
    return PASS


def _mask_decoder(free: Sequence[str]):
    """decode(mask): the names in free whose bits mask holds, in order, from
    one table of name tuples per 12 bits of the width, so the tables grow
    with the width, not with 2^width: witness rings have no width bound."""
    tables: list[list[tuple[str, ...]]] = [[()] for _ in range(0, max(len(free), 1), 12)]
    for i, name in enumerate(free):
        tables[i // 12] += [t + (name,) for t in tables[i // 12]]
    if len(tables) == 1:
        return tables[0].__getitem__
    return lambda mask: sum((t[mask >> 12 * k & 4095] for k, t in enumerate(tables)), ())


@dataclass(frozen=True)
class SpechModel:
    """Finite poset of named pattern points over one presentation.

    masks is the one record of each point's pattern: a mask with one bit
    per generator of ring.free_names(), keyed in point order.  patterns is
    a view of the same sets as PrimePattern objects, built on first read.
    """

    ring: GradedRingPresentation
    space: FiniteSpectralModel
    certified: Mapping[str, str]
    masks: Mapping[str, int]

    @cached_property
    def patterns(self) -> Mapping[str, PrimePattern]:
        decode = _mask_decoder(self.ring.free_names())
        return {p: PrimePattern(frozenset(decode(m))) for p, m in self.masks.items()}


_CERT_TAGS = ("enumerated", "witness", "paper")


def _build_spech(ring, width: int, names, masks, certs) -> SpechModel:
    """Model on parallel lists of point names, pattern masks over the width
    non-invertible generators, and tags.

    Two patterns under one name (generator names holding commas or angle
    brackets can make one) are refused, not merged.
    """
    named = dict(zip(names, masks))
    if len(named) < len(names):
        duplicate = next(n for n, k in Counter(names).items() if k > 1)
        raise InvalidPattern(duplicate, "duplicate name")
    space = FiniteSpectralModel.from_inclusion_masks(named, width)
    tag = dict(zip(names, certs))
    return SpechModel(
        ring=ring,
        space=space,
        certified={n: tag[n] for n in space.points},
        masks={n: named[n] for n in space.points},
    )


def enumerate_patterns(
    ring: GradedRingPresentation,
    witnesses: "Iterable[tuple[PrimePattern, str]] | None" = None,
) -> SpechModel:
    """Spectrum model: exhaustive for monomial quotients, validated otherwise.

    A pattern is held as a mask with one bit per non-invertible generator,
    in declaration order.  Monomial mode keeps every mask that contains the
    nilpotents and meets each relation monomial; that is the complete list
    of pattern points.  It refuses more than MAX_FREE_GENERATORS
    non-invertible generators with SizeBound, before enumerating anything.
    With witnesses supplied, each pattern is diagnosed and kept as its
    mask, and a pattern given twice is refused; completeness is then the
    caller's responsibility.
    """
    free = ring.free_names()
    if witnesses is not None:
        names, masks, certs = [], [], []
        seen: set[int] = set()
        for pattern, cert in witnesses:
            name = pattern_name(ring, pattern)
            if cert not in _CERT_TAGS:
                raise InvalidPattern(name, f"bad tag {cert!r}")
            diag = pattern_diagnosis(ring, pattern)
            if not diag:
                raise InvalidPattern(name, diag.reason)
            mask = ring.pattern_mask(pattern.contains)
            if mask in seen:
                raise InvalidPattern(name, "repeated pattern")
            seen.add(mask)
            names.append(name)
            masks.append(mask)
            certs.append(cert)
        return _build_spech(ring, len(free), names, masks, certs)
    if any(len(rel) > 1 for rel in ring.relations):
        raise NonMonomialWithoutWitnesses(
            "non-monomial relations need witness patterns"
        )
    n = len(free)
    require_within("MAX_FREE_GENERATORS", n)
    forced = ring.pattern_mask(g.name for g in ring.generators if g.nilpotent)
    if any(g.nilpotent and g.invertible for g in ring.generators):
        forced |= 1 << n  # held by no pattern: a nilpotent unit admits none
    masks = [m for m in range(1 << n) if m & forced == forced]
    for rel in ring.relations:
        need = ring.pattern_mask(rel[0].variables())  # 0: never hit
        masks = [m for m in masks if m & need]
    decode = _mask_decoder(free)
    names = ["⟨" + ",".join(decode(m)) + "⟩" for m in masks]
    return _build_spech(ring, n, names, masks, ["enumerated"] * len(masks))


def local_period(ring: GradedRingPresentation, pattern: PrimePattern) -> int:
    """gcd of generator degrees outside the pattern; gcd of nothing is 0."""
    g = 0
    for gen in ring.generators:
        if gen.name not in pattern.contains and gen.degree != 0:
            g = math.gcd(g, abs(gen.degree))
    return g


def _periods_and_complements(ring: GradedRingPresentation, model: SpechModel):
    """Each point's period and complement: the mask of the non-invertible
    generators outside its pattern.  Periods are read from a gcd table
    over complements: the empty one holds the gcd of the nonzero unit
    degrees, and any other takes one gcd, of the entry without its lowest
    bit and that bit's degree."""
    degree = [abs(g.degree) for g in ring.generators if not g.invertible]
    full = (1 << len(degree)) - 1
    gcd = math.gcd
    table = {0: gcd(*(abs(g.degree) for g in ring.generators if g.invertible))}
    periods, outside = {}, {}
    masks = model.masks
    for p in model.space.points:
        c = outside[p] = full ^ masks[p]
        missing = []
        while c not in table:
            missing.append(c)
            c &= c - 1
        v = table[c]
        for c in reversed(missing):
            v = table[c] = gcd(v, degree[(c & -c).bit_length() - 1])
        periods[p] = v
    return periods, outside


def point_periods(ring: GradedRingPresentation, model: SpechModel) -> dict[str, int]:
    """local_period at every point of the model, in point order, from one
    gcd table over complement masks (at most 2^free gcds in all)."""
    return _periods_and_complements(ring, model)[0]


def periodic_locus(ring: GradedRingPresentation, model: SpechModel, d) -> frozenset[str]:
    """Points of positive period (d = ALL) or of period dividing d.

    Periods come from point_periods' table.  The union of principal loci
    D(x) over nonzero-degree generators x is the second route: a unit's
    locus is every point, a generator's the points whose complement meets
    its bit.
    """
    if d != ALL and (not isinstance(d, int) or d < 0):
        raise GradedError(f"bad period bound {d!r}")
    degree = [abs(g.degree) for g in ring.generators if not g.invertible]
    units = [abs(g.degree) for g in ring.generators if g.invertible and g.degree]
    periods, outside = _periods_and_complements(ring, model)
    if d == ALL:
        via_formula = frozenset(p for p, v in periods.items() if v > 0)
        live = sum(1 << i for i, b in enumerate(degree) if b)
        via_loci = frozenset(p for p, c in outside.items() if units or c & live)
        if via_formula != via_loci:
            raise RuntimeError("periodic locus cross-check failed")
        return via_formula
    # A principal locus bounds every period in it: per period value, each
    # generator outside some point of that value must have a multiple of it
    # as its degree.
    reach: dict[int, int] = {}
    for p, c in outside.items():
        reach[periods[p]] = reach.get(periods[p], 0) | c
    for v, c in reach.items():
        bounds = units + [b for i, b in enumerate(degree) if c >> i & 1 and b]
        if not all(divides(v, b) for b in bounds):
            raise RuntimeError("principal locus period bound failed")
    return frozenset(p for p, v in periods.items() if divides(v, d))


def oracle_local_period(
    ring: GradedRingPresentation, pattern: PrimePattern, degree_bound: int
) -> int:
    """Brute-force gcd over degrees of pattern-avoiding monomials.

    Enumerates every monomial in the generators outside the pattern with
    total degree in (0, degree_bound] and takes the gcd of the degrees.
    This is the independent check of the generator-degree reduction.
    """
    if degree_bound <= 0:
        raise GradedError("degree bound must be positive")
    if any(g.degree < 0 for g in ring.generators):
        raise GradedError("oracle needs nonnegative degrees")
    outside = [g for g in ring.generators if g.name not in pattern.contains]
    # A monomial's degree is a nonnegative combination of the outside
    # generators' degrees, so the achievable degrees are exactly the
    # reachable sums; duplicates add nothing and are collapsed.
    positive = sorted({g.degree for g in outside if g.degree > 0})
    reachable = [False] * (degree_bound + 1)
    reachable[0] = True
    for d in positive:
        for total in range(d, degree_bound + 1):
            if reachable[total - d]:
                reachable[total] = True
    degrees = [total for total in range(1, degree_bound + 1) if reachable[total]]
    if not degrees:
        if outside:
            raise BoundTooSmall(degree_bound)
        return 0
    return math.gcd(*degrees)


# -- serialization -----------------------------------------------------

def ring_to_obj(ring: GradedRingPresentation) -> dict:
    if isinstance(ring.constraint, TauTable):
        raise GradedError("tau tables have no JSON form; use koszul or trivial")
    return {
        "char": ring.char,
        "constraint": ring.constraint,
        "generators": [
            {
                "name": g.name,
                "degree": g.degree,
                "invertible": g.invertible,
                "nilpotent": g.nilpotent,
            }
            for g in ring.generators
        ],
        "relations": [
            [{"coeff": t.coeff, "monomial": dict(t.monomial)} for t in rel]
            for rel in ring.relations
        ],
    }


def ring_from_obj(obj: Mapping) -> GradedRingPresentation:
    try:
        gens = [
            (
                g["name"],
                json_int(g["degree"]),
                json_flag(g.get("invertible", False)),
                json_flag(g.get("nilpotent", False)),
            )
            for g in obj["generators"]
        ]
        if not all(isinstance(g[0], str) for g in gens):
            raise GradedError("malformed ring object: a generator name is not a string")
        rels = [
            [(json_int(t["coeff"]), {n: json_int(e) for n, e in t["monomial"].items()})
             for t in rel]
            for rel in obj.get("relations", [])
        ]
        return make_ring(
            json_int(obj["char"]), gens, rels, obj.get("constraint", "koszul")
        )
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise GradedError(f"malformed ring object: {exc}") from exc


def spech_to_obj(model: SpechModel, periods: "Mapping[str, int] | None" = None) -> dict:
    decode = _mask_decoder(model.ring.free_names())
    obj = {
        "points": list(model.space.points),
        "specializes": [list(e) for e in model.space.cover_pairs()],
        "pattern": {p: list(decode(model.masks[p])) for p in model.space.points},
        "certified": {p: model.certified[p] for p in model.space.points},
    }
    if periods is not None:
        obj["periods"] = {p: periods[p] for p in model.space.points}
    return obj
