"""Comparison maps built from support data over finite spectral models.

A section table records finitely many sections of invertible objects
together with the open locus where each section is invertible.  Sending
a point to the set of sections vanishing there yields a map into the
pattern model of the section ring; the operations here decide when that
map is a basis-giving embedding, move period data across it, and cut out
the open subspace where chosen sections are invertible.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .diagnostics import Diagnosis, PASS, UsageError, failure, json_int, json_list, json_object, json_str
from .diagnostics import require_within
from .graded import GradedRingPresentation, PrimePattern, local_period
from .spaces import FiniteSpectralModel, _values, divides


class ComparisonError(UsageError):
    pass


class Section(NamedTuple):
    """One section with its invertibility locus."""

    name: str
    bundle: str
    degree: int
    locus: frozenset[str]


class SectionTable:
    """Finite support datum: a space, graded bundles, sections with loci.

    bundles maps each bundle label to its integer degree; a section's
    degree must agree with its bundle's.  products records those pairs
    whose product is again a tabulated section.  Every table is checked
    once, when built: past MAX_POINTS or MAX_SECTIONS it is refused with
    SizeBound, and where validate_section_table fails, with ComparisonError.
    Its comparison map, its locus masks and its embedding verdict are each
    kept in _cache the first time they are read.
    """

    def __init__(self, space: FiniteSpectralModel, bundles: Mapping[str, int],
                 sections: tuple[Section, ...], products: Mapping[tuple[str, str], str]):
        self.space, self.bundles, self.sections, self.products = space, bundles, sections, products
        self._cache: dict = {}
        require_within("MAX_POINTS", len(self.space.points))
        require_within("MAX_SECTIONS", len(self.sections))
        diag = validate_section_table(self)
        if not diag:
            raise ComparisonError(f"invalid section table: {diag.describe()}")

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sections)


def make_table(space, bundles, sections, products=()) -> SectionTable:
    """A table from (name, bundle, degree, locus) rows and (a, b, ab) products."""
    secs = tuple(
        Section(name, bundle, int(degree), frozenset(locus))
        for name, bundle, degree, locus in sections
    )
    return SectionTable(space, dict(bundles), secs, {(a, b): ab for a, b, ab in products})


def validate_section_table(table: SectionTable) -> Diagnosis:
    points = set(table.space.points)
    for label, degree in table.bundles.items():
        if not isinstance(label, str) or not isinstance(degree, int):
            return failure("bad-bundle", label)
    seen: dict[str, Section] = {}
    for s in table.sections:
        if not s.name or s.name in seen:
            return failure("section-name", s.name)
        seen[s.name] = s
        if s.bundle not in table.bundles:
            return failure("unknown-bundle", s.name, s.bundle)
        if s.degree != table.bundles[s.bundle]:
            return failure("degree-vs-bundle", s.name, s.degree, s.bundle)
        if not s.locus <= points:
            return failure("locus-outside-space", s.name)
        if not table.space.is_open(s.locus):
            return failure("locus-not-open", s.name)
    for (a, b), ab in table.products.items():
        if a not in seen or b not in seen or ab not in seen:
            return failure("product-unknown-section", a, b, ab)
        if seen[ab].degree != seen[a].degree + seen[b].degree:
            return failure("product-degree", a, b, ab)
        # Invertibility of both factors forces invertibility of the product.
        if not seen[a].locus & seen[b].locus <= seen[ab].locus:
            return failure("product-locus", a, b, ab)
    return PASS


def _cached(table: SectionTable, key: str, build):
    """build(table), kept in table._cache under key from the first read."""
    if key not in table._cache:
        table._cache[key] = build(table)
    return table._cache[key]


def comp_map(table: SectionTable) -> Mapping[str, PrimePattern]:
    """Point to the pattern of sections vanishing there, built once per
    table."""
    return _cached(table, "comp", lambda t: MappingProxyType({
        p: PrimePattern(frozenset(s.name for s in t.sections if p not in s.locus))
        for p in t.space.points
    }))


def _locus_masks(table: SectionTable) -> tuple[int, ...]:
    return tuple(table.space._mask(s.locus) for s in table.sections)


def is_ample(table: SectionTable) -> bool:
    """Do the section loci form a basis of the topology?

    Each point p of a finite space has a smallest open set U_p, its
    generalization closure, and every open set containing p contains U_p.
    Loci are open (a table with a locus that is not is refused), so a locus
    holding p and lying in U_p is U_p itself.  The loci are a basis exactly
    when every U_p is one of them.
    """
    loci = set(_cached(table, "loci", _locus_masks))
    return all(u in loci for u in table.space._up)


def homeo_onto_image(table: SectionTable) -> bool:
    """Is the comparison map injective and open onto its image?

    The image carries the pattern-inclusion order, and the map is an
    embedding exactly when that order reflects specialization: if q's
    pattern lies inside p's, then q lies in U_p, the smallest open set
    containing p (its generalization closure).  q's pattern lies inside
    p's exactly when q lies in every locus holding p, so the rule asks the
    intersection of the loci holding p to be U_p; it always contains U_p,
    since each locus is open.  Injectivity follows: equal patterns put
    each point in the other's U, and the order is antisymmetric.  The
    verdict is decided once per table.
    """
    return _cached(table, "embedding", _reflects_specialization)


def _reflects_specialization(table: SectionTable) -> bool:
    loci = _cached(table, "loci", _locus_masks)
    meet_of_none = (1 << len(table.space.points)) - 1
    for i, u in enumerate(table.space._up):
        meet = meet_of_none
        for m in loci:
            if m >> i & 1:
                meet &= m
        if meet != u:
            return False
    return True


def _pointwise_periods(table: SectionTable, ring: GradedRingPresentation, per):
    """Each point with its period and the local period at its image
    pattern, in point order."""
    vals = _values(per)
    missing = set(table.space.points) - set(vals)
    if missing:
        raise ComparisonError(f"no period for point {sorted(missing)[0]!r}")
    comp = comp_map(table)
    for p in table.space.points:
        yield p, vals[p], local_period(ring, comp[p])


def _check_generator_sections(table: SectionTable, ring: GradedRingPresentation):
    # Only sections that vanish somewhere feed the pattern; a section
    # invertible everywhere acts like a unit and needs no generator.
    degrees = {g.name: g.degree for g in ring.generators}
    everywhere = frozenset(table.space.points)
    for s in table.sections:
        if s.locus == everywhere:
            continue
        if s.name not in degrees:
            raise ComparisonError(f"section {s.name!r} is not a ring generator")
        if degrees[s.name] != s.degree:
            raise ComparisonError(f"section {s.name!r} degree differs from the ring")


def transfer_periods(
    table: SectionTable, ring: GradedRingPresentation, per
) -> Diagnosis:
    """Match point periods with local periods at the image patterns.

    Requires an embedding whose sections are ring generators, and checks
    the pointwise equality, one local period per point.  Every divides-d
    sublevel set then equals the preimage of the ring-side one, since both
    are read from the same numbers.
    """
    if not homeo_onto_image(table):
        raise ComparisonError("comparison map is not an embedding")
    _check_generator_sections(table, ring)
    for p, have, want in _pointwise_periods(table, ring, per):
        if have != want:
            return failure("period-mismatch", p, have, want)
    return PASS


def divisor_constraint(
    table: SectionTable, ring: GradedRingPresentation, per
) -> Diagnosis:
    """Point period divides the local period at the image pattern.

    Holds for every table, embedding or not; section names that are not
    ring generators simply never knock a generator out of the gcd.
    """
    for p, have, bound in _pointwise_periods(table, ring, per):
        if not divides(have, bound):
            return failure("period-not-divisor", p, have, bound)
    return PASS


def central_localization(table: SectionTable, names: Iterable[str]) -> frozenset[str]:
    """Open subspace where the given sections are invertible.

    It is the intersection of their loci, which is open, and by the
    definition of comp_map it is exactly the set of points whose pattern
    misses every given name.  Restricting the table to it changes no
    point's pattern there, since a point p of the region lies in
    s.locus & region exactly when it lies in s.locus.
    """
    wanted = frozenset(names)
    known = set(table.names())
    if not wanted <= known:
        raise ComparisonError(f"unknown section {sorted(wanted - known)[0]!r}")
    region = frozenset(table.space.points)
    for s in table.sections:
        if s.name in wanted:
            region &= s.locus
    return region


# -- serialization -----------------------------------------------------

def table_to_obj(table: SectionTable) -> dict:
    return {
        "format": 1,
        "bundles": {b: table.bundles[b] for b in sorted(table.bundles)},
        "sections": [
            {
                "name": s.name,
                "bundle": s.bundle,
                "degree": s.degree,
                "locus": sorted(s.locus),
            }
            for s in sorted(table.sections, key=lambda s: s.name)
        ],
        "products": sorted(
            [a, b, ab] for (a, b), ab in table.products.items()
        ),
    }


def table_from_obj(obj: Mapping, space: FiniteSpectralModel) -> SectionTable:
    try:
        if json_int(json_object(obj)["format"]) != 1:
            raise ComparisonError(f"unsupported format {obj['format']!r}")
        bundles = {str(b): json_int(d) for b, d in json_object(obj["bundles"]).items()}
        sections = [
            (json_str(row["name"]), json_str(row["bundle"]), json_int(row["degree"]),
             tuple(map(json_str, json_list(row["locus"]))))
            for row in map(json_object, json_list(obj["sections"]))
        ]
        products = [tuple(map(json_str, json_list(e))) for e in json_list(obj.get("products", []))]
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ComparisonError(f"malformed section table: {exc}") from exc
    for entry in products:
        if len(entry) != 3:
            raise ComparisonError(f"malformed product entry {entry!r}")
    return make_table(space, bundles, sections, products)
