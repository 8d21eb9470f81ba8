"""Named section-table fixtures with their expected embedding behavior.

Registry entries are product complete: every tabulated pair of sections
with jointly invertible locus has its product tabulated too, which is
what makes the basis criterion and the direct embedding check agree.
Generator-only tables truncate the section list and can split the two
checks, so they stay out of the registry: the test suite builds the one
over the D8 projective model, which also wrote the shipped demo files
under data/sections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .comparison import SectionTable, make_table
from .diagnostics import UsageError
from .graded import (
    GradedRingPresentation,
    SpechModel,
    enumerate_patterns,
    make_ring,
    point_periods,
)
from .spaces import FiniteSpectralModel, PeriodAssignment

__all__ = [
    "ComparisonFixture",
    "FIXTURE_NAMES",
    "build_fixture",
]


class UnknownFixture(UsageError, KeyError):
    """No comparison fixture has the given name."""


@dataclass(frozen=True)
class ComparisonFixture:
    name: str
    table: SectionTable
    ample: bool
    ring: GradedRingPresentation | None = None
    per: PeriodAssignment | None = None
    image_model: SpechModel | None = None
    image_open: bool | None = None


def _d8_presentation() -> GradedRingPresentation:
    # Two degree-one generators with vanishing product, one in degree two.
    return make_ring(
        2, [("α0", 1), ("α1", 1), ("β", 2)], [[(1, {"α0": 1, "α1": 1})]]
    )


def _monomial_locus(model: SpechModel, variables: frozenset[str]) -> frozenset[str]:
    hit = model.ring.pattern_mask(variables)
    return frozenset(q for q, mask in model.masks.items() if not mask & hit)


def _local_periods(model: SpechModel) -> PeriodAssignment:
    return PeriodAssignment(point_periods(model.ring, model))


def _point_with_unit() -> ComparisonFixture:
    ring = make_ring(2, [("x", 1)])
    space = FiniteSpectralModel(["pt"])
    table = make_table(
        space,
        {"L0": 0, "L1": 1},
        [("1", "L0", 0, ["pt"]), ("x", "L1", 1, [])],
    )
    return ComparisonFixture(
        name="point_with_unit",
        table=table,
        ample=True,
        ring=ring,
        per=PeriodAssignment({"pt": 0}),
        image_model=enumerate_patterns(ring),
        image_open=False,
    )


def _chain_principal() -> ComparisonFixture:
    ring = make_ring(2, [("t", 1)])
    space = FiniteSpectralModel(["g", "s"], [("g", "s")])
    table = make_table(
        space,
        {"L0": 0, "L1": 1},
        [("1", "L0", 0, ["g", "s"]), ("t", "L1", 1, ["g"])],
    )
    return ComparisonFixture(
        name="chain_principal",
        table=table,
        ample=True,
        ring=ring,
        per=PeriodAssignment({"g": 1, "s": 0}),
        image_model=enumerate_patterns(ring),
        image_open=True,
    )


def _whole_space_only() -> ComparisonFixture:
    space = FiniteSpectralModel(["g", "s"], [("g", "s")])
    table = make_table(space, {"L0": 0}, [("1", "L0", 0, ["g", "s"])])
    return ComparisonFixture(name="whole_space_only", table=table, ample=False)


def _rep_d8_monomials() -> ComparisonFixture:
    ring = _d8_presentation()
    model = enumerate_patterns(ring)
    monomials = {
        "1": frozenset(),
        "α0": frozenset({"α0"}),
        "α1": frozenset({"α1"}),
        "β": frozenset({"β"}),
        "α0·α1": frozenset({"α0", "α1"}),
        "α0·β": frozenset({"α0", "β"}),
        "α1·β": frozenset({"α1", "β"}),
    }
    degrees = {"α0": 1, "α1": 1, "β": 2}
    sections = []
    for name, variables in monomials.items():
        d = sum(degrees[v] for v in variables)
        sections.append((name, f"L{d}", d, _monomial_locus(model, variables)))
    products = [
        ("α0", "α1", "α0·α1"),
        ("α0", "β", "α0·β"),
        ("α1", "β", "α1·β"),
    ]
    table = make_table(
        model.space,
        {f"L{d}": d for d in (0, 1, 2, 3)},
        sections,
        products,
    )
    return ComparisonFixture(
        name="rep_d8_monomials",
        table=table,
        ample=True,
        ring=ring,
        per=_local_periods(model),
    )


def _dperm_cover() -> ComparisonFixture:
    space = FiniteSpectralModel(["m", "c1", "c2"], [("m", "c1"), ("m", "c2")])
    table = make_table(
        space,
        {"L0": 0, "L1": 1, "L2": 2},
        [
            ("1", "L0", 0, ["m", "c1", "c2"]),
            ("s1", "L1", 1, ["m", "c1"]),
            ("s2", "L1", 1, ["m", "c2"]),
            ("s1·s2", "L2", 2, ["m"]),
        ],
        [("s1", "s2", "s1·s2")],
    )
    return ComparisonFixture(name="dperm_cover", table=table, ample=True)


_FIXTURE_BUILDERS = {
    "chain_principal": _chain_principal,
    "dperm_cover": _dperm_cover,
    "point_with_unit": _point_with_unit,
    "rep_d8_monomials": _rep_d8_monomials,
    "whole_space_only": _whole_space_only,
}

FIXTURE_NAMES = tuple(sorted(_FIXTURE_BUILDERS))


def build_fixture(name: str) -> ComparisonFixture:
    if name not in _FIXTURE_BUILDERS:
        raise UnknownFixture(f"unknown comparison fixture {name!r}")
    return _FIXTURE_BUILDERS[name]()
