"""Graded rings: pattern enumeration, local periods, and the degree oracle."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ttperiods import cohomology, graded
from ttperiods.graded import (
    BoundTooSmall,
    GradedError,
    InvalidPattern,
    NonMonomialWithoutWitnesses,
    PrimePattern,
    SpechModel,
    enumerate_patterns,
    local_period,
    make_ring,
    oracle_local_period,
    pattern_diagnosis,
    pattern_name,
    periodic_locus,
    ring_from_obj,
    ring_to_obj,
    spech_to_obj,
    validate_presentation,
)
from ttperiods.groups import dihedral, elementary_abelian, quaternion
from ttperiods.spaces import ALL, check_period_map
from ttperiods.spectra import stmod_period_map

from oracles import NotLaurentForm, degree_zero_reduction_check
from oracles import oracle_check_spech, oracle_enumerate_patterns, oracle_periodic_locus


def poly_xy():
    # k[x, y] with deg x = 1, deg y = 2, no relations.
    return make_ring(2, [("x", 1), ("y", 2)])


def d8_ring():
    # k[a0, a1, b] / (a0*a1) with degrees 1, 1, 2 over F2.
    return make_ring(2, [("α0", 1), ("α1", 1), ("β", 2)], [[(1, {"α0": 1, "α1": 1})]])


def m11_ring():
    # k[a, b, c] / (b^2 + a*c - a^3), degrees 8, 12, 16, char 3.
    return make_ring(
        3,
        [("a", 8), ("b", 12), ("c", 16)],
        [[(1, {"b": 2}), (1, {"a": 1, "c": 1}), (-1, {"a": 3})]],
    )


M11_WITNESSES = [
    (PrimePattern.of(), "witness"),
    (PrimePattern.of("b"), "witness"),
    (PrimePattern.of("c"), "witness"),
    (PrimePattern.of("a", "b"), "witness"),
    (PrimePattern.of("a", "b", "c"), "witness"),
]


class TestValidatePresentation:
    def test_polynomial_ring_passes(self):
        assert validate_presentation(poly_xy()).ok

    def test_empty_presentation_passes(self):
        assert validate_presentation(make_ring(0, [])).ok

    def test_odd_degree_unit_needs_char_two(self):
        ring = make_ring(3, [("u", 1, True)])
        diag = validate_presentation(ring)
        assert not diag.ok and diag.reason == "odd-period"

    def test_odd_degree_unit_fine_in_char_two(self):
        assert validate_presentation(make_ring(2, [("u", 1, True)])).ok

    def test_odd_degree_unit_fine_with_trivial_constraint(self):
        ring = make_ring(3, [("u", 1, True)], constraint="trivial")
        assert validate_presentation(ring).ok

    def test_inhomogeneous_relation_fails(self):
        ring = make_ring(2, [("x", 1), ("y", 2)], [[(1, {"x": 1}), (1, {"y": 1})]])
        assert validate_presentation(ring).reason == "inhomogeneous"

    def test_nilpotent_unit_rejected(self):
        ring = make_ring(2, [("x", 2, True, True)])
        assert validate_presentation(ring).reason == "nilpotent-unit"

    def test_relation_with_unknown_generator_fails(self):
        ring = make_ring(2, [("x", 1)], [[(1, {"z": 1})]])
        assert validate_presentation(ring).reason == "unknown-generator"

    def test_duplicate_names_rejected(self):
        ring = make_ring(2, [("x", 1), ("x", 2)])
        assert validate_presentation(ring).reason == "duplicate-generator"

    def test_composite_char_rejected(self):
        assert validate_presentation(make_ring(6, [("x", 1)])).reason == "char-not-prime"

    def test_formally_cancelling_relation_is_dropped(self):
        ring = make_ring(2, [("x", 1)], [[(1, {"x": 1}), (1, {"x": 1})]])
        assert ring.relations == ()


class TestEnumeratePatterns:
    def test_polynomial_ring_has_all_subsets(self):
        model = enumerate_patterns(poly_xy())
        got = {model.patterns[p].contains for p in model.space.points}
        assert got == {
            frozenset(),
            frozenset({"x"}),
            frozenset({"y"}),
            frozenset({"x", "y"}),
        }
        assert frozenset({"x", "y"}) in got
        assert oracle_check_spech(model).ok

    def test_d8_ring_has_six_patterns(self):
        model = enumerate_patterns(d8_ring())
        assert set(model.space.points) == {
            "⟨α0⟩",
            "⟨α1⟩",
            "⟨α0,α1⟩",
            "⟨α0,β⟩",
            "⟨α1,β⟩",
            "⟨α0,α1,β⟩",
        }
        assert all(model.certified[p] == "enumerated" for p in model.space.points)

    def test_zero_generators_single_pattern(self):
        model = enumerate_patterns(make_ring(0, []))
        assert model.space.points == ("⟨⟩",)

    def test_nilpotents_forced_into_every_pattern(self):
        ring = make_ring(2, [("x", 1), ("e", 3, False, True)])
        model = enumerate_patterns(ring)
        assert all("e" in model.patterns[p].contains for p in model.space.points)
        assert len(model.space.points) == 2

    def test_invertible_generators_never_appear(self):
        ring = make_ring(2, [("x", 1), ("u", 2, True)])
        model = enumerate_patterns(ring)
        got = {model.patterns[p].contains for p in model.space.points}
        assert got == {frozenset(), frozenset({"x"})}

    def test_order_is_pattern_inclusion(self):
        model = enumerate_patterns(poly_xy())
        assert model.space.specializes("⟨⟩", "⟨x,y⟩")
        assert model.space.specializes("⟨x⟩", "⟨x,y⟩")
        assert not model.space.specializes("⟨x⟩", "⟨y⟩")

    def test_non_monomial_needs_witnesses(self):
        with pytest.raises(NonMonomialWithoutWitnesses):
            enumerate_patterns(m11_ring())

    def test_witness_mode_accepts_valid_patterns(self):
        model = enumerate_patterns(m11_ring(), witnesses=M11_WITNESSES)
        assert len(model.space.points) == 5
        assert oracle_check_spech(model).ok
        assert model.certified["⟨b⟩"] == "witness"

    def test_witness_mode_rejects_invalid_pattern(self):
        with pytest.raises(InvalidPattern):
            enumerate_patterns(m11_ring(), witnesses=[(PrimePattern.of("a"), "witness")])

    def test_witness_mode_rejects_bad_tag(self):
        with pytest.raises(InvalidPattern):
            enumerate_patterns(poly_xy(), witnesses=[(PrimePattern.of(), "guessed")])

    def test_witness_mode_rejects_repeated_pattern(self):
        # Listed twice under two tags, a pattern has no one certificate.
        witnesses = [
            (PrimePattern.of("x", "y"), "witness"),
            (PrimePattern.of("y", "x"), "paper"),
        ]
        with pytest.raises(InvalidPattern) as err:
            enumerate_patterns(poly_xy(), witnesses=witnesses)
        assert err.value.args == ("⟨x,y⟩", "repeated pattern")

    def test_two_patterns_under_one_name_are_refused(self):
        # {a, b} and {"a,b"} are both named ⟨a,b⟩.
        ring = make_ring(2, [("a", 1), ("b", 1), ("a,b", 1)])
        with pytest.raises(InvalidPattern) as err:
            enumerate_patterns(ring)
        assert err.value.args == ("⟨a,b⟩", "duplicate name")
        witnesses = [(PrimePattern.of("a", "b"), "witness"), (PrimePattern.of("a,b"), "paper")]
        with pytest.raises(InvalidPattern) as err:
            enumerate_patterns(ring, witnesses=witnesses)
        assert err.value.args == ("⟨a,b⟩", "duplicate name")


class TestPatternDiagnosis:
    def test_hitting_condition(self):
        diag = pattern_diagnosis(d8_ring(), PrimePattern.of("β"))
        assert diag.reason == "monomial-not-hit"

    def test_propagation_blocks_single_missing_monomial(self):
        # In k[a,b,c]/(b^2 + ac - a^3) the subset {a} would force b in too.
        diag = pattern_diagnosis(m11_ring(), PrimePattern.of("a"))
        assert diag.reason == "propagation"

    def test_propagation_allows_two_missing_monomials(self):
        assert pattern_diagnosis(m11_ring(), PrimePattern.of("c")).ok

    def test_invertible_inside_rejected(self):
        ring = make_ring(2, [("u", 2, True)])
        assert pattern_diagnosis(ring, PrimePattern.of("u")).reason == "invertible-inside"

    def test_nilpotent_outside_rejected(self):
        ring = make_ring(2, [("e", 1, False, True)])
        assert pattern_diagnosis(ring, PrimePattern.of()).reason == "nilpotent-outside"

    def test_unknown_name_rejected(self):
        assert pattern_diagnosis(poly_xy(), PrimePattern.of("zz")).reason == "unknown-generator"

    def test_pattern_names_follow_declaration_order(self):
        assert pattern_name(m11_ring(), PrimePattern.of("c", "a")) == "⟨a,c⟩"


class TestLocalPeriod:
    def test_poly_xy_values(self):
        ring = poly_xy()
        assert local_period(ring, PrimePattern.of("x")) == 2
        assert local_period(ring, PrimePattern.of("y")) == 1
        assert local_period(ring, PrimePattern.of()) == 1
        assert local_period(ring, PrimePattern.of("x", "y")) == 0

    def test_m11_values(self):
        ring = m11_ring()
        assert local_period(ring, PrimePattern.of()) == 4
        assert local_period(ring, PrimePattern.of("c")) == 4
        assert local_period(ring, PrimePattern.of("a", "b")) == 16
        assert local_period(ring, PrimePattern.of("a", "b", "c")) == 0
        # Derived value at the flagged point; see the oracle test below.
        assert local_period(ring, PrimePattern.of("b")) == 8

    def test_degree_zero_generators_do_not_contribute(self):
        ring = make_ring(2, [("x", 0), ("y", 4)])
        assert local_period(ring, PrimePattern.of()) == 4
        assert local_period(ring, PrimePattern.of("y")) == 0


class TestRingPeriod:
    # The ring's period, the smallest positive degree of a declared unit, is
    # the local period at the pattern of every non-invertible generator.
    @staticmethod
    def ring_period(ring):
        non_units = (g.name for g in ring.generators if not g.invertible)
        return local_period(ring, PrimePattern.of(*non_units))

    def test_laurent_field(self):
        assert self.ring_period(make_ring(2, [("t", 2, True)])) == 2

    def test_polynomial_ring_not_periodic(self):
        assert self.ring_period(poly_xy()) == 0

    def test_two_units_generate_subgroup(self):
        ring = make_ring(2, [("u", 4, True), ("v", 6, True)])
        assert self.ring_period(ring) == 2


class TestPeriodicLocus:
    def test_poly_xy_everything_but_the_closed_point(self):
        ring = poly_xy()
        model = enumerate_patterns(ring)
        assert periodic_locus(ring, model, ALL) == frozenset(
            {"⟨⟩", "⟨x⟩", "⟨y⟩"}
        )

    def test_d8_degree_one_locus(self):
        ring = d8_ring()
        model = enumerate_patterns(ring)
        assert periodic_locus(ring, model, 1) == frozenset(
            {"⟨α0⟩", "⟨α1⟩", "⟨α0,β⟩", "⟨α1,β⟩"}
        )

    def test_degree_zero_ring_has_empty_locus(self):
        ring = make_ring(2, [("x", 0)])
        model = enumerate_patterns(ring)
        assert periodic_locus(ring, model, ALL) == frozenset()

    def test_every_point_divides_zero(self):
        ring = poly_xy()
        model = enumerate_patterns(ring)
        assert periodic_locus(ring, model, 0) == frozenset(model.space.points)

    @pytest.mark.parametrize("d, period, message", [
        (ALL, 0, "periodic locus cross-check failed"),
        (1, 3, "principal locus period bound failed"),
    ])
    def test_route_disagreement_is_a_library_bug(self, monkeypatch, d, period, message):
        # Every period read from the table is replaced, so the principal
        # loci no longer agree with it.
        original = graded._periods_and_complements

        def wrong(ring, model):
            periods, outside = original(ring, model)
            return {p: period for p in periods}, outside

        monkeypatch.setattr(graded, "_periods_and_complements", wrong)
        ring = poly_xy()
        with pytest.raises(RuntimeError, match=message):
            periodic_locus(ring, enumerate_patterns(ring), d)


class TestOracle:
    def test_poly_xy_pattern_x(self):
        assert oracle_local_period(poly_xy(), PrimePattern.of("x"), 6) == 2

    def test_full_pattern_gives_zero(self):
        assert oracle_local_period(poly_xy(), PrimePattern.of("x", "y"), 10) == 0

    def test_d8_pattern(self):
        assert oracle_local_period(d8_ring(), PrimePattern.of("α0"), 4) == 1

    def test_m11_flagged_point(self):
        # Degree-96 sweep over monomials in a, c: every degree is a
        # multiple of 8, so the derived value 8 stands.
        assert oracle_local_period(m11_ring(), PrimePattern.of("b"), 96) == 8

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmall):
            oracle_local_period(poly_xy(), PrimePattern.of("x"), 1)

    def test_bad_bound_rejected(self):
        with pytest.raises(GradedError):
            oracle_local_period(poly_xy(), PrimePattern.of(), 0)

    def test_negative_degrees_rejected(self):
        ring = make_ring(2, [("t", -2, True)])
        with pytest.raises(GradedError):
            oracle_local_period(ring, PrimePattern.of(), 4)


class TestDegreeZeroReduction:
    def test_laurent_over_field(self):
        ring = make_ring(2, [("t", 2, True)])
        diag = degree_zero_reduction_check(ring)
        assert diag.ok and diag.detail == (1,)

    def test_laurent_over_polynomial_degree_zero_part(self):
        ring = make_ring(2, [("x", 0), ("u", 2, True)])
        diag = degree_zero_reduction_check(ring)
        assert diag.ok and diag.detail == (2,)

    def test_laurent_over_nilpotent_part(self):
        ring = make_ring(
            2, [("x", 0, False, True), ("u", 2, True)], [[(1, {"x": 1})]]
        )
        diag = degree_zero_reduction_check(ring)
        assert diag.ok and diag.detail == (1,)

    def test_not_laurent_form(self):
        with pytest.raises(NotLaurentForm):
            degree_zero_reduction_check(poly_xy())

    def test_unit_in_relation_rejected(self):
        ring = make_ring(2, [("x", 0), ("u", 2, True)], [[(1, {"u": 1, "x": 1})]])
        with pytest.raises(NotLaurentForm):
            degree_zero_reduction_check(ring)


class TestSerialization:
    def test_roundtrip(self):
        for ring in (poly_xy(), d8_ring(), m11_ring()):
            assert ring_from_obj(ring_to_obj(ring)) == ring

    def test_malformed_object_rejected(self):
        with pytest.raises(GradedError):
            ring_from_obj({"generators": [{"degree": 1}]})


# -- randomized properties ---------------------------------------------

names_pool = ("w", "x", "y", "z")


@st.composite
def monomial_rings(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    gens = []
    for i in range(n):
        degree = draw(st.integers(min_value=1, max_value=6))
        gens.append((names_pool[i], degree))
    active = [g[0] for g in gens]
    rels = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        support = draw(
            st.lists(st.sampled_from(active), min_size=1, max_size=3, unique=True)
        )
        mono = {v: draw(st.integers(min_value=1, max_value=2)) for v in support}
        rels.append([(1, mono)])
    return make_ring(2, gens, rels)


@settings(max_examples=80, deadline=None)
@given(monomial_rings())
def test_oracle_agrees_with_gcd_formula(ring):
    bound = 3 * math.lcm(*(g.degree for g in ring.generators))
    model = enumerate_patterns(ring)
    for point in model.space.points:
        pattern = model.patterns[point]
        expected = local_period(ring, pattern)
        if pattern.contains == {g.name for g in ring.generators}:
            assert oracle_local_period(ring, pattern, bound) == 0 == expected
        else:
            assert oracle_local_period(ring, pattern, bound) == expected


@settings(max_examples=80, deadline=None)
@given(monomial_rings())
def test_pattern_inclusion_is_period_divisibility(ring):
    model = enumerate_patterns(ring)
    points = model.space.points
    for p in points:
        for q in points:
            if model.patterns[p].contains <= model.patterns[q].contains:
                a = local_period(ring, model.patterns[p])
                b = local_period(ring, model.patterns[q])
                assert b == 0 or (a != 0 and b % a == 0)


@settings(max_examples=80, deadline=None)
@given(monomial_rings())
def test_local_periods_form_a_valid_period_map(ring):
    model = enumerate_patterns(ring)
    periods = {p: local_period(ring, model.patterns[p]) for p in model.space.points}
    assert check_period_map(model.space, periods).ok


@settings(max_examples=60, deadline=None)
@given(monomial_rings(), st.integers(min_value=0, max_value=12))
def test_periodic_locus_is_generalization_closed(ring, d):
    model = enumerate_patterns(ring)
    locus = periodic_locus(ring, model, d)
    for p in locus:
        assert model.space.generalization_closure([p]) <= locus


@settings(max_examples=60, deadline=None)
@given(monomial_rings())
def test_principal_loci_bound_periods(ring):
    model = enumerate_patterns(ring)
    for gen in ring.generators:
        if gen.degree == 0:
            continue
        for p in model.space.points:
            if gen.name not in model.patterns[p].contains:
                v = local_period(ring, model.patterns[p])
                assert v != 0 and gen.degree % v == 0


# -- bitmask engine against the frozenset oracle -----------------------

DEGREES = (0, 1, 2, 3, 4, 6)


@st.composite
def pattern_rings(draw, max_free=13):
    """Monomial rings with up to max_free non-invertible generators, some
    nilpotent, units of zero and nonzero degree declared among them, and
    relation monomials that may touch units; sometimes no relations."""
    char = draw(st.sampled_from([2, 3]))
    free = [f"x{i}" for i in range(draw(st.integers(0, max_free)))]
    nilpotent = set(draw(st.lists(st.sampled_from(free), max_size=2, unique=True))) if free else set()
    gens = [(name, draw(st.sampled_from(DEGREES)), False, name in nilpotent) for name in free]
    # An odd-degree unit needs characteristic 2 under the Koszul sign rule.
    unit_degrees = DEGREES if char == 2 else (0, 2, 4, 6)
    units = [f"u{k}" for k in range(draw(st.integers(0, 2)))]
    gens += [(name, draw(st.sampled_from(unit_degrees)), True) for name in units]
    gens = draw(st.permutations(gens))
    rels = []
    if gens:
        for _ in range(draw(st.integers(0, 3))):
            support = draw(st.lists(st.sampled_from(free + units), min_size=1, max_size=3, unique=True))
            rels.append([(1, {v: draw(st.integers(1, 2)) for v in support})])
    ring = make_ring(char, gens, rels)
    assert validate_presentation(ring)
    return ring


def assert_masks_match_patterns(model):
    """Each point's mask has the bits of its pattern's generators, one per
    non-invertible generator in declaration order."""
    free = [g.name for g in model.ring.generators if not g.invertible]
    assert list(model.masks) == list(model.space.points)
    for p in model.space.points:
        contains = model.patterns[p].contains
        assert model.masks[p] == sum(1 << i for i, n in enumerate(free) if n in contains), p


def assert_same_spech(ring, new, old):
    """The library's model against the oracle's, whose frozensets are its
    own record: the masks, the patterns view and spech_to_obj must each
    agree with them."""
    assert_masks_match_patterns(new)
    assert_masks_match_patterns(old)
    assert new.masks == old.masks
    assert new.space.points == old.space.points
    assert new.space._down == old.space._down
    assert new.space._up == old.space._up
    assert list(new.patterns.items()) == list(old.patterns.items())
    assert list(new.certified.items()) == list(old.certified.items())
    obj = spech_to_obj(new)
    assert obj["points"] == list(old.space.points)
    assert obj["specializes"] == [list(e) for e in old.space.cover_pairs()]
    assert obj["pattern"] == {
        p: [n for n in ring.names() if n in pat.contains] for p, pat in old.patterns.items()
    }
    assert obj["certified"] == old.certified
    for d in (ALL, 0, 1, 2, 3, 4, 6, 12):
        assert periodic_locus(ring, new, d) == oracle_periodic_locus(ring, old, d)


@settings(max_examples=40, deadline=None)
@given(pattern_rings())
def test_enumeration_and_loci_match_the_oracle(ring):
    assert_same_spech(ring, enumerate_patterns(ring), oracle_enumerate_patterns(ring))


D8_WITNESSES = [
    (PrimePattern.of("α0", "α1", "β"), "witness"),
    (PrimePattern.of("α1"), "paper"),
    (PrimePattern.of("α0", "β"), "enumerated"),
    (PrimePattern.of("α0"), "witness"),
    (PrimePattern.of("α1", "β"), "paper"),
    (PrimePattern.of("α0", "α1"), "witness"),
]


@pytest.mark.parametrize(
    "ring, witnesses", [(m11_ring(), M11_WITNESSES), (d8_ring(), D8_WITNESSES)], ids=["M11", "D8"]
)
def test_witness_mode_matches_the_oracle(ring, witnesses):
    model = enumerate_patterns(ring, witnesses)
    assert_same_spech(ring, model, oracle_enumerate_patterns(ring, witnesses))
    assert {model.certified[pattern_name(ring, pat)] for pat, _ in witnesses} == {
        tag for _, tag in witnesses
    }


class TestWorkCount:
    """gcd and naming calls, counted rather than timed."""

    RINGS = {
        "polynomial": make_ring(2, [(f"x{i}", 2) for i in range(8)]),
        "relation-and-unit": make_ring(
            3,
            [(f"x{i}", 2 + i % 3, False, i == 9) for i in range(10)] + [("u", 4, True)],
            [[(1, {"x0": 1, "x1": 2})], [(1, {"u": 1, "x2": 1, "x3": 1})]],
        ),
    }

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_periodic_locus_makes_one_gcd_per_complement(self, monkeypatch, name):
        # The pointwise formula takes one gcd per generator outside each
        # point, points times generators in all.
        ring = self.RINGS[name]
        model = enumerate_patterns(ring)
        free = sum(not g.invertible for g in ring.generators)
        calls = [0]
        real = math.gcd

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(math, "gcd", counted)
        for d in (ALL, 2):
            calls[0] = 0
            periodic_locus(ring, model, d)
            assert 0 < calls[0] <= 2**free

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_monomial_enumeration_calls_no_pattern_name(self, monkeypatch, name):
        calls = [0]
        real = graded.pattern_name

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(graded, "pattern_name", counted)
        model = enumerate_patterns(self.RINGS[name])
        assert calls[0] == 0 and model.space.points

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_monomial_enumeration_builds_no_prime_pattern(self, monkeypatch, name):
        built = []
        real = graded.PrimePattern
        monkeypatch.setattr(graded, "PrimePattern", lambda contains: built.append(contains) or real(contains))
        model = enumerate_patterns(self.RINGS[name])
        assert built == [] and model.space.points
        # The view is built on first read, once.
        assert model.patterns is model.patterns
        assert len(built) == len(model.space.points)

    @pytest.mark.parametrize("group, p", [
        (dihedral(8), 2), (quaternion(8), 2), (elementary_abelian(3, 2), 3), ("M11", 3),
    ], ids=["D8", "Q8", "C3^2", "M11"])
    def test_stmod_period_map_builds_no_pattern_view(self, monkeypatch, group, p):
        # A fresh variety table, so the full model is built here too; the
        # view, once read, would sit in the model's instance dictionary.
        monkeypatch.setattr(cohomology, "_VARIETIES", {})
        full, _ = cohomology.rep_period_map(group, p)
        model, _ = stmod_period_map(group, p)
        assert model.space.points
        assert "patterns" not in vars(full) and "patterns" not in vars(model)

    def test_wide_witness_ring_reads_each_mask(self):
        # 40 non-invertible generators and a unit among them: a table over
        # every subset of them would not fit under the 1 GiB address-space
        # cap, so a view or emitter built from one fails here at once
        # instead of filling the machine's memory.
        probe = (
            "import json, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ttperiods.graded import PrimePattern, enumerate_patterns, make_ring\n"
            "from ttperiods.graded import point_periods, spech_to_obj\n"
            "gens = [(f'x{i}', 2 + 2 * (i == 39)) for i in range(40)]\n"
            "ring = make_ring(2, gens[:20] + [('u', 8, True)] + gens[20:])\n"
            "wits = [[], ['x0'], ['x0', 'x39'], ['x21', 'x20'], [f'x{i}' for i in range(39)]]\n"
            "model = enumerate_patterns(ring, [(PrimePattern.of(*w), 'witness') for w in wits])\n"
            "obj = spech_to_obj(model, point_periods(ring, model))\n"
            "view = {p: sorted(pat.contains) for p, pat in model.patterns.items()}\n"
            "print(json.dumps([obj['pattern'], obj['periods'], view]))\n"
        )
        src = str(Path(graded.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        listed, periods, view = json.loads(proc.stdout)
        most = [f"x{i}" for i in range(39)]
        assert listed == {
            "⟨⟩": [], "⟨x0⟩": ["x0"], "⟨x0,x39⟩": ["x0", "x39"],
            "⟨x20,x21⟩": ["x20", "x21"], "⟨" + ",".join(most) + "⟩": most,
        }
        assert view == {p: sorted(names) for p, names in listed.items()}
        # The unit's degree 8 takes part in every gcd: 2 while a degree-2
        # generator is outside, gcd(8, 4) once only x39 is.
        assert periods == {p: 4 if len(names) == 39 else 2 for p, names in listed.items()}

    def test_a_model_holds_masks_not_patterns(self):
        assert SpechModel._fields == ("ring", "space", "certified", "masks")
