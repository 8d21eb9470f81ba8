"""Tabulated 2-rings: axioms, ideals, tightenings, fractions, restriction."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st, target

from ttperiods import multigraded, tworing
from ttperiods.diagnostics import LIMITS, SizeBound

from ttperiods.multigraded import (
    AbelianGroup,
    AlgebraIndex,
    RingShapeError,
    homogeneous_units,
    is_ring_prime,
    make_multigraded,
    mult_system_ring,
    ring_fractions,
    ring_ideals,
    validate_multigraded,
)
from ttperiods.spaces import dumps_canonical
from ttperiods.tworing import (
    BadShapes,
    ShapeMismatch,
    Tightening,
    TwoRingDatum,
    agreement,
    compose,
    homogeneous_ideals,
    ideal_correspondence,
    ideal_generated_two,
    ideal_name_two,
    is_prime_two,
    is_translate,
    isomorphisms,
    localization_agreement,
    localize,
    mult_closure_two,
    phi_apply,
    span_class,
    span_quotients,
    spc,
    spc_with_primes,
    tensor,
    two_ring_from_multigraded,
    validate_tightening,
    validate_two_ring,
)
from ttperiods.tworing_catalog import (
    RING_NAMES,
    TIGHTENING_NAMES,
    TWO_RING_NAMES,
    build_ring,
    build_tightening,
    build_two_ring,
    two_ring_from_obj,
    two_ring_to_obj,
)

from oracles import (
    MAX_FAMILIES,
    NotSubmonoid,
    commutes_up_to_translate,
    family_count,
    ideal_of_members,
    lemma_magic_check,
    oracle_close,
    oracle_ideal_correspondence,
    oracle_ideal_name,
    oracle_isomorphisms,
    oracle_lattice,
    oracle_localization_agreement,
    oracle_members,
    oracle_ring_prime,
    oracle_two_ring_from_multigraded,
    oracle_two_ring_ideals,
    oracle_two_ring_prime,
    oracle_validate_tightening,
    oracle_validate_two_ring,
    partition,
    reference_iso_pairs,
    reference_span_classes,
    reference_units,
    restrict_submonoid,
    restriction_localization_check,
    square_zero,
    two_ring_name_key,
)
from test_limits import unit_ring
from test_multigraded import rank_two_signed


def within_oracle_limit(R2):
    return family_count(R2.char, R2.dims.values()) <= MAX_FAMILIES


def assert_matches_oracles(R2):
    """The lattice equals the brute-force ideal families, and each
    family's primality agrees with the literal definition."""
    ideals = oracle_two_ring_ideals(R2)
    assert {oracle_members(R2.index, i.rows) for i in homogeneous_ideals(R2)} == ideals
    for ideal in ideals:
        assert is_prime_two(R2, ideal_of_members(R2.index, ideal)) == oracle_two_ring_prime(
            R2, ideal), sorted(ideal)


ORACLE_TWO_RINGS = [n for n in TWO_RING_NAMES if within_oracle_limit(build_two_ring(n))]
ORACLE_TIGHTENINGS = [
    n for n in TIGHTENING_NAMES if within_oracle_limit(build_tightening(n)[1])
]


# Rings and extra objects on which two_ring_from_multigraded must equal
# the per-tuple oracle field for field.
CONSTRUCTION_INPUTS = {
    **{name: (lambda name=name: (build_ring(name), ())) for name in RING_NAMES},
    "doubled_laurent_f2_z2": lambda: (build_ring("laurent_f2_z2"), (("1b", (1,)),)),
    "rank_two_signed": lambda: (rank_two_signed(), ()),
    "unit_5_3_2": lambda: (unit_ring(5, 3, 2), ()),
    "unit_2_1_12": lambda: (unit_ring(2, 1, 12), ()),
}


class TestConstruction:
    @pytest.mark.parametrize("case", sorted(CONSTRUCTION_INPUTS))
    def test_tables_match_the_per_tuple_oracle(self, case):
        ring, extra = CONSTRUCTION_INPUTS[case]()
        got = two_ring_from_multigraded(ring, extra_objects=extra)
        want = oracle_two_ring_from_multigraded(ring, extra_objects=extra)
        for name in TwoRingDatum._fields:
            value, expected = getattr(got, name), getattr(want, name)
            assert value == expected, name
            if isinstance(value, dict):
                assert list(value) == list(expected), name

    def test_catalog_two_rings_validate(self):
        for name in TWO_RING_NAMES:
            assert validate_two_ring(build_two_ring(name)).ok, name

    def test_composition_is_the_ring_product(self):
        R2 = build_two_ring("laurent_f2_z4")
        t1 = ("0", "1", (1,))
        t2 = ("1", "3", (1,))
        assert compose(R2, t2, t1) == ("0", "3", (1,))

    def test_tensor_twist_squares_away(self):
        # In the sign-graded instance the symmetry is -1 on odd pairs.
        R2 = build_two_ring("koszul_f3_z2")
        assert R2.symmetry[("1", "1")] == (2,)
        assert validate_two_ring(R2).ok

    def test_transposition_values_must_square_to_one(self):
        ring = make_multigraded(
            "bad", (4,), 5,
            components={0: ("1",), 1: ("t",)},
            products={("t", "t"): None},
            tau_eps=2,
        )
        with pytest.raises(RingShapeError):
            two_ring_from_multigraded(ring)

    def test_object_count_cap(self):
        ring = make_multigraded("wide", (13,), 2, components={0: ("1",)})
        with pytest.raises(SizeBound):
            two_ring_from_multigraded(ring)

    def test_duplicate_extra_object_rejected(self):
        ring = build_ring("laurent_f2_z2")
        with pytest.raises(RingShapeError):
            two_ring_from_multigraded(ring, extra_objects=(("1", (1,)),))

    def test_doubled_object_is_isomorphic_to_its_twin(self):
        R2 = build_two_ring("doubled_laurent_f2_z2")
        assert isomorphisms(R2, "1", "1b")
        assert R2.tensor_obj[("1b", "1b")] == "0"

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_cached_inverses_are_two_sided(self, name):
        R2 = build_two_ring(name)
        for a in R2.objects:
            for b in R2.objects:
                isos = isomorphisms(R2, a, b)
                assert list(isos) == [f for f, _ in reference_iso_pairs(R2, a, b)]
                assert isomorphisms(R2, a, b) is isos

    @pytest.mark.parametrize("args, count", [((5, 3, 2), 400), ((2, 1, 12), 144)])
    def test_isomorphisms_match_the_search_at_the_limits(self, args, count):
        # (5, 3, 2): hom components of 125 members; (2, 1, 12): 12 objects.
        R2 = two_ring_from_multigraded(unit_ring(*args))
        found = 0
        for a in R2.objects:
            for b in R2.objects:
                isos = isomorphisms(R2, a, b)
                assert list(isos) == [f for f, _ in reference_iso_pairs(R2, a, b)]
                found += len(isos)
        assert found == count

    def test_zero_two_ring_validates(self):
        R2 = build_two_ring("zero")
        assert not any(R2.dims.values())
        assert validate_two_ring(R2).ok


class TestKernelWork:
    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_closure_applies_each_map_once_per_added_row(self, monkeypatch, name):
        R2 = build_two_ring(name)
        index = R2.index
        applied = []
        real = multigraded._apply
        monkeypatch.setattr(multigraded, "_apply",
                            lambda *args: applied.append(1) or real(*args))
        for m in R2.basis_morphisms():
            applied.clear()
            ideal = index.generate([m])
            bound = sum(len(rows) * len(maps) for rows, maps in zip(ideal.rows, index.maps))
            assert 0 < len(applied) <= bound

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_lattice_joins_never_close(self, monkeypatch, name):
        R2 = build_two_ring(name)
        closes = []
        real = AlgebraIndex.close
        monkeypatch.setattr(AlgebraIndex, "close",
                            lambda self, *args: closes.append(1) or real(self, *args))
        homogeneous_ideals(R2)
        # One closure per principal ideal, that is per line; none per join.
        assert len(closes) == sum(len(lines) for lines in R2.index.lines)

    def test_closure_looks_up_each_ordered_pair_once(self, monkeypatch):
        R2 = build_two_ring("laurent_f2_z4")
        index = R2.index
        looked = []

        class Lookups(dict):
            def get(self, key):
                looked.append(key)
                return super().get(key)

        monkeypatch.setattr(index, "products", Lookups(index.products))
        system = mult_closure_two(R2)
        # One nonzero morphism per hom set, so a component pair names a
        # pair of members; pairs that do not compose are looked up too.
        assert len(system) == len({m[:-1] for m in system}) == 16
        assert sorted(looked) == sorted((f[:-1], g[:-1]) for f in system for g in system)

    def test_a_generator_of_no_hom_set_is_refused(self):
        with pytest.raises(RingShapeError, match=r"\('9', '0', \(1,\)\)"):
            mult_closure_two(build_two_ring("laurent_f2_z4"), [("9", "0", (1,))])

    @pytest.mark.parametrize("gen", [("0", "1", (1, 0)), ("0", "1", (3,)), ("0", "1", (-1,))],
                             ids=["too long", "entry 3", "entry -1"])
    def test_a_generator_that_is_no_morphism_is_refused(self, gen):
        with pytest.raises(RingShapeError) as info:
            mult_closure_two(build_two_ring("laurent_f3_z4"), [gen])
        assert repr(gen) in str(info.value)

    def test_validation_stops_at_the_first_isomorphism(self, monkeypatch):
        # F_5^3 hom components: listing every morphism of the three hom sets
        # that validation asks about makes 375 span tests.
        R2 = two_ring_from_multigraded(unit_ring(5, 3, 2))
        tests = []
        real = multigraded.in_span
        monkeypatch.setattr(multigraded, "in_span", lambda *a: tests.append(1) or real(*a))
        assert validate_two_ring(R2).ok
        searched = list(R2.index._searches)
        assert len(searched) == 3
        # One test per morphism up to and including the first isomorphism.
        firsts = [list(R2.homs(a, b, include_zero=True)).index(oracle_isomorphisms(R2, a, b)[0])
                  for a, b in searched]
        assert len(tests) == sum(firsts) + len(firsts) == 78

    def test_a_hom_set_is_searched_once(self, monkeypatch):
        R2 = build_two_ring("laurent_f3_z4")
        tests = []
        real = multigraded.in_span
        monkeypatch.setattr(multigraded, "in_span", lambda *a: tests.append(1) or real(*a))
        assert tworing.has_iso(R2, "0", "1")
        assert len(tests) == 2  # 0, then t, an isomorphism
        assert isomorphisms(R2, "0", "1") == oracle_isomorphisms(R2, "0", "1")
        assert tworing.has_iso(R2, "0", "1")
        assert isomorphisms(R2, "0", "1") is isomorphisms(R2, "0", "1")
        assert len(tests) == 3 == R2.char ** R2.hom_dim("0", "1")

    def test_agreement_identifies_basis_numerators_only(self, monkeypatch):
        T, R2 = build_tightening("identity_dual_laurent_f2_z2")
        S = [((0,), (0, 1))]
        calls = []
        real = tworing._fraction_identifier

        def counted(*args):
            identify = real(*args)
            return lambda vec: calls.append(vec) or identify(vec)

        monkeypatch.setattr(tworing, "_fraction_identifier", counted)
        assert localization_agreement(T, R2, S).ok
        fractions = ring_fractions(T.ring, mult_system_ring(T.ring, S))
        assert len(calls) == sum(q.length for q in fractions.values()) > 0
        assert all(sum(vec) == 1 for vec in calls)

    def test_construction_forms_one_table_per_key(self, monkeypatch):
        ring = unit_ring(2, 1, 12)
        calls = []
        real = tworing.mg_mul
        monkeypatch.setattr(tworing, "mg_mul", lambda *a: calls.append(1) or real(*a))
        two_ring_from_multigraded(ring)
        keys = ring.group.order() ** 2
        factors = len(set(ring.tau.values()))
        pairs = max(ring.dims.values()) ** 2
        # One product per basis pair of a composition key, a product and a
        # factor per basis pair of a tensor key, one square per factor.
        assert len(calls) <= keys * pairs + 2 * keys * factors * pairs + factors

    def test_index_forms_terms_once_per_table(self, monkeypatch):
        # The Z/12 2-ring shares 144 composition and 144 tensor tables among
        # its 12^3 composition and 12^4 tensor keys.
        R2 = two_ring_from_multigraded(unit_ring(2, 1, 12))
        calls = []
        real = multigraded._structure_terms
        monkeypatch.setattr(multigraded, "_structure_terms",
                            lambda table: calls.append(1) or real(table))
        index = tworing.two_ring_index(R2)
        assert len(calls) <= 288
        # An index whose every entry holds its own copy of its table forms
        # the terms once per entry, and must come out the same.
        own = R2._replace(
            compose_tables={k: tuple([*t]) for k, t in R2.compose_tables.items()},
            tensor_tables={k: tuple([*t]) for k, t in R2.tensor_tables.items()})
        calls.clear()
        per_entry = tworing.two_ring_index(own)
        assert len(calls) == len(per_entry.products) + len(per_entry.tensors)
        for field in ("products", "tensors", "maps", "lines"):
            assert getattr(index, field) == getattr(per_entry, field), field

    def test_lattice_makes_few_products(self, monkeypatch):
        calls = []
        for fn in ("compose", "tensor"):
            real = getattr(tworing, fn)
            monkeypatch.setattr(tworing, fn, lambda *a, real=real: calls.append(1) or real(*a))
        homogeneous_ideals(build_two_ring("laurent_f3_z4"))
        assert len(calls) <= 1000

    @pytest.mark.parametrize("name", ["laurent_f3_z4", "laurent_f2_z4"])
    def test_lattice_applies_fewer_maps_than_the_index_has(self, monkeypatch, name):
        # 16 one-dimensional components and one nonzero ideal: the first
        # line's closure fills every component, and each later line's first
        # image lands on a known line whose ideal holds it, which ends that
        # closure without absorbing the ideal, so only joins absorb.
        # Without the two stop rules the lattice applies 310 maps.
        index = build_two_ring(name).index
        counts = {"_apply": 0, "_absorb": 0, "join": 0}
        for fn in ("_apply", "_absorb"):
            real = getattr(multigraded, fn)
            monkeypatch.setattr(multigraded, fn, lambda *args, fn=fn, real=real:
                                counts.__setitem__(fn, counts[fn] + 1) or real(*args))
        join = AlgebraIndex.join
        monkeypatch.setattr(AlgebraIndex, "join", lambda *args:
                            counts.__setitem__("join", counts["join"] + 1) or join(*args))
        lattice = index.lattice()
        assert len(lattice) == 2
        assert 0 < counts["_apply"] <= sum(map(len, index.maps)) == 160
        assert counts["_absorb"] == counts["join"]


@st.composite
def mutated_data(draw, two_ring=None):
    """A ring or 2-ring: the catalog's, unit_ring, square_zero,
    rank_two_signed, or one of them with a structure-constant entry
    changed before its index is built.  two_ring True or False asks for
    that kind alone."""
    kinds = ["ring", "two_ring", "unit_ring", "square_zero", "rank_two_signed"]
    if two_ring is False:
        kinds.remove("two_ring")
    kind = draw(st.sampled_from(kinds))
    if kind == "ring":
        datum = build_ring(draw(st.sampled_from(RING_NAMES)))
    elif kind == "two_ring":
        datum = build_two_ring(draw(st.sampled_from(TWO_RING_NAMES)))
    elif kind == "unit_ring":
        datum = unit_ring(draw(st.sampled_from([2, 3])), draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    elif kind == "square_zero":
        p = draw(st.sampled_from([2, 3]))
        datum = square_zero(p, draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    else:
        datum = rank_two_signed()
    if kind != "two_ring":
        if two_ring is None:
            two_ring = draw(st.booleans(), label="as 2-ring")
        if two_ring:
            datum = two_ring_from_multigraded(datum)
    if draw(st.booleans(), label="mutate"):
        field = "products" if not isinstance(datum, TwoRingDatum) else draw(
            st.sampled_from(["compose_tables", "tensor_tables"]))
        tables = {k: t for k, t in getattr(datum, field).items() if t}
        if tables:
            key = draw(st.sampled_from(sorted(tables)), label="key")
            rows = [list(row) for row in tables[key]]
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = tuple(draw(st.lists(st.integers(0, datum.char - 1),
                                             min_size=len(rows[i][j]), max_size=len(rows[i][j]))))
            datum = datum._replace(
                **{field: {**getattr(datum, field), key: tuple(map(tuple, rows))}})
    return datum


@st.composite
def closure_data(draw):
    """A mutated_data datum as (index, name of an Ideal, oracle name of a
    member set, brute-force prime test of a member set)."""
    datum = draw(mutated_data())
    index = datum.index
    if isinstance(datum, TwoRingDatum):
        key = two_ring_name_key(datum)
        return (index, lambda ideal: ideal_name_two(datum, ideal),
                lambda ideal: oracle_ideal_name(index, ideal, key, datum.render),
                lambda ideal: oracle_two_ring_prime(datum, ideal))
    return (index, lambda ideal: index.name(ideal, None, datum.render),
            lambda ideal: oracle_ideal_name(index, ideal, None, datum.render),
            lambda ideal: oracle_ring_prime(datum, ideal))


def _lines(index, draw):
    """A few (component number, vector) pairs of nonzero vectors."""
    live = [c for c, d in enumerate(index.dims) if d]
    if not live:
        return []
    picks = draw(st.lists(st.sampled_from(live), max_size=3))
    out = []
    for c in picks:
        v = tuple(draw(st.lists(st.integers(0, index.char - 1),
                                min_size=index.dims[c], max_size=index.dims[c])))
        if any(v):
            out.append((c, v))
    return out


class TestClosureMatchesTheOracle:
    """AlgebraIndex.close and lattice stop at saturation; oracle_close and
    oracle_lattice, the engine without stop rules, close to the end."""

    @settings(max_examples=60, deadline=None)
    @given(datum=closure_data(), data=st.data())
    def test_ideals_names_generators_and_verdicts(self, datum, data):
        index, name, oracle_name, brute_prime = datum
        lattice = index.lattice().ideals
        members = [oracle_members(index, i.rows) for i in lattice]
        assert tuple(members) == oracle_lattice(index)
        assert [name(i) for i in lattice] == [oracle_name(m) for m in members]
        assert [index.is_prime(i) for i in lattice] == [brute_prime(m) for m in members]
        first, second = _lines(index, data.draw), _lines(index, data.draw)
        start = index.generate([(*index.keys[c], v) for c, v in first]).rows
        assert start == oracle_close(index, index.zero, first)
        # From a nonzero ideal, with every principal ideal known: a known
        # ideal that holds the generators but misses the start is no answer.
        known = {(c, v): oracle_close(index, index.zero, [(c, v)])
                 for c, lines in enumerate(index.lines) for v in lines}
        want = oracle_close(index, start, second)
        assert index.close(start, second) == want
        assert index.close(start, second, known) == want
        assert index.join(start, want) == want

    def test_a_known_ideal_missing_the_start_is_not_returned(self):
        # In F_2 + V with V^2 = 0 and V spanned by v1 in degree 1 and v2 in
        # degree 2, ⟨v1⟩ and ⟨v2⟩ are incomparable.  Closing ⟨v1⟩ with v2,
        # the first row lands on v2's known line, whose ideal holds v2 but
        # not v1; the answer is their join.  The same over every pair of
        # ideals and every member of the second.
        ring = square_zero(2, [1, 1, 1])
        index = ring.index
        known = {(c, v): oracle_close(index, index.zero, [(c, v)])
                 for c, lines in enumerate(index.lines) for v in lines}
        v1, v2 = index.generate([((1,), (1,))]).rows, index.generate([((2,), (1,))]).rows
        assert index.close(v1, [index.split(((2,), (1,)))], known) == index.join(v1, v2) != v2
        ideals = ring_ideals(ring).ideals
        assert len(ideals) == 5
        for small in ideals:
            start = small.rows
            for big in ideals:
                for m in oracle_members(index, big.rows):
                    gens = [index.split(m)]
                    assert index.close(start, gens, known) == oracle_close(index, start, gens)


def subspace_count(p, d):
    """Number of subspaces of F_p^d for d <= 3."""
    return (1, 2, p + 3, 2 * p * p + 2 * p + 4)[d]


@st.composite
def sparse_tables(draw):
    """An AlgebraIndex on random tables with no axiom assumed: up to four
    components keyed by object pairs, of random dimensions, and products on
    some pairs of them whose entries are mostly zero, so that lattices run
    to hundreds of ideals."""
    p = draw(st.sampled_from([2, 3, 5]), label="p")
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=2, max_size=4, unique=True), label="keys")
    dims = {k: draw(st.sampled_from([0, 1, 2, 2, 3, 3]), label="dim") for k in keys}
    count = 1
    for d in dims.values():
        count *= subspace_count(p, d)
    assume(count <= 1000)
    entry = st.sampled_from([0, 0, 0, *range(1, p)])
    products = {}
    for c in keys:
        for e in keys:
            if dims[c] and dims[e] and draw(st.sampled_from([False, False, True]),
                                             label="multiplies"):
                t = draw(st.sampled_from(keys), label="target")
                vec = st.tuples(*[entry] * dims[t])
                products[(c, e)] = (t, tuple(tuple(draw(vec) for _ in range(dims[e]))
                                             for _ in range(dims[c])))
    return AlgebraIndex(p, dims, products)


class TestIdealsAreTheirRows:
    """An ideal is its echelon basis from the lattice through spc and the
    correspondence: member sets are listed only to name a failure, and
    order, names and containment read off the rows are those of the
    member sets."""

    def test_lattice_spc_and_passing_correspondence_list_no_members(self, monkeypatch):
        listed = []
        real = AlgebraIndex.members
        monkeypatch.setattr(AlgebraIndex, "members",
                            lambda self, ideal: listed.append(1) or real(self, ideal))
        for name in TWO_RING_NAMES:
            R2 = build_two_ring(name)
            homogeneous_ideals(R2)
            spc(R2)
        passed = 0
        for name in TIGHTENING_NAMES:
            T, R2 = build_tightening(name)
            if validate_tightening(T, R2):
                passed += ideal_correspondence(T, R2).ok
        assert passed == len(TIGHTENING_NAMES) - 1
        assert listed == []

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_containment_is_inclusion_of_members(self, name):
        R2 = build_two_ring(name)
        lattice = homogeneous_ideals(R2).ideals
        members = [oracle_members(R2.index, i.rows) for i in lattice]
        for i, a in zip(lattice, members):
            for j, b in zip(lattice, members):
                assert (i <= j, i < j, i == j) == (a <= b, a < b, a == b)

    @settings(max_examples=40, deadline=None)
    # Products all zero: every choice of subspaces, 16 * 5 * 5 = 400 ideals.
    @example(index=AlgebraIndex(2, {(0, 0): 3, (0, 1): 2, (1, 1): 2}, {}))
    @example(index=AlgebraIndex(3, {(0, 0): 2, (0, 1): 2, (1, 0): 1},
                                {((0, 0), (0, 1)): ((1, 0), (((1,), (0,)), ((0,), (0,))))}))
    @given(index=sparse_tables())
    def test_order_names_and_containment_on_random_tables(self, index):
        lattice = index.lattice().ideals
        target(float(len(lattice)))
        members = [oracle_members(index, i.rows) for i in lattice]
        assert tuple(members) == oracle_lattice(index)
        names = [index.name(i, None, str) for i in lattice]
        assert names == [oracle_ideal_name(index, m, None, str) for m in members]
        step = len(lattice) // 30 + 1
        for i, a in zip(lattice[::step], members[::step]):
            for j, b in zip(lattice[::step], members[::step]):
                assert (i <= j, i < j) == (a <= b, a < b)


class TestInvertibilityMatchesTheSearch:
    """isomorphisms and homogeneous_units decide invertibility by one span
    test; reference_iso_pairs and reference_units try every candidate
    inverse.  The system is linear in the inverse, so the two agree on
    tables that break the axioms too."""

    @settings(max_examples=60, deadline=None)
    @given(mutated_data(two_ring=True))
    def test_isomorphisms(self, R2):
        for a in R2.objects:
            for b in R2.objects:
                assert list(isomorphisms(R2, a, b)) == [f for f, _ in reference_iso_pairs(R2, a, b)]

    @settings(max_examples=60, deadline=None)
    @given(mutated_data(two_ring=False))
    def test_homogeneous_units(self, ring):
        assert homogeneous_units(ring) == reference_units(ring)

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_ring_units_are_the_isomorphisms_from_the_unit(self, name):
        # The 2-ring built from a ring has Hom(0, x) = R_x, so the units in
        # degree x are the nonzero isomorphisms from the unit object to x.
        ring = build_ring(name)
        R2 = two_ring_from_multigraded(ring)
        units = homogeneous_units(ring)
        for x in ring.group.elements():
            isos = isomorphisms(R2, R2.unit, tworing.object_name(ring.group, x))
            assert [u for u in units if u[0] == x] == [(x, f[2]) for f in isos if any(f[2])]


class TestValidateNegatives:
    def test_replaced_copy_reads_its_own_tables(self):
        R2 = build_two_ring("laurent_f2_z2")
        assert validate_two_ring(R2).ok
        tables = edited(R2.compose_tables, {("0", "0", "0"): (((0,),),)})
        bad = R2._replace(compose_tables=tables)
        assert bad.index is not R2.index
        assert validate_two_ring(bad).describe() == "FAIL(composition_not_unital: '1')"

    def test_broken_associativity(self):
        R2 = build_two_ring("laurent_f2_z2")
        tables = dict(R2.compose_tables)
        tables[("0", "1", "0")] = (((0,),),)
        bad = R2._replace(compose_tables=tables)
        diag = validate_two_ring(bad)
        assert not diag.ok
        assert diag.reason in ("composition_not_associative", "interchange_fails",
                               "symmetry_not_natural", "object_not_invertible")

    def test_broken_identity(self):
        R2 = build_two_ring("laurent_f2_z2")
        ids = dict(R2.identities)
        ids["1"] = (0,)
        bad = R2._replace(identities=ids)
        assert validate_two_ring(bad).reason == "composition_not_unital"

    def test_broken_symmetry(self):
        R2 = build_two_ring("koszul_f3_z2")
        sym = dict(R2.symmetry)
        sym[("1", "1")] = (1,)
        bad = R2._replace(symmetry=sym)
        diag = validate_two_ring(bad)
        assert not diag.ok
        assert diag.reason.startswith("symmetry")

    def test_support_must_cover_components(self):
        R2 = build_two_ring("laurent_f2_z2")
        bad = R2._replace(support=frozenset({(0,)}))
        assert validate_two_ring(bad).reason == "component_outside_support"

    def test_composite_char(self):
        R2 = build_two_ring("laurent_f2_z2")
        bad = R2._replace(char=6)
        assert validate_two_ring(bad).reason == "characteristic_not_prime"


def edited(mapping, changes):
    out = dict(mapping)
    out.update(changes)
    return out


def two_ring_with(name, **fields):
    """A catalog 2-ring with fields replaced; fields maps a field name to
    the new value or to a function of the old one."""
    R2 = build_two_ring(name)
    new = {k: v(getattr(R2, k)) if callable(v) else v for k, v in fields.items()}
    return R2._replace(**new)


def two_unit_objects(z_tensor):
    """A 2-ring over F_2 with the unit "0" and a second object "z", both
    labelled 0, End = F_2 on each and no homs between them.  0 tensor 0 is
    0, and z tensor anything, on either side, is z_tensor."""
    group, objects = AbelianGroup((2,)), ("0", "z")
    pairs = [(a, b) for a in objects for b in objects]
    tensor_obj = {(a, b): "0" if a == b == "0" else z_tensor for a, b in pairs}
    one = (((1,),),)
    return TwoRingDatum(
        name="two_unit_objects", group=group, char=2, objects=objects,
        labels={a: group.zero for a in objects}, unit="0", support=frozenset({group.zero}),
        dims={(a, a): 1 for a in objects},
        basis_names={(a, b): (f"1_{a}",) if a == b else () for a, b in pairs},
        compose_tables={(a, a, a): one for a in objects}, tensor_obj=tensor_obj,
        tensor_tables={(a, a, b, b): one for a, b in pairs},
        identities={a: (1,) for a in objects}, symmetry={ab: (1,) for ab in pairs})


# One 2-ring per failure reason validate_two_ring can give.
TWO_RING_MUTANTS = {
    "characteristic_not_prime": lambda: two_ring_with("laurent_f2_z2", char=6),
    "object_without_label": lambda: two_ring_with("laurent_f2_z2", objects=lambda o: o + ("z",)),
    "bad_identity_shape": lambda: two_ring_with(
        "laurent_f2_z2", identities=lambda i: edited(i, {"1": ()})),
    "unit_not_labeled_zero": lambda: two_ring_with("laurent_f2_z2", unit="1"),
    "support_without_identity": lambda: two_ring_with("laurent_f2_z2", support=frozenset({(1,)})),
    "support_not_submonoid": lambda: two_ring_with(
        "laurent_f2_z4", support=frozenset({(0,), (1,)})),
    "component_outside_support": lambda: two_ring_with(
        "laurent_f2_z2", support=frozenset({(0,)})),
    "bad_basis_names": lambda: two_ring_with(
        "laurent_f2_z2", basis_names=lambda b: edited(b, {("0", "1"): ()})),
    "composition_not_unital": lambda: two_ring_with(
        "laurent_f2_z2", identities=lambda i: edited(i, {"1": (0,)})),
    "composition_not_associative": lambda: two_ring_with(
        "laurent_f2_z4", compose_tables=lambda t: edited(t, {("0", "1", "2"): (((0,),),)})),
    "tensor_object_missing": lambda: two_ring_with(
        "laurent_f2_z2", tensor_obj=lambda t: edited(t, {("0", "1"): "z"})),
    "tensor_label_mismatch": lambda: two_ring_with(
        "laurent_f2_z2", tensor_obj=lambda t: edited(t, {("0", "1"): "0"})),
    "tensor_object_not_associative": lambda: two_ring_with(
        "doubled_laurent_f2_z2", tensor_obj=lambda t: edited(t, {("0", "1"): "1b"})),
    "tensor_of_identities": lambda: two_ring_with(
        "laurent_f3_z4", tensor_tables=lambda t: edited(t, {("0", "0", "0", "0"): (((2,),),)})),
    # t1 tensor t1 doubled, while both its factorizations through
    # identities keep their tables.
    "interchange_fails": lambda: two_ring_with(
        "laurent_f3_z4", tensor_tables=lambda t: edited(t, {("0", "1", "0", "1"): (((2,),),)})),
    "symmetry_bad_shape": lambda: two_ring_with(
        "laurent_f2_z2", symmetry=lambda s: edited(s, {("0", "1"): ()})),
    "symmetry_not_involutive": lambda: two_ring_with(
        "laurent_f3_z4", symmetry=lambda s: edited(s, {("1", "2"): (2,)})),
    "symmetry_not_natural": lambda: two_ring_with(
        "koszul_f3_z2", symmetry=lambda s: edited(s, {("1", "1"): (1,)})),
    # The constant symmetry -1 is natural and involutive, but
    # s(a, b tensor c) = -1 is not s(a, b) s(a, c) = 1.
    "symmetry_not_multiplicative": lambda: two_ring_with(
        "laurent_f3_z4", symmetry=lambda s: {k: (2,) for k in s}),
    # Nothing tensors z into the unit: z tensor anything is z.
    "object_not_invertible": lambda: two_unit_objects("z"),
    # z tensor the unit is the unit, which z is not isomorphic to.
    "unit_tensor_not_isomorphic": lambda: two_unit_objects("0"),
}


def misread(ring, other):
    """ring identified, through identity matrices, with the unit-sourced homs
    of the 2-ring of other, a ring of the same shape."""
    G = ring.group
    T = Tightening(
        name=f"{ring.name}_as_{other.name}",
        ring=ring,
        projection={x: x for x in G.elements()},
        representatives={x: tworing.object_name(G, x) for x in G.elements()},
        phi={x: tuple(multigraded.basis_vectors(d)) for x, d in ring.dims.items()},
    )
    return T, two_ring_from_multigraded(other)


def one_entry_changed(R2, data):
    """R2 with one entry of one composition or tensor table redrawn."""
    field = data.draw(st.sampled_from(["compose_tables", "tensor_tables"]), label="field")
    tables = getattr(R2, field)
    key = data.draw(st.sampled_from(sorted(tables)), label="key")
    rows = [list(row) for row in tables[key]]
    i = data.draw(st.integers(0, len(rows) - 1), label="i")
    j = data.draw(st.integers(0, len(rows[i]) - 1), label="j")
    n = len(rows[i][j])
    rows[i][j] = data.draw(st.tuples(*[st.integers(0, R2.char - 1)] * n), label="vec")
    return R2._replace(**{field: edited(tables, {key: tuple(map(tuple, rows))})})


def identification_redrawn(T, R2, data):
    """T with every row of one identification redrawn."""
    x = data.draw(st.sampled_from(sorted(x for x, rows in T.phi.items() if rows)), label="x")
    n = len(T.phi[x][0])
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, R2.char - 1)] * n),
                              min_size=len(T.phi[x]), max_size=len(T.phi[x])), label="rows")
    return T._replace(phi=edited(T.phi, {x: tuple(rows)}))


def verdict(validate, *args):
    """describe() of the verdict, or the class and message of the error."""
    try:
        return validate(*args).describe()
    except Exception as exc:  # the two routes must also raise alike
        return f"{type(exc).__name__}: {exc}"


SMALL_TWO_RINGS = [n for n in TWO_RING_NAMES if n != "zero"]


class TestValidationMatchesTheScan:
    """validate_two_ring and validate_tightening check on generators; the
    oracles check every case.  Verdict, reason and detail must agree."""

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_catalog_two_rings(self, name):
        R2 = build_two_ring(name)
        assert validate_two_ring(R2).describe() == oracle_validate_two_ring(R2).describe()

    @pytest.mark.parametrize("name", TIGHTENING_NAMES)
    def test_catalog_tightenings(self, name):
        T, R2 = build_tightening(name)
        assert validate_tightening(T, R2).describe() == oracle_validate_tightening(T, R2).describe()

    @pytest.mark.parametrize("reason", sorted(TWO_RING_MUTANTS))
    def test_one_two_ring_per_reason(self, reason):
        R2 = TWO_RING_MUTANTS[reason]()
        diag = validate_two_ring(R2)
        assert diag.reason == reason
        assert diag.describe() == oracle_validate_two_ring(R2).describe()

    def test_axiom1_is_named_by_the_scan(self):
        # On basis vectors it first fails at u and e; the scan lists eu first.
        T, R2 = build_tightening("broken_dual_laurent")
        assert validate_tightening(T, R2).describe() == "FAIL(axiom1: (1,), 'eu', 'e')"

    @pytest.mark.parametrize("ring, other, want", [
        # Degree zero matches, so axiom 1 holds, but x x = 0 while u u = 1.
        (lambda: build_ring("nilpotent_f2_z2"), lambda: build_ring("laurent_f2_z2"),
         "FAIL(axiom2: (1,), (1,), 'x', 'x')"),
        # Only a squares to nonzero, and the line of b comes first.
        (lambda: make_multigraded(
            "a_squared", (3,), 2, components={0: ("1",), 1: ("a", "b"), 2: ("c", "d")},
            products={**{(m, n): None for m in "abcd" for n in "abcd" if m <= n}, ("a", "a"): "c"}),
         lambda: square_zero(2, [1, 2, 2]),
         "FAIL(axiom2: (1,), (1,), 'a', 'a')"),
    ])
    def test_axiom2(self, ring, other, want):
        T, R2 = misread(ring(), other())
        assert validate_multigraded(T.ring).ok
        diag = validate_tightening(T, R2)
        assert diag.describe() == want
        assert diag.describe() == oracle_validate_tightening(T, R2).describe()

    def test_interchange_needs_functoriality(self):
        # Every tensor with a morphism of nonzero degree on the right is
        # doubled.  Both factorizations of f tensor g still agree, since
        # scalars commute with composition, but 1 tensor - is no functor:
        # 2 * 2 = 1 is not 2 over F_3.
        R2 = build_two_ring("laurent_f3_z4")
        tables = {(a, b, c, d): table if c == d else tuple(
                      tuple(tuple(2 * v % 3 for v in w) for w in row) for row in table)
                  for (a, b, c, d), table in R2.tensor_tables.items()}
        bad = R2._replace(tensor_tables=tables)
        diag = validate_two_ring(bad)
        assert diag.reason == "interchange_fails"
        assert diag.describe() == oracle_validate_two_ring(bad).describe()

    def test_lemma_failure_the_scan_cannot_name_is_a_bug(self, monkeypatch):
        R2 = build_two_ring("laurent_f2_z2")
        monkeypatch.setattr(tworing, "_bifunctor_failures", lambda *a: iter(["a lemma failure"]))
        with pytest.raises(RuntimeError):
            validate_two_ring(R2)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(SMALL_TWO_RINGS), data=st.data())
    def test_mutated_tables(self, name, data):
        bad = one_entry_changed(build_two_ring(name), data)
        assert verdict(validate_two_ring, bad) == verdict(oracle_validate_two_ring, bad)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(TIGHTENING_NAMES), data=st.data())
    def test_mutated_identifications(self, name, data):
        T, R2 = build_tightening(name)
        bad = identification_redrawn(T, R2, data)
        assert verdict(validate_tightening, bad, R2) == verdict(oracle_validate_tightening, bad, R2)


# One violation per field of a 2-ring record: (field, entry key or None
# for the whole field, bad value).
FIELD_VIOLATIONS = [
    ("format", None, 2),
    ("name", None, ""),
    ("group_orders", None, [0]),
    ("char", None, 1),
    ("objects", None, []),
    ("labels", "1", [-1]),
    ("unit", None, None),
    ("support", None, [[0], "1"]),
    ("dims", "0->1", -1),
    ("basis_names", "0->1", [7]),
    ("compose", "0->0->0", [[1]]),
    ("tensor_obj", "0|1", 1),
    ("tensor", "0->0|0->0", [[[1.5]]]),
    ("identities", "1", ["1"]),
    ("symmetry", "0|1", {"0": 1}),
]

# Values that look like integers but are not JSON integers.
INTEGER_LOOKALIKES = [
    ("char", None, 2.0),
    ("group_orders", None, [2.0]),
    ("dims", "0->1", 1.0),
    ("identities", "1", [True]),
]


def laurent_record_with(field, key, bad):
    obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
    if key is None:
        obj[field] = bad
    else:
        obj[field][key] = bad
    return obj


# sha256 of the canonical JSON record of each catalog 2-ring, captured
# when the records were still shipped as files next to the code.
PINNED_RECORD_SHA256 = {
    "zero": "083b33ece3138d25adb7b49e0bc7e5f13d567e08515ae75f9d947d2ef24fadd4",
    "laurent_f2_z2": "2ad252eba7937aaf5a01958390a703e00aef50e1e846e02d8a0449d4295d412c",
    "laurent_f2_z4": "bc9d7a7035fe9cb538ed8e1151daf41964c282374e4ff3386ed81ac75c72df3c",
    "laurent_f3_z4": "11999aec914041371dfbf54490be3e19a6cfd6920c59f2b8fb47eb4d94cbbef1",
    "nilpotent_f2_z2": "bfd29d010941c36eda8ece482877c94e845edf622a290cbe8e9f404e8b1ae4c9",
    "dual_laurent_f2_z2": "2d8c755cea73dd7befc5bd8f7f81b0724f17385252e6b6f17ff4aff288541b0c",
    "koszul_f3_z2": "bc40a545337dffd0bcf73e25b232cfa7137ff0e5f22c3dfcbfc4983f291bbf9a",
    "doubled_laurent_f2_z2": "42c2ea181b4851812608fc582fb48f1c208692700ed6f3b3d71244ac63c6115d",
}


class TestSerialization:
    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_pinned_record(self, name):
        text = dumps_canonical(two_ring_to_obj(build_two_ring(name)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_RECORD_SHA256[name]

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_round_trip(self, name):
        obj = two_ring_to_obj(build_two_ring(name))
        parsed = json.loads(json.dumps(obj))
        assert two_ring_to_obj(two_ring_from_obj(parsed)) == obj

    def test_unknown_name(self):
        with pytest.raises(RingShapeError):
            build_two_ring("no_such_thing")

    def test_schema_rejects_missing_field(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        del obj["symmetry"]
        with pytest.raises(RingShapeError, match="malformed"):
            two_ring_from_obj(obj)

    def test_schema_rejects_extra_field(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        obj["extra"] = 1
        with pytest.raises(RingShapeError, match="malformed"):
            two_ring_from_obj(obj)

    def test_bad_table_shape_rejected_before_algebra(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        obj["compose"]["0->1->0"] = [[[1], [1]]]
        with pytest.raises(RingShapeError, match="shape"):
            two_ring_from_obj(obj)

    def test_unknown_object_in_key_rejected(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        obj["dims"]["0->9"] = 1
        with pytest.raises(RingShapeError, match="unknown"):
            two_ring_from_obj(obj)

    def test_unknown_object_in_basis_names_rejected(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        obj["basis_names"]["0->9"] = ["z"]
        with pytest.raises(RingShapeError, match="unknown"):
            two_ring_from_obj(obj)

    def test_missing_tensor_pair_rejected(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        del obj["tensor_obj"]["1|1"]
        with pytest.raises(RingShapeError, match="tensor_obj"):
            two_ring_from_obj(obj)

    def test_loaded_data_is_revalidated(self, tmp_path):
        # A schema-clean file with a broken identity fails the axiom
        # pass on load.
        import ttperiods.tworing_catalog as cat

        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        obj["identities"]["1"] = [0]
        R2 = two_ring_from_obj(obj)   # shapes are fine
        assert not validate_two_ring(R2).ok

    @pytest.mark.parametrize("field, key, bad", FIELD_VIOLATIONS, ids=[c[0] for c in FIELD_VIOLATIONS])
    def test_field_rule_violation_rejected(self, field, key, bad):
        with pytest.raises(RingShapeError, match=f"^malformed 2-ring record: {field}: "):
            two_ring_from_obj(laurent_record_with(field, key, bad))

    @pytest.mark.parametrize("field, key, bad", INTEGER_LOOKALIKES)
    def test_integral_float_or_bool_rejected(self, field, key, bad):
        with pytest.raises(RingShapeError, match=f"^malformed 2-ring record: {field}: .* is not an integer"):
            two_ring_from_obj(laurent_record_with(field, key, bad))

    def test_non_object_record_rejected(self):
        with pytest.raises(RingShapeError, match="malformed"):
            two_ring_from_obj([two_ring_to_obj(build_two_ring("laurent_f2_z2"))])

    def test_every_field_has_a_rule(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        for field in obj:
            rest = {k: v for k, v in obj.items() if k != field}
            with pytest.raises(RingShapeError, match=re.escape(f"missing fields [{field!r}]")):
                two_ring_from_obj(rest)
        assert {c[0] for c in FIELD_VIOLATIONS} == set(obj)

    def test_object_count_is_refused_before_any_table(self):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        obj["objects"] += [f"x{i}" for i in range(LIMITS["MAX_OBJECTS"].value - 1)]
        obj["compose"]["0->0->0"] = [[[1.5]]]
        with pytest.raises(SizeBound, match="MAX_OBJECTS"):
            two_ring_from_obj(obj)


class TestIdealsAndSpectrum:
    def test_lattice_sizes(self):
        expected = {
            "zero": 1,
            "laurent_f2_z2": 2,
            "laurent_f2_z4": 2,
            "laurent_f3_z4": 2,
            "nilpotent_f2_z2": 3,
            "dual_laurent_f2_z2": 3,
            "koszul_f3_z2": 3,
            "doubled_laurent_f2_z2": 2,
        }
        for name, n in expected.items():
            assert len(homogeneous_ideals(build_two_ring(name))) == n, name

    def test_lattice_matches_brute_force(self):
        for name in ORACLE_TWO_RINGS:
            assert_matches_oracles(build_two_ring(name))

    @pytest.mark.parametrize("name", ORACLE_TIGHTENINGS)
    def test_tightening_lattice_and_primes_match_the_oracle(self, name):
        assert_matches_oracles(build_tightening(name)[1])

    def test_oracle_runs_on_every_instance_within_its_limit(self):
        # The two Z/4 instances have 2^16 subspace families each.
        assert set(TWO_RING_NAMES) - set(ORACLE_TWO_RINGS) == {"laurent_f2_z4", "laurent_f3_z4"}
        assert set(TIGHTENING_NAMES) - set(ORACLE_TIGHTENINGS) == {
            "identity_laurent_f2_z4", "identity_laurent_f3_z4",
        }

    def test_zero_spectrum_is_empty(self):
        assert spc(build_two_ring("zero")).points == ()

    def test_unit_spectrum_is_a_point(self):
        model = spc(build_two_ring("laurent_f2_z2"))
        assert model.points == ("⟨⟩",)

    def test_nilpotent_spectrum(self):
        R2 = build_two_ring("nilpotent_f2_z2")
        model, names = spc_with_primes(R2)
        assert set(names) == {"⟨x⟩"}
        assert homogeneous_ideals(R2).bottom() not in names.values()

    def test_zero_ideal_not_prime_with_zero_divisors(self):
        R2 = build_two_ring("nilpotent_f2_z2")
        assert not is_prime_two(R2, homogeneous_ideals(R2).bottom())
        R2 = build_two_ring("laurent_f2_z2")
        assert is_prime_two(R2, homogeneous_ideals(R2).bottom())

    def test_total_ideal_never_prime(self):
        R2 = build_two_ring("laurent_f2_z2")
        top = homogeneous_ideals(R2).top()
        assert oracle_members(R2.index, top.rows) == frozenset(R2.morphisms())
        assert not is_prime_two(R2, top)

    def test_principal_closure_idempotent(self):
        R2 = build_two_ring("dual_laurent_f2_z2")
        e = ("0", "0", (0, 1))
        once = ideal_generated_two(R2, [e])
        assert ideal_generated_two(R2, oracle_members(R2.index, once.rows)) == once

    def test_ideal_closed_under_twists(self):
        R2 = build_two_ring("nilpotent_f2_z2")
        x = ("0", "1", (1,))
        ideal = oracle_members(R2.index, ideal_generated_two(R2, [x]).rows)
        for m in ideal:
            for g in R2.objects:
                t = tensor(R2, R2.identity(g), m)
                assert not any(t[2]) or t in ideal

    def test_size_guard(self):
        R2 = build_two_ring("laurent_f2_z2")
        dims = dict(R2.dims)
        dims[("0", "0")] = 4
        bad = R2._replace(dims=dims)
        with pytest.raises(SizeBound):
            homogeneous_ideals(bad)

    def test_maximal_proper_are_primes_here(self):
        for name in ("nilpotent_f2_z2", "dual_laurent_f2_z2", "koszul_f3_z2"):
            R2 = build_two_ring(name)
            lat = homogeneous_ideals(R2)
            primes = {i for i in lat if is_prime_two(R2, i)}
            assert set(lat.maximal_proper()) <= primes, name


def exterior_f2_z2():
    """F2[x, y]/(x^2, y^2) graded by Z/2: seven ideals, one prime."""
    return make_multigraded(
        "exterior_f2_z2", (2,), 2,
        components={0: ("1", "xy"), 1: ("x", "y")},
        products={
            ("x", "x"): None, ("y", "y"): None, ("x", "y"): "xy",
            ("x", "xy"): None, ("y", "xy"): None, ("xy", "xy"): None,
        },
    )


# Sorted names of all ideals, the primes and the maximal proper ideals,
# captured before rings and 2-rings shared one ideal engine.  Each ring
# and the 2-ring built from it agree entry for entry.
PINNED_IDEAL_NAMES = {
    "zero": (["⟨⟩"], [], []),
    "laurent_f2_z2": (["⟨1⟩", "⟨⟩"], ["⟨⟩"], ["⟨⟩"]),
    "laurent_f2_z4": (["⟨1⟩", "⟨⟩"], ["⟨⟩"], ["⟨⟩"]),
    "laurent_f3_z4": (["⟨1⟩", "⟨⟩"], ["⟨⟩"], ["⟨⟩"]),
    "nilpotent_f2_z2": (["⟨1⟩", "⟨x⟩", "⟨⟩"], ["⟨x⟩"], ["⟨x⟩"]),
    "dual_laurent_f2_z2": (["⟨e,1⟩", "⟨e⟩", "⟨⟩"], ["⟨e⟩"], ["⟨e⟩"]),
    "koszul_f3_z2": (["⟨1⟩", "⟨th⟩", "⟨⟩"], ["⟨th⟩"], ["⟨th⟩"]),
    "doubled_laurent_f2_z2": (["⟨1⟩", "⟨⟩"], ["⟨⟩"], ["⟨⟩"]),
    "exterior_f2_z2": (
        ["⟨xy,1⟩", "⟨xy,x+y⟩", "⟨xy,x⟩", "⟨xy,y,x⟩", "⟨xy,y⟩", "⟨xy⟩", "⟨⟩"],
        ["⟨xy,y,x⟩"],
        ["⟨xy,y,x⟩"],
    ),
}


def lattice_names(lattice, is_prime, name):
    return (
        sorted(name(i) for i in lattice),
        sorted(name(i) for i in lattice if is_prime(i)),
        sorted(name(i) for i in lattice.maximal_proper()),
    )


class TestPinnedIdealNames:
    @pytest.mark.parametrize("name", [*RING_NAMES, "exterior_f2_z2"])
    def test_ring_side(self, name):
        ring = exterior_f2_z2() if name == "exterior_f2_z2" else build_ring(name)
        got = lattice_names(
            ring_ideals(ring),
            lambda i: is_ring_prime(ring, i),
            lambda i: ring.index.name(i, None, ring.render),
        )
        assert got == PINNED_IDEAL_NAMES[name]

    @pytest.mark.parametrize("name", [*TWO_RING_NAMES, "exterior_f2_z2"])
    def test_two_ring_side(self, name):
        if name == "exterior_f2_z2":
            R2 = two_ring_from_multigraded(exterior_f2_z2())
        else:
            R2 = build_two_ring(name)
        got = lattice_names(
            homogeneous_ideals(R2),
            lambda i: is_prime_two(R2, i),
            lambda i: ideal_name_two(R2, i),
        )
        assert got == PINNED_IDEAL_NAMES[name]


class TestTranslates:
    def test_every_morphism_translates_to_itself(self):
        R2 = build_two_ring("laurent_f2_z2")
        for m in R2.morphisms(include_zero=True):
            assert is_translate(R2, m, m)

    def test_iso_composite_is_a_translate(self):
        R2 = build_two_ring("dual_laurent_f2_z2")
        e = ("0", "0", (0, 1))
        for w in isomorphisms(R2, "0", "1"):
            assert is_translate(R2, e, compose(R2, w, e))

    def test_twist_across_objects(self):
        # eu sits one object over from e and is still a translate.
        R2 = build_two_ring("dual_laurent_f2_z2")
        e = ("0", "0", (0, 1))
        eu = ("0", "1", (0, 1))
        assert is_translate(R2, e, eu)
        assert is_translate(R2, eu, e)

    def test_zero_is_not_a_translate_of_nonzero(self):
        R2 = build_two_ring("nilpotent_f2_z2")
        x = ("0", "1", (1,))
        zero = ("0", "1", (0,))
        assert not is_translate(R2, x, zero)
        assert not is_translate(R2, zero, x)

    def test_unit_is_not_a_translate_of_a_nonunit(self):
        R2 = build_two_ring("dual_laurent_f2_z2")
        u = ("0", "1", (1, 0))
        eu = ("0", "1", (0, 1))
        assert not is_translate(R2, u, eu)
        assert not is_translate(R2, eu, u)

    def test_composites_commute_up_to_translates(self):
        for name in ("laurent_f2_z2", "nilpotent_f2_z2", "dual_laurent_f2_z2",
                     "koszul_f3_z2"):
            R2 = build_two_ring(name)
            mors = list(R2.morphisms())
            for r in mors:
                for s in mors:
                    if s[0] != r[1]:
                        continue
                    assert commutes_up_to_translate(R2, r, s), (name, r, s)

    def test_commutation_samples_on_the_larger_group(self):
        R2 = build_two_ring("laurent_f3_z4")
        r = ("0", "1", (2,))
        s = ("1", "3", (1,))
        assert commutes_up_to_translate(R2, r, s)


class TestExchangeLemma:
    def test_exhaustive_on_dual_laurent(self):
        R2 = build_two_ring("dual_laurent_f2_z2")
        homs = list(R2.homs("0", "1", include_zero=True))
        ends = list(R2.homs("1", "1", include_zero=True))
        for a in homs:
            if not any(a[2]):
                continue
            for b in homs:
                for w in ends:
                    assert lemma_magic_check(R2, a, b, w), (a, b, w)

    def test_exhaustive_on_the_doubled_instance(self):
        R2 = build_two_ring("doubled_laurent_f2_z2")
        homs = list(R2.homs("0", "1b", include_zero=True))
        ends = list(R2.homs("1b", "1b", include_zero=True))
        for a in homs:
            for b in homs:
                for w in ends:
                    assert lemma_magic_check(R2, a, b, w), (a, b, w)

    def test_shape_errors(self):
        R2 = build_two_ring("laurent_f2_z2")
        u = ("0", "1", (1,))
        idm = R2.identity("1")
        with pytest.raises(BadShapes):
            lemma_magic_check(R2, ("1", "0", (1,)), u, idm)
        with pytest.raises(BadShapes):
            lemma_magic_check(R2, u, u, R2.identity("0"))

    def test_corrupted_composition_breaks_the_equivalence(self):
        # With an intentionally inconsistent table the two sides of the
        # exchange disagree for some inputs.
        R2 = build_two_ring("dual_laurent_f2_z2")
        tables = {k: [list(map(list, row)) for row in v] for k, v in R2.compose_tables.items()}
        tables[("0", "1", "1")][0][1] = [(0, 0), (0, 0)][0]
        bad_tables = {
            k: tuple(tuple(tuple(v) for v in row) for row in rows)
            for k, rows in tables.items()
        }
        bad = R2._replace(compose_tables=bad_tables)
        assert not validate_two_ring(bad).ok
        results = set()
        for a in bad.homs("0", "1", include_zero=True):
            for b in bad.homs("0", "1", include_zero=True):
                for w in bad.homs("1", "1", include_zero=True):
                    results.add(lemma_magic_check(bad, a, b, w))
        assert False in results


class TestTightenings:
    @pytest.mark.parametrize("name", [n for n in TIGHTENING_NAMES if n.startswith("identity_")])
    def test_identity_tightening_builds_its_ring_once(self, monkeypatch, name):
        import ttperiods.tworing_catalog as cat

        built = []
        real = cat.make_multigraded
        monkeypatch.setattr(cat, "make_multigraded",
                            lambda *a, **k: built.append(a[0]) or real(*a, **k))
        T, R2 = build_tightening(name)
        assert built == [name.removeprefix("identity_")]
        monkeypatch.undo()
        assert two_ring_to_obj(R2) == two_ring_to_obj(build_two_ring(R2.name))

    def test_catalog_verdicts(self):
        for name in TIGHTENING_NAMES:
            T, R2 = build_tightening(name)
            diag = validate_tightening(T, R2)
            if name == "broken_dual_laurent":
                assert diag.reason == "axiom1"
            else:
                assert diag.ok, (name, diag.describe())

    def test_identification_application(self):
        T, R2 = build_tightening("folded_laurent_f2_z4")
        img = phi_apply(T, R2, ((3,), (1,)))
        assert img == ("0", "1", (1,))

    def test_projection_must_be_a_homomorphism(self):
        T, R2 = build_tightening("folded_laurent_f2_z4")
        proj = dict(T.projection)
        proj[(2,)] = (1,)
        bad = T._replace(projection=proj)
        with pytest.raises(ShapeMismatch, match="homomorphism"):
            validate_tightening(bad, R2)

    def test_zero_label_needs_the_unit_object(self):
        T, R2 = build_tightening("doubled_laurent_f2_z2")
        reps = dict(T.representatives)
        reps[(0,)] = "0"
        reps2 = dict(reps)
        reps2[(0,)] = "1"
        bad = T._replace(representatives=reps2)
        with pytest.raises(ShapeMismatch):
            validate_tightening(bad, R2)

    def test_identification_must_be_bijective(self):
        T, R2 = build_tightening("identity_laurent_f2_z2")
        phi = dict(T.phi)
        phi[(1,)] = ((0,),)
        bad = T._replace(phi=phi)
        with pytest.raises(ShapeMismatch, match="bijective"):
            validate_tightening(bad, R2)

    def test_missing_degree_rejected(self):
        T, R2 = build_tightening("identity_laurent_f2_z2")
        phi = dict(T.phi)
        del phi[(1,)]
        bad = T._replace(phi=phi)
        with pytest.raises(ShapeMismatch):
            validate_tightening(bad, R2)

    def test_invalid_ring_propagates(self):
        T, R2 = build_tightening("identity_laurent_f2_z2")
        bad = T._replace(ring=build_ring("laurent_f2_z2")._replace(char=4))
        assert validate_tightening(bad, R2).reason == "char_not_prime"


class TestAgreement:
    def test_all_valid_tightenings_agree(self):
        for name in TIGHTENING_NAMES:
            if name == "broken_dual_laurent":
                continue
            T, R2 = build_tightening(name)
            assert agreement(T, R2).ok, name

    def test_broken_tightening_fails_early(self):
        T, R2 = build_tightening("broken_dual_laurent")
        assert agreement(T, R2).reason == "axiom1"

    def test_extension_restriction_bijection_explicitly(self):
        from ttperiods.tworing import extend_ideal, restrict_ideal
        from ttperiods.multigraded import ring_ideals

        T, R2 = build_tightening("identity_dual_laurent_f2_z2")
        lat2 = set(homogeneous_ideals(R2).ideals)
        for i in ring_ideals(T.ring):
            j = extend_ideal(T, R2, i)
            assert j in lat2
            assert restrict_ideal(T, R2, j) == i


class TestCorrespondenceMatchesTheOracle:
    """ideal_correspondence stops at the round trips and the prime match;
    the oracle also compares inclusions pair by pair and the two prime
    spectra point by point, which those checks imply.  Verdicts, and
    raised errors, must agree."""

    @pytest.mark.parametrize("name", TIGHTENING_NAMES)
    def test_catalog_tightenings(self, name):
        T, R2 = build_tightening(name)
        assert verdict(ideal_correspondence, T, R2) == verdict(oracle_ideal_correspondence, T, R2)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(TIGHTENING_NAMES), data=st.data())
    def test_mutated_identifications(self, name, data):
        T, R2 = build_tightening(name)
        bad = identification_redrawn(T, R2, data)
        assert verdict(ideal_correspondence, bad, R2) == verdict(oracle_ideal_correspondence, bad, R2)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(TIGHTENING_NAMES), data=st.data())
    def test_one_two_ring_entry_changed(self, name, data):
        T, R2 = build_tightening(name)
        bad = one_entry_changed(R2, data)
        assert verdict(ideal_correspondence, T, bad) == verdict(oracle_ideal_correspondence, T, bad)


# sha256 of the canonical record of the datum localize(R2, S) returns, with
# S = [] and then each basis morphism in basis_morphisms() order, captured
# before the linear fraction engine replaced the union-find over every span.
LOCALIZED_DIGESTS = {
    "zero": ["fc8cd8fa6e2488ce8ad089fdec0148c69ea56ab8464c28bb318a4ba74ac6dffd"] * 1,
    "laurent_f2_z2": ["d89a46d46a34fa92fb5d561e1e5b5f02f10b77c93e1c2b47ba9dcb88b7f5f930"] * 5,
    "laurent_f2_z4": ["d79ab3e2c9b4bafb89ecde779c369d3e5f59df6487a404540268edfbc3741b66"] * 17,
    "laurent_f3_z4": ["6aa4f66068d7178a9e554ac3a8f360fa3325b4dc7a26bc73647a754068b033db"] * 17,
    "nilpotent_f2_z2": [
        "9df0e65f6ac2f48115b6b38cebd98c9f4637f1bef51f3b7d3ce3bdc8fa244ace",
        "9df0e65f6ac2f48115b6b38cebd98c9f4637f1bef51f3b7d3ce3bdc8fa244ace",
        "465893b9102c2784e83ba5c4c9b6b77f15e8086272d0804ad7e19072fbfe02fb",
        "465893b9102c2784e83ba5c4c9b6b77f15e8086272d0804ad7e19072fbfe02fb",
        "9df0e65f6ac2f48115b6b38cebd98c9f4637f1bef51f3b7d3ce3bdc8fa244ace",
    ],
    "dual_laurent_f2_z2": [
        "980d073808558430c141ed35a37a70e07ac3b4bc1f557aa6f8d5d072890ad66d",
        "980d073808558430c141ed35a37a70e07ac3b4bc1f557aa6f8d5d072890ad66d",
        "c5e0b49f925fafddecbdbc9554ca07451439ff8655f5b44b9aab65ad072e3ca8",
        "980d073808558430c141ed35a37a70e07ac3b4bc1f557aa6f8d5d072890ad66d",
        "c5e0b49f925fafddecbdbc9554ca07451439ff8655f5b44b9aab65ad072e3ca8",
        "980d073808558430c141ed35a37a70e07ac3b4bc1f557aa6f8d5d072890ad66d",
        "c5e0b49f925fafddecbdbc9554ca07451439ff8655f5b44b9aab65ad072e3ca8",
        "980d073808558430c141ed35a37a70e07ac3b4bc1f557aa6f8d5d072890ad66d",
        "c5e0b49f925fafddecbdbc9554ca07451439ff8655f5b44b9aab65ad072e3ca8",
    ],
    "koszul_f3_z2": [
        "037af6907f09f36955201ae03de47db376faad6d3a63bc40f47de2e181156ed4",
        "037af6907f09f36955201ae03de47db376faad6d3a63bc40f47de2e181156ed4",
        "0fc8f5618b0434edab179812ff75f2a72a593776420e56449e8284c9fbc1e3d7",
        "0fc8f5618b0434edab179812ff75f2a72a593776420e56449e8284c9fbc1e3d7",
        "037af6907f09f36955201ae03de47db376faad6d3a63bc40f47de2e181156ed4",
    ],
    "doubled_laurent_f2_z2": ["2916771ec24b119e50b2c00b500e2e3ceb016235635e946f3011588eb4203819"] * 10,
}

# localization_agreement(T, R2, S).describe(), with S = [] and then each
# basis element of the ring in basis_elements() order, captured likewise.
AGREEMENT_VERDICTS = {
    "broken_dual_laurent": ["FAIL(axiom1: (1,), 'eu', 'e')"] * 5,
    "doubled_laurent_f2_z2": ['PASS'] * 3,
    "folded_laurent_f2_z4": ['PASS'] * 5,
    "identity_dual_laurent_f2_z2": ['PASS'] * 5,
    "identity_koszul_f3_z2": ['PASS'] * 3,
    "identity_laurent_f2_z2": ['PASS'] * 3,
    "identity_laurent_f2_z4": ['PASS'] * 5,
    "identity_laurent_f3_z4": ['PASS'] * 5,
    "identity_nilpotent_f2_z2": ['PASS'] * 3,
}


def systems_of(R2):
    """The empty system and each basis morphism on its own."""
    return [[], *([m] for m in R2.basis_morphisms())]


def agreement_systems(T):
    """The empty system and each basis element of the ring on its own."""
    return [[], *([e] for e in T.ring.basis_elements())]


def naive_mult_closure(R2, members):
    """Fixpoint that recomposes and retwists every member on every pass."""
    members = set(members)
    changed = True
    while changed:
        changed = False
        for f in list(members):
            found = [compose(R2, g, f) for g in list(members) if g[0] == f[1]]
            for obj in R2.objects:
                found += [tensor(R2, R2.identity(obj), f), tensor(R2, f, R2.identity(obj))]
            for c in found:
                if c not in members:
                    members.add(c)
                    changed = True
    return frozenset(members)


class TestLocalize:
    def test_inverting_a_nilpotent_kills_the_category(self):
        R2 = build_two_ring("nilpotent_f2_z2")
        L = localize(R2, [("0", "1", (1,))])[1]
        assert not any(L.dims.values())
        assert validate_two_ring(L).ok

    def test_localizing_at_isomorphisms_changes_nothing(self):
        R2 = build_two_ring("laurent_f2_z2")
        system, L = localize(R2, [])
        assert L.dims == R2.dims
        assert validate_two_ring(L).ok
        quotients = span_quotients(R2, system)
        for a in R2.objects:
            for b in R2.objects:
                images = {span_class(quotients, (R2.identity(a), m))
                          for m in R2.homs(a, b, include_zero=True)}
                assert len(images) == 2 ** R2.dims[(a, b)]

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_localized_data_match_the_pinned_digests(self, name):
        R2 = build_two_ring(name)
        got = [hashlib.sha256(dumps_canonical(two_ring_to_obj(L)).encode()).hexdigest()
               for _, L in (localize(R2, S) for S in systems_of(R2))]
        assert got == LOCALIZED_DIGESTS[name]

    @pytest.mark.parametrize("name", [
        *TWO_RING_NAMES,
        *(pytest.param((p, [1, 2]), id=f"square_zero_f{p}") for p in (2, 3)),
    ])
    def test_span_classes_match_the_union_find(self, name):
        R2 = build_two_ring(name) if isinstance(name, str) else two_ring_from_multigraded(square_zero(*name))
        for S in systems_of(R2):
            system = mult_closure_two(R2, S)
            quotients = span_quotients(R2, system)
            spans = [(s, f) for s in system for b in R2.objects
                     for f in R2.homs(s[0], b, include_zero=True)]
            assert partition(lambda span: (span[0][1], span[1][1], span_class(quotients, span)),
                             spans) == set(reference_span_classes(R2, system)), S

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_every_morphism_embeds_and_identities_stay_identities(self, name):
        R2 = build_two_ring(name)
        for S in systems_of(R2):
            system, L = localize(R2, S)
            quotients = span_quotients(R2, system)

            def embed(m):
                return span_class(quotients, (R2.identity(m[0]), m))

            for m in R2.morphisms(include_zero=True):
                assert len(embed(m)) == L.hom_dim(*m[:2])
            for a in R2.objects:
                assert (a, a, embed(R2.identity(a))) == L.identity(a), S

    def test_unit_localization_of_the_dual_instance(self):
        R2 = build_two_ring("dual_laurent_f2_z2")
        L = localize(R2, [])[1]
        assert set(L.dims.values()) == {2}
        assert len(spc(L).points) == 1
        assert validate_two_ring(L).ok

    def test_inverting_the_square_zero_element(self):
        R2 = build_two_ring("dual_laurent_f2_z2")
        L = localize(R2, [("0", "0", (0, 1))])[1]
        assert not any(L.dims.values())

    def test_localization_is_idempotent_on_a_saturated_system(self):
        R2 = build_two_ring("laurent_f3_z4")
        L1 = localize(R2, [])[1]
        L2 = localize(L1, [])[1]
        assert L1.dims == L2.dims
        assert spc(L1).points == spc(L2).points
        assert validate_two_ring(L2).ok

    def test_localized_data_validate(self):
        for name in ("laurent_f2_z2", "nilpotent_f2_z2", "koszul_f3_z2",
                     "dual_laurent_f2_z2", "doubled_laurent_f2_z2"):
            L = localize(build_two_ring(name), [])[1]
            assert validate_two_ring(L).ok, name

    @pytest.mark.parametrize("name, system", [
        ("nilpotent_f2_z2", [("0", "1", (1,))]),
        ("dual_laurent_f2_z2", [("0", "0", (0, 1))]),
        *((name, []) for name in ("laurent_f2_z2", "nilpotent_f2_z2", "koszul_f3_z2",
                                  "dual_laurent_f2_z2", "doubled_laurent_f2_z2")),
    ])
    def test_localized_lattice_and_primes_match_the_oracle(self, name, system):
        L = localize(build_two_ring(name), system)[1]
        assert within_oracle_limit(L)
        assert_matches_oracles(L)

    @pytest.mark.parametrize("name", TWO_RING_NAMES)
    def test_system_closure_matches_the_naive_fixpoint(self, name):
        R2 = build_two_ring(name)
        isos = [f for a in R2.objects for b in R2.objects for f in isomorphisms(R2, a, b)]
        for gens in [[], *([m] for m in R2.basis_morphisms())]:
            assert mult_closure_two(R2, gens) == naive_mult_closure(R2, isos + gens)

    def test_system_closure_contains_isomorphisms(self):
        R2 = build_two_ring("laurent_f2_z2")
        S = mult_closure_two(R2)
        for a in R2.objects:
            for b in R2.objects:
                for f in isomorphisms(R2, a, b):
                    assert f in S


class TestLocalizationAgreement:
    def test_units_only(self):
        for name in ("identity_laurent_f2_z2", "identity_laurent_f2_z4",
                     "identity_laurent_f3_z4", "identity_nilpotent_f2_z2",
                     "identity_dual_laurent_f2_z2", "identity_koszul_f3_z2",
                     "folded_laurent_f2_z4", "doubled_laurent_f2_z2"):
            T, R2 = build_tightening(name)
            assert localization_agreement(T, R2, []).ok, name

    @pytest.mark.parametrize("name", TIGHTENING_NAMES)
    def test_verdicts_match_the_pinned_table(self, name):
        T, R2 = build_tightening(name)
        got = [localization_agreement(T, R2, S).describe() for S in agreement_systems(T)]
        assert got == AGREEMENT_VERDICTS[name]

    @pytest.mark.parametrize("name", ["identity_laurent_f2_z4", "identity_dual_laurent_f2_z2"])
    def test_system_closed_once_and_no_fraction_datum_built(self, name, monkeypatch):
        # The check reads the span quotients of the system extend_system
        # closed; it composes no spans, so it builds no fraction 2-ring.
        calls = {"mult_closure_two": 0, "_span_compose": 0}
        for fn in calls:
            def counted(*args, _fn=fn, _original=getattr(tworing, fn)):
                calls[_fn] += 1
                return _original(*args)

            monkeypatch.setattr(tworing, fn, counted)
        T, R2 = build_tightening(name)
        assert localization_agreement(T, R2, []).ok
        assert calls == {"mult_closure_two": 1, "_span_compose": 0}

    @pytest.mark.parametrize("gen", [((1,), (1, 0)), ((5,), (1,)), ((1,), (2,))],
                             ids=["too long", "no degree", "entry outside F_2"])
    def test_a_ring_side_generator_that_is_no_element_is_refused(self, gen):
        # None names an element of the ring, so none may reach a verdict.
        T, R2 = build_tightening("identity_laurent_f2_z4")
        with pytest.raises(RingShapeError, match="system generator"):
            localization_agreement(T, R2, [gen])

    def test_inverting_the_nilpotent_on_both_sides(self):
        T, R2 = build_tightening("identity_nilpotent_f2_z2")
        assert localization_agreement(T, R2, [((1,), (1,))]).ok

    def test_inverting_the_square_zero_element_on_both_sides(self):
        T, R2 = build_tightening("identity_dual_laurent_f2_z2")
        assert localization_agreement(T, R2, [((0,), (0, 1))]).ok

    def test_extended_system_is_the_translate_closure(self):
        from ttperiods.tworing import extend_system, translate_closure

        T, R2 = build_tightening("identity_dual_laurent_f2_z2")
        Sr = mult_system_ring(T.ring)
        gen = extend_system(T, R2, Sr)
        tr = translate_closure(R2, [phi_apply(T, R2, e) for e in Sr])
        assert gen == tr


def seeded_systems(T, seed, count=4):
    """count systems of one or two nonzero homogeneous ring elements."""
    rng = random.Random(seed)
    comps = [(x, d) for x, d in sorted(T.ring.dims.items()) if d]
    out = []
    for _ in range(count):
        system = []
        for _ in range(rng.randint(1, 2)):
            x, d = rng.choice(comps)
            vec = (0,) * d
            while not any(vec):
                vec = tuple(rng.randrange(T.ring.char) for _ in range(d))
            system.append((x, vec))
        out.append(system)
    return out


class TestLocalizationMatchesTheOracle:
    """localization_agreement forms only the span quotients it reads and
    each identification's numerator-free part once per block; the oracle
    forms every quotient up front and identifies each fraction from
    scratch.  Verdicts, and raised errors, must agree."""

    @pytest.mark.parametrize("name", TIGHTENING_NAMES)
    def test_catalog_tightenings(self, name):
        T, R2 = build_tightening(name)
        for S in agreement_systems(T) + seeded_systems(T, sum(map(ord, name))):
            assert (verdict(localization_agreement, T, R2, S)
                    == verdict(oracle_localization_agreement, T, R2, S)), S

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(TIGHTENING_NAMES), data=st.data())
    def test_one_identification_row_changed(self, name, data):
        T, R2 = build_tightening(name)
        x = data.draw(st.sampled_from(sorted(x for x, rows in T.phi.items() if rows)), label="x")
        rows = list(T.phi[x])
        i = data.draw(st.integers(0, len(rows) - 1), label="i")
        rows[i] = data.draw(st.tuples(*[st.integers(0, R2.char - 1)] * len(rows[i])), label="row")
        bad = T._replace(phi=edited(T.phi, {x: tuple(rows)}))
        S = data.draw(st.sampled_from(agreement_systems(T)), label="S")
        assert (verdict(localization_agreement, bad, R2, S)
                == verdict(oracle_localization_agreement, bad, R2, S))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(TIGHTENING_NAMES), data=st.data())
    def test_one_two_ring_entry_changed(self, name, data):
        T, R2 = build_tightening(name)
        bad = one_entry_changed(R2, data)
        S = data.draw(st.sampled_from(agreement_systems(T)), label="S")
        assert (verdict(localization_agreement, T, bad, S)
                == verdict(oracle_localization_agreement, T, bad, S))

    # A catalog tightening with one table entry of its 2-ring changed, and
    # the first reason localization_agreement gives at S = [], one for each
    # of its own reasons that some single entry reaches.
    @pytest.mark.parametrize("reason, name, field, key, i, j, vec", [
        ("translate_closure_differs", "doubled_laurent_f2_z2", "compose_tables",
         ("0", "1", "1b"), 0, 0, (0,)),
        ("system_round_trip", "doubled_laurent_f2_z2", "tensor_tables",
         ("1", "1", "0", "0"), 0, 0, (0,)),
        ("identification_not_injective", "identity_dual_laurent_f2_z2", "compose_tables",
         ("0", "1", "0"), 0, 0, (1, 1)),
        ("identification_not_well_defined", "identity_dual_laurent_f2_z2", "tensor_tables",
         ("0", "0", "0", "0"), 0, 0, (1, 1)),
    ])
    def test_one_entry_per_reason(self, reason, name, field, key, i, j, vec):
        T, R2 = build_tightening(name)
        rows = [list(row) for row in getattr(R2, field)[key]]
        rows[i][j] = vec
        bad = R2._replace(
            **{field: edited(getattr(R2, field), {key: tuple(map(tuple, rows))})})
        diag = localization_agreement(T, bad, [])
        assert diag.reason == reason
        assert diag.describe() == oracle_localization_agreement(T, bad, []).describe()

    def test_a_zero_dimensional_block_forms_its_identifier(self):
        # Z/2-graded F_2 with nothing in degree one: at x = 1 the block of
        # the denominator 1 has no basis numerator.  With 0 tensor 1 sent to
        # 0, that block's framing from 0 to 1 does not exist, and forming its
        # identifier raises, as it did when every numerator was identified.
        ring = make_multigraded("odd_zero", (2,), 2, components={0: ("1",)})
        T, R2 = misread(ring, ring)
        bad = R2._replace(tensor_obj=edited(R2.tensor_obj, {("0", "1"): "0"}))
        want = "ShapeMismatch: no isomorphism from '0' to '1'"
        assert verdict(localization_agreement, T, bad, []) == want
        assert verdict(oracle_localization_agreement, T, bad, []) == want

    def test_a_rescaled_identification_is_not_well_defined(self):
        # Doubling the degree-one identification keeps both tightening
        # axioms, which hold up to translates, but not the dilations.
        T, R2 = build_tightening("identity_laurent_f3_z4")
        bad = T._replace(phi=edited(T.phi, {(1,): ((2,),)}))
        assert validate_tightening(bad, R2).ok
        diag = localization_agreement(bad, R2, [])
        assert diag.describe() == "FAIL(identification_not_well_defined: (1,))"
        assert diag.describe() == oracle_localization_agreement(bad, R2, []).describe()

    # Per tightening: the quotients the check forms, one per representative
    # of an object label, then localize's, one per component.
    @pytest.mark.parametrize("name, checked, localized", [
        ("doubled_laurent_f2_z2", 2, 9),
        ("folded_laurent_f2_z4", 2, 4),
        ("identity_dual_laurent_f2_z2", 2, 4),
        ("identity_koszul_f3_z2", 2, 4),
        ("identity_laurent_f2_z2", 2, 4),
        ("identity_laurent_f2_z4", 4, 16),
        ("identity_laurent_f3_z4", 4, 16),
        ("identity_nilpotent_f2_z2", 2, 4),
    ])
    def test_only_the_read_quotients_are_formed(self, name, checked, localized, monkeypatch):
        built = [0]

        def counted(*args, _original=tworing.FractionQuotient):
            built[0] += 1
            return _original(*args)

        monkeypatch.setattr(tworing, "FractionQuotient", counted)
        T, R2 = build_tightening(name)
        assert localization_agreement(T, R2, []).ok
        assert built[0] == checked == len(set(T.representatives.values()))
        built[0] = 0
        localize(R2, [])
        assert built[0] == localized == len(R2.objects) ** 2


class TestRestriction:
    def test_full_group_restriction_is_the_identity(self):
        R2 = build_two_ring("laurent_f2_z2")
        res, pmap = restrict_submonoid(R2, [(0,), (1,)])
        assert res.objects == R2.objects
        assert res.dims == R2.dims
        assert pmap == {"⟨⟩": "⟨⟩"}

    def test_trivial_restriction_is_the_unit_endomorphism_ring(self):
        R2 = build_two_ring("dual_laurent_f2_z2")
        res, pmap = restrict_submonoid(R2, [(0,)])
        assert res.objects == ("0",)
        assert validate_two_ring(res).ok
        assert pmap == {"⟨e⟩": "⟨e⟩"}

    def test_even_part_of_the_order_four_instance(self):
        R2 = build_two_ring("laurent_f2_z4")
        res, pmap = restrict_submonoid(R2, [(0,), (2,)])
        assert res.objects == ("0", "2")
        assert res.support == frozenset({(0,), (2,)})
        assert validate_two_ring(res).ok
        assert pmap == {"⟨⟩": "⟨⟩"}

    def test_not_a_submonoid(self):
        R2 = build_two_ring("laurent_f2_z4")
        with pytest.raises(NotSubmonoid):
            restrict_submonoid(R2, [(0,), (1,)])
        with pytest.raises(NotSubmonoid):
            restrict_submonoid(R2, [(1,), (3,)])

    def test_garbage_labels(self):
        R2 = build_two_ring("laurent_f2_z2")
        with pytest.raises(NotSubmonoid):
            restrict_submonoid(R2, [(0, 0)])

    def test_restriction_commutes_with_localization(self):
        R2 = build_two_ring("laurent_f2_z4")
        assert restriction_localization_check(R2, [(0,), (2,)], []).ok
        assert restriction_localization_check(
            R2, [(0,), (2,)], [("0", "2", (1,))]
        ).ok

    def test_restriction_with_a_foreign_system_fails(self):
        R2 = build_two_ring("laurent_f2_z4")
        diag = restriction_localization_check(R2, [(0,)], [("0", "1", (1,))])
        assert diag.reason == "system_outside_restriction"

    def test_nilpotent_trace(self):
        R2 = build_two_ring("nilpotent_f2_z2")
        res, pmap = restrict_submonoid(R2, [(0,)])
        assert pmap == {"⟨x⟩": "⟨⟩"}


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=11), max_size=3))
def test_two_ring_closure_idempotent(picks):
    R2 = build_two_ring("dual_laurent_f2_z2")
    mors = list(R2.morphisms())
    gens = [mors[i % len(mors)] for i in picks]
    once = ideal_generated_two(R2, gens)
    assert ideal_generated_two(R2, oracle_members(R2.index, once.rows)) == once
    assert once in set(homogeneous_ideals(R2).ideals)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=31))
def test_translate_relation_is_symmetric_on_units_instances(i, j):
    # With every component spanned by units, translation is mutual.
    R2 = build_two_ring("laurent_f2_z4")
    mors = list(R2.morphisms(include_zero=True))
    r = mors[i % len(mors)]
    s = mors[j % len(mors)]
    assert is_translate(R2, r, s) == is_translate(R2, s, r)
