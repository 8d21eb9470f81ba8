"""Group-graded tabulated rings: validation, ideals, primes, fractions."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ttperiods import multigraded
from ttperiods.diagnostics import SizeBound
from ttperiods.multigraded import (
    AbelianGroup,
    RingShapeError,
    all_vectors,
    homogeneous_units,
    in_span,
    is_ring_prime,
    make_multigraded,
    matrix_invertible,
    mg_mul,
    mult_system_ring,
    ring_fractions,
    ring_ideals,
    validate_multigraded,
    vec_add,
    vec_zero,
)
from ttperiods.tworing_catalog import RING_NAMES, build_ring

from oracles import equivalence_classes, ideal_generated_ring, ideal_of_members, oracle_members
from oracles import oracle_fraction_relations, oracle_ring_ideals, oracle_ring_prime
from oracles import oracle_validate_multigraded, reference_units
from oracles import partition, reference_fraction_classes, ring_primes, spech_multigraded, square_zero


class TestAbelianGroup:
    def test_canon_accepts_ints_for_rank_one(self):
        g = AbelianGroup((4,))
        assert g.canon(7) == (3,)
        assert g.canon((-1,)) == (3,)

    def test_canon_rejects_wrong_rank(self):
        with pytest.raises(RingShapeError):
            AbelianGroup((2, 2)).canon((1,))

    def test_arithmetic(self):
        g = AbelianGroup((2, 3))
        assert g.add((1, 2), (1, 2)) == (0, 1)
        assert g.sub((0, 0), (1, 1)) == (1, 2)
        assert g.order() == 6

    def test_submonoid_closure_is_a_subgroup(self):
        # In a finite group, closing under addition alone already gives
        # the subgroup generated by the elements.
        g = AbelianGroup((6,))
        closed = g.submonoid_closure([(2,)])
        assert closed == {(0,), (2,), (4,)}
        assert all(g.sub(g.zero, x) in closed for x in closed)

    def test_bad_orders_rejected(self):
        with pytest.raises(RingShapeError):
            AbelianGroup(())
        with pytest.raises(RingShapeError):
            AbelianGroup((0,))


def rank_two_signed():
    # Two anticommuting order-two units over F3; c spans their product.
    return make_multigraded(
        "rank2", (2, 2), 3,
        components={(0, 0): ("1",), (1, 0): ("a",), (0, 1): ("b",), (1, 1): ("c",)},
        products={
            ("a", "a"): "1",
            ("b", "b"): "1",
            ("a", "b"): "c",
            ("a", "c"): "b",
            ("b", "c"): {"a": -1},
            ("c", "c"): {"1": -1},
        },
        tau_eps={(0, 1): -1},
    )


class TestMakeMultigraded:
    def test_catalog_rings_validate(self):
        for name in RING_NAMES:
            assert validate_multigraded(build_ring(name)).ok, name

    def test_identity_products_are_implicit(self):
        ring = build_ring("laurent_f2_z2")
        one = ((0,), ring.one)
        u = ((1,), (1,))
        assert mg_mul(ring, one, u) == u
        assert mg_mul(ring, u, u) == one

    def test_transposed_products_follow_the_sign_table(self):
        ring = build_ring("koszul_f3_z2")
        th = ((1,), (1,))
        assert mg_mul(ring, th, th) == ((0,), (0,))

    def test_missing_product_rejected(self):
        with pytest.raises(RingShapeError):
            make_multigraded(
                "m", (2,), 2,
                components={0: ("1",), 1: ("a", "b")},
                products={("a", "a"): None, ("a", "b"): None},
            )

    def test_reused_basis_name_rejected(self):
        with pytest.raises(RingShapeError):
            make_multigraded(
                "m", (2,), 2,
                components={0: ("1", "x"), 1: ("x",)},
            )

    def test_component_cap_enforced(self):
        with pytest.raises(SizeBound):
            make_multigraded(
                "m", (2,), 2,
                components={0: ("1", "a", "b", "c")},
            )

    def test_tau_sign_must_fit_the_factor_order(self):
        # An order-3 factor cannot carry the sign -1 in char 5.
        with pytest.raises(RingShapeError):
            make_multigraded(
                "m", (3,), 5,
                components={0: ("1",)},
                tau_eps=-1,
            )

    def test_rank_two_needs_a_sign_mapping(self):
        with pytest.raises(RingShapeError):
            make_multigraded("m", (2, 2), 3, components={(0, 0): ("1",)}, tau_eps=-1)

    def test_rank_two_sign_mapping_accepted(self):
        ring = rank_two_signed()
        assert validate_multigraded(ring).ok
        a = ((1, 0), (1,))
        b = ((0, 1), (1,))
        # b*a = -a*b = -c under the chosen sign.
        assert mg_mul(ring, b, a) == ((1, 1), (2,))

    def test_zero_ring(self):
        ring = build_ring("zero")
        assert ring.is_zero_ring()
        assert ring.one == ()
        assert validate_multigraded(ring).ok


class TestValidateMultigraded:
    def test_composite_characteristic_fails(self):
        ring = ring_with("laurent_f2_z2", char=4)
        assert validate_multigraded(ring).reason == "char_not_prime"

    def test_broken_associativity_detected(self):
        ring = build_ring("laurent_f2_z4")
        tables = dict(ring.products)
        tables[((1,), (2,))] = (((0,),),)  # t1*t2 = 0 clashes with t1*t1*t1
        ring = ring._replace(products=tables)
        assert validate_multigraded(ring).reason == "not_associative"

    def test_asymmetric_transposition_detected(self):
        # Asymmetry needs two distinct degrees, so rank two.
        ring = rank_two_signed()
        tau = dict(ring.tau)
        tau[((1, 0), (0, 1))] = (1,)
        ring = ring._replace(tau=tau)
        diag = validate_multigraded(ring)
        assert not diag.ok
        assert diag.reason in ("transposition_not_symmetric", "commutation_fails")

    def test_nonunit_transposition_detected(self):
        ring = build_ring("laurent_f3_z4")
        tau = dict(ring.tau)
        for y in ring.group.elements():
            tau[((1,), y)] = (0,)
            tau[(y, (1,))] = (0,)
        ring = ring._replace(tau=tau)
        assert validate_multigraded(ring).reason == "transposition_not_unit"

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_a_passing_ring_lists_no_component(self, name, monkeypatch):
        ring = build_ring(name)
        ring.index  # lists each component's lines once, before the count
        listed = []
        monkeypatch.setattr(multigraded, "all_vectors",
                            lambda *a: listed.append(a) or all_vectors(*a))
        assert validate_multigraded(ring).ok
        assert listed == []

    def test_commutation_failure_detected(self):
        ring = build_ring("dual_laurent_f2_z2")
        tables = {k: [list(r) for r in v] for k, v in ring.products.items()}
        # e*u and u*e must agree in char 2; break one side only.
        tables[((0,), (1,))][1][0] = (1, 0)
        ring = ring._replace(products={k: tuple(tuple(r) for r in v) for k, v in tables.items()})
        diag = validate_multigraded(ring)
        assert not diag.ok


def ring_with(name, **fields):
    """A catalog ring with fields replaced before its index is built."""
    return build_ring(name)._replace(**fields)


def edited(mapping, changes):
    out = dict(mapping)
    out.update(changes)
    return out


def tau_with(name, pairs):
    """The catalog ring with tau changed on the given degree pairs and their
    transposes, symmetric as the unit and symmetry checks want it."""
    ring = build_ring(name)
    changes = {}
    for (x, y), v in pairs.items():
        changes[(x, y)] = changes[(y, x)] = v
    return ring_with(name, tau=edited(ring.tau, changes))


def products_with(name, key, i, j, vec):
    ring = build_ring(name)
    rows = [list(row) for row in ring.products[key]]
    rows[i][j] = vec
    table = tuple(tuple(row) for row in rows)
    return ring_with(name, products=edited(ring.products, {key: table}))


# One ring per failure reason validate_multigraded can give.  Where the
# check runs on generators, the first failure over every case differs from
# the first on the generators, so the reported detail shows which scan
# named it.  A unit tau(0, 0) other than one has no reason of its own:
# the bilinearity check at (0, 0, 0) asks tau(0, 0) = tau(0, 0)^2, and a
# unit idempotent is one (test_non_unital_tau_fails_bilinearity).
RING_MUTANTS = {
    "char_not_prime": lambda: ring_with("laurent_f2_z2", char=4),
    "bad_identity_shape": lambda: ring_with("laurent_f2_z2", one=()),
    # one = e fails on both basis vectors of R_0; every vector lists e first.
    "identity_fails_on": lambda: ring_with("dual_laurent_f2_z2", one=(0, 1)),
    "not_associative": lambda: products_with("laurent_f2_z4", ((1,), (2,)), 0, 0, (0,)),
    # e is nonzero but squares to zero.
    "transposition_not_unit": lambda: tau_with("dual_laurent_f2_z2", {((1,), (1,)): (0, 1)}),
    "transposition_not_symmetric": lambda: ring_with(
        "laurent_f3_z4", tau=edited(build_ring("laurent_f3_z4").tau, {((1,), (2,)): (2,)})),
    # tau(3, 1) = 2 first fails at (x, y, w) = (1, 2, 1); with y a generator
    # of Z/4, at (2, 1, 1).
    "transposition_not_bilinear": lambda: tau_with("laurent_f3_z4", {((3,), (1,)): (2,)}),
    # The sign (-1)^(xy) is a bilinear unit table, but t1 t1 = t2 is not -t2.
    "commutation_fails": lambda: ring_with("laurent_f3_z4", tau={
        (x, y): ((-1) ** (x[0] * y[0]) % 3,) for x, y in build_ring("laurent_f3_z4").tau
    }),
}


class TestValidationMatchesTheScan:
    """validate_multigraded checks on generators; oracle_validate_multigraded
    checks every case.  Verdict, reason and detail must agree."""

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_catalog_rings(self, name):
        ring = build_ring(name)
        assert validate_multigraded(ring).describe() == oracle_validate_multigraded(ring).describe()

    def test_signed_rank_two_ring(self):
        ring = rank_two_signed()
        assert validate_multigraded(ring).describe() == oracle_validate_multigraded(ring).describe()

    @pytest.mark.parametrize("reason", sorted(RING_MUTANTS))
    def test_one_ring_per_reason(self, reason):
        ring = RING_MUTANTS[reason]()
        diag = validate_multigraded(ring)
        assert diag.reason == reason
        assert diag.describe() == oracle_validate_multigraded(ring).describe()

    def test_non_unital_tau_fails_bilinearity(self):
        ring = tau_with("laurent_f3_z4", {((0,), (0,)): (2,)})
        diag = validate_multigraded(ring)
        assert diag.describe() == "FAIL(transposition_not_bilinear: (0,), (0,), (0,))"
        assert diag.describe() == oracle_validate_multigraded(ring).describe()

    # Values that no vector of R_0 equals: the wrong length, entries outside
    # 0..p-1 (though equal to a unit mod p), and no tuple at all.
    @pytest.mark.parametrize("value", [(1, 0), (), (4,), (-2,), "1"], ids=repr)
    def test_transposition_value_of_the_wrong_shape(self, value):
        ring = tau_with("laurent_f3_z4", {((1,), (1,)): value})
        diag = validate_multigraded(ring)
        assert diag.describe() == "FAIL(transposition_not_unit: (1,), (1,))"
        assert diag.describe() == oracle_validate_multigraded(ring).describe()

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from([n for n in RING_NAMES if n != "zero"]), data=st.data())
    def test_mutated_tables(self, name, data):
        ring = build_ring(name)
        if data.draw(st.booleans(), label="tau"):
            key = data.draw(st.sampled_from(sorted(ring.tau)), label="pair")
            unit = data.draw(st.integers(0, ring.char - 1), label="value")
            value = tuple(unit * c % ring.char for c in ring.one)
            pairs = {key: value}
            ring = tau_with(name, pairs) if data.draw(st.booleans()) else ring_with(
                name, tau=edited(ring.tau, pairs))
        else:
            key = data.draw(st.sampled_from(sorted(ring.products)), label="degrees")
            table = ring.products[key]
            i = data.draw(st.integers(0, len(table) - 1), label="i")
            j = data.draw(st.integers(0, len(table[i]) - 1), label="j")
            n = len(table[i][j])
            vec = data.draw(st.tuples(*[st.integers(0, ring.char - 1)] * n), label="vec")
            ring = products_with(name, key, i, j, vec)
        assert validate_multigraded(ring).describe() == oracle_validate_multigraded(ring).describe()


class TestIdeals:
    def test_lattice_sizes(self):
        expected = {
            "zero": 1,
            "laurent_f2_z2": 2,
            "laurent_f2_z4": 2,
            "laurent_f3_z4": 2,
            "nilpotent_f2_z2": 3,
            "dual_laurent_f2_z2": 3,
            "koszul_f3_z2": 3,
        }
        for name, n in expected.items():
            assert len(ring_ideals(build_ring(name))) == n, name

    def test_lattice_matches_brute_force(self):
        for ring in [*map(build_ring, RING_NAMES), exterior_f2_z2()]:
            ideals = oracle_ring_ideals(ring)
            assert {oracle_members(ring.index, i.rows) for i in ring_ideals(ring)} == ideals, ring.name
            for ideal in ideals:
                assert is_ring_prime(ring, ideal_of_members(ring.index, ideal)) == oracle_ring_prime(
                    ring, ideal), sorted(ideal)

    def test_bottom_and_top(self):
        ring = build_ring("nilpotent_f2_z2")
        lat = ring_ideals(ring)
        assert oracle_members(ring.index, lat.bottom().rows) == frozenset()
        assert oracle_members(ring.index, lat.top().rows) == frozenset(ring.homogeneous_elements())
        assert all(lat.bottom() <= i <= lat.top() for i in lat)

    def test_nilpotent_zero_ideal_is_not_prime(self):
        # x*x lands in the zero ideal while x stays outside.
        ring = build_ring("nilpotent_f2_z2")
        assert not is_ring_prime(ring, ring_ideals(ring).bottom())

    def test_primes(self):
        ring = build_ring("dual_laurent_f2_z2")
        primes = ring_primes(ring)
        assert [ring.index.name(i, None, ring.render) for i in primes] == ["⟨e⟩"]
        ring = build_ring("laurent_f3_z4")
        primes = ring_primes(ring)
        assert [ring.index.name(i, None, ring.render) for i in primes] == ["⟨⟩"]

    def test_zero_ring_has_no_primes(self):
        # The only ideal is empty, which equals the total one, so the
        # spectrum is empty.
        ring = build_ring("zero")
        model, names = spech_multigraded(ring)
        assert model.points == () and names == {}

    def test_spectrum_model_edges_follow_inclusion(self):
        ring = build_ring("koszul_f3_z2")
        model, names = spech_multigraded(ring)
        assert set(model.points) == {"⟨th⟩"}

    def test_maximal_proper(self):
        ring = build_ring("dual_laurent_f2_z2")
        lat = ring_ideals(ring)
        tops = lat.maximal_proper()
        assert len(tops) == 1 and ring.index.name(tops[0], None, ring.render) == "⟨e⟩"

    def test_closure_is_idempotent(self):
        ring = build_ring("dual_laurent_f2_z2")
        gens = [((1,), (0, 1))]
        once = ideal_generated_ring(ring, gens)
        assert ideal_generated_ring(ring, once) == once


def exterior_f2_z2():
    """F2[x, y]/(x^2, y^2) graded by Z/2: degree zero is F2[xy]/(xy)^2."""
    return make_multigraded(
        "exterior_f2_z2", (2,), 2,
        components={0: ("1", "xy"), 1: ("x", "y")},
        products={
            ("x", "x"): None, ("y", "y"): None, ("x", "y"): "xy",
            ("x", "xy"): None, ("y", "xy"): None, ("xy", "xy"): None,
        },
    )


def reference_degree_zero_units(ring):
    """Brute-force one-sided inverse search over the degree-zero component,
    the unit search validate_multigraded once ran on its own."""
    z = ring.group.zero
    one = (z, ring.one)
    out = []
    if ring.is_zero_ring():
        return out
    for u in all_vectors(ring.char, ring.dims[z]):
        for v in all_vectors(ring.char, ring.dims[z]):
            if mg_mul(ring, (z, u), (z, v)) == one:
                out.append((z, u))
                break
    return out


def reference_closure(members, product):
    """Naive fixpoint: multiply every pair again until nothing is new."""
    members = set(members)
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                c = product(a, b)
                if c is not None and c not in members:
                    members.add(c)
                    changed = True
    return frozenset(members)


def ring_or_exterior(name):
    return exterior_f2_z2() if name == "exterior_f2_z2" else build_ring(name)


class TestSystemsAndFractions:
    def test_units(self):
        ring = build_ring("dual_laurent_f2_z2")
        units = {ring.render(u) for u in homogeneous_units(ring)}
        assert units == {"1", "1+e", "u", "u+eu"}
        degree_zero = {ring.render(u) for u in homogeneous_units(ring) if u[0] == (0,)}
        assert degree_zero == {"1", "1+e"}

    def test_zero_ring_has_no_units(self):
        # The one element of the zero ring is 1 = 0; the search never lists it.
        ring = build_ring("zero")
        assert homogeneous_units(ring) == []

    @pytest.mark.parametrize("name", [*RING_NAMES, "exterior_f2_z2"])
    def test_degree_zero_units_match_the_one_sided_search(self, name):
        ring = ring_or_exterior(name)
        z = ring.group.zero
        got = {u for u in homogeneous_units(ring) if u[0] == z}
        assert got == set(reference_degree_zero_units(ring))
        assert homogeneous_units(ring) == reference_units(ring)

    @pytest.mark.parametrize("name", [*RING_NAMES, "exterior_f2_z2"])
    def test_system_matches_the_naive_fixpoint(self, name):
        ring = ring_or_exterior(name)
        mul = lambda a, b: mg_mul(ring, a, b)
        units = homogeneous_units(ring)
        assert mult_system_ring(ring) == reference_closure(units, mul)
        for e in ring.homogeneous_elements():
            assert mult_system_ring(ring, [e]) == reference_closure([*units, e], mul)

    def test_closure_multiplies_each_ordered_pair_once(self, monkeypatch):
        index = build_ring("laurent_f3_z4").index
        looked, applied = [], []

        class Lookups(dict):
            def get(self, key):
                looked.append(key)
                return super().get(key)

        real = multigraded._bilinear
        monkeypatch.setattr(index, "products", Lookups(index.products))
        monkeypatch.setattr(multigraded, "_bilinear",
                            lambda p, n, terms, u, v: applied.append((u, v)) or real(p, n, terms, u, v))
        # t1 and -1 generate the eight elements +-t^k.
        system = index.close_system([((1,), (1,)), ((0,), (2,))])
        assert len(system) == 8
        # A ring has a product for every pair and no twists, so each read of
        # the products table is applied to the vectors of the pair it reads.
        pairs = [((*c, u), (*e, v)) for (c, e), (u, v) in zip(looked, applied, strict=True)]
        assert sorted(pairs) == sorted(itertools.product(system, repeat=2))

    def test_a_generator_of_no_degree_is_refused(self):
        with pytest.raises(RingShapeError, match=r"\(\(5,\), \(1,\)\)"):
            mult_system_ring(build_ring("laurent_f2_z4"), [((5,), (1,))])

    @pytest.mark.parametrize("gen", [((1,), (1, 0)), ((1,), (3,)), ((1,), (-1,))],
                             ids=["too long", "entry 3", "entry -1"])
    def test_a_generator_that_is_no_element_is_refused(self, gen):
        with pytest.raises(RingShapeError) as info:
            mult_system_ring(build_ring("laurent_f3_z4"), [gen])
        assert repr(gen) in str(info.value)

    def test_system_closes_units(self):
        ring = build_ring("laurent_f2_z4")
        sys = mult_system_ring(ring)
        assert len(sys) == 4

    def test_nilpotent_system_reaches_zero(self):
        ring = build_ring("nilpotent_f2_z2")
        sys = mult_system_ring(ring, [((1,), (1,))])
        assert ((0,), (0,)) in sys

    def test_fraction_classes_at_units(self):
        ring = build_ring("laurent_f2_z2")
        fr = ring_fractions(ring, mult_system_ring(ring))
        assert all(ring.char ** fr[x].dim == 2 for x in ring.group.elements())

    def test_fraction_addition(self):
        ring = build_ring("laurent_f2_z2")
        fr = ring_fractions(ring, mult_system_ring(ring))
        one = ((0,), (1,))
        zero = vec_zero(fr[(1,)].dim)
        cls_u = fr[(1,)].class_of(one, (1,))
        assert vec_add(ring.char, cls_u, cls_u) == zero
        assert vec_add(ring.char, cls_u, zero) == cls_u

    def test_inverting_a_nilpotent_collapses_everything(self):
        ring = build_ring("nilpotent_f2_z2")
        sys = mult_system_ring(ring, [((1,), (1,))])
        fr = ring_fractions(ring, sys)
        assert all(ring.char ** fr[x].dim == 1 for x in ring.group.elements())

    def test_fractions_separate_what_units_cannot_merge(self):
        ring = build_ring("dual_laurent_f2_z2")
        fr = ring_fractions(ring, mult_system_ring(ring))
        # e and 0 stay apart: no unit multiple of e vanishes.
        one = ((0,), (1, 0))
        assert fr[(0,)].class_of(one, (0, 1)) != vec_zero(fr[(0,)].dim)


# The square-zero rings have components of dimension 2 with few units.
@pytest.mark.parametrize("ring", [
    *(pytest.param(name, id=name) for name in RING_NAMES),
    *(pytest.param((p, [1, 2]), id=f"square_zero_f{p}") for p in (2, 3)),
])
def test_fraction_classes_match_the_union_find(ring):
    ring = build_ring(ring) if isinstance(ring, str) else square_zero(*ring)
    numerators = list(ring.homogeneous_elements(include_zero=True))
    for gens in [[], *([e] for e in ring.homogeneous_elements())]:
        system = mult_system_ring(ring, gens)
        fr = ring_fractions(ring, system)

        def class_of(fraction):
            (y, r), s = fraction
            x = ring.group.sub(y, s[0])
            return (x, fr[x].class_of(s, r))

        fractions = [(r, s) for s in system for r in numerators]
        assert partition(class_of, fractions) == set(reference_fraction_classes(ring, system)), gens


@st.composite
def fraction_data(draw):
    """FractionQuotient inputs over F_p: blocks of dimension 0 to 3, and
    dilations between them, s -> s and repeated pairs among them, whose
    image rows may be zero."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    blocks = [(f"s{k}", d) for k, d in enumerate(dims)]
    pairs = draw(st.lists(st.tuples(*[st.sampled_from(range(len(dims)))] * 2), max_size=8))
    dilations = []
    for a, b in pairs:
        row = st.one_of(st.just((0,) * dims[b]), st.tuples(*[st.integers(0, p - 1)] * dims[b]))
        rows = draw(st.lists(row, min_size=dims[a], max_size=dims[a]))
        dilations.append((blocks[a][0], blocks[b][0], rows))
    return p, blocks, dilations


@settings(max_examples=200, deadline=None)
@given(fraction_data())
def test_fraction_relations_match_the_dense_reduction(data):
    p, blocks, dilations = data
    q = multigraded.FractionQuotient(p, blocks, dilations)
    assert q.relations == oracle_fraction_relations(p, blocks, dilations)
    assert q.dim == sum(d for _, d in blocks) - len(q.relations)


@st.composite
def structure_tables(draw):
    """A structure-constant table of a rows by b columns of vectors of
    length n over F_p (None, all zero or random), and u, v to multiply."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    a, b, n = (draw(st.integers(0, 3)) for _ in range(3))
    entries = st.tuples(*[st.integers(0, p - 1)] * n)
    table = draw(st.one_of(
        st.just(None),
        st.just(((((0,) * n,) * b),) * a),
        st.tuples(*[st.tuples(*[entries] * b)] * a),
    ))
    u, v = draw(st.tuples(*[st.integers(0, p - 1)] * a)), draw(st.tuples(*[st.integers(0, p - 1)] * b))
    return p, n, table, u, v


@settings(max_examples=200, deadline=None)
@given(structure_tables())
def test_bilinear_matches_the_dense_sum(data):
    p, n, table, u, v = data
    want = tuple(sum(u[i] * v[j] * table[i][j][k] for i in range(len(u)) for j in range(len(v))) % p
                 if table else 0 for k in range(n))
    assert multigraded._bilinear(p, n, multigraded._structure_terms(table), u, v) == want


class TestEquivalenceClasses:
    def test_classes_of_the_generated_relation_in_sorted_order(self):
        classes = equivalence_classes("fedcba", [("a", "b"), ("c", "b"), ("e", "f"), ("f", "e")])
        assert [sorted(c) for c in classes] == [["a", "b", "c"], ["d"], ["e", "f"]]

    def test_no_pairs_gives_singletons(self):
        assert equivalence_classes([3, 1, 2], []) == [{1}, {2}, {3}]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
def test_equivalence_classes_match_reachability(pairs):
    # Oracle: x and y share a class when y is reachable from x along
    # pairs taken in either direction.
    edges = pairs + [(v, u) for u, v in pairs]

    def reach(x):
        seen, todo = {x}, [x]
        while todo:
            a = todo.pop()
            for u, v in edges:
                if u == a and v not in seen:
                    seen.add(v)
                    todo.append(v)
        return frozenset(seen)

    classes = equivalence_classes(range(10), pairs)
    assert set(classes) == {reach(x) for x in range(10)}


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=7), max_size=4))
def test_ring_closure_idempotent_on_random_generators(picks):
    ring = build_ring("dual_laurent_f2_z2")
    elements = list(ring.homogeneous_elements())
    gens = [elements[i % len(elements)] for i in picks]
    once = ideal_generated_ring(ring, gens)
    assert ideal_generated_ring(ring, once) == once
    assert ideal_of_members(ring.index, once) in set(ring_ideals(ring).ideals)


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=7), max_size=3),
    st.sets(st.integers(min_value=0, max_value=7), max_size=3),
)
def test_join_is_commutative(a_picks, b_picks):
    ring = build_ring("koszul_f3_z2")
    elements = list(ring.homogeneous_elements())
    ga = [elements[i % len(elements)] for i in a_picks]
    gb = [elements[i % len(elements)] for i in b_picks]
    ia = ideal_generated_ring(ring, ga)
    ib = ideal_generated_ring(ring, gb)
    assert ideal_generated_ring(ring, ia | ib) == ideal_generated_ring(ring, ib | ia)


small_systems = st.sampled_from((2, 3)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.lists(st.integers(0, p - 1), min_size=2, max_size=2), max_size=3),
    st.lists(st.integers(0, p - 1), min_size=2, max_size=2),
))


@settings(max_examples=60, deadline=None)
@given(small_systems)
def test_elimination_finds_exactly_the_brute_force_solutions(system):
    p, rows, target = system
    brute = [
        c for c in all_vectors(p, len(rows))
        if tuple(sum(cj * r[k] for cj, r in zip(c, rows)) % p for k in range(2)) == tuple(target)
    ]
    assert in_span(p, rows, target) == bool(brute)
    if len(rows) == 2:
        # Square: invertible exactly when only the zero combination vanishes.
        kernel = [c for c in all_vectors(p, 2) if not any(
            sum(cj * r[k] for cj, r in zip(c, rows)) % p for k in range(2))]
        assert matrix_invertible(p, rows) == (kernel == [(0, 0)])
