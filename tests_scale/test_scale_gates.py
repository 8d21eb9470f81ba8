"""Each library engine against its oracle at the limit it is declared for."""

import itertools

import pytest

from oracles import (
    oracle_artin_tower,
    oracle_central_loc_pullback,
    oracle_enumerate_patterns,
    oracle_fraction_relations,
    oracle_homeo_onto_image,
    oracle_ideal_correspondence,
    oracle_ideal_name,
    oracle_is_ample,
    oracle_isomorphisms,
    oracle_lattice,
    oracle_localization_agreement,
    oracle_validate_two_ring,
    reference_units,
    section_mismatches,
    square_zero,
    two_ring_name_key,
)
from test_corpus import (
    REFUSED,
    corpus_outcomes,
    metacyclic,
    metacyclic_presentations,
    refusal_counts,
    weyl_route_mismatches,
)
from test_groups import route_oracle_mismatches
from test_limits import minimal_open_table, sections_on, unit_ring
from test_tworing import edited, misread, verdict
from ttperiods.comparison import central_localization, homeo_onto_image, is_ample
from ttperiods.diagnostics import LIMITS
from ttperiods.graded import enumerate_patterns, make_ring, spech_to_obj
from ttperiods.groups import cyclic, dihedral, elementary_abelian, quaternion, subgroups
from ttperiods.multigraded import homogeneous_units, mult_system_ring, ring_fractions
from ttperiods.spaces import FiniteSpectralModel
from ttperiods.spectra import artin_tower
from ttperiods.tworing import (
    has_iso,
    ideal_correspondence,
    ideal_name_two,
    isomorphisms,
    localization_agreement,
    mult_closure_two,
    span_quotients,
    two_ring_from_multigraded,
    validate_two_ring,
)
from ttperiods.tworing_catalog import TIGHTENING_NAMES, build_tightening


def test_two_ring_validation_at_max_objects():
    # The oracle checks interchange on every pair of composable pairs of
    # basis morphisms, which takes tens of seconds at 12 objects.  Its
    # verdict must equal validate_two_ring's on the Z/12 Laurent 2-ring over
    # F_2 as built, with a composition table changed, and with a tensor
    # table changed.  The changed copies, made with _replace, are
    # validated after the datum as built, so each must read its own tables,
    # not the cache the datum as built filled.
    R2 = two_ring_from_multigraded(unit_ring(2, 1, 12))
    compose_tables = {**R2.compose_tables, ("0", "1", "2"): (((0,),),)}
    tensor_tables = {**R2.tensor_tables, ("0", "1", "0", "1"): (((0,),),)}
    data = {
        "as built": R2,
        "composition changed": R2._replace(compose_tables=compose_tables),
        "tensor changed": R2._replace(tensor_tables=tensor_tables),
    }
    verdicts = {
        name: (validate_two_ring(datum).describe(), oracle_validate_two_ring(datum).describe())
        for name, datum in data.items()
    }
    assert {name: v for name, v in verdicts.items() if v[0] != v[1]} == {}


@pytest.mark.parametrize("args", [(2, 1, 12), (5, 3, 2)], ids=["Z12 over F2", "Z2 over F5, dim 3"])
def test_ideal_lattices_at_max_objects_and_max_component_size(args):
    # The closure that stops at saturation against the engine without stop
    # rules, on the Z/12 2-ring over F_2 (12 objects) and the Z/2 2-ring
    # over F_5 with components of dimension 3 (125 members each): every
    # ideal's members, in lattice order, and every ideal's name must be
    # equal.
    R2 = two_ring_from_multigraded(unit_ring(*args))
    new, old = R2.index.lattice().ideals, oracle_lattice(R2.index)
    assert tuple(R2.index.members(i) for i in new) == old
    names = [ideal_name_two(R2, i) for i in new]
    assert names == [oracle_ideal_name(R2.index, i, two_ring_name_key(R2), R2.render) for i in old]


@pytest.mark.parametrize("args", [(5, 3, 2), (2, 1, 12)], ids=["Z2 over F5, dim 3", "Z12 over F2"])
@pytest.mark.parametrize("first_read", ["has_iso", "list"])
def test_isomorphism_search_at_max_objects_and_max_component_size(args, first_read):
    # The search that has_iso stops at the first hit against the listing
    # that tests every morphism, on every hom set of the two rings above, on
    # a fresh datum for each order of reading: has_iso and the first hit
    # before the list, or the list before both.  The list, its first
    # element and has_iso must be the listing's.
    R2 = two_ring_from_multigraded(unit_ring(*args))
    wrong = []
    for a in R2.objects:
        for b in R2.objects:
            want = oracle_isomorphisms(R2, a, b)
            if first_read == "list":
                isos = isomorphisms(R2, a, b)
            found, first = has_iso(R2, a, b), R2.index.units((a, b)).first()
            if first_read == "has_iso":
                isos = isomorphisms(R2, a, b)
            if (isos, found, first) != (want, bool(want), want[0] if want else None):
                wrong.append((a, b))
    assert wrong == []


@pytest.mark.parametrize("args", [(5, 3, 2), (2, 1, 12)], ids=["Z2 over F5, dim 3", "Z12 over F2"])
@pytest.mark.parametrize("first_read", ["first", "list"])
def test_ring_unit_search_at_max_objects_and_max_component_size(args, first_read):
    # The ring side of the search above, on the rings themselves, each built
    # afresh for its order of reading: every degree's first unit before the
    # list, or the list before the first units.  The list must equal the
    # search that tries every inverse, and each first unit its first entry
    # in that degree.
    ring = unit_ring(*args)
    want = reference_units(ring)
    firsts = {}
    if first_read == "list":
        units = homogeneous_units(ring)
    for x in ring.group.elements():
        firsts[x] = ring.index.units((x,)).first()
    if first_read == "first":
        units = homogeneous_units(ring)
    assert units == want
    assert firsts == {x: next((u for u in want if u[0] == x), None) for x in ring.group.elements()}


@pytest.mark.parametrize("args", [(5, 3, 2), (2, 1, 12)], ids=["Z2 over F5, dim 3", "Z12 over F2"])
def test_ideal_correspondence_at_max_objects_and_max_component_size(args):
    # The correspondence on echelon bases against the oracle's on member
    # sets, on the identity tightening of each ring above, and with one
    # identification made singular: its first row doubled into its second
    # over F_5, its one row zero over F_2.
    ring = unit_ring(*args)
    T, R2 = misread(ring, ring)
    x = (1,)
    rows = T.phi[x]
    singular = rows[:1] + rows[:1] + rows[2:] if len(rows) > 1 else (tuple(0 for _ in rows[0]),)
    tightenings = {
        "identity": T,
        "singular": T._replace(phi=edited(T.phi, {x: singular})),
    }
    verdicts = {
        name: (verdict(ideal_correspondence, t, R2), verdict(oracle_ideal_correspondence, t, R2))
        for name, t in tightenings.items()
    }
    assert verdicts["identity"][0] == "PASS"
    assert verdicts["singular"][0].startswith("FAIL(round_trip_ring")
    assert {name: v for name, v in verdicts.items() if v[0] != v[1]} == {}


def test_localization_agreement_at_scale():
    # The check that forms only the span quotients it reads, and each
    # identification's numerator-free part once per block, against the
    # oracle that forms every quotient and identifies each fraction from
    # scratch, on the identity tightening of the Z/10 Laurent ring over F_5
    # (10 objects): as built, and with the degree-3 identification doubled,
    # which the tightening axioms accept and the localization check refuses.
    ring = unit_ring(5, 1, 10)
    T, R2 = misread(ring, ring)
    tightenings = {
        "as built": T,
        "degree 3 doubled": T._replace(phi=edited(T.phi, {(3,): ((2,),)})),
    }
    verdicts = {
        name: (verdict(localization_agreement, t, R2, []),
               verdict(oracle_localization_agreement, t, R2, []))
        for name, t in tightenings.items()
    }
    assert {name: v for name, v in verdicts.items() if v[0] != v[1]} == {}


def relations_differ(quotient) -> bool:
    """Whether a FractionQuotient's relations differ from the dense
    reduction of its dilations."""
    want = oracle_fraction_relations(quotient.p, quotient.blocks, quotient.dilations)
    return quotient.relations != want


def test_fraction_relations_at_max_spans():
    # The relations reduced through the rows at their own coordinates
    # against the dense reduction, on all 100 span quotients of the
    # MAX_SPANS probe: the Z/10 Laurent 2-ring over F_5 at the closure of
    # the empty system, 40 denominators and 1 600 relation rows a quotient.
    R2 = two_ring_from_multigraded(unit_ring(5, 1, 10))
    quotients = span_quotients(R2, mult_closure_two(R2))
    comps = list(itertools.product(R2.objects, repeat=2))
    assert [comp for comp in comps if relations_differ(quotients(comp))] == []


def test_fraction_relations_at_max_fraction_pairs():
    # The same on every degree of the ring fractions of the
    # MAX_FRACTION_PAIRS probe, the square-zero Z/64 ring over F_5 at its
    # units.
    ring = square_zero(5, [1] + [3] * 39 + [1] * 24)
    quotients = ring_fractions(ring, mult_system_ring(ring))
    assert [x for x, q in quotients.items() if relations_differ(q)] == []


RELATIONS = [
    [(1, {"x0": 1, "x1": 1, "x2": 2})],
    [(1, {"x3": 1, "x4": 1})],
    [(1, {"x5": 1, "x6": 1, "x7": 1, "x8": 1})],
]
PATTERN_RINGS = {
    "dense": make_ring(2, [(f"x{i}", 1 + i % 4, False, i == 12) for i in range(13)], RELATIONS),
    "sparse": make_ring(2, [(f"x{i}", 1 + i % 4, False, i < 9) for i in range(13)]),
}


@pytest.mark.parametrize("label", sorted(PATTERN_RINGS))
def test_pattern_poset_at_max_free_generators(label):
    # The bitmask enumeration against the frozenset oracle on two rings of
    # 13 free generators.  The dense ring, one generator nilpotent and three
    # relation monomials, has 2^13 <= points * 13, so from_inclusion_masks
    # builds its order from the tables over all element sets; the sparse
    # one, 9 generators nilpotent and 16 points, takes the per-point loop.
    # The oracle's frozensets are its own record, so the patterns view and
    # the report's generator lists are compared with them.
    ring = PATTERN_RINGS[label]
    new, old = enumerate_patterns(ring), oracle_enumerate_patterns(ring)
    assert new.space.points == old.space.points
    assert new.space._down == old.space._down
    assert new.space._up == old.space._up
    assert new.masks == old.masks
    assert new.patterns == old.patterns
    assert spech_to_obj(new)["pattern"] == {
        p: [n for n in ring.names() if n in pat.contains] for p, pat in old.patterns.items()
    }


NAMES_16 = [f"p{i:02d}" for i in range(16)]
TREE_16 = [(NAMES_16[i], NAMES_16[(i - 1) // 2]) for i in range(1, 16)]
POINT_TABLES = {
    "antichain, one locus": lambda: sections_on(16),
    "antichain, singleton loci": lambda: minimal_open_table(FiniteSpectralModel(NAMES_16)),
    "binary tree, minimal open loci":
        lambda: minimal_open_table(FiniteSpectralModel(NAMES_16, TREE_16)),
}


@pytest.mark.parametrize("name", list(POINT_TABLES))
def test_comparison_verdicts_at_the_old_max_points(name):
    # is_ample and homeo_onto_image read each point's minimal open set; the
    # oracles walk all open sets, which the limit of 16 points was set for.
    # On three 16-point tables the verdicts must be equal: an antichain with
    # one locus covering it, an antichain with singleton loci (2^16 open
    # sets, about 4 s), and a binary tree whose root is the closed point,
    # with its minimal open sets as loci.
    table = POINT_TABLES[name]()
    new = is_ample(table), homeo_onto_image(table)
    assert new == (oracle_is_ample(table), oracle_homeo_onto_image(table))


# The library no longer makes checks that no input can fail; the oracles
# still make them.  On wider inputs than the tier-1 suite uses, each oracle
# must pass and answer as the library does.

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_removed_checks_hold_artin_tower(p):
    # At every depth whose group fits MAX_GROUP_ORDER.
    depths = [N for N in range(7) if p**N <= LIMITS["MAX_GROUP_ORDER"].value]
    assert [N for N in depths if artin_tower(p, N) != oracle_artin_tower(p, N)] == []


def test_removed_checks_hold_ideal_correspondence():
    # On every catalog tightening.
    verdicts = {}
    for name in TIGHTENING_NAMES:
        T, R2 = build_tightening(name)
        verdicts[name] = verdict(ideal_correspondence, T, R2), verdict(oracle_ideal_correspondence, T, R2)
    assert {name: v for name, v in verdicts.items() if v[0] != v[1]} == {}


@pytest.mark.parametrize("kind", ["chain", "antichain"])
def test_removed_checks_hold_central_localization(kind):
    # Each section inverted in turn, on a MAX_POINTS-point chain or
    # antichain with minimal-open loci.
    names = [f"p{i:04d}" for i in range(LIMITS["MAX_POINTS"].value)]
    space = {
        "chain": lambda: FiniteSpectralModel(names, zip(names, names[1:])),
        "antichain": lambda: FiniteSpectralModel(names),
    }[kind]()
    table = minimal_open_table(space)
    bad = []
    for s in table.sections:
        region, diag = oracle_central_loc_pullback(table, [s.name])
        if not diag or central_localization(table, [s.name]) != region:
            bad.append(s.name)
    assert bad == []


@pytest.mark.parametrize(
    "build, size",
    [(lambda: dihedral(108), 128), (lambda: quaternion(64), 37), (lambda: elementary_abelian(3, 3), 28)],
    ids=["D108", "Q64", "C3^3"],
)
def test_subconjugacy_routes_at_scale(build, size):
    # Both routes against oracle_p_subconjugate on every subgroup pair, at
    # every prime dividing the order.  D108's lattice is the
    # MAX_SUBGROUP_LOOKUPS probe (D128's is refused).
    G = build()
    assert len(subgroups(G)) == size
    assert route_oracle_mismatches(G) == []


@pytest.mark.parametrize(
    "build, p",
    [
        (lambda: cyclic(243), 3),
        (lambda: cyclic(125), 5),
        (lambda: dihedral(108), 2),
        (lambda: dihedral(108), 3),
    ],
    ids=["C243-p3", "C125-p5", "D108-p2", "D108-p3"],
)
def test_weyl_groups_at_the_group_order_limit(build, p):
    # The Weyl group of every class of p-subgroups against the oracle: its
    # order and its key.
    # C243 and C125 are Artin tower levels; D108's lattice is the
    # MAX_SUBGROUP_LOOKUPS probe above.
    assert weyl_route_mismatches(build(), p) == []


@pytest.mark.parametrize(
    "build, p",
    [
        (lambda: cyclic(512), None),
        (lambda: cyclic(729), None),
        (lambda: cyclic(625), None),
        (lambda: cyclic(343), None),
        (lambda: quaternion(728), 2),
        (lambda: dihedral(108), 2),
        (lambda: dihedral(108), 3),
    ],
    ids=["C512", "C729", "C625", "C343", "Q728-p2", "D108-p2", "D108-p3"],
)
def test_cyclic_reads_at_the_group_order_limit(build, p):
    # normalizer, both sections and sylow against the element scans: every
    # subgroup of the cyclic groups, each a level of an Artin tower, and
    # every class of p-subgroups, which dperm reads, of Q728 and D108.
    G = build()
    classes = G.index.classes() if p is None else G.index.p_classes(p)
    assert section_mismatches(G, [c.sub for c in classes]) == []


METACYCLIC_48 = metacyclic_presentations(24, 48)


@pytest.mark.parametrize("mnr", METACYCLIC_48, ids=lambda c: metacyclic(*c).name)
def test_metacyclic_routes_agree_to_order_48(mnr):
    corpus_outcomes(*mnr)


def test_metacyclic_corpus_coverage_to_order_48():
    assert len(METACYCLIC_48) == 131
    assert refusal_counts(METACYCLIC_48) == {
        ("stmod", "answered"): 140,
        ("stmod", REFUSED): 134,
        ("dperm", "answered"): 137,
        ("dperm", REFUSED): 137,
        ("heller", "equal"): 111,
        ("heller", REFUSED): 51,
    }
