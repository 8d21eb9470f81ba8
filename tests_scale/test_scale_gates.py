"""Each library engine against its oracle at the limit it is declared for."""

import dataclasses

import pytest

from oracles import (
    oracle_artin_tower,
    oracle_central_loc_pullback,
    oracle_enumerate_patterns,
    oracle_homeo_onto_image,
    oracle_ideal_correspondence,
    oracle_ideal_name,
    oracle_is_ample,
    oracle_lattice,
    oracle_localization_agreement,
    oracle_validate_two_ring,
)
from test_limits import minimal_open_table, sections_on, unit_ring
from test_tworing import edited, misread, verdict
from ttperiods.comparison import central_localization, homeo_onto_image, is_ample
from ttperiods.diagnostics import LIMITS
from ttperiods.graded import enumerate_patterns, make_ring, spech_to_obj
from ttperiods.spaces import FiniteSpectralModel
from ttperiods.spectra import artin_tower
from ttperiods.tworing import (
    ideal_correspondence,
    ideal_name_two,
    localization_agreement,
    two_ring_from_multigraded,
    validate_two_ring,
)
from ttperiods.tworing_catalog import TIGHTENING_NAMES, build_tightening


def test_two_ring_validation_at_max_objects():
    # The oracle checks interchange on every pair of composable pairs of
    # basis morphisms, which takes tens of seconds at 12 objects.  Its
    # verdict must equal validate_two_ring's on the Z/12 Laurent 2-ring over
    # F_2 as built, with a composition table changed, and with a tensor
    # table changed.  The changed copies, made with dataclasses.replace, are
    # validated after the datum as built, so each must read its own tables,
    # not the cache the datum as built filled.
    R2 = two_ring_from_multigraded(unit_ring(2, 1, 12))
    compose_tables = {**R2.compose_tables, ("0", "1", "2"): (((0,),),)}
    tensor_tables = {**R2.tensor_tables, ("0", "1", "0", "1"): (((0,),),)}
    data = {
        "as built": R2,
        "composition changed": dataclasses.replace(R2, compose_tables=compose_tables),
        "tensor changed": dataclasses.replace(R2, tensor_tables=tensor_tables),
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
    # ideal, in lattice order, and every ideal's name must be equal.
    R2 = two_ring_from_multigraded(unit_ring(*args))
    new, old = R2.index.lattice().ideals, oracle_lattice(R2.index).ideals
    order = {o: k for k, o in enumerate(R2.objects)}

    def key(m):
        return (m[0] != R2.unit, order[m[0]], order[m[1]], m[2])

    assert new == old
    names = [ideal_name_two(R2, i) for i in new]
    assert names == [oracle_ideal_name(R2.index, i, key, R2.render) for i in old]


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
        "degree 3 doubled": dataclasses.replace(T, phi=edited(T.phi, {(3,): ((2,),)})),
    }
    verdicts = {
        name: (verdict(localization_agreement, t, R2, []),
               verdict(oracle_localization_agreement, t, R2, []))
        for name, t in tightenings.items()
    }
    assert {name: v for name, v in verdicts.items() if v[0] != v[1]} == {}


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
