"""Input generation and second-route helpers of the workloads."""

import random

import pytest

from algebra import hitting_count, random_ring
from catalog import catalog_groups, p_subgroup_classes, relabel
from tower import closed_form
from ttperiods import graded, groups, spectra


@pytest.mark.parametrize("name", ["D8", "Q8", "C2^3", "C12", "D12", "C3^2", "Q16"])
def test_relabelling_keeps_order_and_identify_key(name):
    base = {G.name: G for G in catalog_groups()}[name]
    rng = random.Random(7)
    moved = 0
    for _ in range(5):
        sigma = list(range(base.degree))
        rng.shuffle(sigma)
        G = relabel(base, sigma)
        assert G.order == base.order
        assert groups.identify(G) == groups.identify(base)
        assert G.name == base.name
        moved += G.elements != base.elements
    assert moved > 0


def test_relabelling_by_identity_is_the_same_group():
    base = groups.dihedral(8)
    assert relabel(base, range(base.degree)) == base


def test_hitting_count_matches_enumeration():
    rng = random.Random(3)
    for n in (6, 7, 8):
        ring, count = random_ring(rng, n)
        assert len(graded.enumerate_patterns(ring).space.points) == count


def test_hitting_count_matches_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        forced = rng.getrandbits(n) & rng.getrandbits(n)
        supports = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 4))]
        brute = sum(
            1
            for mask in range(1 << n)
            if mask & forced == forced and all(mask & s for s in supports)
        )
        assert hitting_count(n, forced, supports) == brute


def test_hitting_count_small_case():
    # Two free generators, one relation on both: subsets {a}, {b}, {a,b}.
    assert hitting_count(2, 0, [0b11]) == 3
    assert hitting_count(2, 0b01, [0b11]) == 2


def test_tower_closed_form_matches_small_towers():
    for p, depth in [(2, 3), (3, 2), (5, 1)]:
        assert dict(spectra.artin_tower(p, depth).chain_periods.values) == closed_form(p, depth)


def test_p_subgroup_classes_match_dperm_closed_points():
    for G, p in [(groups.dihedral(8), 2), (groups.symmetric(3), 3), (groups.quaternion(8), 2)]:
        subs = groups.subgroups(G)
        classes = [c for c in groups.subgroup_classes(G)
                   if set(spectra._prime_factors(c.order)) <= {p}]
        assert p_subgroup_classes(G.elements, subs, p) == len(classes)
