"""Acceptance gate: one test per shipped guarantee, run with -v for a
pass/fail line each.  Expected values are frozen; runtime budgets are
asserted alongside the mathematics."""

import math
import random
import time
from contextlib import contextmanager
from importlib import resources

from ttperiods.comparison import homeo_onto_image, is_ample
from ttperiods.datasets import load_figure_dataset
from ttperiods.graded import (
    enumerate_patterns,
    local_period,
    make_ring,
    oracle_local_period,
    validate_presentation,
)
from ttperiods.groups import (
    cyclic,
    dihedral,
    elementary_abelian,
    p_subconjugate_mackey,
    p_subconjugate_sylow,
    quaternion,
    subgroups,
    symmetric,
)
from ttperiods.sections_catalog import FIXTURE_NAMES, build_fixture
from ttperiods.spaces import check_period_map, model_to_dot, tower_period
from ttperiods.spectra import (
    TAG_DATASET,
    artin_tower,
    dperm_period_map,
    stmod_discrepancies,
    stmod_period_map,
    very_closed_point_check,
)
from ttperiods.tworing import (
    agreement,
    localization_agreement,
    validate_tightening,
    validate_two_ring,
)
from ttperiods.tworing_catalog import (
    TIGHTENING_NAMES,
    TWO_RING_NAMES,
    build_tightening,
    build_two_ring,
)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def _small_primes(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _catalog_order_24():
    groups = [cyclic(n) for n in range(1, 25)]
    groups += [dihedral(n) for n in range(4, 25, 2)]
    groups += [quaternion(n) for n in range(8, 25, 4)]
    groups += [elementary_abelian(2, r) for r in (2, 3, 4)]
    groups += [elementary_abelian(3, 2), symmetric(3), symmetric(4)]
    return groups


def test_01_two_variable_polynomial_local_periods():
    with budget(1):
        ring = make_ring(0, [("x", 1), ("y", 2)])
        model = enumerate_patterns(ring)
        values = {
            q: local_period(ring, model.patterns[q])
            for q in model.space.points
        }
        assert values == {"⟨⟩": 1, "⟨x⟩": 2, "⟨y⟩": 1, "⟨x,y⟩": 0}


def test_02_singleton_and_elementary_period_table():
    with budget(1):
        singletons = {
            cyclic(2): 1,
            cyclic(4): 2, cyclic(8): 2, cyclic(16): 2,
            quaternion(8): 4, quaternion(12): 2, quaternion(16): 4,
            quaternion(20): 2, quaternion(24): 4,
        }
        for G, want in singletons.items():
            model, per = stmod_period_map(G, 2)
            assert [per[q] for q in model.space.points] == [want], G.name
        elementary = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 4, 1),
                      (3, 1, 2), (3, 2, 2), (5, 1, 2)]
        for p, r, want in elementary:
            model, per = stmod_period_map(elementary_abelian(p, r), p)
            assert model.space.points, (p, r)
            for q in model.space.points:
                assert per[q] == want, (p, r, q)


def test_03_order_eight_dihedral_map_and_golden_figure():
    with budget(1):
        model, per = stmod_period_map(dihedral(8), 2)
        values = {q: per[q] for q in model.space.points}
        assert values.pop("⟨α0,α1⟩") == 2
        assert set(values.values()) == {1}
        rendered = model_to_dot(
            model.space,
            {q: per[q] for q in model.space.points},
            name="stmod_d8",
        )
        golden = (
            resources.files("ttperiods") / "data" / "stmod_d8.dot"
        ).read_text(encoding="utf-8")
        assert rendered == golden


def test_04_sporadic_entry_named_values_and_clash_flag():
    with budget(1):
        model, per = stmod_period_map("M11", 3)
        assert per["⟨⟩"] == 4
        assert per["⟨a,b⟩"] == 16
        assert stmod_discrepancies("M11", 3) == {"⟨b⟩": (8, 4)}


def test_05_quaternion_assembly_strata_and_labels():
    with budget(5):
        asm = dperm_period_map(quaternion(8), 2)
        assert len(asm.strata) == 6
        assert sorted(s.weyl.name for s in asm.strata) == [
            "1", "C2", "C2", "C2", "C2^2", "Q8",
        ]
        assert sorted(asm.periods.values.values()) == [
            0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 4,
        ]
        assert len(asm.closed_points) == 6
        assert all(asm.periods[q] == 0 for q in asm.closed_points)
        assert asm.periods["1:⟨⟩"] == 4
        assert check_period_map(asm.space, asm.periods)


def test_06_dihedral_assembly_matches_shipped_figure():
    with budget(5):
        asm = dperm_period_map(dihedral(8), 2)
        model, per = load_figure_dataset("dperm_d8")
        derived, figure = set(asm.space.points), set(model.points)
        assert derived <= figure
        # The one extra figure point lies on a line the generator-name
        # enumeration cannot reach; everything derivable must agree.
        assert figure - derived == {"C2c:⟨x1+x2⟩"}
        for q in derived:
            assert asm.periods[q] == per[q], q
        overridden = {q for q, t in asm.tags.items() if t == TAG_DATASET}
        assert overridden == {"C2a:⟨⟩", "C2b:⟨⟩"}
        assert all(asm.periods[q] == 1 for q in overridden)
        assert all(asm.periods[q] == 0 for q in asm.closed_points)


def test_07_local_period_oracle_equivalence():
    with budget(60):
        rng = random.Random(90210)
        built = 0
        while built < 200:
            n = rng.randint(1, 4)
            names = [f"g{i}" for i in range(1, n + 1)]
            degrees = [rng.randint(1, 6) for _ in names]
            relations = []
            for _ in range(rng.randint(0, 3)):
                support = rng.sample(names, rng.randint(1, n))
                relations.append(
                    [(1, {v: rng.randint(1, 2) for v in support})]
                )
            ring = make_ring(
                rng.choice([2, 3, 5]), list(zip(names, degrees)), relations
            )
            if not validate_presentation(ring):
                continue
            built += 1
            bound = 3 * math.lcm(*degrees)
            model = enumerate_patterns(ring)
            for pattern in model.patterns.values():
                assert local_period(ring, pattern) == oracle_local_period(
                    ring, pattern, bound
                )
        assert built == 200


def test_08_subconjugacy_routes_agree_exhaustively():
    with budget(60):
        for G in _catalog_order_24():
            subs = subgroups(G)
            for p in _small_primes(G.order):
                for H in subs:
                    for Hp in subs:
                        assert p_subconjugate_sylow(
                            G, H, Hp, p
                        ) == p_subconjugate_mackey(G, H, Hp, p)


def test_09_closed_point_membership_matches_index():
    for G in _catalog_order_24():
        for p in _small_primes(G.order):
            assert very_closed_point_check(G, p), (G.name, p)


def test_10_tabulated_category_suite():
    with budget(120):
        for name in TWO_RING_NAMES:
            assert validate_two_ring(build_two_ring(name)), name
        for name in TIGHTENING_NAMES:
            T, R2 = build_tightening(name)
            good = bool(validate_tightening(T, R2)) and bool(agreement(T, R2))
            assert good == (not name.startswith("broken")), name
        for name in TIGHTENING_NAMES:
            if name.startswith("broken"):
                continue
            T, R2 = build_tightening(name)
            assert localization_agreement(T, R2, []), name
            for deg, dim in sorted(T.ring.dims.items()):
                for i in range(dim):
                    vec = tuple(1 if j == i else 0 for j in range(dim))
                    assert localization_agreement(
                        T, R2, [(deg, vec)]
                    ), (name, deg, vec)
        for name in FIXTURE_NAMES:
            fix = build_fixture(name)
            assert is_ample(fix.table) == homeo_onto_image(fix.table), name
            assert is_ample(fix.table) == fix.ample, name


def test_11_cyclic_tower_chains():
    with budget(5):
        expected = {
            (2, 4): {"m0": 0, "m1": 0, "m2": 0, "m3": 0, "m4": 0,
                     "s1": 1, "s2": 2, "s3": 2, "s4": 2},
            (3, 3): {"m0": 0, "m1": 0, "m2": 0, "m3": 0,
                     "s1": 2, "s2": 2, "s3": 2},
        }
        for (p, depth), chain in expected.items():
            rep = artin_tower(p, depth)
            assert dict(rep.chain_periods.values) == chain, (p, depth)
            for stratum in rep.strata:
                if stratum.proj_sequence:
                    assert tower_period(
                        stratum.proj_sequence
                    ) == stratum.proj_eventual
                assert all(v == 0 for v in stratum.closed_sequence)


def test_12_six_point_figure_is_a_period_map():
    model, per = load_figure_dataset("ratm_r")
    assert len(model.points) == 6
    assert sorted(per.values.values()) == [0, 0, 0, 0, 1, 1]
    assert check_period_map(model, per)
