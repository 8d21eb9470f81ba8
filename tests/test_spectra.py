"""Group spectra assembly: catalog, strata, towers, shipped figures."""

import itertools
import math
import random

import pytest

from ttperiods import datasets, spectra
from ttperiods.cohomology import (
    CatalogEntry,
    GroupNotInCatalog,
    WeylNotInCatalog,
    cohomology_entry,
)
from ttperiods.datasets import (
    DATASET_NAMES,
    UnknownDataset,
    dperm_overrides,
    load_figure_dataset,
    load_figure_record,
)
from ttperiods.graded import local_period, point_periods, validate_presentation
from ttperiods.groups import (
    FiniteGroup,
    GroupIndex,
    compose,
    cyclic,
    dihedral,
    elementary_abelian,
    identify,
    identity,
    inverse,
    name_for_key,
    quaternion,
    subgroups,
    symmetric,
    weyl_group,
    _prime_factors,
)
from ttperiods.spaces import check_period_map, model_from_obj
from ttperiods.spectra import (
    TAG_BOUND,
    TAG_COMPUTED,
    TAG_DATASET,
    artin_tower,
    dperm_period_map,
    dperm_strata,
    perm_module_in_closed_point,
    rep_period_map,
    stmod_discrepancies,
    stmod_period_map,
    very_closed_point_check,
)

from builders import build_dperm_d8, build_dperm_q8, build_ratm_r, build_stmod_d8
from oracles import oracle_artin_tower, reference_dperm_strata
from test_graded import assert_masks_match_patterns
from test_groups import CATALOG_24


class TestCatalog:
    CASES = [
        (cyclic(1), 2),
        (cyclic(2), 2),
        (cyclic(4), 2),
        (cyclic(8), 2),
        (cyclic(9), 3),
        (elementary_abelian(2, 1), 2),
        (elementary_abelian(2, 3), 2),
        (elementary_abelian(3, 2), 3),
        (quaternion(8), 2),
        (dihedral(8), 2),
        ("M11", 3),
        (symmetric(3), 5),
    ]

    @pytest.mark.parametrize("group,p", CASES)
    def test_entries_validate(self, group, p):
        entry = cohomology_entry(group, p)
        assert isinstance(entry, CatalogEntry)
        assert entry.presentation.char == p
        assert validate_presentation(entry.presentation)

    def test_coprime_order_is_field(self):
        entry = cohomology_entry(cyclic(3), 2)
        assert entry.presentation.generators == ()

    def test_c2_is_polynomial_degree_one(self):
        entry = cohomology_entry(cyclic(2), 2)
        (gen,) = entry.presentation.generators
        assert (gen.name, gen.degree) == ("x", 1)

    def test_c4_is_polynomial_degree_two(self):
        entry = cohomology_entry(cyclic(4), 2)
        (gen,) = entry.presentation.generators
        assert (gen.name, gen.degree) == ("y", 2)

    def test_odd_cyclic_degree_two(self):
        entry = cohomology_entry(cyclic(9), 3)
        (gen,) = entry.presentation.generators
        assert gen.degree == 2

    def test_quaternion_degree_four(self):
        entry = cohomology_entry(quaternion(8), 2)
        (gen,) = entry.presentation.generators
        assert (gen.name, gen.degree) == ("e", 4)

    def test_rank_three_names(self):
        entry = cohomology_entry(elementary_abelian(2, 3), 2)
        assert [g.name for g in entry.presentation.generators] == ["x1", "x2", "x3"]
        assert all(g.degree == 1 for g in entry.presentation.generators)

    def test_odd_elementary_degree_two(self):
        entry = cohomology_entry(elementary_abelian(3, 2), 3)
        assert all(g.degree == 2 for g in entry.presentation.generators)

    def test_dihedral_has_relation(self):
        entry = cohomology_entry(dihedral(8), 2)
        assert len(entry.presentation.relations) == 1

    def test_sporadic_witnesses_cover_five_points(self):
        entry = cohomology_entry("M11", 3)
        assert len(entry.spech().space.points) == 5

    def test_unknown_group_raises(self):
        with pytest.raises(GroupNotInCatalog):
            cohomology_entry(symmetric(4), 2)

    def test_unidentified_coprime_falls_back_to_field(self):
        entry = cohomology_entry(symmetric(3), 5)
        assert entry.key == ("unidentified", 6)
        assert entry.presentation.generators == ()


def _partitions(n, most=None):
    """The partitions of n into parts of at most most, largest part first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _abelian_factor_lists(limit):
    """Every abelian group of order at most limit, once, as the orders of
    its cyclic factors of prime-power order, ascending."""
    out = []
    for n in range(1, limit + 1):
        choices = []
        for p in _prime_factors(n):
            e, m = 0, n
            while m % p == 0:
                e, m = e + 1, m // p
            choices.append([[p**k for k in part] for part in _partitions(e)])
        for pick in itertools.product(*choices):
            out.append(tuple(sorted(q for part in pick for q in part)))
    return out


def _cyclic_product(factors):
    """C_q1 x C_q2 x ... acting on disjoint blocks of points."""
    gens, start = [], 0
    for q in factors:
        g = list(range(sum(factors)))
        for i in range(q):
            g[start + i] = start + (i + 1) % q
        gens.append(tuple(g))
        start += q
    return FiniteGroup(max(start, 1), gens)


def _power(x, k):
    y = x
    for _ in range(k - 1):
        y = compose(y, x)
    return y


def _invariant_name(factors):
    """The catalog name, read from the invariant factors d1 | d2 | ...
    that the prime-power factors give."""
    by_prime: dict = {}
    for q in sorted(factors, reverse=True):
        by_prime.setdefault(_prime_factors(q)[0], []).append(q)
    invariants = sorted(
        math.prod(qs[i] for qs in by_prime.values() if i < len(qs))
        for i in range(max(map(len, by_prime.values()), default=0))
    )
    if not invariants:
        return "1"
    d = invariants[0]
    if len(invariants) > 1 and set(invariants) == {d} and _prime_factors(d) == [d]:
        return f"C{d}^{len(invariants)}"
    return "x".join(f"C{e}" for e in invariants)


ABELIAN_64 = _abelian_factor_lists(64)


class TestAbelianSecondRoute:
    """Every abelian group of order at most 64, built as a product of cyclic
    groups of prime-power order, against the one abelian catalog rule.  The
    Künneth theorem gives one polynomial class per factor whose order is a
    power of p, of degree 1 for C2 and 2 otherwise; Quillen's stratification
    gives one component of dimension r, where p^r elements have x^p = 1, so
    the stmod model has 2^r - 1 points."""

    def test_every_order_is_covered_once(self):
        assert len(ABELIAN_64) == len(set(ABELIAN_64)) == 117
        assert {math.prod(f) for f in ABELIAN_64} == set(range(1, 65))

    @pytest.mark.parametrize("factors", ABELIAN_64, ids=lambda f: "x".join(map(str, f)) or "1")
    def test_catalog_rule_at_every_prime(self, factors):
        G = _cyclic_product(factors)
        assert G.order == math.prod(factors)
        assert G.name is None
        assert name_for_key(identify(G)) == _invariant_name(factors)
        for p in _prime_factors(G.order):
            sylow = [q for q in factors if q % p == 0]
            gens = cohomology_entry(G, p).presentation.generators
            assert sorted(g.degree for g in gens) == sorted(1 if q == 2 else 2 for q in sylow)
            p_torsion = sum(_power(x, p) == identity(G.degree) for x in G.elements)
            r = 0
            while p**r < p_torsion:
                r += 1
            assert p**r == p_torsion
            model, per = stmod_period_map(G, p)
            assert len(model.space.points) == 2**r - 1
            assert per["⟨⟩"] == (1 if p == 2 and 2 in sylow else 2)


class TestRepPeriodMap:
    def test_elementary_rank_two(self):
        model, per = rep_period_map(elementary_abelian(2, 2), 2)
        closed = "⟨x1,x2⟩"
        assert per[closed] == 0
        for q in model.space.points:
            if q != closed:
                assert per[q] == 1

    def test_quaternion_single_point_four(self):
        model, per = rep_period_map(quaternion(8), 2)
        assert {q: per[q] for q in model.space.points} == {"⟨⟩": 4, "⟨e⟩": 0}

    def test_trivial_group_single_point_zero(self):
        model, per = rep_period_map(cyclic(1), 2)
        assert [per[q] for q in model.space.points] == [0]

    def test_irrelevant_point_always_zero(self):
        model, per = rep_period_map(dihedral(8), 2)
        assert per["⟨α0,α1,β⟩"] == 0

    def test_period_table_matches_local_period_on_every_catalog_model(self):
        # Every (group, prime) of the order-24 catalog with p dividing the
        # order that the key catalog answers: point_periods' one gcd table
        # and the one-pattern formula agree at every point.
        answered = 0
        for G in CATALOG_24:
            for p in _prime_factors(G.order):
                try:
                    entry = cohomology_entry(G, p)
                except GroupNotInCatalog:
                    continue
                answered += 1
                model = entry.spech()
                table = point_periods(entry.presentation, model)
                assert list(table) == list(model.space.points)
                for q in model.space.points:
                    assert table[q] == local_period(entry.presentation, model.patterns[q]), (G.name, p, q)
        assert answered == 44


class TestStmodPeriodMap:
    def test_d8_two_at_crossing(self):
        model, per = stmod_period_map(dihedral(8), 2)
        values = {q: per[q] for q in model.space.points}
        assert values == {
            "⟨α0⟩": 1,
            "⟨α1⟩": 1,
            "⟨α0,β⟩": 1,
            "⟨α1,β⟩": 1,
            "⟨α0,α1⟩": 2,
        }

    def test_c2n_single_point_two(self):
        for n in (4, 8):
            model, per = stmod_period_map(cyclic(n), 2)
            assert [per[q] for q in model.space.points] == [2]

    def test_c2_single_point_one(self):
        model, per = stmod_period_map(cyclic(2), 2)
        assert [per[q] for q in model.space.points] == [1]

    def test_trivial_group_empty(self):
        model, per = stmod_period_map(cyclic(1), 2)
        assert model.space.points == ()

    def test_restriction_drops_exactly_one_point(self):
        full, _ = rep_period_map(quaternion(8), 2)
        res, _ = stmod_period_map(quaternion(8), 2)
        assert len(full.space.points) == len(res.space.points) + 1

    def test_restricted_masks_match_the_patterns(self):
        # Every (group, prime) of the order-24 catalog that the key catalog
        # answers, before and after the irrelevant point is removed.
        answered = 0
        for G in CATALOG_24:
            for p in _prime_factors(G.order):
                try:
                    full, _ = rep_period_map(G, p)
                except GroupNotInCatalog:
                    continue
                answered += 1
                res, _ = stmod_period_map(G, p)
                assert_masks_match_patterns(full)
                assert_masks_match_patterns(res)
                assert res.masks == {q: full.masks[q] for q in res.space.points}
        assert answered == 44


class TestStatedTable:
    def test_sporadic_blanket_clash_is_flagged(self):
        assert stmod_discrepancies("M11", 3) == {"⟨b⟩": (8, 4)}

    def test_named_points_are_not_flagged(self):
        # The two exactly-named points agree, so only the blanket
        # default can clash; the clash list never contains them.
        clashes = stmod_discrepancies("M11", 3)
        assert "⟨⟩" not in clashes and "⟨a,b⟩" not in clashes

    def test_named_point_clash_is_a_library_bug(self, monkeypatch):
        monkeypatch.setitem(spectra.STATED_STMOD, (("M11",), 3), ({"⟨⟩": 8, "⟨a,b⟩": 16}, 4))
        with pytest.raises(RuntimeError, match="stated value broken at ⟨⟩: 4 != 8"):
            stmod_discrepancies("M11", 3)

    def test_groups_without_a_table_report_nothing(self):
        assert stmod_discrepancies(cyclic(8), 2) == {}
        assert stmod_discrepancies(symmetric(4), 5) == {}


class TestDPermStrata:
    def test_q8_has_six_strata(self):
        strata = dperm_strata(quaternion(8), 2)
        assert len(strata) == 6
        weyls = sorted(s.weyl.name for s in strata)
        assert weyls == sorted(["Q8", "C2^2", "C2", "C2", "C2", "1"])

    def test_q8_labels_disambiguated(self):
        labels = [s.label for s in dperm_strata(quaternion(8), 2)]
        assert labels == ["1", "C2", "C4a", "C4b", "C4c", "Q8"]

    def test_c2_has_two_strata(self):
        strata = dperm_strata(cyclic(2), 2)
        assert [(s.label, s.weyl.name) for s in strata] == [("1", "C2"), ("C2", "1")]

    def test_coprime_prime_single_stratum(self):
        strata = dperm_strata(cyclic(3), 2)
        assert len(strata) == 1
        assert strata[0].subgroup_class.order == 1

    def test_labels_stay_distinct_past_eight_repeats(self):
        # C2^4 has 15 subgroups C2 and 35 subgroups C2^2, all normal.
        asm = dperm_period_map(elementary_abelian(2, 4), 2)
        labels = [s.label for s in asm.strata]
        assert len(labels) == len(set(labels)) == 67
        assert labels[1:10] == ["C2a", "C2b", "C2c", "C2d", "C2e", "C2f", "C2g", "C2h", "C2i"]
        assert "C2^2aa" in labels

    def test_normality_flags(self):
        by_label = {s.label: s.normal for s in dperm_strata(dihedral(8), 2)}
        assert by_label["C2a"] is False
        assert by_label["C2b"] is False
        assert by_label["C2c"] is True
        assert by_label["D8"] is True

    def test_unidentifiable_weyl_raises(self):
        with pytest.raises(WeylNotInCatalog):
            dperm_strata(symmetric(4), 2)

    def test_stratum_count_matches_class_count(self):
        for G, p in [(quaternion(8), 2), (dihedral(8), 2), (cyclic(6), 2), (cyclic(6), 3)]:
            strata = dperm_strata(G, p)
            asm = dperm_period_map(G, p, overrides=dperm_overrides(G.name, p))
            assert len(asm.closed_points) == len(strata)


class TestDPermPeriodMap:
    def test_q8_values(self):
        asm = dperm_period_map(quaternion(8), 2)
        values = {q: asm.periods[q] for q in asm.space.points}
        assert values["1:⟨⟩"] == 4
        for q in ("C2:⟨⟩", "C2:⟨x1⟩", "C2:⟨x2⟩", "C4a:⟨⟩", "C4b:⟨⟩", "C4c:⟨⟩"):
            assert values[q] == 1
        assert len(asm.closed_points) == 6
        for q in asm.closed_points:
            assert values[q] == 0

    def test_q8_all_tags_computed(self):
        asm = dperm_period_map(quaternion(8), 2)
        assert set(asm.tags.values()) == {TAG_COMPUTED}

    def test_d8_override_applied(self):
        asm = dperm_period_map(dihedral(8), 2)
        for q in ("C2a:⟨⟩", "C2b:⟨⟩"):
            assert asm.periods[q] == 1
            assert asm.tags[q] == TAG_DATASET

    def test_d8_without_override_reports_bound(self):
        asm = dperm_period_map(dihedral(8), 2, overrides={})
        for q in ("C2a:⟨⟩", "C2b:⟨⟩"):
            assert asm.periods[q] == 1
            assert asm.tags[q] == TAG_BOUND

    def test_trivial_group_single_closed_point(self):
        asm = dperm_period_map(cyclic(1), 2)
        assert asm.space.points == ("m(1)",)
        assert asm.periods["m(1)"] == 0

    def test_assembly_is_period_map(self):
        for G, p in [(quaternion(8), 2), (dihedral(8), 2), (cyclic(8), 2), (cyclic(6), 3)]:
            asm = dperm_period_map(G, p, overrides=dperm_overrides(G.name, p))
            assert check_period_map(asm.space, asm.periods)

    def test_p_group_zero_exactly_on_closed(self):
        for G in (quaternion(8), dihedral(8), cyclic(4), elementary_abelian(2, 2)):
            asm = dperm_period_map(G, 2, overrides=dperm_overrides(G.name, 2))
            for q in asm.space.points:
                if q in asm.closed_points:
                    assert asm.periods[q] == 0
                else:
                    assert asm.periods[q] > 0

    def test_dedekind_strata_match_weyl_stmod(self):
        for G in (quaternion(8), cyclic(8), elementary_abelian(2, 2)):
            asm = dperm_period_map(G, 2)
            for s in asm.strata:
                _, stper = stmod_period_map(s.weyl, 2)
                for q in s.variety.space.points:
                    if q == s.irrelevant:
                        continue
                    assert asm.periods[s.point_name(q)] == stper[q]

    def test_stratum_points_partition_space(self):
        # No two strata name a point alike, including past 26 repeats of
        # one subgroup name (C2^4 has 35 subgroups C2^2).
        for G, p in [(quaternion(8), 2), (dihedral(8), 2), (elementary_abelian(2, 4), 2),
                     (cyclic(6), 3)]:
            asm = dperm_period_map(G, p, overrides=dperm_overrides(G.name, p))
            named = sorted(q for pts in asm.stratum_points().values() for q in pts)
            assert named == sorted(asm.space.points)


class TestOneIdentifyPerCall:
    """Each entry point identifies its own group once and passes the key on."""

    @staticmethod
    def _count(monkeypatch, G):
        from ttperiods import cohomology, groups, spectra

        calls = []

        def counted(H):
            if H is G:
                calls.append(1)
            return groups.identify(H)

        monkeypatch.setattr(cohomology, "identify", counted)
        monkeypatch.setattr(spectra, "identify", counted)
        return calls

    @pytest.mark.parametrize(
        "G,p", [(dihedral(8), 2), (symmetric(3), 5), (quaternion(8), 2)]
    )
    def test_cohomology_entry(self, monkeypatch, G, p):
        calls = self._count(monkeypatch, G)
        cohomology_entry(G, p)
        assert len(calls) == 1

    def test_dperm_period_map(self, monkeypatch):
        G = dihedral(8)
        calls = self._count(monkeypatch, G)
        asm = dperm_period_map(G, 2)
        assert asm.group_name == "D8"
        assert len(calls) == 1

    def test_stmod_discrepancies(self, monkeypatch):
        G = cyclic(8)
        calls = self._count(monkeypatch, G)
        assert stmod_discrepancies(G, 2) == {}
        assert len(calls) == 1

    def test_each_weyl_group_once(self, monkeypatch):
        from ttperiods import cohomology, groups, spectra

        seen = []
        real = groups.identify

        def counted(H):
            seen.append(H)
            return real(H)

        for module in (groups, cohomology, spectra):
            monkeypatch.setattr(module, "identify", counted)
        asm = dperm_period_map(dihedral(8), 2)
        weyls = [s.weyl for s in asm.strata]
        assert len(weyls) == 8
        for W in weyls:
            assert W.name is not None
            # weyl_group reads W's key from D8's table once, so nothing
            # identifies W as a group of its own; the key is still right.
            assert not any(H is W for H in seen), W.name
            assert W.key == real(W), W.name


def _relabel(G, seed):
    """The same group with its points renamed by a seeded permutation."""
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    sigma = tuple(sigma)
    gens = [compose(sigma, compose(g, inverse(sigma))) for g in G.generators]
    return FiniteGroup(G.degree, gens, name=f"{G.name}~{seed}")


# Seeds whose permutation moves the group's elements (seed 2 fixes D8's).
# In the two relabelled dihedral groups of order 12 and 24, the Sylow search
# meets the classes of 2-subgroups in another order than their least
# members give.
RELABEL_CASES = [
    (G, seed)
    for G in (dihedral(8), quaternion(8), elementary_abelian(2, 3), quaternion(16))
    for seed in (1, 3, 4)
] + [(dihedral(12), 3), (dihedral(24), 1)]
RELABELLED = [_relabel(G, seed) for G, seed in RELABEL_CASES]


def _members(cls):
    return frozenset(map(cls.index.frozen, cls.members))


def _stratum_rows(strata):
    return [
        (s.subgroup_class.representative, _members(s.subgroup_class),
         s.label, s.weyl.key, s.weyl.name, s.normal)
        for s in strata
    ]


class TestDPermSecondRoute:
    """The p-local strata against the full-lattice path of tests/oracles.py."""

    @pytest.mark.parametrize("G", CATALOG_24 + RELABELLED, ids=lambda G: G.name)
    def test_strata_match_the_full_lattice_path(self, G):
        for p in _prime_factors(G.order):
            want = reference_dperm_strata(G, p)
            # A fresh copy, so the classes come from the Sylow search alone.
            fresh = FiniteGroup(G.degree, G.generators)
            ix = fresh.index
            classes = ix.p_classes(p)
            labels = spectra._stratum_labels(ix, classes)
            got = []
            for cls, label in zip(classes, labels):
                W = weyl_group(fresh, cls.sub)
                got.append((cls.representative, _members(cls),
                            label, W.key, W.name, len(cls.members) == 1))
            assert got == want, p
            try:
                strata = dperm_strata(fresh, p)
            except WeylNotInCatalog:
                continue
            assert _stratum_rows(strata) == want, p


class TestDPermWorkCount:
    """A second assembly on the same group reads what the index kept."""

    @pytest.mark.parametrize("G,p", [
        (dihedral(8), 2), (quaternion(16), 2), (elementary_abelian(2, 4), 2),
        (cyclic(12), 3), (elementary_abelian(3, 2), 3),
    ], ids=lambda x: getattr(x, "name", str(x)))
    def test_second_dperm_searches_and_builds_nothing(self, monkeypatch, G, p):
        G = FiniteGroup(G.degree, G.generators, name=G.name)
        counts = {"extend": 0, "groups": 0}
        extend, init = GroupIndex.extend, FiniteGroup.__init__

        def counted_extend(self, H, x):
            counts["extend"] += 1
            return extend(self, H, x)

        def counted_init(self, *args, **kwargs):
            counts["groups"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupIndex, "extend", counted_extend)
        monkeypatch.setattr(FiniteGroup, "__init__", counted_init)
        first = dperm_period_map(G, p)
        assert counts["extend"] > 0 and counts["groups"] > 0
        counts.update(extend=0, groups=0)
        second = dperm_period_map(G, p)
        assert counts == {"extend": 0, "groups": 0}
        assert _stratum_rows(second.strata) == _stratum_rows(first.strata)
        assert dict(second.periods.values) == dict(first.periods.values)
        assert second.tags == first.tags


class TestKeptVarieties:
    """The catalog builds each (key, p) variety once, and every caller reads
    the same one without changing it."""

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_second_report_enumerates_nothing_and_emits_the_same_bytes(
        self, monkeypatch, capsys, G
    ):
        from ttperiods import cohomology, graded
        from ttperiods.cli import main

        calls = []
        real = graded.enumerate_patterns

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(graded, "enumerate_patterns", counted)
        monkeypatch.setattr(cohomology, "enumerate_patterns", counted)
        # Start cold, so the first report builds what the second reads.
        monkeypatch.setattr(cohomology, "_VARIETIES", {})
        for p in _prime_factors(G.order):
            for action in ("stmod", "dperm"):
                argv = ["group", action, "--group", G.name, "--prime", str(p)]
                first = (main(argv), *capsys.readouterr())
                calls.clear()
                second = (main(argv), *capsys.readouterr())
                assert not calls, (action, p)
                assert second == first, (action, p)

    def test_non_prime_refused_after_the_prime_is_warm(self):
        from ttperiods.groups import GroupError

        rep_period_map(cyclic(2), 2)
        for p in (4, 1):
            for call in (rep_period_map, stmod_period_map):
                with pytest.raises(GroupError, match=f"^{p} is not prime$"):
                    call(cyclic(2), p)

    def test_unidentified_and_refused_are_not_kept(self):
        from ttperiods import cohomology

        before = dict(cohomology._VARIETIES)
        model, _ = rep_period_map(symmetric(3), 5)
        assert model.space.points == ("⟨⟩",)
        for _ in range(2):
            with pytest.raises(GroupNotInCatalog):
                rep_period_map(symmetric(4), 2)
        assert cohomology._VARIETIES == before


class TestClosedPointMembership:
    def test_q8_c4_in_very_closed(self):
        G = quaternion(8)
        c4 = next(H for H in subgroups(G) if len(H) == 4)
        assert perm_module_in_closed_point(G, 2, c4, G.elements) is True

    def test_trivial_h_never_inside(self):
        from ttperiods.groups import identity

        G = quaternion(8)
        triv = frozenset({identity(G.degree)})
        for Hp in subgroups(G):
            assert perm_module_in_closed_point(G, 2, Hp, triv) is False

    def test_s3_c3_against_c2(self):
        G = symmetric(3)
        c3 = next(H for H in subgroups(G) if len(H) == 3)
        c2 = next(H for H in subgroups(G) if len(H) == 2)
        assert perm_module_in_closed_point(G, 2, c3, c2) is True

    def test_very_closed_point_examples(self):
        assert very_closed_point_check(quaternion(8), 2)
        assert very_closed_point_check(symmetric(3), 3)
        assert very_closed_point_check(symmetric(3), 2)
        assert very_closed_point_check(cyclic(5), 3)

    def test_very_closed_point_exhaustive_small(self):
        for G in (cyclic(6), dihedral(8), elementary_abelian(3, 1), symmetric(4)):
            for p in (2, 3):
                assert very_closed_point_check(G, p)


class TestArtinTower:
    def test_p2_depth_four(self):
        rep = artin_tower(2, 4)
        by_index = {s.index: s for s in rep.strata}
        assert by_index[1].proj_eventual is None
        assert by_index[2].proj_eventual == 1
        for idx in (4, 8, 16):
            assert by_index[idx].proj_eventual == 2
        limit = by_index[None]
        assert limit.proj_sequence == (1, 2, 2, 2)
        assert limit.proj_eventual == 2
        for s in rep.strata:
            assert all(v == 0 for v in s.closed_sequence)

    def test_p3_depth_three(self):
        rep = artin_tower(3, 3)
        for s in rep.strata:
            if s.proj_eventual is not None:
                assert s.proj_eventual == 2

    def test_chain_periods(self):
        rep = artin_tower(2, 3)
        values = {q: rep.chain_periods[q] for q in rep.chain.points}
        assert values == {
            "m0": 0, "m1": 0, "m2": 0, "m3": 0,
            "s1": 1, "s2": 2, "s3": 2,
        }
        assert check_period_map(rep.chain, rep.chain_periods)

    def test_depth_zero(self):
        rep = artin_tower(5, 0)
        assert rep.chain.points == ("m0",)
        assert rep.chain_periods["m0"] == 0

    def test_depth_bound(self):
        with pytest.raises(ValueError):
            artin_tower(2, 7)

    @pytest.mark.parametrize("p, depth", [(2, 4), (3, 3), (2, 3), (5, 0), (3, 5), (3, 6), (7, 3)])
    def test_matches_the_oracle(self, p, depth):
        # The oracle also checks subgroup orders, closed periods and that
        # the chain is a period map; it raises if any of them fails.
        assert artin_tower(p, depth) == oracle_artin_tower(p, depth)


class TestDatasets:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_loads_and_validates(self, name):
        model, per = load_figure_dataset(name)
        assert check_period_map(model, per)

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("stmod_d8", build_stmod_d8),
            ("dperm_q8", build_dperm_q8),
            ("dperm_d8", build_dperm_d8),
            ("ratm_r", build_ratm_r),
        ],
    )
    def test_shipped_files_match_builders(self, name, builder):
        assert load_figure_record(name) == builder()

    def test_unknown_name(self):
        with pytest.raises(UnknownDataset):
            load_figure_dataset("dperm_s4")

    def test_ratm_r_period_multiset(self):
        model, per = load_figure_dataset("ratm_r")
        counts = sorted(per[q] for q in model.points)
        assert counts == [0, 0, 0, 0, 1, 1]

    def test_ratm_r_has_nonclosed_aperiodic_points(self):
        model, per = load_figure_dataset("ratm_r")
        closed = model.closed_points()
        aperiodic = {q for q in model.points if per[q] == 0}
        assert len(closed) == 2
        assert closed < aperiodic

    def test_stmod_d8_equals_engine_output(self):
        model, per = load_figure_dataset("stmod_d8")
        engine, eper = stmod_period_map(dihedral(8), 2)
        assert model == engine.space
        assert {q: per[q] for q in model.points} == {
            q: eper[q] for q in engine.space.points
        }

    def test_dperm_d8_matches_engine_on_derivable_points(self):
        rec = load_figure_record("dperm_d8")
        asm = dperm_period_map(dihedral(8), 2)
        for q in asm.space.points:
            assert rec["periods"][q] == asm.periods[q]
            assert rec["tags"][q] == asm.tags[q]

    def test_dperm_q8_point_count(self):
        model, per = load_figure_dataset("dperm_q8")
        assert len(model.points) == 14
        assert len(model.closed_points()) == 6

    def test_dperm_q8_witness_point(self):
        model, per = load_figure_dataset("dperm_q8")
        assert per["C2:⟨x1+x2⟩"] == 1
        assert model.specializes("C2:⟨⟩", "C2:⟨x1+x2⟩")
        assert model.specializes("C2:⟨x1+x2⟩", "m(C4c)")

    def test_dataset_edges_merge_cleanly(self):
        # figure edges must be real edges of the stored relation
        for name in DATASET_NAMES:
            rec = load_figure_record(name)
            model, _ = model_from_obj(rec)
            for a, b in rec.get("figure_edges", []):
                assert model.specializes(a, b)

    def test_strata_grouping_partitions_points(self):
        for name in DATASET_NAMES:
            rec = load_figure_record(name)
            grouped = sorted(q for pts in rec["strata"].values() for q in pts)
            assert grouped == sorted(rec["points"])

    def test_overrides_lookup(self):
        assert dperm_overrides("D8", 2) == {"C2a:⟨⟩": 1, "C2b:⟨⟩": 1}
        assert dperm_overrides("D8", 3) == {}
        assert dperm_overrides("Q8", 2) == {}
        assert dperm_overrides(None, 2) == {}

    def test_overrides_mutated_by_a_caller_stay_shipped(self):
        got = dperm_overrides("D8", 2)
        got["C2a:⟨⟩"] = 7
        got["C4:⟨⟩"] = 3
        assert dperm_overrides("D8", 2) == {"C2a:⟨⟩": 1, "C2b:⟨⟩": 1}

    def test_missing_override_file_raises(self, monkeypatch, tmp_path):
        # A package without its shipped table is broken: D8's values must
        # not quietly turn into divisor bounds.
        monkeypatch.setattr(datasets, "_data_dir", lambda: tmp_path)
        datasets._override_table.cache_clear()
        try:
            with pytest.raises(FileNotFoundError):
                dperm_overrides("D8", 2)
        finally:
            datasets._override_table.cache_clear()
