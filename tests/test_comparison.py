"""Section tables: embedding criteria, period transfer, charts, pullbacks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttperiods.comparison import (
    ComparisonError,
    central_localization,
    comp_map,
    divisor_constraint,
    homeo_onto_image,
    is_ample,
    make_table,
    table_from_obj,
    table_to_obj,
    transfer_periods,
    validate_section_table,
)
from ttperiods.diagnostics import SizeBound
from ttperiods.graded import make_ring, ring_from_obj
from ttperiods.sections_catalog import FIXTURE_NAMES, build_fixture
from ttperiods.spaces import (
    FiniteSpectralModel,
    PeriodAssignment,
    model_from_obj,
)

from builders import stmod_d8_fixture, write_all
from oracles import NotBaseFree, base_free_cover, image_open_in_model
from oracles import oracle_central_loc_pullback, oracle_homeo_onto_image, oracle_is_ample
from oracles import restrict_table


def pullback_holds(table, names):
    """The oracle's pullback check passes, and its region is the library's."""
    region, diag = oracle_central_loc_pullback(table, names)
    assert diag, diag.describe()
    assert central_localization(table, names) == region
    return region


def chain_table():
    return build_fixture("chain_principal").table


def pairwise_antichain():
    # Three pairwise loci with no singleton: every minimal open is an
    # intersection of two loci, never a single one.
    space = FiniteSpectralModel(["a", "b", "c"])
    return make_table(
        space,
        {"L1": 1},
        [
            ("s1", "L1", 1, ["a", "b"]),
            ("s2", "L1", 1, ["b", "c"]),
            ("s3", "L1", 1, ["a", "c"]),
        ],
    )


class TestValidation:
    def test_fixture_tables_validate(self):
        for name in FIXTURE_NAMES:
            fix = build_fixture(name)
            assert validate_section_table(fix.table), name
        assert validate_section_table(stmod_d8_fixture().table)

    def test_duplicate_section_name(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError, match=r"FAIL\(section-name:"):
            make_table(space, {"L0": 0}, [("s", "L0", 0, ["pt"]), ("s", "L0", 0, [])])

    def test_unknown_bundle(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError, match=r"FAIL\(unknown-bundle:"):
            make_table(space, {"L0": 0}, [("s", "L9", 0, ["pt"])])

    def test_degree_vs_bundle(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError, match=r"FAIL\(degree-vs-bundle:"):
            make_table(space, {"L0": 0}, [("s", "L0", 3, ["pt"])])

    def test_locus_not_open(self):
        space = FiniteSpectralModel(["g", "s"], [("g", "s")])
        with pytest.raises(ComparisonError, match=r"FAIL\(locus-not-open:"):
            make_table(space, {"L0": 0}, [("u", "L0", 0, ["s"])])

    def test_locus_outside_space(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError, match=r"FAIL\(locus-outside-space:"):
            make_table(space, {"L0": 0}, [("u", "L0", 0, ["zz"])])

    def test_product_degree(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError, match=r"FAIL\(product-degree:"):
            make_table(
                space,
                {"L1": 1},
                [("a", "L1", 1, ["pt"]), ("b", "L1", 1, ["pt"]), ("c", "L1", 1, ["pt"])],
                [("a", "b", "c")],
            )

    def test_product_locus(self):
        space = FiniteSpectralModel(["g", "s"], [("g", "s")])
        with pytest.raises(ComparisonError, match=r"FAIL\(product-locus:"):
            make_table(
                space,
                {"L1": 1, "L2": 2},
                [
                    ("a", "L1", 1, ["g", "s"]),
                    ("b", "L1", 1, ["g", "s"]),
                    ("c", "L2", 2, ["g"]),
                ],
                [("a", "b", "c")],
            )

    def test_product_unknown_section(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError, match=r"FAIL\(product-unknown-section:"):
            make_table(space, {"L0": 0}, [("a", "L0", 0, ["pt"])], [("a", "zz", "a")])

    def test_invalid_table_raises_in_ops(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError, match=r"FAIL\(unknown-bundle:"):
            comp_map(make_table(space, {"L0": 0}, [("s", "L9", 0, ["pt"])]))

    def test_point_cap(self):
        space = FiniteSpectralModel([f"p{i}" for i in range(385)])
        with pytest.raises(SizeBound, match="MAX_POINTS = 384: .* is 385$"):
            make_table(space, {"L0": 0}, [("u", "L0", 0, space.points)])


class TestCompMap:
    def test_globally_invertible_outside_every_pattern(self):
        for name in FIXTURE_NAMES:
            fix = build_fixture(name)
            comp = comp_map(fix.table)
            everywhere = frozenset(fix.table.space.points)
            for s in fix.table.sections:
                if s.locus == everywhere:
                    assert all(s.name not in comp[p].contains for p in comp)

    def test_empty_locus_in_every_pattern(self):
        fix = build_fixture("point_with_unit")
        comp = comp_map(fix.table)
        assert all("x" in comp[p].contains for p in comp)
        full = build_fixture("rep_d8_monomials")
        comp = comp_map(full.table)
        assert all("α0·α1" in comp[p].contains for p in comp)

    def test_stmod_identity_on_patterns(self):
        fix = stmod_d8_fixture()
        comp = comp_map(fix.table)
        for q in fix.table.space.points:
            assert comp[q].contains == fix.image_model.patterns[q].contains

    def test_monotone(self):
        tables = [build_fixture(n).table for n in FIXTURE_NAMES]
        tables.append(stmod_d8_fixture().table)
        tables.append(pairwise_antichain())
        for table in tables:
            comp = comp_map(table)
            for p in table.space.points:
                for q in table.space.specializations(p):
                    assert comp[p].contains <= comp[q].contains


class TestAmpleHomeo:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_expectations(self, name):
        fix = build_fixture(name)
        assert is_ample(fix.table) is fix.ample
        assert homeo_onto_image(fix.table) is fix.ample
        assert is_ample(fix.table) == homeo_onto_image(fix.table)

    def test_truncated_generator_table_splits_routes(self):
        # The generator table embeds but its three loci are no basis;
        # a collapsed implementation could never produce this split.
        table = stmod_d8_fixture().table
        assert homeo_onto_image(table)
        assert not is_ample(table)
        assert is_ample(table) != homeo_onto_image(table)

    def test_antichain_splits_routes(self):
        table = pairwise_antichain()
        assert homeo_onto_image(table)
        assert not is_ample(table)

    def test_one_point_always_embeds(self):
        space = FiniteSpectralModel(["pt"])
        table = make_table(space, {"L1": 1}, [("x", "L1", 1, [])])
        assert homeo_onto_image(table)
        assert not is_ample(table)

    def test_non_separating_table(self):
        fix = build_fixture("whole_space_only")
        assert not homeo_onto_image(fix.table)
        assert not is_ample(fix.table)


@st.composite
def open_loci_table(draw):
    """A space of up to 7 points with loci drawn from its open sets.  Its
    minimal open sets join them, every one of them half the time, so that
    ample tables occur."""
    n = draw(st.integers(min_value=1, max_value=7))
    points = [f"p{i}" for i in range(n)]
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    space = FiniteSpectralModel(points, [(points[a], points[b]) for a, b in edges if a < b])
    minimal = [space.generalization_closure([p]) for p in points]
    if not draw(st.booleans()):
        minimal = draw(st.lists(st.sampled_from(minimal), max_size=n))
    loci = draw(st.permutations(draw(st.lists(st.sampled_from(space.open_sets()), max_size=5)) + minimal))
    return make_table(space, {"L1": 1}, [(f"s{i}", "L1", 1, u) for i, u in enumerate(loci)])


def fixture_cases():
    return [build_fixture(name) for name in FIXTURE_NAMES] + [stmod_d8_fixture()]


def transfer_outcome(fix):
    """transfer_periods' diagnosis or refusal, where the fixture has periods."""
    if fix.ring is None or fix.per is None:
        return None
    try:
        return transfer_periods(fix.table, fix.ring, fix.per).describe()
    except ComparisonError as exc:
        return str(exc)


class TestMinimalOpens:
    """is_ample and homeo_onto_image read each point's minimal open set;
    the oracles walk every open set."""

    @settings(max_examples=300, deadline=None)
    @given(open_loci_table())
    def test_verdicts_match_the_oracles(self, table):
        assert is_ample(table) == oracle_is_ample(table)
        assert homeo_onto_image(table) == oracle_homeo_onto_image(table)

    def test_fixtures_match_the_oracles_without_an_open_set_walk(self, monkeypatch):
        cases = fixture_cases()
        want = [(oracle_is_ample(f.table), oracle_homeo_onto_image(f.table), transfer_outcome(f))
                for f in cases]

        def walk(self):
            raise AssertionError("open_sets called")

        monkeypatch.setattr(FiniteSpectralModel, "open_sets", walk)
        assert [(is_ample(f.table), homeo_onto_image(f.table), transfer_outcome(f))
                for f in cases] == want
        assert "PASS" in [w[2] for w in want]


class TestTransfer:
    def test_stmod_pass(self):
        fix = stmod_d8_fixture()
        assert transfer_periods(fix.table, fix.ring, fix.per)

    def test_chain_pass(self):
        fix = build_fixture("chain_principal")
        assert transfer_periods(fix.table, fix.ring, fix.per)

    def test_shifted_label_fails_at_point(self):
        fix = stmod_d8_fixture()
        vals = dict(fix.per.values)
        vals["⟨α0⟩"] = 2
        diag = transfer_periods(fix.table, fix.ring, PeriodAssignment(vals))
        assert not diag
        assert diag.reason == "period-mismatch"
        assert diag.detail[0] == "⟨α0⟩"

    def test_one_point_empty_gcd(self):
        ring = make_ring(2, [("x", 1)])
        space = FiniteSpectralModel(["pt"])
        table = make_table(space, {"L1": 1}, [("x", "L1", 1, [])])
        assert transfer_periods(table, ring, {"pt": 0})

    def test_non_embedding_rejected(self):
        fix = build_fixture("whole_space_only")
        ring = make_ring(2, [("t", 1)])
        with pytest.raises(ComparisonError):
            transfer_periods(fix.table, ring, {"g": 1, "s": 1})

    def test_vanishing_non_generator_rejected(self):
        fix = build_fixture("rep_d8_monomials")
        with pytest.raises(ComparisonError):
            transfer_periods(fix.table, fix.ring, fix.per)

    def test_degree_mismatch_rejected(self):
        fix = build_fixture("chain_principal")
        ring = make_ring(2, [("t", 5)])
        with pytest.raises(ComparisonError):
            transfer_periods(fix.table, ring, fix.per)

    def test_missing_label_rejected(self):
        fix = build_fixture("chain_principal")
        with pytest.raises(ComparisonError):
            transfer_periods(fix.table, fix.ring, {"g": 1})


class TestDivisorConstraint:
    def test_all_fixtures(self):
        cases = [build_fixture(n) for n in FIXTURE_NAMES]
        cases.append(stmod_d8_fixture())
        for fix in cases:
            if fix.ring is None or fix.per is None:
                continue
            assert divisor_constraint(fix.table, fix.ring, fix.per), fix.name

    def test_violation_detected(self):
        fix = build_fixture("chain_principal")
        diag = divisor_constraint(fix.table, fix.ring, {"g": 3, "s": 0})
        assert not diag and diag.reason == "period-not-divisor"
        assert diag.detail[0] == "g"

    def test_zero_never_divides_positive(self):
        fix = build_fixture("chain_principal")
        diag = divisor_constraint(fix.table, fix.ring, {"g": 0, "s": 0})
        assert not diag
        assert diag.detail[:2] == ("g", 0)


class TestCharts:
    def test_unit_bundle_single_chart(self):
        fix = build_fixture("dperm_cover")
        charts = base_free_cover(fix.table, "L0")
        assert len(charts) == 1
        assert charts[0].points == frozenset(fix.table.space.points)

    def test_two_overlapping_charts(self):
        fix = build_fixture("dperm_cover")
        charts = base_free_cover(fix.table, "L1")
        assert sorted(c.section for c in charts) == ["s1", "s2"]
        union = frozenset().union(*(c.points for c in charts))
        assert union == frozenset(fix.table.space.points)
        overlap = charts[0].points & charts[1].points
        assert overlap == frozenset({"m"})
        for chart in charts:
            assert validate_section_table(chart.table)
            sub = comp_map(chart.table)
            full = comp_map(fix.table)
            for p in chart.points:
                assert sub[p].contains == full[p].contains

    def test_not_base_free(self):
        fix = build_fixture("dperm_cover")
        with pytest.raises(NotBaseFree) as err:
            base_free_cover(fix.table, "L2")
        assert err.value.bundle == "L2"

    def test_stmod_degree_one_not_base_free(self):
        # Both degree-one sections vanish at the pattern containing both,
        # so their loci miss that point.
        fix = stmod_d8_fixture()
        with pytest.raises(NotBaseFree):
            base_free_cover(fix.table, "L1")

    def test_unknown_bundle(self):
        fix = build_fixture("dperm_cover")
        with pytest.raises(ComparisonError):
            base_free_cover(fix.table, "L9")


class TestCentralLocalization:
    def test_empty_set_whole_space(self):
        for name in FIXTURE_NAMES:
            fix = build_fixture(name)
            region = pullback_holds(fix.table, [])
            assert region == frozenset(fix.table.space.points)
            assert restrict_table(fix.table, region).space == fix.table.space

    def test_globally_invertible_whole_space(self):
        fix = build_fixture("dperm_cover")
        region = central_localization(fix.table, ["1"])
        assert region == frozenset(fix.table.space.points)

    def test_stmod_beta_region(self):
        fix = stmod_d8_fixture()
        region = pullback_holds(fix.table, ["β"])
        assert region == frozenset({"⟨α0⟩", "⟨α1⟩", "⟨α0,α1⟩"})
        comp = comp_map(restrict_table(fix.table, region))
        full = comp_map(fix.table)
        for p in region:
            assert comp[p].contains == full[p].contains

    def test_every_singleton_passes(self):
        cases = [build_fixture(n) for n in FIXTURE_NAMES]
        cases.append(stmod_d8_fixture())
        for fix in cases:
            for s in fix.table.sections:
                pullback_holds(fix.table, [s.name])

    def test_unknown_section(self):
        fix = build_fixture("dperm_cover")
        with pytest.raises(ComparisonError):
            central_localization(fix.table, ["zz"])

    def test_transfer_commutes_with_restriction(self):
        fix = stmod_d8_fixture()
        region = central_localization(fix.table, ["β"])
        sub = restrict_table(fix.table, region)
        inside = PeriodAssignment({p: fix.per[p] for p in region})
        assert transfer_periods(sub, fix.ring, inside)
        # Shift inside the region: both the full and the restricted
        # transfer fail, at the same point.
        vals = dict(fix.per.values)
        vals["⟨α0⟩"] = 2
        bad_full = transfer_periods(fix.table, fix.ring, PeriodAssignment(vals))
        bad_sub = transfer_periods(
            sub, fix.ring, PeriodAssignment({p: vals[p] for p in region})
        )
        assert not bad_full and not bad_sub
        assert bad_full.detail[0] == bad_sub.detail[0] == "⟨α0⟩"
        # Shift outside: only the full transfer sees it.
        vals = dict(fix.per.values)
        vals["⟨α0,β⟩"] = 2
        assert not transfer_periods(fix.table, fix.ring, PeriodAssignment(vals))
        assert transfer_periods(
            sub, fix.ring, PeriodAssignment({p: vals[p] for p in region})
        )


class TestImageOpen:
    def test_expected_flags(self):
        cases = [build_fixture(n) for n in FIXTURE_NAMES]
        cases.append(stmod_d8_fixture())
        for fix in cases:
            if fix.image_model is None:
                continue
            assert image_open_in_model(fix.table, fix.image_model) is fix.image_open

    def test_foreign_model_rejected(self):
        fix = build_fixture("dperm_cover")
        ambient = stmod_d8_fixture().image_model
        with pytest.raises(ComparisonError):
            image_open_in_model(fix.table, ambient)


class TestSerialization:
    def assert_same_table(self, a, b):
        assert a.space == b.space
        assert dict(a.bundles) == dict(b.bundles)
        assert sorted(a.sections, key=lambda s: s.name) == sorted(
            b.sections, key=lambda s: s.name
        )
        assert dict(a.products) == dict(b.products)

    def test_round_trip(self):
        for name in FIXTURE_NAMES:
            fix = build_fixture(name)
            obj = table_to_obj(fix.table)
            back = table_from_obj(obj, fix.table.space)
            self.assert_same_table(fix.table, back)

    def test_malformed_rejected(self):
        space = FiniteSpectralModel(["pt"])
        with pytest.raises(ComparisonError):
            table_from_obj({"format": 2}, space)
        with pytest.raises(ComparisonError):
            table_from_obj({"format": 1, "sections": []}, space)
        obj = table_to_obj(build_fixture("dperm_cover").table)
        obj["products"] = [["s1", "s2"]]
        with pytest.raises(ComparisonError):
            table_from_obj(obj, build_fixture("dperm_cover").table.space)

    def test_invalid_content_rejected(self):
        space = FiniteSpectralModel(["g", "s"], [("g", "s")])
        obj = {
            "format": 1,
            "bundles": {"L0": 0},
            "sections": [
                {"name": "u", "bundle": "L0", "degree": 0, "locus": ["s"]}
            ],
        }
        with pytest.raises(ComparisonError):
            table_from_obj(obj, space)

    def test_write_all_round_trips(self, tmp_path):
        import json

        from importlib import resources

        paths = {p.stem: p for p in write_all(tmp_path)}
        assert set(paths) == {"stmod_d8_sections", "stmod_d8_space", "d8_ring"}
        shipped = resources.files("ttperiods") / "data" / "sections"
        for p in paths.values():
            assert p.read_text(encoding="utf-8") == (shipped / p.name).read_text(encoding="utf-8")
        space, per = model_from_obj(
            json.loads(paths["stmod_d8_space"].read_text(encoding="utf-8"))
        )
        ring = ring_from_obj(
            json.loads(paths["d8_ring"].read_text(encoding="utf-8"))
        )
        table = table_from_obj(
            json.loads(paths["stmod_d8_sections"].read_text(encoding="utf-8")),
            space,
        )
        assert per is not None
        assert transfer_periods(table, ring, per)


class TestRestriction:
    def test_restrict_requires_open(self):
        fix = build_fixture("dperm_cover")
        with pytest.raises(ComparisonError):
            restrict_table(fix.table, ["c1"])

    def test_restriction_keeps_validity(self):
        fix = build_fixture("rep_d8_monomials")
        region = central_localization(fix.table, ["β"])
        sub = restrict_table(fix.table, region)
        assert validate_section_table(sub)
        assert set(sub.space.points) == set(region)


def space_strategy():
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] < e[1]),
                max_size=6,
            ),
        )
    )


@st.composite
def table_strategy(draw):
    n, raw_edges = draw(space_strategy())
    points = [f"p{i}" for i in range(n)]
    space = FiniteSpectralModel(points, [(points[a], points[b]) for a, b in raw_edges])
    k = draw(st.integers(min_value=1, max_value=4))
    sections = []
    for i in range(k):
        seed = draw(st.sets(st.sampled_from(points), max_size=n))
        locus = space.generalization_closure(seed)
        sections.append((f"s{i}", f"B{i}", i, locus))
    return make_table(space, {f"B{i}": i for i in range(k)}, sections)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(table_strategy())
    def test_comp_monotone_and_valid(self, table):
        assert validate_section_table(table)
        comp = comp_map(table)
        for p in table.space.points:
            for q in table.space.specializations(p):
                assert comp[p].contains <= comp[q].contains

    @settings(max_examples=60, deadline=None)
    @given(table_strategy(), st.data())
    def test_central_pullback_always_passes(self, table, data):
        names = [s.name for s in table.sections]
        chosen = data.draw(st.sets(st.sampled_from(names), max_size=len(names)))
        pullback_holds(table, chosen)
