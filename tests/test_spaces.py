import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttperiods.spaces import (
    ALL,
    FiniteSpectralModel,
    MissingLabel,
    ModelError,
    NotOpen,
    NotStable,
    PeriodAssignment,
    check_period_map,
    divides,
    is_alexandrov_open,
    is_prime,
    model_from_obj,
    model_to_obj,
    restrict_to_open,
    strata,
    tower_period,
)


def chain(*names):
    return FiniteSpectralModel(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


class TestDivides:
    def test_plain_divisibility(self):
        assert divides(2, 4)
        assert not divides(4, 2)

    def test_everything_divides_zero(self):
        assert divides(3, 0)
        assert divides(0, 0)

    def test_zero_divides_only_zero(self):
        assert not divides(0, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            divides(-1, 2)


def test_is_prime():
    assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestAlexandrovOpen:
    def test_divisor_closed(self):
        assert is_alexandrov_open({1, 2, 4})

    def test_missing_divisor(self):
        assert not is_alexandrov_open({4})

    def test_everything_flag(self):
        assert is_alexandrov_open(ALL)

    def test_zero_blocks_finite_opens(self):
        assert not is_alexandrov_open({0})
        assert not is_alexandrov_open({0, 1, 2})

    def test_empty_set_open(self):
        assert is_alexandrov_open(set())


class TestModel:
    def test_cycle_rejected(self):
        with pytest.raises(ModelError):
            FiniteSpectralModel(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_point_rejected(self):
        with pytest.raises(ModelError):
            FiniteSpectralModel(["a"], [("a", "b")])

    def test_transitive_closure(self):
        m = chain("a", "b", "c")
        assert m.specializes("a", "c")
        assert not m.specializes("c", "a")

    def test_open_iff_generalization_closed(self):
        m = chain("a", "b")
        assert m.is_open({"a"})
        assert not m.is_open({"b"})
        assert m.is_open({"a", "b"})
        assert m.is_open(set())

    def test_closed_points_are_maximal(self):
        m = FiniteSpectralModel(["x", "y", "z"], [("x", "y"), ("x", "z")])
        assert m.closed_points() == {"y", "z"}

    def test_open_family_is_topology(self):
        m = FiniteSpectralModel(
            ["g", "p", "q", "m"], [("g", "p"), ("g", "q"), ("p", "m"), ("q", "m")]
        )
        opens = m.open_sets()
        assert frozenset() in opens
        assert frozenset(m.points) in opens
        for u in opens:
            for v in opens:
                assert (u | v) in opens
                assert (u & v) in opens

    def test_cover_pairs_drop_transitive_edges(self):
        m = FiniteSpectralModel(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert m.cover_pairs() == [("a", "b"), ("b", "c")]

    def test_from_inclusions_orders_by_strict_subset(self):
        m = FiniteSpectralModel.from_inclusions(
            {"d": frozenset({1, 2}), "b": frozenset({1}), "c": frozenset({2}), "a": frozenset()}
        )
        assert m.points == ("a", "b", "c", "d")
        assert m.cover_pairs() == [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert not m.specializes("b", "c") and not m.specializes("d", "a")

    def test_from_inclusions_of_nothing_is_empty(self):
        assert FiniteSpectralModel.from_inclusions({}).points == ()

    def test_roundtrip(self):
        m = FiniteSpectralModel(["a", "b", "c"], [("a", "b"), ("a", "c")])
        per = PeriodAssignment({"a": 1, "b": 2, "c": 0})
        m2, per2 = model_from_obj(model_to_obj(m, per))
        assert m2 == m
        assert dict(per2.values) == dict(per.values)


class TestCheckPeriodMap:
    def test_two_point_chain_violation(self):
        # Specialization must multiply the period: 2 at a generalization of
        # a period-1 point is the violating shape.
        m = chain("p", "q")
        diag = check_period_map(m, {"p": 2, "q": 1})
        assert not diag
        assert diag.detail == ("p", "q")

    def test_stmod_d8_shape_passes(self):
        # Two lines meeting in one point of period 2, 1 elsewhere.
        m = FiniteSpectralModel(
            ["a0", "a1", "cross", "t0", "t1"],
            [("a0", "cross"), ("a1", "cross"), ("a0", "t0"), ("a1", "t1")],
        )
        per = {"a0": 1, "a1": 1, "cross": 2, "t0": 1, "t1": 1}
        assert check_period_map(m, per)

    def test_constant_zero_passes(self):
        m = chain("a", "b", "c")
        assert check_period_map(m, {"a": 0, "b": 0, "c": 0})

    def test_zero_at_closed_point_passes(self):
        m = chain("generic", "closed")
        assert check_period_map(m, {"generic": 4, "closed": 0})

    def test_missing_label(self):
        m = chain("a", "b")
        with pytest.raises(MissingLabel):
            check_period_map(m, {"a": 1})

    def test_both_checks_run_independently(self):
        # Monotone failure caught even on a sublevel-open-passing shape.
        m = chain("p", "q")
        diag = check_period_map(m, {"p": 3, "q": 2})
        assert not diag
        assert diag.reason in ("sublevel-not-open", "not-monotone")


class TestStrata:
    def test_fiber_and_local_closedness(self):
        m = FiniteSpectralModel(
            ["a0", "a1", "cross", "t0", "t1"],
            [("a0", "cross"), ("a1", "cross"), ("a0", "t0"), ("a1", "t1")],
        )
        per = {"a0": 1, "a1": 1, "cross": 2, "t0": 1, "t1": 1}
        s = strata(m, per, 2)
        assert s.members == {"cross"}
        assert s.locally_closed

    def test_absent_value_gives_empty(self):
        m = chain("a", "b")
        s = strata(m, {"a": 1, "b": 1}, 5)
        assert s.members == frozenset()
        assert s.locally_closed

    def test_invalid_assignment_rejected(self):
        m = chain("p", "q")
        with pytest.raises(ModelError):
            strata(m, {"p": 2, "q": 1}, 2)


class TestRestrictToOpen:
    def test_whole_space_identity(self):
        m = chain("a", "b")
        m2, per2 = restrict_to_open(m, {"a": 1, "b": 2}, {"a", "b"})
        assert m2 == m
        assert dict(per2.values) == {"a": 1, "b": 2}

    def test_empty(self):
        m = chain("a", "b")
        m2, per2 = restrict_to_open(m, {"a": 1, "b": 2}, set())
        assert m2.points == ()
        assert dict(per2.values) == {}

    def test_not_open_raises(self):
        m = chain("a", "b")
        with pytest.raises(NotOpen):
            restrict_to_open(m, {"a": 1, "b": 2}, {"b"})

    def test_restriction_stays_valid(self):
        m = FiniteSpectralModel(
            ["g", "p", "q", "m"], [("g", "p"), ("g", "q"), ("p", "m"), ("q", "m")]
        )
        per = {"g": 1, "p": 2, "q": 1, "m": 0}
        assert check_period_map(m, per)
        for u in m.open_sets():
            m2, per2 = restrict_to_open(m, per, u)
            assert check_period_map(m2, per2)


class TestTowerPeriod:
    def test_rising_then_stable(self):
        assert tower_period([1, 2, 2, 2]) == 2

    def test_all_zero(self):
        assert tower_period([0, 0, 0]) == 0

    def test_constant(self):
        assert tower_period([2, 2, 2]) == 2

    def test_singleton(self):
        assert tower_period([4]) == 4

    def test_late_start(self):
        assert tower_period([0, 1, 1]) == 1

    def test_unstable_rejected(self):
        with pytest.raises(NotStable):
            tower_period([1, 2, 1])

    def test_nonzero_then_zero_rejected(self):
        with pytest.raises(NotStable):
            tower_period([1, 0])

    def test_empty_rejected(self):
        with pytest.raises(NotStable):
            tower_period([])


# -- property tests ----------------------------------------------------

@st.composite
def random_model_and_periods(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"p{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))
    model = FiniteSpectralModel(names, edges)
    # Build a valid assignment by multiplying down the order.
    base = {p: draw(st.sampled_from([1, 1, 2, 3, 4])) for p in names}
    vals = {}
    for p in names:
        v = 1
        for q in model.generalizations(p):
            v = math.lcm(v, base[q])
        if draw(st.integers(0, 9)) == 0 and model.specializations(p) == frozenset({p}):
            v = 0
        vals[p] = v
    return model, vals


@settings(max_examples=60, deadline=None)
@given(random_model_and_periods())
def test_valid_assignments_pass_and_restrict(mv):
    model, vals = mv
    assert check_period_map(model, vals)
    for u in model.open_sets():
        m2, per2 = restrict_to_open(model, vals, u)
        assert check_period_map(m2, per2)


@settings(max_examples=60, deadline=None)
@given(random_model_and_periods(), st.integers(min_value=1, max_value=12))
def test_sublevel_monotone_in_d(mv, d):
    model, vals = mv
    for dd in range(1, 13):
        if d % dd == 0:
            small = {p for p in model.points if divides(vals[p], dd)}
            big = {p for p in model.points if divides(vals[p], d)}
            assert small <= big


@settings(max_examples=60, deadline=None)
@given(random_model_and_periods())
def test_strata_locally_closed(mv):
    model, vals = mv
    for d in set(vals.values()):
        assert strata(model, vals, d).locally_closed
