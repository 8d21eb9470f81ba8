import math
from itertools import combinations
from unittest import mock

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
    is_prime,
    model_from_obj,
    model_to_obj,
    restrict_to_open,
    tower_period,
)

from ttperiods import spaces
from ttperiods.graded import enumerate_patterns, make_ring, point_periods

from oracles import from_inclusions, is_alexandrov_open, oracle_check_period_map, oracle_from_inclusions


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

    @pytest.mark.parametrize("ask", [
        lambda m: m.specializes("z", "a"),
        lambda m: m.specializes("a", "z"),
        lambda m: m.specializations("z"),
        lambda m: m.closure({"a", "z"}),
        lambda m: m.generalization_closure({"z"}),
        lambda m: m.is_open({"z"}),
        lambda m: m.restrict({"a", "z"}),
    ], ids=["specializes-from", "specializes-to", "specializations", "closure",
            "generalization-closure", "is-open", "restrict"])
    def test_unknown_point_in_an_accessor_is_a_model_error(self, ask):
        with pytest.raises(ModelError, match="unknown point"):
            ask(chain("a", "b"))

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
        m = from_inclusions(
            {"d": frozenset({1, 2}), "b": frozenset({1}), "c": frozenset({2}), "a": frozenset()}
        )
        assert m.points == ("a", "b", "c", "d")
        assert m.cover_pairs() == [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert not m.specializes("b", "c") and not m.specializes("d", "a")

    def test_from_inclusions_of_nothing_is_empty(self):
        assert from_inclusions({}).points == ()

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

    def test_passing_check_scans_no_point(self, monkeypatch):
        # Openness is decided per period value, so a passing check never
        # lists the points of a sublevel set.
        gens = [(f"x{i}", 1 + i % 4, False) for i in range(11)]
        relations = [[(1, {"x0": 1, "x1": 1, "x2": 1})], [(1, {"x3": 1, "x4": 1})],
                     [(1, {"x5": 1, "x6": 1, "x7": 1, "x8": 1})]]
        ring = make_ring(2, gens, relations)
        model = enumerate_patterns(ring)
        periods = point_periods(ring, model)
        assert len(set(periods.values())) > 2
        calls = [0]

        def counted(mask, _original=spaces._bits):
            calls[0] += 1
            return _original(mask)

        monkeypatch.setattr(spaces, "_bits", counted)
        assert check_period_map(model.space, periods)
        assert calls[0] == 0

    def test_failures_name_the_oracle_points(self):
        m = FiniteSpectralModel(
            ["a0", "a1", "cross", "t0", "t1"],
            [("a0", "cross"), ("a1", "cross"), ("a0", "t0"), ("a1", "t1")],
        )
        for per in ({"a0": 2, "a1": 1, "cross": 1, "t0": 2, "t1": 1},
                    {"a0": 1, "a1": 3, "cross": 6, "t0": 0, "t1": 2},
                    {"a0": 0, "a1": 1, "cross": 2, "t0": 0, "t1": 1}):
            diag = check_period_map(m, per)
            assert not diag
            assert diag.describe() == oracle_check_period_map(m, per).describe()

    def test_both_checks_run_independently(self):
        # p -> q with 3 not dividing 2: the sublevel set {q} is not open
        # either, and the check names the non-monotone pair.
        m = chain("p", "q")
        diag = check_period_map(m, {"p": 3, "q": 2})
        assert not diag
        assert diag.reason == "not-monotone"


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
        for q in model.generalization_closure([p]):
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


# -- the frozenset order the bitmask kernel replaced, kept as its oracle ---

class RefModel:
    """Sweep closure, pairwise inclusions and triple-loop covers, on frozensets."""

    def __init__(self, points, specializes=()):
        self.points = tuple(sorted(points))
        down = {p: {p} for p in self.points}
        for a, b in specializes:
            down[a].add(b)
        changed = True
        while changed:
            changed = False
            for p in self.points:
                extra = set()
                for q in down[p]:
                    extra |= down[q]
                if not extra <= down[p]:
                    down[p] |= extra
                    changed = True
        self.down = {p: frozenset(qs) for p, qs in down.items()}
        self.up = {p: frozenset(q for q in self.points if p in self.down[q]) for p in self.points}
        self.acyclic = all(p == q or p not in self.down[q] for p in self.points for q in self.down[p])

    @classmethod
    def from_inclusions(cls, named_sets):
        items = named_sets.items()
        return cls(named_sets, [(a, b) for a, i in items for b, j in items if i < j])

    def cover_pairs(self):
        out = []
        for p in self.points:
            for q in sorted(self.down[p] - {p}):
                if not any(r != p and r != q and q in self.down[r] for r in self.down[p] - {p, q}):
                    out.append((p, q))
        return out


def subsets(points):
    return [frozenset(c) for r in range(len(points) + 1) for c in combinations(points, r)]


def assert_agrees(model, ref):
    assert model.points == ref.points
    for p in ref.points:
        assert model.specializations(p) == ref.down[p]
        assert model.generalization_closure([p]) == ref.up[p]
        for q in ref.points:
            assert model.specializes(p, q) == (q in ref.down[p])
    assert model.cover_pairs() == ref.cover_pairs()
    assert model.closed_points() == {p for p in ref.points if ref.down[p] == {p}}
    opens = [u for u in subsets(ref.points) if all(ref.up[p] <= u for p in u)]
    assert model.open_sets() == sorted(opens, key=lambda u: (len(u), tuple(sorted(u))))
    for u in subsets(ref.points):
        assert model.is_open(u) == (u in opens)
        assert (model.closure(u) == u) == all(ref.down[p] <= u for p in u)
        assert model.closure(u) == frozenset().union(*(ref.down[p] for p in u))
        assert model.generalization_closure(u) == frozenset().union(*(ref.up[p] for p in u))
        sub = model.restrict(u)
        sub_ref = RefModel(u, [(p, q) for p in u for q in ref.down[p] if q in u])
        assert sub.points == sub_ref.points
        assert all(sub.specializations(p) == sub_ref.down[p] for p in u)
        assert all(sub.generalization_closure([p]) == sub_ref.up[p] for p in u)
    same = FiniteSpectralModel(ref.points, [(p, q) for p in ref.points for q in ref.down[p]])
    assert model == same and hash(model) == hash(same)


def assert_verdict_agrees(model, ref, vals):
    pairs = [(p, q) for p in ref.points for q in ref.down[p]]
    monotone = all(divides(vals[p], vals[q]) for p, q in pairs)
    sublevel_open = all(
        all(ref.up[p] <= sub for p in sub)
        for d in set(vals.values()) - {0}
        for sub in [{p for p in ref.points if divides(vals[p], d)}]
    )
    diag = check_period_map(model, vals)
    assert bool(diag) == (monotone and sublevel_open)
    assert diag.describe() == oracle_check_period_map(model, vals).describe()
    if not monotone:
        p, q = diag.detail
        assert diag.reason == "not-monotone"
        assert q in ref.down[p] and not divides(vals[p], vals[q])
    else:
        # A monotone labelling has open sublevel sets, so check_period_map
        # has no second failure to find.
        assert sublevel_open


NAMES = st.lists(
    st.text(alphabet="abcxyz⟨⟩,", min_size=1, max_size=3), unique=True, max_size=6
)


@st.composite
def edge_lists(draw):
    """Point names in shuffled order and edges along it, sometimes one back."""
    names = draw(NAMES)
    order = draw(st.permutations(names))
    edges = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i, len(order))
        if draw(st.integers(0, 2)) == 0
    ]
    if len(order) > 1 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.sampled_from(range(len(order))), min_size=2, max_size=2)))
        edges.append((order[j], order[i]))
    return names, draw(st.permutations(edges))


@st.composite
def named_families(draw):
    """Named subsets of a four-element set, duplicates and the empty set allowed."""
    names = draw(NAMES)
    pool = subsets(range(4))
    return {n: draw(st.sampled_from(pool)) for n in names}


LABELS = st.sampled_from([0, 1, 2, 3, 4, 6])


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists(), st.data())
    def test_edge_lists(self, case, data):
        names, edges = case
        ref = RefModel(names, edges)
        if not ref.acyclic:
            with pytest.raises(ModelError, match="cycle"):
                FiniteSpectralModel(names, edges)
            return
        model = FiniteSpectralModel(names, edges)
        assert_agrees(model, ref)
        vals = {p: data.draw(LABELS) for p in names}
        assert_verdict_agrees(model, ref, vals)

    @settings(max_examples=150, deadline=None)
    @given(named_families(), st.data())
    def test_named_families(self, family, data):
        ref = RefModel.from_inclusions(family)
        model = from_inclusions(family)
        assert_agrees(model, ref)
        vals = {p: data.draw(LABELS) for p in family}
        assert_verdict_agrees(model, ref, vals)

    @pytest.mark.parametrize(
        "family",
        [
            {},
            {"only": frozenset()},
            {"a": frozenset({1}), "b": frozenset({1}), "c": frozenset({1, 2}), "e": frozenset()},
        ],
        ids=["empty-family", "single-point", "duplicate-sets"],
    )
    def test_edge_cases(self, family):
        assert_agrees(
            from_inclusions(family), RefModel.from_inclusions(family)
        )

    def test_duplicate_sets_stay_incomparable(self):
        m = from_inclusions({"a": frozenset({1}), "b": frozenset({1})})
        assert not m.specializes("a", "b") and not m.specializes("b", "a")
        assert m.cover_pairs() == []

    def test_longer_cycle_and_unknown_point(self):
        with pytest.raises(ModelError, match="cycle"):
            FiniteSpectralModel(["a", "b", "c", "d"], [("d", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(ModelError, match="unknown point"):
            FiniteSpectralModel(["a", "b"], [("a", "b"), ("b", "z")])
        with pytest.raises(ModelError, match="unknown points"):
            chain("a", "b").is_open({"c"})


@st.composite
def mask_families(draw, dense):
    """Masks over width elements with the empty set and repeats allowed.
    Dense families hold at least 2^width / width sets over at most 8
    elements; sparse ones at most 8 sets over 40 or more, and may be empty."""
    if dense:
        width = draw(st.integers(1, 8))
        least = -(-(1 << width) // width)
        size = draw(st.integers(least, least + 16))
    else:
        width = draw(st.integers(40, 64))
        size = draw(st.integers(0, 8))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=size, max_size=size))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=3))
    return masks, width


def assert_inclusions_match(masks, width, route):
    """from_inclusion_masks takes the named route and builds the poset of
    oracle_from_inclusions."""
    named = {f"p{i:03d}": m for i, m in enumerate(masks)}
    with mock.patch.object(spaces, "_inclusions_by_table", wraps=spaces._inclusions_by_table) as by_table, \
            mock.patch.object(spaces, "_inclusions_by_point", wraps=spaces._inclusions_by_point) as by_point:
        model = FiniteSpectralModel.from_inclusion_masks(named, width)
    taken = {"table": by_table.call_count, "point": by_point.call_count}
    assert taken == {r: int(r == route) for r in taken}
    ref = oracle_from_inclusions({p: frozenset(spaces._bits(m)) for p, m in named.items()})
    assert model.points == ref.points
    assert model._down == ref._down
    assert model._up == ref._up


class TestInclusionRoutes:
    """Both sides of from_inclusion_masks' width rule, 2^width against
    points times width, checked against oracle_from_inclusions."""

    @settings(max_examples=100, deadline=None)
    @given(mask_families(dense=True))
    def test_dense_families_take_the_table(self, case):
        assert_inclusions_match(*case, "table")

    @settings(max_examples=100, deadline=None)
    @given(mask_families(dense=False))
    def test_sparse_families_take_the_per_point_loop(self, case):
        assert_inclusions_match(*case, "point")

    @pytest.mark.parametrize("masks, width, route", [
        ([], 3, "point"),
        ([0b01, 0b01, 0b11, 0], 2, "table"),
        ([0b01, 0b01, 0b11, 0], 5, "point"),
        (list(range(32)), 8, "table"),
        (list(range(31)), 8, "point"),
    ], ids=["empty-family", "duplicates-by-table", "duplicates-by-point", "at-the-rule", "below-it"])
    def test_routes_at_the_rule(self, masks, width, route):
        assert_inclusions_match(masks, width, route)


class TestWorkCount:
    """Set comparisons in from_inclusions, counted rather than timed."""

    def test_from_inclusions_makes_no_set_comparisons(self):
        count = [0]

        class Counted(frozenset):
            def __lt__(self, other):
                count[0] += 1
                return frozenset.__lt__(self, other)

            def __le__(self, other):
                count[0] += 1
                return frozenset.__le__(self, other)

            def issubset(self, other):
                count[0] += 1
                return frozenset.issubset(self, other)

        assert Counted({1}) < Counted({1, 2}) and Counted({1}) <= Counted({1})
        assert Counted({1}).issubset({1}) and count[0] == 3
        count[0] = 0
        # The pattern family of x0*x1*x2, x3*x4 and x5*x6*x7*x8 among 11
        # generators: every set meeting each support, 7 * 3 * 15 * 4 of them.
        names = [f"x{i}" for i in range(11)]
        supports = [{"x0", "x1", "x2"}, {"x3", "x4"}, {"x5", "x6", "x7", "x8"}]
        family = {
            "⟨" + ",".join(combo) + "⟩": Counted(combo)
            for r in range(12)
            for combo in combinations(names, r)
            if all(support & set(combo) for support in supports)
        }
        model = from_inclusions(family)
        assert count[0] == 0
        assert len(model.points) == 1260
        # An up-set of the Boolean lattice: the covers of a set add one element.
        assert len(model.cover_pairs()) == sum(11 - len(s) for s in family.values())
        assert model.closed_points() == {"⟨" + ",".join(names) + "⟩"}
