"""The benchmark's own statistics and outcome rules."""

import pytest

from measure import (
    FAILED,
    KNOWN_FAILURE,
    OK,
    REFERENCE_S,
    REFUSED,
    Op,
    Speedometer,
    classify_exception,
    min_rounds_for_tail,
    percentile,
    run_op,
)
from ttperiods.cohomology import GroupNotInCatalog, WeylNotInCatalog
from ttperiods.groups import GroupError


def test_min_rounds_reach_ten_beyond():
    for ops, q in [(15, 75.0), (414, 95.0), (44, 75.0), (93, 90.0), (5, 99.9)]:
        rounds = min_rounds_for_tail(ops, q)
        assert ops * rounds * (100 - q) / 100 >= 10 - 1e-9
        assert rounds == 1 or ops * (rounds - 1) * (100 - q) / 100 < 10


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([7.0], 95) == 7.0


def _raise(exc):
    def call():
        raise exc

    return call


def test_declared_library_refusal_is_not_a_failure():
    exc = WeylNotInCatalog("stratum C2: not in catalog")
    assert classify_exception(exc, (GroupNotInCatalog,)) == REFUSED
    op = Op("x", _raise(exc), refusals=(GroupNotInCatalog,))
    assert run_op(op)[1] == REFUSED


def test_bare_python_exception_is_a_failure():
    assert classify_exception(IndexError("string index"), (GroupNotInCatalog,)) == FAILED
    assert classify_exception(KeyError("x"), (Exception,)) == FAILED


def test_undeclared_library_exception_is_a_failure():
    assert classify_exception(GroupError("criteria disagree"), (GroupNotInCatalog,)) == FAILED
    assert classify_exception(GroupError("criteria disagree"), ()) == FAILED


def test_known_defect_is_reported_apart_from_failures():
    op = Op("x", _raise(IndexError("boom")), known=lambda e: isinstance(e, IndexError))
    assert run_op(op)[1] == KNOWN_FAILURE
    op = Op("y", lambda: 3, check=lambda r: "tag-swap: moved",
            known=lambda p: p.startswith("tag-swap"))
    assert run_op(op)[1] == KNOWN_FAILURE


def test_check_decides_ok_and_failed():
    assert run_op(Op("a", lambda: 2, check=lambda r: None))[1:3] == (OK, None)
    latency, outcome, detail, _ = run_op(Op("b", lambda: 2, check=lambda r: f"got {r}"))
    assert (outcome, detail) == (FAILED, "got 2")
    assert latency >= 0
    outcome = run_op(Op("c", lambda: None, check=lambda r: r.missing))[1]
    assert outcome == FAILED


def _speedometer(samples):
    speed = Speedometer()
    for begin, end, loop in samples:
        speed.begins.append(begin)
        speed.ends.append(end)
        speed.loops.append(loop)
    return speed


def test_cost_counts_each_stretch_at_the_speed_of_its_samples():
    # Samples at 0-1 s (nominal speed), 5-6 s (half speed), 9-10 s (nominal).
    speed = _speedometer([(0, 1, REFERENCE_S), (5, 6, 2 * REFERENCE_S), (9, 10, REFERENCE_S)])
    busy, nominal = speed.cost(2.0, 8.0)
    # 2-5 s and 6-8 s are busy, each between samples averaging 1.5 loops;
    # the sample at 5-6 s is not op time.
    assert busy == 5.0
    assert nominal == pytest.approx(5.0 / 1.5)
    assert speed.cost(1.0, 3.0) == pytest.approx((2.0, 2.0 / 1.5))


def test_cost_needs_a_sample_on_each_side():
    speed = _speedometer([(0, 1, REFERENCE_S), (5, 6, REFERENCE_S)])
    with pytest.raises(ValueError):
        speed.cost(2.0, 7.0)
    with pytest.raises(ValueError):
        speed.cost(0.5, 3.0)


def test_run_op_brackets_the_call_with_samples():
    speed = Speedometer()
    run = run_op(Op("a", lambda: sum(range(1000))), speed=speed)
    assert len(speed.loops) == 2
    assert speed.ends[0] <= run.start and speed.begins[1] >= run.start + run.latency
    busy, nominal = speed.cost(run.start, run.start + run.latency)
    assert busy == pytest.approx(run.latency) and nominal > 0
