"""The printed metrics are exactly the ones BENCHMARK.json declares."""

import json
from pathlib import Path

import run
from measure import KNOWN_FAILURE, OK, REFUSED
from tracer import Tracer

SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeBench:
    tail_pct = 75.0
    runner = None


# Op i costs 0.001 * (i + 1) s at the nominal speed in untraced rounds and
# twice that in traced ones; its measured latency is half that.
ROWS = [
    run.Row(f"op{i}", rnd, rnd % 2 == 1, 0.0005 * (i + 1) * (1 + rnd % 2), outcome, None,
            0.001 * (i + 1) * (1 + rnd % 2))
    for rnd in range(4)
    for i, outcome in enumerate([OK] * 17 + [REFUSED, KNOWN_FAILURE, OK])
]


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_end_to_end_metrics_match_the_spec():
    metrics, tail = run.end_to_end(FakeBench(), ROWS, [0.2, 0.1, 0.3])
    assert {k: v["unit"] for k, v in metrics.items()} == _names_units(SPEC["end_to_end"])
    assert metrics["setup_s"]["value"] == 0.2
    # Each op at its median cost over the untraced rounds, not its latency.
    assert abs(metrics["wall_s"]["value"] - 0.001 * sum(range(1, 21))) < 1e-12
    assert metrics["ok_share"]["value"] == 19 / 20
    assert tail["ops"] == 40 and tail["ops_beyond"] >= 10


def test_per_layer_metrics_match_the_spec():
    tracer = Tracer()
    tracer.self_s.update({"groups": 2.0, "spectra": 1.0})
    tracer.counters.update({"groups.identify.calls": 4, "groups.identify.distinct": 1})
    metrics = run.per_layer(FakeBench(), ROWS, tracer)
    assert {k: v["unit"] for k, v in metrics.items()} == _names_units(SPEC["per_layer"])
    assert metrics["groups.self_s"]["value"] == 1.0  # per traced round, two rounds
    assert metrics["groups.identify.distinct_ratio"]["value"] == 0.25
    # Traced rounds (1 and 3) cost twice the untraced ones.
    assert abs(metrics["trace.overhead_share"]["value"] - 1.0) < 1e-9


def test_spec_bounds_follow_the_contract():
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(SPEC["paths"]) == {"perfbench"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
