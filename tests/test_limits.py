"""The size budget: every row of diagnostics.LIMITS answers at its limit and
refuses just above it, each within the time its row states, and inputs far
past the rows exit cleanly through the command line."""

import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from ttperiods.cli import main
from ttperiods.comparison import central_localization, divisor_constraint, homeo_onto_image
from ttperiods.comparison import is_ample, make_table, transfer_periods
from ttperiods.diagnostics import LIMITS, SizeBound
from ttperiods.graded import enumerate_patterns, make_ring
from ttperiods.groups import cyclic, dihedral, elementary_abelian, group_from_obj, subgroups
from ttperiods.multigraded import make_multigraded, mult_system_ring, ring_fractions
from ttperiods.spaces import FiniteSpectralModel, is_prime
from ttperiods.tworing import homogeneous_ideals, localize
from ttperiods.tworing import two_ring_from_multigraded, validate_two_ring
from ttperiods.tworing_catalog import build_two_ring, two_ring_to_obj

from oracles import square_zero

ROOT = Path(__file__).resolve().parent.parent


def unit_ring(p, d, n):
    """Z/n-graded R_k = u^k (F_p + V) with u^n = 1, V^2 = 0 and dim V = d - 1:
    every component has dimension d, and u makes one object per degree."""
    comps = {k: tuple(f"u{k}v{i}" for i in range(d)) for k in range(n)}
    comps[0] = ("1",) + comps[0][1:]
    prods = {}
    for a in range(n):
        for b in range(a, n):
            for i in range(d):
                for j in range(d):
                    x, y = comps[a][i], comps[b][j]
                    if "1" in (x, y) or (y, x) in prods:
                        continue
                    prods[(x, y)] = None if i and j else comps[(a + b) % n][i + j]
    return make_multigraded(f"unit_{p}_{d}_{n}", (n,), p, components=comps, products=prods)


def sections_on(points):
    space = FiniteSpectralModel([f"p{i}" for i in range(points)])
    return make_table(space, {"L0": 0}, [("u", "L0", 0, space.points)])


def minimal_open_table(space):
    """One degree-2 section per point, invertible on its minimal open set."""
    return make_table(space, {"L2": 2}, [
        (f"s{i}", "L2", 2, space.generalization_closure([p])) for i, p in enumerate(space.points)
    ])


def compare_path(table, invert):
    """What compare runs, with every section a degree-2 generator of the
    ring and every period 2, on a table that is ample and embeds, so the
    transfer runs too."""
    ring = make_ring(2, [(s.name, 2) for s in table.sections])
    per = dict.fromkeys(table.space.points, 2)
    return all((
        is_ample(table), homeo_onto_image(table), transfer_periods(table, ring, per),
        divisor_constraint(table, ring, per), central_localization(table, invert),
    ))


def chain_path(points):
    """compare_path on a chain with minimal-open sections."""
    names = [f"p{i:04d}" for i in range(points)]
    table = minimal_open_table(FiniteSpectralModel(names, zip(names, names[1:])))
    return compare_path(table, [f"s{points - 1}"])


def singleton_sections(points, sections):
    """An antichain with degree-2 sections invertible at one point each, the
    points taken in turn: each point's pattern holds all the sections but
    its own, the largest comparison report for its size."""
    names = [f"p{i:03d}" for i in range(points)]
    return make_table(FiniteSpectralModel(names), {"L2": 2},
                      [(f"s{i}", "L2", 2, [names[i % points]]) for i in range(sections)])


def cycle_group(degree):
    return group_from_obj({"degree": degree, "generators": [[list(range(1, 385))]]})


def fractions(R):
    return ring_fractions(R, mult_system_ring(R))


def validated_ideals(R2):
    """What tworing ideals computes: the 2-ring's validation, then its ideals."""
    return validate_two_ring(R2).ok and len(homogeneous_ideals(R2)) > 1


# Per row: the probe at the limit, which answers truthily, and the probe
# just above it with the size it must report.  The fraction pairs of the
# square-zero rings are 4 units times 5 + 39 * 125 + 24 * 5 (+ 1) numerators;
# its 2-ring has 40 units and 5 + 3 * 125 + 5 * 25 + 1 homs out of each object.
# The subgroup lattice of D108 takes 491 044 lookups; the search in C2^8 is
# checked past the limit after the extensions of one subgroup of order 4.
PROBES = {
    "MAX_PRIME": (
        lambda: is_prime(2**31 - 1),
        lambda: is_prime(2**31), 2**31,
    ),
    "MAX_GROUP_ORDER": (
        lambda: cyclic(729).order == 729,
        lambda: cyclic(730), 730,
    ),
    "MAX_SUBGROUP_LOOKUPS": (
        lambda: len(subgroups(dihedral(108))) == 128,
        lambda: subgroups(elementary_abelian(2, 8)), 501432,
    ),
    "MAX_DEGREE": (
        lambda: cycle_group(4096).order == 384,
        lambda: cycle_group(4097), 4097,
    ),
    "MAX_FREE_GENERATORS": (
        lambda: len(enumerate_patterns(make_ring(2, [(f"x{i}", 2) for i in range(13)])).space.points) == 2**13,
        lambda: enumerate_patterns(make_ring(2, [(f"x{i}", 2) for i in range(14)])), 14,
    ),
    "MAX_POINTS": (
        lambda: chain_path(384),
        lambda: sections_on(385), 385,
    ),
    "MAX_SECTIONS": (
        lambda: compare_path(singleton_sections(384, 1500), []),
        lambda: singleton_sections(384, 1501), 1501,
    ),
    "MAX_COMPONENT_DIM": (
        lambda: len(homogeneous_ideals(two_ring_from_multigraded(unit_ring(2, 3, 2)))) > 1,
        lambda: unit_ring(2, 4, 2), 4,
    ),
    "MAX_COMPONENT_SIZE": (
        lambda: len(homogeneous_ideals(two_ring_from_multigraded(unit_ring(5, 3, 2)))) > 1,
        lambda: unit_ring(127, 1, 2), 127,
    ),
    "MAX_OBJECTS": (
        lambda: validated_ideals(two_ring_from_multigraded(unit_ring(2, 1, 12))),
        lambda: two_ring_from_multigraded(unit_ring(2, 1, 13)), 13,
    ),
    "MAX_FRACTION_PAIRS": (
        lambda: fractions(square_zero(5, [1] + [3] * 39 + [1] * 24)),
        lambda: fractions(square_zero(5, [1] + [3] * 39 + [1] * 24 + [0])), 20004,
    ),
    "MAX_SPANS": (
        lambda: localize(two_ring_from_multigraded(unit_ring(5, 1, 10)), [])[1].dims,
        lambda: localize(
            two_ring_from_multigraded(square_zero(5, [1, 3, 3, 3, 2, 2, 2, 2, 2, 0])), []
        ),
        20240,
    ),
}


def timed(probe):
    start = time.perf_counter()
    result = probe()
    return result, time.perf_counter() - start


def test_every_row_has_probes():
    assert PROBES.keys() == LIMITS.keys()


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_probe_at_the_limit_answers_in_time(name):
    row = LIMITS[name]
    result, seconds = timed(PROBES[name][0])
    assert result
    assert seconds <= row.seconds, f"{name} at its limit took {seconds:.2f} s"


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_probe_above_the_limit_is_refused_in_time(name):
    row = LIMITS[name]
    _, above, seen = PROBES[name]
    start = time.perf_counter()
    with pytest.raises(SizeBound) as info:
        above()
    assert time.perf_counter() - start <= row.seconds
    assert str(info.value) == f"{name} = {row.value}: {row.what} is {seen}"


def test_huge_sizes_are_shown_as_a_bound():
    with pytest.raises(SizeBound, match=r"MAX_PRIME = 2147483647: .* is at least 18446744073709551616$"):
        is_prime(10**4000)


def test_readme_lists_every_row():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Limits", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \| ([\d ]+) \| [^|]+ \| ([\d.]+) s \|", section, re.M)
    assert {name: (int(value.replace(" ", "")), float(seconds)) for name, value, seconds in listed} == {
        name: (row.value, row.seconds) for name, row in LIMITS.items()
    }


# -- refusals through the command line ---------------------------------


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def laurent_at_char(tmp_path, char):
    obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
    obj["char"] = char
    return write_json(tmp_path, "laurent.json", obj)


def ring_at_char(tmp_path, char):
    return write_json(tmp_path, "ring.json", {"char": char, "generators": [{"name": "x", "degree": 2}]})


@pytest.mark.parametrize("argv, row", [
    (lambda tmp: ["group", "stmod", "--group", "C10000000", "--prime", "2"], "MAX_GROUP_ORDER"),
    (lambda tmp: ["group", "stmod", "--group", "D8", "--prime", "10000000000000061"], "MAX_PRIME"),
    (lambda tmp: ["group", "dperm", "--group", "C2^8", "--prime", "2"], "MAX_SUBGROUP_LOOKUPS"),
    *(
        pytest.param(
            lambda tmp, name=name, p=p: ["group", "dperm", "--group", name, "--prime", p],
            "MAX_SUBGROUP_LOOKUPS", id=f"dperm-{name}",
        )
        for name, p in [("C3^6", "3"), ("D512", "2")]
    ),
    (lambda tmp: ["tworing", "ideals", "--input", laurent_at_char(tmp, 100003)], "MAX_COMPONENT_SIZE"),
    (lambda tmp: ["ring", "validate", "--input", ring_at_char(tmp, 10000000000000061)], "MAX_PRIME"),
    # Names whose numbers int() cannot read (past 4300 digits).
    *(
        pytest.param(
            lambda tmp, name=name: ["group", "stmod", "--group", name, "--prime", "2"],
            "MAX_GROUP_ORDER", id=f"long-{kind}",
        )
        for kind, name in [
            ("C", "C" + "9" * 5000),
            ("D", "D" + "8" * 5000),
            ("Q", "Q" + "8" * 5000),
            ("S", "S" + "9" * 5000),
            ("p^r-prime", "C" + "9" * 5000 + "^2"),
            ("p^r-rank", "C2^" + "9" * 5000),
        ]
    ),
])
def test_oversized_command_exits_2_within_a_second(capsys, tmp_path, argv, row):
    args = argv(tmp_path)
    start = time.perf_counter()
    code = main(args)
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"SizeBound: {row} = {LIMITS[row].value}: ")
    assert seconds < 1.0


def test_dperm_searches_only_the_sylow_subgroup(capsys):
    # D384's whole lattice is past MAX_SUBGROUP_LOOKUPS, its Sylow
    # 3-subgroup is C3; the stratum of the trivial subgroup has Weyl group
    # D384, which the cohomology catalog does not hold.
    start = time.perf_counter()
    code = main(["group", "dperm", "--group", "D384", "--prime", "3"])
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("WeylNotInCatalog: stratum 1: ")
    assert seconds < 1.0


# -- size fuzzing ------------------------------------------------------
#
# The size-carrying fields of ring, group and 2-ring JSON are either kept or
# set around and far above their rows.  main must return (0 and 1 are
# answers, 2 a refusal) within the largest time stated by the rows that
# input can meet.

ROW_SECONDS = {
    "ring": max(LIMITS[n].seconds for n in ("MAX_PRIME", "MAX_FREE_GENERATORS")),
    "group": max(LIMITS[n].seconds for n in ("MAX_PRIME", "MAX_GROUP_ORDER", "MAX_DEGREE")),
    "tworing": max(LIMITS[n].seconds for n in (
        "MAX_PRIME", "MAX_COMPONENT_DIM", "MAX_COMPONENT_SIZE", "MAX_OBJECTS", "MAX_SPANS")),
}


def around(*limits):
    """None (keep the input's own value), small values, values at, just
    above and far above each limit, and infinity, which JSON can carry."""
    values = {0, 1, 2, 3}
    for v in limits:
        values |= {v, v + 1, v + 2, 2 * v, v**2, 10**30, 10**2000}
    return st.none() | st.sampled_from(sorted(values) + [float("inf")])


def pick(value, default):
    return default if value is None else value


def run_main(argv):
    start = time.perf_counter()
    code = main(argv)
    event(f"exit {code}")
    return code, time.perf_counter() - start


FUZZ = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(
    char=around(LIMITS["MAX_PRIME"].value),
    free=st.sampled_from([0, 1, 2, 14, 15, 100]),
    units=st.integers(0, 3),
    degree=st.sampled_from([0, 1, 2, 3, -2, 10**30, float("inf")]),
    action=st.sampled_from(["validate", "patterns", "periods"]),
)
def test_ring_sizes_fuzzed(capsys, tmp_path, char, free, units, degree, action):
    gens = [{"name": f"x{i}", "degree": degree} for i in range(free)]
    gens += [{"name": f"u{i}", "degree": 2, "invertible": True} for i in range(units)]
    path = write_json(tmp_path, "ring.json", {"char": pick(char, 2), "generators": gens})
    code, seconds = run_main(["ring", action, "--input", path])
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert seconds <= ROW_SECONDS["ring"]


@FUZZ
@given(
    degree=around(LIMITS["MAX_DEGREE"].value),
    cycles=st.lists(st.lists(st.integers(1, 9), min_size=2, max_size=5, unique=True), max_size=3),
    named=st.sampled_from(["", "C", "D", "Q", "C2^"]),
    order=around(LIMITS["MAX_GROUP_ORDER"].value),
    prime=around(2, 3, LIMITS["MAX_PRIME"].value),
)
def test_group_sizes_fuzzed(capsys, tmp_path, degree, cycles, named, order, prime):
    if named:
        group = f"{named}{pick(order, 8)}"
    else:
        obj = {"degree": pick(degree, 9), "generators": [cycles]}
        group = write_json(tmp_path, "group.json", obj)
    code, seconds = run_main(["group", "stmod", "--group", group, "--prime", str(pick(prime, 2))])
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert seconds <= ROW_SECONDS["group"]


@FUZZ
@given(
    base=st.sampled_from(["laurent_f2_z2", "dual_laurent_f2_z2", "koszul_f3_z2"]),
    char=around(LIMITS["MAX_COMPONENT_SIZE"].value, LIMITS["MAX_PRIME"].value),
    dim=around(LIMITS["MAX_COMPONENT_DIM"].value),
    order=around(2),
    objects=around(LIMITS["MAX_OBJECTS"].value),
    action=st.sampled_from(["ideals", "spc", "localize"]),
)
def test_two_ring_sizes_fuzzed(capsys, tmp_path, base, char, dim, order, objects, action):
    obj = two_ring_to_obj(build_two_ring(base))
    obj["char"] = max(pick(char, obj["char"]), 2)
    obj["dims"]["0->0"] = pick(dim, obj["dims"]["0->0"])
    obj["group_orders"] = [max(pick(order, 2), 1)]
    extra = int(min(pick(objects, 2), 10**5)) - 2
    obj["objects"] += [f"extra{i}" for i in range(extra)]
    path = write_json(tmp_path, "two_ring.json", obj)
    code, seconds = run_main(["tworing", action, "--input", path])
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert seconds <= ROW_SECONDS["tworing"]
