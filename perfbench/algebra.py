"""algebra: graded rings, pattern posets and tabulated 2-rings; no group work.

Each round runs seeded random monomial graded rings with 6 to 11
non-invertible generators, every shipped 2-ring and tightening (with seeded
localization systems), and the shipped comparison fixtures.  The rings with
nine or more free generators are redrawn until their pattern count lies
within one percent of a fixed share of all subsets, so that the pattern
poset, whose cost grows with the square of the pattern count, has about the
same size for every seed.
"""

from __future__ import annotations

import math
import random

from ttperiods import comparison, graded, sections_catalog, spaces, tworing
from ttperiods import tworing_catalog

from measure import Op

TAIL_PCT = 95.0
FREE_SIZES = (6, 7, 8, 9, 9, 10, 10, 11, 11)
TARGET_YIELD = 0.6
YIELD_SLACK = 0.01
DEGREES = (1, 2, 3, 4, 6)


def hitting_count(n_free: int, forced: int, supports: list[int]) -> int:
    """Subsets (as bitmasks) that contain forced and meet every support.

    Inclusion-exclusion over the supports a subset misses: for each set T of
    supports, the subsets containing forced and avoiding every support in T.
    """
    total = 0
    for pick in range(1 << len(supports)):
        avoided = 0
        for j, support in enumerate(supports):
            if pick >> j & 1:
                avoided |= support
        if avoided & forced:
            continue
        sign = -1 if bin(pick).count("1") % 2 else 1
        total += sign * (1 << (n_free - bin(forced | avoided).count("1")))
    return total


def random_ring(rng: random.Random, n_free: int):
    """A monomial presentation with n_free non-invertible generators.

    Returns the ring and its expected pattern count.
    """
    names = [f"x{i}" for i in range(n_free)]
    target = TARGET_YIELD * (1 << n_free)
    while True:
        # The pattern count depends only on the supports and the nilpotent
        # generators, so a draw is kept or dropped before building a ring.
        nilpotent = set(rng.sample(names, rng.choice((0, 0, 1))))
        supports = [rng.sample(names, rng.randint(2, 4)) for _ in range(rng.randint(1, 4))]
        forced = sum(1 << names.index(v) for v in nilpotent)
        masks = [sum(1 << names.index(v) for v in support) for support in supports]
        count = hitting_count(n_free, forced, masks)
        if n_free >= 9 and abs(count - target) > YIELD_SLACK * target:
            continue
        char = rng.choice((2, 3, 5))
        gens = [(n, rng.choice(DEGREES), False, n in nilpotent) for n in names]
        for k in range(rng.randint(0, 2)):
            odd_ok = char == 2
            gens.append((f"u{k}", rng.choice(DEGREES if odd_ok else (2, 4, 6)), True))
        relations = [[(1, {v: rng.randint(1, 2) for v in support})] for support in supports]
        ring = graded.make_ring(char, gens, relations)
        if graded.validate_presentation(ring):
            return ring, count


def _ring_ops(ring, n_patterns: int, label: str) -> list[Op]:
    state: dict = {}
    oracle: dict = {}
    bound = 3 * math.lcm(*(g.degree for g in ring.generators if g.degree > 0))

    def patterns():
        state.clear()
        state["model"] = graded.enumerate_patterns(ring)
        return state["model"]

    def patterns_check(model):
        got = len(model.space.points)
        return None if got == n_patterns else f"{got} patterns, bitmask count {n_patterns}"

    def periods():
        model = state["model"]
        state["periods"] = {
            q: graded.local_period(ring, model.patterns[q]) for q in model.space.points
        }
        return state["periods"]

    def periods_check(got):
        model = state["model"]
        for q in model.space.points:
            if q not in oracle:
                oracle[q] = graded.oracle_local_period(ring, model.patterns[q], bound)
            if got[q] != oracle[q]:
                return f"local period {got[q]} != oracle {oracle[q]} at {q}"
        return None

    def locus_check(locus):
        want = frozenset(q for q, v in oracle.items() if v > 0)
        return None if locus == want else "periodic locus differs from oracle periods"

    return [
        Op(f"{label}/patterns", patterns, "graded", check=patterns_check),
        Op(f"{label}/local_period", periods, "graded", check=periods_check),
        Op(f"{label}/periodic_locus",
           lambda: graded.periodic_locus(ring, state["model"], spaces.ALL),
           "graded", check=locus_check),
        Op(f"{label}/period_map",
           lambda: spaces.check_period_map(state["model"].space, state["periods"]),
           "spaces", check=lambda d: None if d else d.describe()),
    ]


def _two_ring_ops(name: str) -> list[Op]:
    R2 = tworing_catalog.build_two_ring(name)
    expected: dict = {}

    def ideals_check(lattice):
        ideals = list(lattice)
        if len(set(ideals)) != len(ideals):
            return "repeated ideal"
        if not all(lattice.bottom() <= i <= lattice.top() for i in ideals):
            return "ideal outside bottom..top"
        return None

    def spc_check(model):
        if "primes" not in expected:
            expected["primes"] = sum(
                1 for i in tworing.homogeneous_ideals(R2) if tworing.is_prime_two(R2, i)
            )
        got = len(model.points)
        return None if got == expected["primes"] else f"{got} points, {expected['primes']} primes"

    return [
        Op(f"algebra/tworing/{name}/ideals", lambda: tworing.homogeneous_ideals(R2),
           "tworing", check=ideals_check),
        Op(f"algebra/tworing/{name}/spc", lambda: tworing.spc(R2), "tworing",
           check=spc_check),
    ]


def random_system(rng: random.Random, T) -> list:
    """One or two nonzero homogeneous ring elements (degree, vector)."""
    comps = [(deg, dim) for deg, dim in sorted(T.ring.dims.items()) if dim > 0]
    out = []
    for _ in range(rng.randint(1, 2)):
        deg, dim = rng.choice(comps)
        vec = [0] * dim
        while not any(vec):
            vec = [rng.randrange(T.ring.char) for _ in range(dim)]
        out.append((deg, tuple(vec)))
    return out


def _tightening_ops(name: str, rng: random.Random) -> list[Op]:
    T, R2 = tworing_catalog.build_tightening(name)
    good = not name.startswith("broken")

    def verdict(d):
        return None if bool(d) == good else f"verdict {d.describe()} on {name}"

    ops = [
        Op(f"algebra/tightening/{name}/validate",
           lambda: tworing.validate_tightening(T, R2), "tworing", check=verdict),
        Op(f"algebra/tightening/{name}/agreement",
           lambda: tworing.agreement(T, R2), "tworing", check=verdict),
    ]
    if good:
        system = random_system(rng, T)
        ops.append(
            Op(f"algebra/tightening/{name}/localize",
               lambda: tworing.localization_agreement(T, R2, system), "tworing",
               check=lambda d: None if d else f"{d.describe()} for system {system}")
        )
    return ops


def _fixture_ops(name: str) -> list[Op]:
    fix = sections_catalog.build_fixture(name)

    def same(value):
        return None if value == fix.ample else f"{value} but fixture says {fix.ample}"

    return [
        Op(f"algebra/fixture/{name}/build", lambda: sections_catalog.build_fixture(name),
           "sections_catalog",
           check=lambda f: None if f.table.space == fix.table.space else "rebuilt differently"),
        Op(f"algebra/fixture/{name}/ample", lambda: comparison.is_ample(fix.table),
           "comparison", check=same),
        Op(f"algebra/fixture/{name}/embedding",
           lambda: comparison.homeo_onto_image(fix.table), "comparison", check=same),
    ]


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    blocks = []
    for k, n_free in enumerate(FREE_SIZES):
        ring, count = random_ring(rng, n_free)
        blocks.append(_ring_ops(ring, count, f"algebra/ring{k}-n{n_free}"))
    blocks += [_two_ring_ops(name) for name in tworing_catalog.TWO_RING_NAMES]
    blocks += [_tightening_ops(name, rng) for name in tworing_catalog.TIGHTENING_NAMES]
    blocks += [_fixture_ops(name) for name in sections_catalog.FIXTURE_NAMES]
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]
