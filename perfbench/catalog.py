"""catalog: every group of order at most 24 at each prime dividing its order.

The groups are those of the acceptance catalog (C2^4 included), plus
point-relabellings of a few of them drawn from the seed.  Per group the ops
are the subgroup lattice, then per prime both subconjugacy routes over all
subgroup pairs, the closed-point index criterion, the stmod period map and
the dperm assembly.  Relabelled groups run stmod and dperm only.
"""

from __future__ import annotations

import random
from collections import Counter

from ttperiods import groups, spaces, spectra
from ttperiods.cohomology import GroupNotInCatalog

from measure import Op, last_frame_name

TAIL_PCT = 95.0

# Groups whose relabellings run each round, with how many relabellings.
RELABELLED = (
    ("D8", 4), ("Q8", 2), ("C2^2", 1), ("C2^3", 1), ("C3^2", 1),
    ("C8", 1), ("C12", 1), ("C16", 1), ("Q16", 1),
)

TAG_SWAP = "tag-swap"


def catalog_groups() -> list:
    out = [groups.cyclic(n) for n in range(1, 25)]
    out += [groups.dihedral(n) for n in range(4, 25, 2)]
    out += [groups.quaternion(n) for n in range(8, 25, 4)]
    out += [groups.elementary_abelian(2, r) for r in (2, 3, 4)]
    out += [groups.elementary_abelian(3, 2), groups.symmetric(3), groups.symmetric(4)]
    return out


def prime_factors(n: int) -> list[int]:
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


def _compose(a, b):
    return tuple(a[j] for j in b)


def _inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def relabel(G, sigma):
    """The same group with its points renamed by the permutation sigma."""
    sigma = tuple(sigma)
    inv = _inverse(sigma)
    gens = [_compose(sigma, _compose(g, inv)) for g in G.generators]
    return groups.FiniteGroup(G.degree, gens, name=G.name)


def p_subgroup_classes(elements, subs, p: int) -> int:
    """Conjugacy classes of p-subgroups, by conjugating in the benchmark."""
    left = {H for H in subs if set(prime_factors(len(H))) <= {p}}
    classes = 0
    while left:
        H = min(left, key=lambda K: (len(K), sorted(K)))
        orbit = set()
        for g in elements:
            gi = _inverse(g)
            orbit.add(frozenset(_compose(g, _compose(h, gi)) for h in H))
        left -= orbit
        classes += 1
    return classes


def _subgroups_problem(G, subs) -> "str | None":
    """Each member closed, no repeats, every cyclic subgroup present."""
    if len(set(subs)) != len(subs):
        return "repeated subgroup"
    found = set(subs)
    if G.elements not in found:
        return "whole group missing"
    for H in subs:
        if any(_compose(a, b) not in H for a in H for b in H):
            return f"order-{len(H)} member not closed"
    for x in G.elements:
        cyc, y = {x}, x
        while True:
            y = _compose(y, x)
            if y in cyc:
                break
            cyc.add(y)
        if frozenset(cyc) not in found:
            return "cyclic subgroup missing"
    return None


def _period_map_problem(space, periods) -> "str | None":
    diag = spaces.check_period_map(space, periods)
    return None if diag else f"not a period map: {diag.describe()}"


def _tag_multiset(asm) -> Counter:
    return Counter((asm.periods[q], asm.tags[q]) for q in asm.space.points)


def _is_c2_4_label_overflow(exc) -> bool:
    """Known defect: C2^4 at 2 runs out of stratum label suffixes."""
    return isinstance(exc, IndexError) and last_frame_name(exc) == "_stratum_labels"


def _is_tag_swap(problem) -> bool:
    """Known defect: a relabelled D8 renames the stratum an override keys on."""
    return isinstance(problem, str) and problem.startswith(TAG_SWAP)


def _group_ops(G, state: dict) -> list[Op]:
    name = G.name
    ops = []

    def enumerate_subgroups():
        state.pop(name, None)
        subs = groups.subgroups(G)
        state[name] = subs
        return subs

    ops.append(
        Op(
            id=f"catalog/{name}/subgroups",
            call=enumerate_subgroups,
            layer="groups",
            check=lambda subs: _subgroups_problem(G, subs),
        )
    )
    for p in prime_factors(G.order):
        ops.extend(_prime_ops(G, p, state))
    return ops


def _prime_ops(G, p: int, state: dict) -> list[Op]:
    name = G.name
    tag = f"catalog/{name}/p{p}"
    expected: dict = {}

    def routes(route):
        def call():
            subs = state[name]
            return [route(G, H, K, p) for H in subs for K in subs]

        return call

    def sylow_call():
        state.pop((name, p), None)
        verdicts = routes(groups.p_subconjugate_sylow)()
        state[(name, p)] = verdicts
        return verdicts

    def mackey_check(verdicts):
        sylow = state.get((name, p))
        if sylow is None:
            return "no Sylow verdicts this round"
        if sylow != verdicts:
            bad = sum(a != b for a, b in zip(sylow, verdicts))
            return f"Sylow and Mackey disagree on {bad} pairs"
        return None

    def dperm_check(asm):
        problem = _period_map_problem(asm.space, asm.periods)
        if problem:
            return problem
        if "classes" not in expected:
            expected["classes"] = p_subgroup_classes(G.elements, state[name], p)
        if len(asm.closed_points) != expected["classes"]:
            return (
                f"{len(asm.closed_points)} closed points for "
                f"{expected['classes']} p-subgroup classes"
            )
        if any(asm.periods[q] != 0 for q in asm.closed_points):
            return "periodic closed point"
        return None

    known = _is_c2_4_label_overflow if (name, p) == ("C2^4", 2) else None
    return [
        Op(f"{tag}/sylow", sylow_call, "groups",
           check=lambda v: None if len(v) == len(state[name]) ** 2 else "missing pairs"),
        Op(f"{tag}/mackey", routes(groups.p_subconjugate_mackey), "groups",
           check=mackey_check),
        Op(f"{tag}/closed_point", lambda: spectra.very_closed_point_check(G, p),
           "spectra", check=lambda d: None if d else f"index criterion: {d.describe()}"),
        Op(f"{tag}/stmod", lambda: spectra.stmod_period_map(G, p), "spectra",
           check=lambda r: _period_map_problem(r[0].space, r[1]),
           refusals=(GroupNotInCatalog,)),
        Op(f"{tag}/dperm", lambda: spectra.dperm_period_map(G, p), "spectra",
           check=dperm_check, refusals=(GroupNotInCatalog,), known=known),
    ]


def _relabelled_ops(G, base, k: int) -> list[Op]:
    ops = []
    for p in prime_factors(G.order):
        tag = f"catalog/{base.name}~{k}/p{p}"
        expected: dict = {}

        def stmod_check(result, p=p, expected=expected):
            problem = _period_map_problem(result[0].space, result[1])
            if problem:
                return problem
            if "stmod" not in expected:
                model, per = spectra.stmod_period_map(base, p)
                expected["stmod"] = Counter(per[q] for q in model.space.points)
            got = Counter(result[1][q] for q in result[0].space.points)
            return None if got == expected["stmod"] else "stmod periods differ"

        def dperm_check(asm, p=p, expected=expected):
            problem = _period_map_problem(asm.space, asm.periods)
            if problem:
                return problem
            if "dperm" not in expected:
                expected["dperm"] = _tag_multiset(spectra.dperm_period_map(base, p))
            want, got = expected["dperm"], _tag_multiset(asm)
            if got == want:
                return None
            periods = lambda c: sorted(v for (v, _), n in c.items() for _ in range(n))
            swapped = {t for (_, t) in (got - want) + (want - got)}
            if periods(got) == periods(want) and swapped <= {
                spectra.TAG_DATASET, spectra.TAG_BOUND
            }:
                return f"{TAG_SWAP}: {dict(want - got)} became {dict(got - want)}"
            return f"(period, tag) multiset differs from {base.name}"

        known = _is_tag_swap if (base.name, p) == ("D8", 2) else None
        ops.append(Op(f"{tag}/stmod", lambda G=G, p=p: spectra.stmod_period_map(G, p),
                      "spectra", check=stmod_check, refusals=(GroupNotInCatalog,)))
        ops.append(Op(f"{tag}/dperm", lambda G=G, p=p: spectra.dperm_period_map(G, p),
                      "spectra", check=dperm_check, refusals=(GroupNotInCatalog,),
                      known=known))
    return ops


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    state: dict = {}
    catalog = catalog_groups()
    by_name = {G.name: G for G in catalog}
    blocks = [_group_ops(G, state) for G in catalog]
    for name, copies in RELABELLED:
        base = by_name[name]
        for k in range(copies):
            sigma = list(range(base.degree))
            rng.shuffle(sigma)
            blocks.append(_relabelled_ops(relabel(base, sigma), base, k))
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]
