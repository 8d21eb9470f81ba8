"""Groups off the catalog: the metacyclic groups C_m ⋊_r C_n.

Each group is checked at every prime dividing its order.  stmod's period
equals the Heller period of tests/oracles.py wherever both give one, every
refusal is GroupNotInCatalog and names the key it refuses or "unidentified
isomorphism type", dperm reads the same up to stratum labels on seeded
relabellings, and every Weyl group of a p-subgroup has the order and key
of the oracle's.  Orders up to 24 are here; tests_scale takes
orders 25 to 48.
"""

import functools
import math
import re
from collections import Counter

import pytest

from oracles import (
    abelian_invariants,
    commute,
    heller_period,
    p_complement,
    reference_normalizer,
    reference_weyl_key,
    section_mismatches,
)
from test_groups import CATALOG_24, relabel
from test_spectra import stratum_profiles
from ttperiods import groups, spectra
from ttperiods.cohomology import GroupNotInCatalog
from ttperiods.groups import FiniteGroup, _prime_factors, identify, weyl_group
from ttperiods.spectra import dperm_period_map, stmod_period_map

REFUSED = "refused"
RELABEL_SEEDS = (1, 2, 3)


def metacyclic_presentations(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(m, n, r) with m, n >= 2, lo < m n <= hi, 1 <= r < m prime to m and
    r^n = 1 mod m: the C_m ⋊_r C_n, isomorphic ones not merged."""
    return [
        (m, n, r)
        for m in range(2, hi // 2 + 1)
        for n in range(2, hi // m + 1)
        if lo < m * n
        for r in range(1, m)
        if math.gcd(r, m) == 1 and pow(r, n, m) == 1
    ]


@functools.cache
def metacyclic(m: int, n: int, r: int) -> FiniteGroup:
    """C_m ⋊_r C_n on m + n points: a is the m-cycle on Z_m, and b is x ↦ rx
    on Z_m times an n-cycle on the other n points."""
    a = tuple((x + 1) % m for x in range(m)) + tuple(range(m, m + n))
    b = tuple(r * x % m for x in range(m)) + tuple(m + (i + 1) % n for i in range(n))
    return FiniteGroup(m + n, [a, b], name=f"C{m}:{r}C{n}")


def _refusal_names_its_reason(G, p, exc) -> bool:
    """stmod names G's key; dperm names the stratum and its Weyl group's key.
    A group with no key is an "unidentified isomorphism type" of its order."""
    text = str(exc)
    strata = re.fullmatch(r"stratum (\S+): (.*)", text)
    if strata:
        ix = G.index
        classes = ix.p_classes(p)
        labels = dict(zip(spectra._stratum_labels(ix, classes), classes))
        W = weyl_group(G, labels[strata.group(1)].sub)
        key, order, text = W.key, W.order, strata.group(2)
    else:
        key, order = identify(G), G.order
    named = repr(key) if key else f"unidentified isomorphism type (order {order})"
    return text == f"{named} at p={p}"


@functools.cache
def corpus_outcomes(m: int, n: int, r: int) -> tuple:
    """Per prime dividing the order, (p, stmod, heller, dperm): stmod's
    periods, the Heller period (None without a normal p-complement or at
    p-rank two or more) and the dperm assembly's stratum profiles, each
    op's REFUSED in its place.  Every check of the module docstring is
    asserted on the way."""
    G = metacyclic(m, n, r)
    assert G.order == m * n
    out = []
    for p in _prime_factors(G.order):
        try:
            model, per = stmod_period_map(G, p)
        except GroupNotInCatalog as exc:
            assert _refusal_names_its_reason(G, p, exc), str(exc)
            stmod = REFUSED
        else:
            stmod = [per[q] for q in model.space.points]
        complement = p_complement(G, p)
        heller = None if complement is None else heller_period(G, p)
        if stmod != REFUSED and complement is not None:
            # One point is p-rank one, where the Heller period exists.
            assert heller == (stmod[0] if len(stmod) == 1 else None), p
        try:
            dperm = stratum_profiles(dperm_period_map(G, p))
        except GroupNotInCatalog as exc:
            assert _refusal_names_its_reason(G, p, exc), str(exc)
            for seed in RELABEL_SEEDS:
                with pytest.raises(GroupNotInCatalog):
                    dperm_period_map(relabel(G, seed), p)
            dperm = REFUSED
        else:
            for seed in RELABEL_SEEDS:
                assert stratum_profiles(dperm_period_map(relabel(G, seed), p)) == dperm, (p, seed)
        out.append((p, stmod, heller, dperm))
    return tuple(out)


def weyl_route_mismatches(G: FiniteGroup, p: int) -> list:
    """The classes of p-subgroups, by representative, whose Weyl group
    disagrees with the second route, on a fresh copy of G: W's order must
    be |N_G(H)|/|H| for the oracle normalizer, and W's key that of the
    oracle's W on the cosets of H (reference_weyl_key)."""
    fresh = FiniteGroup(G.degree, G.generators)
    bad = []
    for cls in fresh.index.p_classes(p):
        H = cls.representative
        W = weyl_group(fresh, cls.sub)
        want = (len(reference_normalizer(G, H)) // len(H), reference_weyl_key(G, H))
        if (W.order, W.key) != want:
            bad.append(sorted(H))
    return bad


def refusal_counts(presentations) -> Counter:
    """(op, "answered" or REFUSED) counted over every (group, prime) pair,
    and ("heller", outcome) for the pairs with a Heller period: "equal" where
    stmod answers, so the two were compared, else REFUSED."""
    counts = Counter()
    for mnr in presentations:
        for _, stmod, heller, dperm in corpus_outcomes(*mnr):
            counts["stmod", REFUSED if stmod == REFUSED else "answered"] += 1
            counts["dperm", REFUSED if dperm == REFUSED else "answered"] += 1
            if heller is not None:
                counts["heller", REFUSED if stmod == REFUSED else "equal"] += 1
    return counts


METACYCLIC_24 = metacyclic_presentations(0, 24)


@pytest.mark.parametrize("mnr", METACYCLIC_24, ids=lambda c: metacyclic(*c).name)
def test_metacyclic_routes_agree(mnr):
    corpus_outcomes(*mnr)


@pytest.mark.parametrize("mnr", METACYCLIC_24, ids=lambda c: metacyclic(*c).name)
def test_metacyclic_weyl_groups_match_the_oracle(mnr):
    G = metacyclic(*mnr)
    for p in _prime_factors(G.order):
        assert weyl_route_mismatches(G, p) == [], p


@pytest.mark.parametrize("mnr", METACYCLIC_24, ids=lambda c: metacyclic(*c).name)
def test_metacyclic_cyclic_reads_match_the_element_scans(mnr):
    for G in (metacyclic(*mnr), relabel(metacyclic(*mnr), 7)):
        assert section_mismatches(G, [c.sub for c in G.index.classes()]) == []


def test_structure_keys_kept_or_cleared_equal_the_oracle():
    # Fresh copies, so that no index's kept key answers in place of the
    # section; the first pass reads an empty cache, the later ones hit it.
    abelian = [G for G in CATALOG_24 + [metacyclic(*mnr) for mnr in METACYCLIC_24]
               if commute(G.generators)]
    want = [("abelian", abelian_invariants(G)) for G in abelian]
    groups._structure_key.cache_clear()
    for _ in range(3):
        assert [identify(FiniteGroup(G.degree, G.generators)) for G in abelian] == want
    info = groups._structure_key.cache_info()
    assert isinstance(info.maxsize, int) and 0 < info.currsize <= info.maxsize
    assert info.hits >= 2 * len(abelian)


def test_metacyclic_corpus_coverage():
    # Pinned so that a change in what the catalog answers shows here.  Every
    # refused pair with a Heller period is p-nilpotent, which a structural
    # route can answer.  The C3 ⋊ C8 of tests/test_cli.py is among them.
    assert (3, 8, 2) in METACYCLIC_24
    assert len(METACYCLIC_24) == 62
    assert refusal_counts(METACYCLIC_24) == {
        ("stmod", "answered"): 70,
        ("stmod", REFUSED): 42,
        ("dperm", "answered"): 68,
        ("dperm", REFUSED): 44,
        ("heller", "equal"): 52,
        ("heller", REFUSED): 13,
    }
