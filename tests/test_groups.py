"""Permutation-group machinery and the p-subconjugacy order."""

import hashlib
import random
from collections import Counter

import pytest

from ttperiods import groups
from ttperiods.cohomology import catalog_section, rep_period_map
from ttperiods.diagnostics import LIMITS, SizeBound
from ttperiods.groups import (
    FiniteGroup,
    GroupError,
    NotSubgroup,
    compose,
    cyclic,
    dihedral,
    elementary_abelian,
    group_from_obj,
    group_to_obj,
    identify,
    identity,
    inverse,
    name_for_key,
    p_subconjugate,
    p_subconjugate_mackey,
    p_subconjugate_sylow,
    perm_from_cycles,
    perm_to_cycles,
    quaternion,
    subgroup_classes,
    subgroups,
    symmetric,
    weyl_group,
    _prime_factors,
)
from ttperiods.spectra import artin_tower, dperm_strata

from oracles import (
    abelian_invariants,
    conjugate_subgroup,
    is_dedekind,
    mulclose,
    oracle_p_subconjugate,
    p_equivalence_classes,
    perm_order,
    reference_weyl_group,
    section_mismatches,
    small_generators,
)


def cyc(degree, *cycles):
    return perm_from_cycles(degree, list(cycles))


def _catalog_order_24():
    out = [cyclic(n) for n in range(1, 25)]
    out += [dihedral(n) for n in range(4, 25, 2)]
    out += [quaternion(n) for n in range(8, 25, 4)]
    out += [elementary_abelian(2, r) for r in (2, 3, 4)]
    out += [elementary_abelian(3, 2), symmetric(3), symmetric(4)]
    return out


CATALOG_24 = _catalog_order_24()


class TestPermBasics:
    def test_compose_applies_right_first(self):
        p = cyc(3, [1, 2])
        q = cyc(3, [2, 3])
        assert compose(p, q) == cyc(3, [1, 2, 3])

    def test_inverse(self):
        p = cyc(4, [1, 2, 3, 4])
        assert compose(p, inverse(p)) == identity(4)

    def test_order(self):
        assert perm_order(cyc(6, [1, 2], [3, 4, 5])) == 6
        assert perm_order(identity(5)) == 1

    def test_cycle_roundtrip(self):
        p = cyc(6, [1, 4], [2, 5, 6])
        assert perm_from_cycles(6, perm_to_cycles(p)) == p

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(GroupError):
            perm_from_cycles(4, [[1, 2], [2, 3]])


class TestConstructors:
    def test_orders(self):
        assert cyclic(6).order == 6
        assert dihedral(8).order == 8
        assert quaternion(8).order == 8
        assert quaternion(16).order == 16
        assert quaternion(24).order == 24
        assert elementary_abelian(2, 3).order == 8
        assert symmetric(4).order == 24
        assert symmetric(1).order == 1

    def test_bad_parameters(self):
        with pytest.raises(GroupError):
            quaternion(14)
        for n in (0, 5):
            with pytest.raises(GroupError, match=f"degree 1 to 4 only, not {n}"):
                symmetric(n)
        with pytest.raises(GroupError):
            elementary_abelian(4, 2)

    def test_order_bound_enforced(self):
        limit = LIMITS["MAX_GROUP_ORDER"].value
        with pytest.raises(SizeBound, match=f"MAX_GROUP_ORDER = {limit}: .* is {limit + 1}$"):
            cyclic(limit + 1)
        # C2 x C367 has order 734: only its closure passes the limit.
        gens = [cyc(369, [1, 2]), cyc(369, list(range(3, 370)))]
        with pytest.raises(SizeBound, match=f"MAX_GROUP_ORDER = {limit}: .* is at least {limit + 1}$"):
            FiniteGroup(369, gens)

    def test_non_permutation_rejected(self):
        with pytest.raises(GroupError):
            FiniteGroup(3, [(0, 0, 1)])


class TestSubgroups:
    def test_q8_has_six_classes(self):
        classes = subgroup_classes(quaternion(8))
        assert [c.order for c in classes] == [1, 2, 4, 4, 4, 8]
        # One subgroup per class: Q8 is Dedekind.
        assert all(len(c.members) == 1 for c in classes)

    def test_trivial_group_single_class(self):
        assert len(subgroup_classes(cyclic(1))) == 1

    def test_s3_has_four_classes(self):
        classes = subgroup_classes(symmetric(3))
        assert [c.order for c in classes] == [1, 2, 3, 6]
        by_order = {c.order: c for c in classes}
        assert len(by_order[2].members) == 3

    def test_s4_class_count(self):
        assert len(subgroup_classes(symmetric(4))) == 11
        assert len(subgroups(symmetric(4))) == 30

    def test_conjugates_partition(self):
        G = symmetric(3)
        classes = subgroup_classes(G)
        all_subs = set(subgroups(G))
        listed = [c.index.frozen(K) for c in classes for K in c.members]
        assert len(listed) == len(all_subs) and set(listed) == all_subs

    def test_lost_class_is_a_library_bug(self, monkeypatch):
        fuse = groups.GroupIndex._fuse
        monkeypatch.setattr(groups.GroupIndex, "_fuse", lambda ix, subs: fuse(ix, subs)[:-1])
        with pytest.raises(RuntimeError, match="conjugation left the subgroup lattice"):
            subgroup_classes(symmetric(3))


class TestWeylGroups:
    """W's order and key against the oracle's W, N_G(H)/H acting on cosets."""

    def test_q8_center_gives_klein_four(self):
        G = quaternion(8)
        center = min((c.representative for c in subgroup_classes(G) if c.order == 2), key=sorted)
        W = weyl_group(G, center)
        assert W.key == identify(reference_weyl_group(G, center)) == ("abelian", (2, 2))
        assert W.name == "C2^2"

    def test_whole_group_gives_trivial_weyl(self):
        G = quaternion(8)
        assert weyl_group(G, G.elements).order == 1

    def test_d8_non_normal_reflection_gives_c2(self):
        G = dihedral(8)
        non_normal = [
            c
            for c in subgroup_classes(G)
            if c.order == 2 and len(c.members) > 1
        ]
        assert len(non_normal) == 2
        for c in non_normal:
            W = weyl_group(G, c.representative)
            assert W.key == identify(reference_weyl_group(G, c.representative)) == ("abelian", (2,))

    def test_trivial_subgroup_recovers_group(self):
        for G in (cyclic(6), quaternion(8), symmetric(3)):
            trivial = frozenset({identity(G.degree)})
            W = weyl_group(G, trivial)
            assert W.order == G.order == reference_weyl_group(G, trivial).order
            assert W.key == identify(G)

    def test_the_catalog_reads_the_record(self):
        # The catalog reads a Weyl group's record as it is, and a group as
        # the same record of its order and key: S4/1 is S4, unrecognized.
        G = symmetric(4)
        trivial = weyl_group(G, frozenset({identity(4)}))
        for W in (trivial, weyl_group(G, G.elements)):
            assert catalog_section(W) is W
        assert catalog_section(G) == trivial == (24, None, None)

    def test_not_a_subgroup(self):
        G = symmetric(3)
        with pytest.raises(NotSubgroup):
            weyl_group(G, frozenset({cyc(3, [1, 2])}))

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_kept_weyl_groups_match_the_oracle(self, G):
        # Every subgroup class of every catalog group; each W is read once
        # per subgroup and kept.  S4 has Weyl groups the catalog names and
        # ones it does not (S4 and S3).
        classes = subgroup_classes(G)
        named = 0
        for c in classes:
            W = weyl_group(G, c.representative)
            ref = reference_weyl_group(G, c.representative)
            assert (W.order, W.key) == (ref.order, identify(ref))
            assert W.name == name_for_key(W.key)
            assert weyl_group(G, c.representative) is W
            named += W.key is not None
        if G.name == "S4":
            assert 0 < named < len(classes)


class TestSylow:
    @staticmethod
    def sylow(G, p):
        ix = G.index
        return ix.frozen(ix.sylow(ix.whole(), p))

    def test_s3_sylow_two(self):
        assert len(self.sylow(symmetric(3), 2)) == 2

    def test_prime_not_dividing_gives_trivial(self):
        assert len(self.sylow(symmetric(3), 5)) == 1

    def test_p_group_is_its_own_sylow(self):
        G = quaternion(8)
        assert self.sylow(G, 2) == G.elements

    def test_s4_sylow_orders(self):
        assert len(self.sylow(symmetric(4), 2)) == 8
        assert len(self.sylow(symmetric(4), 3)) == 3

    @pytest.mark.parametrize("p", [0, 1, 4])
    @pytest.mark.parametrize("build", [lambda: cyclic(4), lambda: dihedral(8)], ids=["C4", "D8"])
    def test_p_subgroup_classes_refuse_a_non_prime(self, build, p):
        # At p = 1 the Sylow search never ended, and at p = 0 it divided by
        # zero; a number that is not prime is refused, on every call.
        G = build()
        for call in (G.index.p_classes, lambda q: dperm_strata(G, q)):
            for _ in range(2):
                with pytest.raises(GroupError, match=f"^{p} is not prime$"):
                    call(p)


class TestPSubconjugate:
    def test_s3_reflection_not_below_rotation(self):
        G = symmetric(3)
        H = mulclose([cyc(3, [1, 2])])
        Hp = mulclose([cyc(3, [1, 2, 3])])
        assert p_subconjugate_sylow(G, H, Hp, 2) is False
        assert p_subconjugate_mackey(G, H, Hp, 2) is False
        # The other way: the rotation has trivial Sylow 2-subgroup.
        assert p_subconjugate(G, Hp, H, 2) is True

    def test_route_disagreement_is_a_library_bug(self, monkeypatch):
        G = symmetric(3)
        H = mulclose([cyc(3, [1, 2])])
        monkeypatch.setattr(groups, "p_subconjugate_mackey", lambda *args: not p_subconjugate_sylow(*args))
        with pytest.raises(RuntimeError, match="subconjugacy criteria disagree"):
            p_subconjugate(G, H, H, 2)

    def test_reflexive(self):
        G = dihedral(8)
        for c in subgroup_classes(G):
            assert p_subconjugate(G, c.representative, c.representative, 2)

    def test_coprime_order_below_everything(self):
        G = symmetric(3)
        H = mulclose([cyc(3, [1, 2, 3])])
        trivial = frozenset({identity(3)})
        assert p_subconjugate(G, H, trivial, 2) is True

    def test_routes_agree_exhaustively(self):
        for G in (symmetric(3), dihedral(8), quaternion(8), symmetric(4)):
            reps = [c.representative for c in subgroup_classes(G)]
            for p in (2, 3):
                for H in reps:
                    for Hp in reps:
                        p_subconjugate(G, H, Hp, p)

    def test_transitive_on_s4(self):
        G = symmetric(4)
        reps = [c.representative for c in subgroup_classes(G)]
        le = [
            [p_subconjugate(G, a, b, 2) for b in reps] for a in reps
        ]
        n = len(reps)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if le[i][j] and le[j][k]:
                        assert le[i][k]

    @pytest.mark.parametrize("p", [4, 1])
    @pytest.mark.parametrize("route", [p_subconjugate_sylow, p_subconjugate_mackey])
    def test_non_prime_refused(self, route, p):
        G = dihedral(8)
        H = frozenset({identity(4)})
        with pytest.raises(GroupError, match=f"^{p} is not prime$"):
            route(G, H, G.elements, p)

    def test_conjugation_invariance(self):
        G = symmetric(4)
        classes = subgroup_classes(G)
        H = classes[2].representative
        Hp = classes[4].representative
        base = p_subconjugate(G, H, Hp, 2)
        for g in sorted(G.elements)[:6]:
            assert p_subconjugate(G, conjugate_subgroup(g, H), Hp, 2) == base
            assert p_subconjugate(G, H, conjugate_subgroup(g, Hp), 2) == base


class TestPEquivalence:
    def test_s3_at_two(self):
        blocks = p_equivalence_classes(symmetric(3), 2)
        orders = sorted(sorted(c.order for c in block) for block in blocks)
        assert orders == [[1, 3], [2, 6]]

    def test_p_group_blocks_are_classes(self):
        G = quaternion(8)
        blocks = p_equivalence_classes(G, 2)
        assert len(blocks) == len(subgroup_classes(G))
        assert all(len(b) == 1 for b in blocks)

    def test_trivial_group(self):
        assert len(p_equivalence_classes(cyclic(1), 2)) == 1

    def test_s4_at_three(self):
        blocks = p_equivalence_classes(symmetric(4), 3)
        # 3-subgroup classes of S4: trivial and C3, so exactly two blocks.
        assert len(blocks) == 2


class TestDedekind:
    def test_quaternion_is_dedekind(self):
        assert is_dedekind(quaternion(8)) is True

    def test_dihedral_is_not(self):
        assert is_dedekind(dihedral(8)) is False

    def test_abelian_groups_are(self):
        assert is_dedekind(cyclic(12)) is True
        assert is_dedekind(elementary_abelian(2, 2)) is True

    def test_symmetric_three_is_not(self):
        assert is_dedekind(symmetric(3)) is False


class TestIdentify:
    def test_catalog_keys(self):
        assert identify(cyclic(1)) == ("abelian", ())
        assert identify(cyclic(6)) == ("abelian", (6,))
        assert identify(elementary_abelian(3, 2)) == ("abelian", (3, 3))
        assert identify(elementary_abelian(2, 1)) == ("abelian", (2,))
        assert identify(dihedral(8)) == ("dihedral", 8)
        assert identify(quaternion(8)) == ("quaternion", 8)
        assert identify(quaternion(16)) == ("quaternion", 16)
        assert identify(quaternion(24)) == ("quaternion", 24)

    def test_mixed_abelian(self):
        two = cyc(6, [1, 2])
        four = cyc(6, [3, 4, 5, 6])
        G = FiniteGroup(6, [two, four])
        assert identify(G) == ("abelian", (2, 4))

    def test_c4_squared_is_not_elementary_abelian(self):
        G = FiniteGroup(8, [cyc(8, [1, 2, 3, 4]), cyc(8, [5, 6, 7, 8])])
        assert abelian_invariants(G) == (4, 4)
        assert identify(G) == ("abelian", (4, 4))
        assert name_for_key(identify(G)) == "C4xC4"
        gens = rep_period_map(G, 2)[0].ring.generators
        assert [(g.name, g.degree) for g in gens] == [("y1", 2), ("y2", 2)]

    def test_unidentified_returns_none(self):
        assert identify(symmetric(4)) is None
        assert identify(symmetric(3)) is None

    def test_names(self):
        assert name_for_key(("abelian", ())) == "1"
        assert name_for_key(("abelian", (4,))) == "C4"
        assert name_for_key(("abelian", (2, 2))) == "C2^2"
        assert name_for_key(("quaternion", 8)) == "Q8"
        assert name_for_key(("abelian", (2, 4))) == "C2xC4"
        assert name_for_key(None) is None

    def test_abelian_invariants(self):
        assert abelian_invariants(cyclic(12)) == (12,)
        assert abelian_invariants(elementary_abelian(2, 3)) == (2, 2, 2)
        two = cyc(6, [1, 2])
        four = cyc(6, [3, 4, 5, 6])
        assert abelian_invariants(FiniteGroup(6, [two, four])) == (2, 4)

    def test_counts_that_are_not_a_group_raise(self):
        # Three elements and none of order dividing 3, not even an identity:
        # an internal miscount raises instead of looping.
        with pytest.raises(RuntimeError, match="are not a group's"):
            groups._abelian_invariants(Counter({2: 3}))


class TestNormalizer:
    def test_normal_subgroup_has_full_normalizer(self):
        G = dihedral(8)
        rot = mulclose([cyc(4, [1, 2, 3, 4])])
        ix = G.index
        assert ix.normalizer(ix.require(rot)) == (1 << G.order) - 1

    def test_non_normal_reflection(self):
        G = dihedral(8)
        refl = mulclose([cyc(4, [2, 4])])
        ix = G.index
        assert ix.normalizer(ix.require(refl)).bit_count() == 4


class TestSerialization:
    def test_roundtrip(self):
        # The named constructors at their largest accepted orders: every
        # group the CLI builds from a name passes the checks of a JSON group.
        largest = (cyclic(729), dihedral(728), quaternion(728),
                   elementary_abelian(3, 6), elementary_abelian(2, 9))
        for G in (dihedral(8), quaternion(8), symmetric(4), cyclic(1), *largest):
            assert G.degree <= LIMITS["MAX_DEGREE"].value
            back = group_from_obj(group_to_obj(G))
            assert back == G and back.name == G.name

    def test_malformed_rejected(self):
        with pytest.raises(GroupError):
            group_from_obj({"generators": [[[1, 2]]]})


# -- pinned kernel results ---------------------------------------------
#
# Captured from the tuple-by-tuple kernel over the order-<=24 catalog.  Per
# group: identify key, number of subgroups, and per conjugacy class of
# subgroups (in subgroup_classes order) "order/class size/normalizer
# order/Weyl name", runs of equal rows written "row*k".  The verdict digest
# hashes the Sylow route's verdicts over all ordered subgroup pairs at each
# prime dividing the order (the Mackey route must agree pair by pair).


def _class_rows(G):
    rows = []
    for c in subgroup_classes(G):
        row = f"{c.order}/{len(c.members)}/{G.index.normalizer(c.sub).bit_count()}"
        row += f"/{weyl_group(G, c.representative).name}"
        if rows and rows[-1][0] == row:
            rows[-1][1] += 1
        else:
            rows.append([row, 1])
    return " ".join(r if k == 1 else f"{r}*{k}" for r, k in rows)


def _verdict_digest(G):
    subs = subgroups(G)
    h = hashlib.sha256()
    for p in _prime_factors(G.order):
        bits = []
        for H in subs:
            for K in subs:
                a = p_subconjugate_sylow(G, H, K, p)
                assert a == p_subconjugate_mackey(G, H, K, p), (G.name, p)
                bits.append("1" if a else "0")
        h.update(f"{p}:{''.join(bits)};".encode())
    return h.hexdigest()[:16]


PINNED_LATTICES = {
    'C1': (('abelian', ()), 1, '1/1/1/1'),
    'C2': (('abelian', (2,)), 2, '1/1/2/C2 2/1/2/1'),
    'C3': (('abelian', (3,)), 2, '1/1/3/C3 3/1/3/1'),
    'C4': (('abelian', (4,)), 3, '1/1/4/C4 2/1/4/C2 4/1/4/1'),
    'C5': (('abelian', (5,)), 2, '1/1/5/C5 5/1/5/1'),
    'C6': (('abelian', (6,)), 4, '1/1/6/C6 2/1/6/C3 3/1/6/C2 6/1/6/1'),
    'C7': (('abelian', (7,)), 2, '1/1/7/C7 7/1/7/1'),
    'C8': (('abelian', (8,)), 4, '1/1/8/C8 2/1/8/C4 4/1/8/C2 8/1/8/1'),
    'C9': (('abelian', (9,)), 3, '1/1/9/C9 3/1/9/C3 9/1/9/1'),
    'C10': (('abelian', (10,)), 4, '1/1/10/C10 2/1/10/C5 5/1/10/C2 10/1/10/1'),
    'C11': (('abelian', (11,)), 2, '1/1/11/C11 11/1/11/1'),
    'C12': (
        ('abelian', (12,)),
        6,
        '1/1/12/C12 2/1/12/C6 3/1/12/C4 4/1/12/C3 6/1/12/C2 12/1/12/1',
    ),
    'C13': (('abelian', (13,)), 2, '1/1/13/C13 13/1/13/1'),
    'C14': (('abelian', (14,)), 4, '1/1/14/C14 2/1/14/C7 7/1/14/C2 14/1/14/1'),
    'C15': (('abelian', (15,)), 4, '1/1/15/C15 3/1/15/C5 5/1/15/C3 15/1/15/1'),
    'C16': (('abelian', (16,)), 5, '1/1/16/C16 2/1/16/C8 4/1/16/C4 8/1/16/C2 16/1/16/1'),
    'C17': (('abelian', (17,)), 2, '1/1/17/C17 17/1/17/1'),
    'C18': (
        ('abelian', (18,)),
        6,
        '1/1/18/C18 2/1/18/C9 3/1/18/C6 6/1/18/C3 9/1/18/C2 18/1/18/1',
    ),
    'C19': (('abelian', (19,)), 2, '1/1/19/C19 19/1/19/1'),
    'C20': (
        ('abelian', (20,)),
        6,
        '1/1/20/C20 2/1/20/C10 4/1/20/C5 5/1/20/C4 10/1/20/C2 20/1/20/1',
    ),
    'C21': (('abelian', (21,)), 4, '1/1/21/C21 3/1/21/C7 7/1/21/C3 21/1/21/1'),
    'C22': (('abelian', (22,)), 4, '1/1/22/C22 2/1/22/C11 11/1/22/C2 22/1/22/1'),
    'C23': (('abelian', (23,)), 2, '1/1/23/C23 23/1/23/1'),
    'C24': (
        ('abelian', (24,)),
        8,
        '1/1/24/C24 2/1/24/C12 3/1/24/C8 4/1/24/C6 6/1/24/C4 8/1/24/C3 12/1/24/C2 24/1/24/1',
    ),
    'D4': (('abelian', (2,)), 2, '1/1/2/C2 2/1/2/1'),
    'D6': (None, 6, '1/1/6/None 2/3/2/1 3/1/6/C2 6/1/6/1'),
    'D8': (('dihedral', 8), 10, '1/1/8/D8 2/2/4/C2*2 2/1/8/C2^2 4/1/8/C2*3 8/1/8/1'),
    'D10': (None, 8, '1/1/10/None 2/5/2/1 5/1/10/C2 10/1/10/1'),
    'D12': (
        None,
        16,
        '1/1/12/None 2/3/4/C2*2 2/1/12/None 3/1/12/C2^2 4/3/4/1 6/1/12/C2*3 12/1/12/1',
    ),
    'D14': (None, 10, '1/1/14/None 2/7/2/1 7/1/14/C2 14/1/14/1'),
    'D16': (
        None,
        19,
        '1/1/16/None 2/4/4/C2*2 2/1/16/D8 4/2/8/C2*2 4/1/16/C2^2 8/1/16/C2*3 16/1/16/1',
    ),
    'D18': (None, 16, '1/1/18/None 2/9/2/1 3/1/18/None 6/3/6/1 9/1/18/C2 18/1/18/1'),
    'D20': (
        None,
        22,
        '1/1/20/None 2/5/4/C2*2 2/1/20/None 4/5/4/1 5/1/20/C2^2 10/1/20/C2*3 20/1/20/1',
    ),
    'D22': (None, 14, '1/1/22/None 2/11/2/1 11/1/22/C2 22/1/22/1'),
    'D24': (
        None,
        34,
        '1/1/24/None 2/6/4/C2*2 2/1/24/None 3/1/24/D8 4/3/8/C2*2 4/1/24/None 6/2/12/C2*2 6/1/24/C2^2 8/3/8/1 12/1/24/C2*3 24/1/24/1',
    ),
    'Q8': (('quaternion', 8), 6, '1/1/8/Q8 2/1/8/C2^2 4/1/8/C2*3 8/1/8/1'),
    'Q12': (
        ('quaternion', 12),
        8,
        '1/1/12/Q12 2/1/12/None 3/1/12/C4 4/3/4/1 6/1/12/C2 12/1/12/1',
    ),
    'Q16': (
        ('quaternion', 16),
        11,
        '1/1/16/Q16 2/1/16/D8 4/1/16/C2^2 4/2/8/C2*2 8/1/16/C2*3 16/1/16/1',
    ),
    'Q20': (
        ('quaternion', 20),
        10,
        '1/1/20/Q20 2/1/20/None 4/5/4/1 5/1/20/C4 10/1/20/C2 20/1/20/1',
    ),
    'Q24': (
        ('quaternion', 24),
        18,
        '1/1/24/Q24 2/1/24/None 3/1/24/Q8 4/1/24/None 4/3/8/C2*2 6/1/24/C2^2 8/3/8/1 12/1/24/C2*3 24/1/24/1',
    ),
    'C2^2': (('abelian', (2, 2)), 5, '1/1/4/C2^2 2/1/4/C2*3 4/1/4/1'),
    'C2^3': (('abelian', (2, 2, 2)), 16, '1/1/8/C2^3 2/1/8/C2^2*7 4/1/8/C2*7 8/1/8/1'),
    'C2^4': (
        ('abelian', (2, 2, 2, 2)),
        67,
        '1/1/16/C2^4 2/1/16/C2^3*15 4/1/16/C2^2*35 8/1/16/C2*15 16/1/16/1',
    ),
    'C3^2': (('abelian', (3, 3)), 6, '1/1/9/C3^2 3/1/9/C3*4 9/1/9/1'),
    'S3': (None, 6, '1/1/6/None 2/3/2/1 3/1/6/C2 6/1/6/1'),
    'S4': (
        None,
        30,
        '1/1/24/None 2/6/4/C2 2/3/8/C2^2 3/4/6/C2 4/3/8/C2 4/1/24/None 4/3/8/C2 6/4/6/1 8/3/8/1 12/1/24/C2 24/1/24/1',
    ),
}
PINNED_VERDICT_DIGESTS = {
    'C1': 'e3b0c44298fc1c14',
    'C2': 'f5b754c9803cf746',
    'C3': '911d791da6168732',
    'C4': '82a613edcf29fdf8',
    'C5': '536862cfa0466435',
    'C6': '4d7336e582362a41',
    'C7': 'afb5782393c12e97',
    'C8': '864a206bf7a42b7f',
    'C9': '21af23ebcc9b9078',
    'C10': '67e73c216477cacf',
    'C11': '1107a78e92a73372',
    'C12': '22b0df491688fed0',
    'C13': '007361c30d8a4a29',
    'C14': '0624703e9f38273e',
    'C15': 'c5cbf3822f86b359',
    'C16': '2b24760d33defb5b',
    'C17': 'f9465efaa2a8c6d3',
    'C18': 'a62b7d30a41f3ee3',
    'C19': '538a26eee7d73758',
    'C20': '8b5c91e2eb053d21',
    'C21': 'a6d3a3e2bb68ccb3',
    'C22': '5c02ec73d4fee459',
    'C23': '1b6d7cbe67a3d113',
    'C24': 'f75bd8606b8981a2',
    'D4': 'f5b754c9803cf746',
    'D6': '76c9f59529f884d6',
    'D8': '773cfa61d0b5e657',
    'D10': '145ed3590bd7cc72',
    'D12': '2ba3c0a5bf945182',
    'D14': 'ee3c17986a7e5f26',
    'D16': '5705e983ab34c11b',
    'D18': 'd6585e484c2066c3',
    'D20': 'bc3a86be6c5dedd1',
    'D22': 'f5f8c0f8961e1450',
    'D24': '53c39214f59b0aa6',
    'Q8': '78cad670f6c8bf7b',
    'Q12': 'ad37b092f8cd993f',
    'Q16': '8922294dd9dac505',
    'Q20': '7b67edd4bc99b074',
    'Q24': '7b41b1756d744591',
    'C2^2': '375730d5e5a6799e',
    'C2^3': '1ea5521a52c3482c',
    'C2^4': '8980761efe0ffbce',
    'C3^2': 'ef05bad5dd1c22f1',
    'S3': '76c9f59529f884d6',
    'S4': 'be5ccb3c521ef46a',
}


def relabel(G, seed):
    """The same group with its points renamed by a seeded permutation."""
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    sigma = tuple(sigma)
    gens = [compose(sigma, compose(g, inverse(sigma))) for g in G.generators]
    return FiniteGroup(G.degree, gens, name=f"{G.name}~{seed}")


def route_oracle_mismatches(G):
    """Every (p, H, K) over all subgroup pairs, at each prime dividing the
    order, where the Sylow or the Mackey route differs from
    oracle_p_subconjugate."""
    subs = subgroups(G)
    out = []
    for p in _prime_factors(G.order):
        for H in subs:
            for K in subs:
                want = oracle_p_subconjugate(G, H, K, p)
                got = (p_subconjugate_sylow(G, H, K, p), p_subconjugate_mackey(G, H, K, p))
                if got != (want, want):
                    out.append((p, sorted(H), sorted(K), got, want))
    return out


class TestPinnedKernel:
    def test_catalog_names_are_pinned(self):
        assert [G.name for G in CATALOG_24] == list(PINNED_LATTICES)

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_lattice(self, G):
        key, count, rows = PINNED_LATTICES[G.name]
        assert identify(G) == key
        assert len(subgroups(G)) == count
        assert _class_rows(G) == rows

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_verdict_digest(self, G):
        assert _verdict_digest(G) == PINNED_VERDICT_DIGESTS[G.name]

    @pytest.mark.parametrize("p,depth", [(3, 5), (3, 6), (7, 3)])
    def test_deep_towers_match_closed_form(self, p, depth):
        rep = artin_tower(p, depth)
        want = {f"m{j}": 0 for j in range(depth + 1)}
        want.update({f"s{j}": 2 for j in range(1, depth + 1)})
        assert dict(rep.chain_periods.values) == want


class TestIndex:
    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_table_axioms(self, G):
        ix = G.index
        n, table, inv = G.order, ix.table, ix.inv
        assert ix.perms == sorted(G.elements)
        assert ix.perms[0] == identity(G.degree)
        assert list(table[0]) == list(range(n))
        assert [row[0] for row in table] == list(range(n))
        for x in range(n):
            assert table[x][inv[x]] == 0 == table[inv[x]][x]
        for a in range(n):
            ra = table[a]
            for b in range(n):
                ab, rb = ra[b], table[b]
                for c in range(n):
                    assert table[ab][c] == ra[rb[c]]

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_table_matches_tuples(self, G):
        ix = G.index
        for a, pa in enumerate(ix.perms):
            for b, pb in enumerate(ix.perms):
                assert ix.perms[ix.table[a][b]] == compose(pa, pb)
        assert ix.orders == [perm_order(x) for x in ix.perms]
        assert [ix.perms[i] for i in ix.inv] == [inverse(x) for x in ix.perms]

    def test_index_is_built_once_per_group(self):
        G = dihedral(8)
        assert G.index is G.index
        assert dihedral(8).index is not G.index

    def test_subgroup_check_on_every_call(self):
        G = symmetric(3)
        assert G.index.subgroup(mulclose([cyc(3, [1, 2])])) is not None
        assert G.index.subgroup(frozenset({cyc(3, [1, 2])})) is None
        assert G.index.subgroup(frozenset({identity(3), cyc(3, [1, 2]), cyc(3, [2, 3])})) is None
        assert G.index.subgroup(frozenset()) is None
        assert G.index.subgroup(frozenset({identity(4)})) is None
        with pytest.raises(NotSubgroup):
            G.index.require(frozenset({cyc(3, [1, 2, 3])}))
        # Stored subgroups do not let a non-subgroup through, however often
        # it is asked for.
        for H in subgroups(G):
            G.index.require(H)
        bad = frozenset({identity(3), cyc(3, [1, 2]), cyc(3, [2, 3])})
        for _ in range(2):
            assert G.index.subgroup(bad) is None
            with pytest.raises(NotSubgroup):
                G.index.require(bad)

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_class_derivations_agree(self, G):
        ix = G.index
        for H in subgroups(G):
            sub = ix.require(H)
            by_generators = set(ix.orbit(sub))
            assert by_generators == set(ix.conjugate_masks(sub))
            assert len(by_generators) == G.order // ix.normalizer(sub).bit_count()

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_identify_from_masks_matches_a_built_group(self, G):
        ix = G.index
        for sub in ix.subgroups():
            built = FiniteGroup(G.degree, sorted(ix.frozen(sub)))
            assert ix.identify(sub) == identify(built)

    @pytest.mark.parametrize("G", [symmetric(4), dihedral(24), elementary_abelian(2, 4)])
    def test_small_generators(self, G):
        for H in subgroups(G):
            gens = small_generators(G, H)
            assert mulclose(gens or [identity(G.degree)]) == H
            assert 2 ** len(gens) <= len(H)


class TestWorkCount:
    """Compositions of permutation tuples, counted rather than timed."""

    def test_tower_compositions(self, monkeypatch):
        import ttperiods.groups as groups_module

        count = [0]
        original = groups_module.compose

        def counted(p, q):
            count[0] += 1
            return original(p, q)

        walks = [0]
        walk = groups_module._closure_walk

        def counted_walk(gens):
            walks[0] += 1
            return walk(gens)

        monkeypatch.setattr(groups_module, "compose", counted)
        monkeypatch.setattr(groups_module, "_closure_walk", counted_walk)
        rep = artin_tower(5, 3)
        assert dict(rep.chain_periods.values)["s3"] == 2
        # One walk per level, C1, C5, C25 and C125, each one composition per
        # element (C1 has no generator but the identity); no Weyl group is
        # walked.
        assert (count[0], walks[0]) == (5 + 25 + 125, 4)

    def test_each_subgroup_resolved_once(self, monkeypatch):
        from ttperiods.groups import GroupIndex

        count = [0]
        original = GroupIndex.span

        def counted(self, target):
            count[0] += 1
            return original(self, target)

        monkeypatch.setattr(GroupIndex, "span", counted)
        G = elementary_abelian(2, 4)
        subs, again = subgroups(G), subgroups(G)
        assert len(subs) == 67
        # The index hands out one set object per subgroup, so a second
        # list, and every class's members, resolve by identity.
        assert all(H is K for H, K in zip(subs, again))
        kept = {id(H) for H in subs}
        for cls in subgroup_classes(G):
            assert {id(cls.index.frozen(K)) for K in cls.members} <= kept
        for route in (p_subconjugate_sylow, p_subconjugate_mackey):
            for listed in (subs, again):
                for H in listed:
                    for K in listed:
                        route(G, H, K, 2)
        assert 0 < count[0] <= len(subs)
        # A set that is not a subgroup is refused on every call.
        bad = frozenset({identity(8), cyc(8, [1, 2]), cyc(8, [3, 4])})
        for _ in range(2):
            with pytest.raises(NotSubgroup):
                p_subconjugate_sylow(G, bad, G.elements, 2)


def _s4_times_c2():
    return FiniteGroup(6, [cyc(6, [1, 2]), cyc(6, [1, 2, 3, 4]), cyc(6, [5, 6])], name="S4xC2")


# S4 on its four points is all of Sym(4), so its relabelling differs from
# S4 only in its generators; D8 and Q16 are moved to other element sets.
ORACLE_GROUPS = (
    CATALOG_24
    + [relabel(G, seed) for G in (dihedral(8), quaternion(16)) for seed in (1, 3)]
    + [relabel(symmetric(4), 1)]
    + [elementary_abelian(2, 5), dihedral(48), _s4_times_c2()]
)


class TestCyclicSubgroupReads:
    """normalizer, the sections sub/1 and N_G(H)/H and sylow, which read one
    element per cyclic subgroup, against the element scans of
    tests/oracles.py on every subgroup class, and on a relabelling."""

    @pytest.mark.parametrize("G", CATALOG_24, ids=lambda G: G.name)
    def test_reads_equal_the_element_scans(self, G):
        for K in (G, relabel(G, 7)):
            assert section_mismatches(K, [c.sub for c in K.index.classes()]) == []


class TestRoutesAgainstTheOracle:
    """Both subconjugacy routes against a third one on permutations, which
    builds no GroupIndex: every subgroup pair at every prime dividing the
    order."""

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.name)
    def test_routes_equal_the_oracle(self, G):
        assert route_oracle_mismatches(G) == []

    def test_lattice_sizes(self):
        sizes = {G.name: len(subgroups(G)) for G in ORACLE_GROUPS[-3:]}
        assert sizes == {"C2^5": 374, "D48": 68, "S4xC2": 98}
        assert all(relabel(G, 1).elements != G.elements for G in (dihedral(8), quaternion(16)))


class TestResolve:
    """GroupIndex.resolve as the routes see it: one verdict however the
    subgroup is given, and refusals in the order the routes promise."""

    @pytest.mark.parametrize("route", [p_subconjugate_sylow, p_subconjugate_mackey])
    def test_every_form_of_a_subgroup_gives_one_verdict(self, route):
        G = symmetric(4)
        subs = subgroups(G)
        for H in subs:
            forms = [H, frozenset(sorted(H)), set(H), sorted(H), G.index.require(H)]
            for K in subs:
                assert len({route(G, form, K, 2) for form in forms}) == 1, (sorted(H), sorted(K))
                assert len({route(G, K, form, 2) for form in forms}) == 1, (sorted(K), sorted(H))

    @pytest.mark.parametrize("route", [p_subconjugate_sylow, p_subconjugate_mackey])
    def test_refusals(self, route):
        G = symmetric(4)
        bad = [identity(4), cyc(4, [1, 2]), cyc(4, [3, 4]), cyc(4, [1, 3])]
        with pytest.raises(NotSubgroup):
            route(G, bad, G.elements, 2)
        with pytest.raises(NotSubgroup):
            route(G, G.elements, bad, 2)
        with pytest.raises(GroupError, match="^4 is not prime$"):
            route(G, bad, G.elements, 4)
