"""Small permutation groups: subgroup lattices, Weyl groups, Sylow theory.

Everything here is exhaustive search over explicitly enumerated elements,
guarded by diagnostics.LIMITS.  The public functions speak permutations: tuples
of 0-based images, and subgroups as plain frozensets of them inside an
ambient FiniteGroup.  Underneath, each group builds one GroupIndex on first
use (elements numbered in sorted order, a multiplication table, subgroups as
int bitmasks), and every function converts at its boundary; the functions
that take a subgroup also take a Sub of the group's index, which callers
already holding one (the dperm assembly) pass to skip the conversion.
A group and its Weyl groups are both sections N/H of the table, H normal
in N, read by one routine (GroupIndex.section): identify is the section G/1
and weyl_group the section N_G(H)/H.  A section's catalog key is
("abelian", invariant factors) for every abelian group, the trivial one
included, ("quaternion", n) or ("dihedral", 8) for the nonabelian types it
recognizes, and None otherwise.
The p-subconjugacy order ships with two independent criteria (Sylow
containment and Mackey index) that are always cross-checked.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .diagnostics import UsageError, json_int, json_list, require_within
from .spaces import is_prime

Perm = tuple[int, ...]


class GroupError(UsageError):
    """Malformed group data or failed internal cross-check."""


class NotSubgroup(GroupError):
    """The supplied element set is not a subgroup of the ambient group."""


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    if len(q) == 1:
        return (p[q[0]],)
    return itemgetter(*q)(p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _closure_walk(gens: Iterable[Perm]) -> tuple[list, dict]:
    """Breadth-first walk from the identity by right multiplication.

    Returns the elements in the order found, identity first, and right,
    where right[g][i] is the position in that order of (element i) after g
    for every generator g other than the identity: one composition per
    element and generator, and no other.
    """
    gens = list(gens)
    if not gens:
        raise GroupError("need at least one permutation to close over")
    e = identity(len(gens[0]))
    gens = [g for g in dict.fromkeys(gens) if g != e]
    order = [e]
    where = {e: 0}
    cols: list = [(g, []) for g in gens]
    for x in order:
        for g, col in cols:
            y = compose(x, g)
            j = where.setdefault(y, len(order))
            if j == len(order):
                require_within("MAX_GROUP_ORDER", j + 1, at_least=True)
                order.append(y)
            col.append(j)
    return order, dict(cols)


def perm_from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> Perm:
    """1-based disjoint cycle notation to an image tuple."""
    out = list(range(degree))
    seen: set[int] = set()
    for cycle in cycles:
        cycle = list(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not (1 <= a <= degree) or a in seen:
                raise GroupError(f"bad cycle entry {a}")
            seen.add(a)
            out[a - 1] = b - 1
    return tuple(out)


def perm_to_cycles(p: Perm) -> list[list[int]]:
    cycles = []
    seen: set[int] = set()
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i + 1)
            i = p[i]
        cycles.append(cycle)
    return cycles


class FiniteGroup:
    """Permutation group on {0..degree-1}, closed on construction.

    ``name`` is a display name, set by whoever built the group and knows
    its isomorphism type; identify reads the type from the group itself.
    """

    def __init__(self, degree: int, generators: Iterable[Perm], name: "str | None" = None):
        if degree < 1:
            raise GroupError("degree must be positive")
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise GroupError(f"not a permutation of degree {degree}: {g}")
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._walk = _closure_walk(gens or [identity(degree)])
        self.elements = frozenset(self._walk[0])
        self.order = len(self.elements)
        self._index: "GroupIndex | None" = None

    @property
    def index(self) -> "GroupIndex":
        """The group's regular representation, built on first use."""
        if self._index is None:
            self._index = GroupIndex(self)
        return self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        tag = self.name or "group"
        return f"<{tag}: order {self.order} on {self.degree} points>"


# -- the indexed kernel ------------------------------------------------

class Sub:
    """A subgroup inside a GroupIndex: bitmask over element numbers, its
    elements, and a generating set."""

    __slots__ = ("mask", "elems", "gens")

    def __init__(self, mask: int, elems: tuple[int, ...], gens: tuple[int, ...]):
        self.mask = mask
        self.elems = elems
        self.gens = gens

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    @property
    def order(self) -> int:
        return len(self.elems)


def _mask(elems: Iterable[int]) -> int:
    m = 0
    for x in elems:
        m |= 1 << x
    return m


def _canon(sub: Sub):
    """Sort key matching (order, sorted permutations) on frozensets."""
    return (len(sub.elems), sorted(sub.elems))


class GroupIndex:
    """Regular representation of a FiniteGroup (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005).

    Elements are numbered 0..n-1 in sorted order, so the identity is 0 and
    the least permutation of a set is its least number.  table[a][b] is the
    number of a after b; inv, orders and cyc_mask (the mask of the cyclic
    subgroup the element generates) are per element; cyclic lists one Sub
    per cyclic subgroup, generated by its least generator.  The table is
    filled along the breadth-first tree of the generators from the products
    the group's closure walk already made, so it composes nothing itself.

    Besides the table and conj(), the index keeps for its own lifetime,
    which is the group's: the one frozenset per subgroup mask that frozen
    hands out, the Sub of every permutation set that require verified as a
    subgroup (a set that fails is never stored, and subgroup() checks
    closure on every call), the Sylow p-subgroup that
    sylow found per subgroup mask and p, and the tuple of its conjugates'
    masks that sylow_masks read from orbit, per conjugacy class the classes
    that orbit and conjugate_masks found, each under the mask of every
    member, the subgroup lattice and its classes, the classes of
    p-subgroups per prime, per subgroup mask H the section N(H)/H that
    weyl_group read and the key of the section H/1 that identify read, and
    the primes check_prime has accepted.
    """

    def __init__(self, G: FiniteGroup):
        # The closure walk has no other reader: release it with the index built.
        walk, steps = G._walk
        G._walk = None
        perms = sorted(walk)
        n = len(perms)
        pos = {x: i for i, x in enumerate(perms)}
        num = [pos[x] for x in walk]
        gens = sorted(pos[g] for g in steps)
        # right[g][x] is x after g; parent[y] = (x, g) with y = x after g.
        right = {g: [0] * n for g in gens}
        for g, col in steps.items():
            rg = right[pos[g]]
            for i, j in enumerate(col):
                rg[num[i]] = num[j]
        parent: dict[int, tuple[int, int]] = {}
        tree = [0]
        for x in tree:
            for g in gens:
                y = right[g][x]
                if y and y not in parent:
                    parent[y] = (x, g)
                    tree.append(y)
        # Column b lists a after b for every a; b = x after g gives
        # a after b = (a after x) after g.
        cols: list = [None] * n
        cols[0] = list(range(n))
        for b in tree[1:]:
            x, g = parent[b]
            rg = right[g]
            cols[b] = [rg[v] for v in cols[x]]
        self.perms = perms
        self.pos = pos
        self.gens = tuple(gens)
        self.table = list(zip(*cols))
        self.inv = [row.index(0) for row in self.table]
        self.orders, self.cyc_mask, self.cyclic = self._cyclic_subgroups()
        self._conj: "list | None" = None
        self._frozen: dict[int, frozenset[Perm]] = {}
        self._subs: dict[frozenset, Sub] = {}
        self._sylows: dict[tuple[int, int], Sub] = {}
        self._sylow_masks: dict[tuple[int, int], tuple[int, ...]] = {}
        self._orbits: dict[int, dict[int, Sub]] = {}
        self._swept: dict[int, frozenset[int]] = {}
        self._lattice: "list[Sub] | None" = None
        self._classes: "list[SubgroupClass] | None" = None
        self._p_classes: dict[int, list[SubgroupClass]] = {}
        self._weyls: dict[int, WeylGroup] = {}
        self._keys: dict[int, "tuple | None"] = {}
        self._primes: set[int] = set()

    @property
    def n(self) -> int:
        return len(self.perms)

    def _cyclic_subgroups(self) -> tuple[list[int], list[int], list[Sub]]:
        """Per element its order and the mask of the cyclic subgroup it
        generates, and one Sub per cyclic subgroup.  Each subgroup's powers
        x, x^2, ..., x^m = 1 of its least generator give them all: x^k
        generates the subgroup of x^gcd(k, m)."""
        n, table = self.n, self.table
        orders = [1] * n
        cyc_mask = [1] * n
        covered = [False] * n
        covered[0] = True
        cyclic = []
        for x in range(n):
            if covered[x]:
                continue
            powers, y = [x], x
            while y:
                y = table[y][x]
                powers.append(y)
            m = len(powers)
            masks = {d: _mask(powers[d - 1 :: d]) for d in range(1, m + 1) if m % d == 0}
            for k, z in enumerate(powers, 1):
                d = math.gcd(k, m)
                orders[z] = m // d
                cyc_mask[z] = masks[d]
                if d == 1:
                    covered[z] = True
            cyclic.append(Sub(masks[1], tuple(powers), (x,)))
        return orders, cyc_mask, cyclic

    # -- conversion at the permutation boundary --

    def frozen(self, sub: Sub) -> frozenset[Perm]:
        """The subgroup's permutations, one frozenset per mask for the
        index's lifetime, so a set handed out before is found by identity."""
        H = self._frozen.get(sub.mask)
        if H is None:
            perms = self.perms
            H = self._frozen[sub.mask] = frozenset(perms[i] for i in sub.elems)
        return H

    def subgroup(self, H: Iterable[Perm]) -> "Sub | None":
        """The Sub on the given permutations, or None if they are not a
        subgroup of the group (closure is checked on every call)."""
        try:
            target = _mask(self.pos[x] for x in H)
        except KeyError:
            return None
        sub = self.span(target)
        return sub if sub.mask == target else None

    def require(self, H: Iterable[Perm]) -> Sub:
        """The Sub on the given permutations, checked once per set."""
        H = frozenset(H)
        sub = self._subs.get(H)
        if sub is None:
            sub = self.subgroup(H)
            if sub is None:
                raise NotSubgroup(sorted(H)[:3])
            self._subs[H] = sub
        return sub

    def resolve(self, H: "frozenset[Perm] | Sub") -> Sub:
        """H as a Sub.  A frozenset require has checked is one dict hit (by
        identity for the sets frozen hands out); only on a miss is H tested
        for being a Sub, which passes through.  Anything else, unhashable
        input such as a list or set included, goes through require."""
        try:
            sub = self._subs.get(H)
        except TypeError:
            return self.require(H)
        if sub is None:
            sub = H if isinstance(H, Sub) else self.require(H)
        return sub

    # -- closures --

    def trivial(self) -> Sub:
        return Sub(1, (0,), ())

    def whole(self) -> Sub:
        return Sub((1 << self.n) - 1, tuple(range(self.n)), self.gens)

    def extend(self, H: Sub, x: int) -> Sub:
        """The subgroup generated by H and x, one left coset of H at a
        time (Dimino's algorithm)."""
        if H.mask >> x & 1:
            return H
        table = self.table
        gens = H.gens + (x,)
        mask, elems, reps = H.mask, list(H.elems), [0]
        for r in reps:
            for t in gens:
                y = table[t][r]
                if not mask >> y & 1:
                    row = table[y]
                    for h in H.elems:
                        z = row[h]
                        mask |= 1 << z
                        elems.append(z)
                    reps.append(y)
        return Sub(mask, tuple(elems), gens)

    def span(self, target: int) -> Sub:
        """Greedy closure of the elements of a mask, in increasing order.

        Stops as soon as the closure leaves the mask, so the result equals
        the mask exactly when the mask is a subgroup; its generators are
        the elements that enlarged it.
        """
        sub = self.trivial()
        rest = target & ~1
        while rest:
            low = rest & -rest
            sub = self.extend(sub, low.bit_length() - 1)
            if sub.mask & ~target:
                return sub
            rest &= ~sub.mask
        return sub

    # -- conjugation --

    def conj(self) -> list:
        """conj()[g][x] is g x g^-1, built on first use."""
        if self._conj is None:
            table, inv = self.table, self.inv
            self._conj = [
                [table[y][gi] for y in table[g]]
                for g, gi in enumerate(inv)
            ]
        return self._conj

    def conjugate(self, g: int, H: Sub) -> Sub:
        table, gi = self.table, self.inv[g]
        row = table[g]
        elems = tuple(table[row[h]][gi] for h in H.elems)
        gens = tuple(table[row[h]][gi] for h in H.gens)
        return Sub(_mask(elems), elems, gens)

    def orbit(self, H: Sub) -> dict[int, Sub]:
        """The conjugacy class of H, mask to Sub, grown from H by conjugating
        with the generators of the group until nothing new appears."""
        found = self._orbits.get(H.mask)
        if found is None:
            found = {H.mask: H}
            work = [H]
            for K in work:
                for g in self.gens:
                    L = self.conjugate(g, K)
                    if L.mask not in found:
                        found[L.mask] = L
                        work.append(L)
            self._orbits.update(dict.fromkeys(found, found))
        return found

    def conjugate_masks(self, H: Sub) -> frozenset[int]:
        """The masks of g H g^-1 over every element g: the conjugacy class
        of H found by sweeping the whole conjugation table, independently
        of orbit."""
        found = self._swept.get(H.mask)
        if found is None:
            found = frozenset(_mask(row[h] for h in H.elems) for row in self.conj())
            self._swept.update(dict.fromkeys(found, found))
        return found

    def normalizer(self, H: Sub) -> list[int]:
        """Elements g with g H g^-1 = H; checking H's generators suffices."""
        table, inv, mask = self.table, self.inv, H.mask
        out = []
        for g in range(self.n):
            row, gi = table[g], inv[g]
            if all(mask >> table[row[h]][gi] & 1 for h in H.gens):
                out.append(g)
        return out

    def _search(self, K: Sub) -> list[Sub]:
        """Every subgroup of K, by (order, sorted elements): each one is a
        join of cyclic subgroups of K, so extending by one cyclic generator
        at a time reaches them all.  The table lookups, counted as the order
        of every extension, are bounded by MAX_SUBGROUP_LOOKUPS, checked
        after each subgroup's extensions."""
        cyclic = [c for c in self.cyclic if not c.mask & ~K.mask]
        found = {1: self.trivial()}
        for c in cyclic:
            found.setdefault(c.mask, c)
        work = list(found.values())
        lookups = 0
        for H in work:
            for c in cyclic:
                J = self.extend(H, c.gens[0])
                lookups += len(J.elems)
                if J.mask not in found:
                    found[J.mask] = J
                    work.append(J)
            require_within("MAX_SUBGROUP_LOOKUPS", lookups)
        return sorted(found.values(), key=_canon)

    def subgroups(self) -> list[Sub]:
        """Every subgroup, by (order, sorted elements); searched once."""
        if self._lattice is None:
            self._lattice = self._search(self.whole())
        return self._lattice

    def _fuse(self, subs: list[Sub]) -> list["SubgroupClass"]:
        """The conjugacy classes of the given subgroups, whole: each class
        holds every conjugate, least first, and the classes are ordered by
        their least members."""
        seen: set[int] = set()
        classes = []
        for H in subs:
            if H.mask not in seen:
                orbit = self.orbit(H)
                seen.update(orbit)
                classes.append(SubgroupClass(self, tuple(sorted(orbit.values(), key=_canon))))
        classes.sort(key=lambda c: _canon(c.sub))
        return classes

    def classes(self) -> list["SubgroupClass"]:
        """The subgroup lattice partitioned into conjugacy classes; once."""
        if self._classes is None:
            subs = self.subgroups()
            classes = self._fuse(subs)
            if sum(len(c.members) for c in classes) != len(subs):
                raise RuntimeError("conjugation left the subgroup lattice")
            self._classes = classes
        return self._classes

    def p_classes(self, p: int) -> list["SubgroupClass"]:
        """The conjugacy classes of p-subgroups, once per prime.  Every
        p-subgroup is conjugate into the stored Sylow p-subgroup P (Sylow's
        theorem), so only P's lattice is searched, and conjugation fuses
        it.  A number that is not prime is refused on every call."""
        found = self._p_classes.get(p)
        if found is None:
            self.check_prime(p)
            P = self.sylow(self.whole(), p)
            found = self._fuse(self.subgroups() if P.order == self.n else self._search(P))
            self._p_classes[p] = found
        return found

    def check_prime(self, p: int) -> None:
        """require_prime, remembering the primes it accepted; a number that
        is not prime is refused on every call."""
        if p not in self._primes:
            require_prime(p)
            self._primes.add(p)

    def sylow_masks(self, H: Sub, p: int) -> tuple[int, ...]:
        """The masks of the conjugates of sylow(H, p), one tuple per
        subgroup mask and p for the index's lifetime."""
        masks = self._sylow_masks.get((H.mask, p))
        if masks is None:
            masks = self._sylow_masks[H.mask, p] = tuple(self.orbit(self.sylow(H, p)))
        return masks

    def sylow(self, H: Sub, p: int) -> Sub:
        """A Sylow p-subgroup of H, grown greedily over H's p-elements in
        increasing order; maximal p-subgroups are Sylow.  One search per
        subgroup and prime."""
        P = self._sylows.get((H.mask, p))
        if P is None:
            orders = self.orders
            P = self.trivial()
            for x in sorted(H.elems):
                if x in P or p_part(orders[x], p) != orders[x]:
                    continue
                Q = self.extend(P, x)
                if p_part(Q.order, p) == Q.order:
                    P = Q
            self._sylows[H.mask, p] = P
        return P

    # -- structure read from the table --

    def section(self, elems: Sequence[int], lifts: Sequence[int], H: Sub) -> "WeylGroup":
        """The section elems/H, for H normal in the subgroup on elems and
        lifts that generate it modulo H, read from the table.

        H is normal, so the coset xH has order |<x>| / |<x> ∩ H|, one AND of
        masks and a popcount, for every x in it: counting over the elements
        counts each coset |H| times.  The section is abelian when each pair
        of lifts commutes modulo H.
        """
        table, inv, mask, h = self.table, self.inv, H.mask, len(H.elems)
        # (ab)^-1 (ba) lies in H exactly when aH and bH commute.
        abelian = all(
            mask >> table[inv[table[a][b]]][table[b][a]] & 1
            for i, a in enumerate(lifts) for b in lifts[i + 1 :]
        )
        orders = self.orders
        if h == 1:
            counts = Counter(map(orders.__getitem__, elems))
        else:
            cyc_mask = self.cyc_mask
            counts = Counter(orders[x] // (cyc_mask[x] & mask).bit_count() for x in elems)
            counts = Counter({k: c // h for k, c in counts.items()})
        key = _structure_key(counts, abelian)
        return WeylGroup(len(elems) // h, key, name_for_key(key))

    def identify(self, sub: Sub) -> "tuple | None":
        """Catalog key of the subgroup's isomorphism type, or None when
        unrecognized: the section sub/1, read once per subgroup mask."""
        key = self._keys.get(sub.mask, False)
        if key is False:
            key = self._keys[sub.mask] = self.section(sub.elems, sub.gens, self.trivial()).key
        return key


def _structure_key(orders: Counter, abelian: bool) -> "tuple | None":
    """Catalog key of a group with orders[k] elements of order k: an
    abelian group, the trivial one included, keys by its invariant factors."""
    if abelian:
        return ("abelian", _abelian_invariants(orders))
    n = orders.total()
    # One involution and a cyclic subgroup of index 2: dicyclic exactly when
    # the n/2 elements outside it have order 4, two more lying inside if 8 | n.
    if orders[2] == 1 and n % 4 == 0 and n >= 8 and orders[n // 2]:
        if orders[4] == n // 2 + (2 if n % 8 == 0 else 0):
            return ("quaternion", n)
    if n == 8:
        return ("dihedral", 8)
    return None


def subgroups(G: FiniteGroup) -> list[frozenset[Perm]]:
    """Every subgroup, ordered by (order, sorted elements)."""
    ix = G.index
    return [ix.frozen(H) for H in ix.subgroups()]


class SubgroupClass:
    """A conjugacy class of subgroups of a GroupIndex, kept as the Subs of
    its members, least first; the permutation sets are made when read."""

    __slots__ = ("index", "members")

    def __init__(self, index: GroupIndex, members: tuple[Sub, ...]):
        self.index = index
        self.members = members

    @property
    def sub(self) -> Sub:
        """The representative: the least member."""
        return self.members[0]

    @property
    def order(self) -> int:
        return self.members[0].order

    @property
    def representative(self) -> frozenset[Perm]:
        return self.index.frozen(self.members[0])


def subgroup_classes(G: FiniteGroup) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups, ordered by their least members."""
    return list(G.index.classes())


class WeylGroup(NamedTuple):
    """A section N/H as identify and the dperm strata read it, N_G(H)/H for
    a Weyl group: its order, its catalog key (None when unrecognized) and
    that key's display name."""

    order: int
    key: "tuple | None"
    name: "str | None"


def weyl_group(G: FiniteGroup, H: "frozenset[Perm] | Sub") -> WeylGroup:
    """The section N_G(H)/H, read from G's table once per subgroup mask;
    the group's index keeps it.  Its lifts are a greedy generating set of
    N modulo H.  No group is built."""
    ix = G.index
    sub = ix.resolve(H)
    W = ix._weyls.get(sub.mask)
    if W is None:
        N = ix.normalizer(sub)
        lifts = []
        grown = sub
        for x in N:
            if x not in grown:
                grown = ix.extend(grown, x)
                lifts.append(x)
        W = ix._weyls[sub.mask] = ix.section(N, lifts, sub)
    return W


# -- structure identification ------------------------------------------

def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n; n is a power of p exactly when
    this is n."""
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def _prime_factors(n: int) -> list[int]:
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


def _abelian_invariants(orders: Counter) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... of an abelian group with
    orders[k] elements of order k."""
    primary: dict[int, list[int]] = {}
    for p in _prime_factors(orders.total()):
        # Count the elements with x^(p^j) = 1; the p-adic valuations of the
        # counts are the partial sums of the conjugate partition.
        valuations = [0]
        j = 1
        while True:
            c = sum(k for o, k in orders.items() if p**j % o == 0)
            if not c:
                raise RuntimeError(f"order counts {dict(orders)} are not a group's")
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            valuations.append(v)
            if valuations[-1] == valuations[-2]:
                break
            j += 1
        conj = [
            valuations[k] - valuations[k - 1] for k in range(1, len(valuations))
        ]
        parts = []
        for k in range(1, (conj[0] if conj else 0) + 1):
            parts.append(sum(1 for m in conj if m >= k))
        primary[p] = sorted(parts, reverse=True)
    width = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, parts in primary.items():
            if i < len(parts):
                d *= p ** parts[i]
        factors.append(d)
    return tuple(sorted(factors))


def identify(G: FiniteGroup) -> "tuple | None":
    """Catalog key of the isomorphism type, or None when unrecognized."""
    ix = G.index
    return ix.identify(ix.whole())


def name_for_key(key: "tuple | None") -> "str | None":
    """Display name of a catalog key: 1, C6, C2^3, C2xC4, D8, Q8."""
    if key is None:
        return None
    kind = key[0]
    if kind == "abelian":
        inv = key[1]
        if not inv:
            return "1"
        if len(inv) > 1 and len(set(inv)) == 1 and is_prime(inv[0]):
            return f"C{inv[0]}^{len(inv)}"
        return "x".join(f"C{d}" for d in inv)
    if kind == "dihedral":
        return f"D{key[1]}"
    if kind == "quaternion":
        return f"Q{key[1]}"
    return None


# -- Sylow theory and the p-subconjugacy order --------------------------

def require_prime(p: int) -> None:
    """Refuse a modulus that is not prime, naming it."""
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")


def p_subconjugate_sylow(
    G: FiniteGroup, H: "frozenset[Perm] | Sub", Hp: "frozenset[Perm] | Sub", p: int
) -> bool:
    """Some conjugate of a Sylow p-subgroup of H lies in the second group.

    Reads the index's kept tuple of those conjugates' masks, one dict hit
    per (subgroup, p) after the first call, and tests each against the
    second group's mask; no verdict is kept."""
    ix = G.index
    if p not in ix._primes:
        ix.check_prime(p)
    sub, target = ix.resolve(H), ix.resolve(Hp).mask
    for C in ix._sylow_masks.get((sub.mask, p)) or ix.sylow_masks(sub, p):
        if not C & ~target:
            return True
    return False


def p_subconjugate_mackey(
    G: FiniteGroup, H: "frozenset[Perm] | Sub", Hp: "frozenset[Perm] | Sub", p: int
) -> bool:
    """Some double-coset intersection has index in H prime to p.

    Reads the index's kept set of the second group's conjugate masks, from
    the conjugation-table sweep, and tests each; no verdict is kept."""
    ix = G.index
    if p not in ix._primes:
        ix.check_prime(p)
    sub, other = ix.resolve(H), ix.resolve(Hp)
    # H meets g Hp g^-1 in the bits its mask shares with that conjugate's.
    order, mask = len(sub.elems), sub.mask
    for C in ix.conjugate_masks(other):
        if (order // (mask & C).bit_count()) % p:
            return True
    return False


def p_subconjugate(
    G: FiniteGroup, H: "frozenset[Perm] | Sub", Hp: "frozenset[Perm] | Sub", p: int
) -> bool:
    """Both routes; their disagreement is a library bug, a RuntimeError."""
    a = p_subconjugate_sylow(G, H, Hp, p)
    b = p_subconjugate_mackey(G, H, Hp, p)
    if a != b:
        raise RuntimeError(f"subconjugacy criteria disagree: sylow={a} mackey={b}")
    return a


# -- catalog constructors ----------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("order must be positive")
    require_within("MAX_GROUP_ORDER", n)
    if n == 1:
        return FiniteGroup(1, [], name="C1")
    gen = tuple((i + 1) % n for i in range(n))
    return FiniteGroup(n, [gen], name=f"C{n}")


def dihedral(order: int) -> FiniteGroup:
    if order < 4 or order % 2:
        raise GroupError("dihedral order must be an even number >= 4")
    require_within("MAX_GROUP_ORDER", order)
    m = order // 2
    rot = tuple((i + 1) % m for i in range(m))
    flip = tuple((m - i) % m for i in range(m))
    return FiniteGroup(m, [rot, flip], name=f"D{order}")


def quaternion(order: int) -> FiniteGroup:
    """Dicyclic group of the given order, as its left-regular action."""
    if order % 4 or order < 8:
        raise GroupError("dicyclic order must be a multiple of 4, at least 8")
    require_within("MAX_GROUP_ORDER", order)
    m = order // 2

    def idx(i: int, e: int) -> int:
        return (i % m) + m * e

    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        i, e = x
        j, f = y
        if e == 0:
            return ((i + j) % m, f)
        if f == 0:
            return ((i - j) % m, 1)
        return ((i - j + m // 2) % m, 0)

    def left(x: tuple[int, int]) -> Perm:
        out = [0] * order
        for j in range(m):
            for f in (0, 1):
                out[idx(j, f)] = idx(*mul(x, (j, f)))
        return tuple(out)

    return FiniteGroup(order, [left((1, 0)), left((0, 1))], name=f"Q{order}")


def elementary_abelian(p: int, r: int) -> FiniteGroup:
    if not is_prime(p) or r < 1:
        raise GroupError("need a prime and a positive rank")
    # p^64 is past 2^64, where require_within stops showing sizes exactly.
    require_within("MAX_GROUP_ORDER", p ** min(r, 64))
    gens = []
    for k in range(r):
        g = list(range(p * r))
        for i in range(p):
            g[k * p + i] = k * p + (i + 1) % p
        gens.append(tuple(g))
    return FiniteGroup(p * r, gens, name=f"C{p}^{r}")


def symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise GroupError(f"symmetric groups of degree 1 to 4 only, not {n}")
    if n == 1:
        return FiniteGroup(1, [], name="S1")
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple((i + 1) % n for i in range(n))
    return FiniteGroup(n, [swap, cycle], name=f"S{n}")


# -- serialization -----------------------------------------------------

def group_to_obj(G: FiniteGroup) -> dict:
    obj = {
        "degree": G.degree,
        "generators": [perm_to_cycles(g) for g in G.generators],
    }
    if G.name:
        obj["name"] = G.name
    return obj


def group_from_obj(obj: Mapping) -> FiniteGroup:
    """The group a JSON object names: generators as arrays of cycles, each
    an array of integers, and an optional string name."""
    try:
        degree = json_int(obj["degree"])
        require_within("MAX_DEGREE", degree)
        gens = [
            perm_from_cycles(
                degree, [[json_int(a) for a in json_list(cycle)] for cycle in json_list(cycles)]
            )
            for cycles in json_list(obj["generators"])
        ]
        name = obj.get("name")
        if name is not None and type(name) is not str:
            raise TypeError(f"{name!r} is not a string")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GroupError(f"malformed group object: {exc}") from exc
    return FiniteGroup(degree, gens, name=name)
