"""Small permutation groups: subgroup lattices, Weyl groups, Sylow theory.

Everything here is exhaustive search over explicitly enumerated elements,
guarded by an order bound.  Subgroups are plain frozensets of permutations
inside an ambient FiniteGroup; permutations are tuples of 0-based images.
The p-subconjugacy order ships with two independent criteria (Sylow
containment and Mackey index) that are always cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .spaces import is_prime

DEFAULT_ORDER_BOUND = 384

Perm = tuple[int, ...]


class GroupError(Exception):
    """Malformed group data or failed internal cross-check."""


class OrderBound(GroupError):
    """Closure exceeded the configured order bound."""


class NotSubgroup(GroupError):
    """The supplied element set is not a subgroup of the ambient group."""


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    return tuple(p[j] for j in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        order = math.lcm(order, length)
    return order


def perm_power(p: Perm, n: int) -> Perm:
    result = identity(len(p))
    base = p
    while n:
        if n & 1:
            result = compose(result, base)
        base = compose(base, base)
        n >>= 1
    return result


def mulclose(gens: Iterable[Perm], bound: int = DEFAULT_ORDER_BOUND) -> frozenset[Perm]:
    gens = list(gens)
    if not gens:
        raise GroupError("need at least one permutation to close over")
    degree = len(gens[0])
    elements = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in elements:
                    elements.add(y)
                    if len(elements) > bound:
                        raise OrderBound(bound)
                    new.append(y)
        frontier = new
    return frozenset(elements)


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
    """Permutation group on {0..degree-1}, closed on construction."""

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm],
        name: "str | None" = None,
        order_bound: int = DEFAULT_ORDER_BOUND,
    ):
        if degree < 1:
            raise GroupError("degree must be positive")
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise GroupError(f"not a permutation of degree {degree}: {g}")
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self.elements = mulclose(gens or [identity(degree)], order_bound)

    @property
    def order(self) -> int:
        return len(self.elements)

    def has_subgroup(self, H: frozenset[Perm]) -> bool:
        if not H <= self.elements or identity(self.degree) not in H:
            return False
        return all(compose(a, b) in H for a in H for b in H)

    def require_subgroup(self, H: frozenset[Perm]) -> frozenset[Perm]:
        H = frozenset(H)
        if not self.has_subgroup(H):
            raise NotSubgroup(sorted(H)[:3])
        return H

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


def conjugate_subgroup(g: Perm, H: frozenset[Perm]) -> frozenset[Perm]:
    gi = inverse(g)
    return frozenset(compose(g, compose(h, gi)) for h in H)


def _canon(H: frozenset[Perm]):
    return (len(H), tuple(sorted(H)))


def subgroups(G: FiniteGroup) -> list[frozenset[Perm]]:
    """Every subgroup, via cyclic subgroups and pairwise joins."""
    bound = G.order
    found: set[frozenset[Perm]] = {frozenset({identity(G.degree)})}
    for x in G.elements:
        found.add(mulclose([x], bound))
    while True:
        fresh: set[frozenset[Perm]] = set()
        pool = sorted(found, key=_canon)
        for i, A in enumerate(pool):
            for B in pool[i + 1 :]:
                if A <= B or B <= A:
                    continue
                J = mulclose(list(A | B), bound)
                if J not in found:
                    fresh.add(J)
        if not fresh:
            return sorted(found, key=_canon)
        found |= fresh


@dataclass(frozen=True)
class SubgroupClass:
    representative: frozenset[Perm]
    conjugates: tuple[frozenset[Perm], ...]

    @property
    def order(self) -> int:
        return len(self.representative)


def subgroup_classes(G: FiniteGroup) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups, deterministically ordered."""
    remaining = set(subgroups(G))
    classes = []
    while remaining:
        H = min(remaining, key=_canon)
        orbit = {conjugate_subgroup(g, H) for g in G.elements}
        if not orbit <= remaining:
            raise GroupError("conjugation left the subgroup lattice")
        remaining -= orbit
        ordered = tuple(sorted(orbit, key=_canon))
        classes.append(SubgroupClass(min(orbit, key=_canon), ordered))
    classes.sort(key=lambda c: _canon(c.representative))
    return classes


def normalizer(G: FiniteGroup, H: frozenset[Perm]) -> frozenset[Perm]:
    H = G.require_subgroup(H)
    return frozenset(g for g in G.elements if conjugate_subgroup(g, H) == H)


def is_normal(G: FiniteGroup, H: frozenset[Perm]) -> bool:
    return normalizer(G, H) == G.elements


def is_dedekind(G: FiniteGroup) -> bool:
    return all(is_normal(G, H) for H in subgroups(G))


def weyl_group(G: FiniteGroup, H: frozenset[Perm]) -> FiniteGroup:
    """N_G(H)/H acting on the left cosets of H inside the normalizer."""
    H = G.require_subgroup(H)
    N = normalizer(G, H)
    cosets: list[frozenset[Perm]] = []
    for n in sorted(N):
        coset = frozenset(compose(n, h) for h in H)
        if coset not in cosets:
            cosets.append(coset)
    cosets.sort(key=lambda c: min(c))
    index = {c: i for i, c in enumerate(cosets)}
    reps = [min(c) for c in cosets]

    def image(n: Perm) -> Perm:
        return tuple(
            index[frozenset(compose(compose(n, r), h) for h in H)] for r in reps
        )

    gens = sorted({image(n) for n in N})
    W = FiniteGroup(max(len(cosets), 1), gens or [identity(len(cosets))])
    W.name = name_for_key(identify(W))
    return W


# -- structure identification ------------------------------------------

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


def is_abelian(G: FiniteGroup) -> bool:
    els = sorted(G.elements)
    return all(
        compose(a, b) == compose(b, a)
        for i, a in enumerate(els)
        for b in els[i + 1 :]
    )


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... for an abelian group."""
    if not is_abelian(G):
        raise GroupError("abelian invariants of a nonabelian group")
    e = identity(G.degree)
    primary: dict[int, list[int]] = {}
    for p in _prime_factors(G.order):
        # Count solutions of x^(p^j) = 1; the p-adic valuations of the
        # counts are the partial sums of the conjugate partition.
        valuations = [0]
        j = 1
        while True:
            c = sum(1 for x in G.elements if perm_power(x, p**j) == e)
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
    n = G.order
    if n == 1:
        return ("trivial",)
    if is_abelian(G):
        inv = abelian_invariants(G)
        if len(inv) == 1:
            return ("cyclic", inv[0])
        p = inv[0]
        if all(d == p for d in inv) and len(_prime_factors(p)) == 1:
            return ("elem_abelian", p, len(inv))
        return ("abelian", inv)
    involutions = sum(1 for x in G.elements if perm_order(x) == 2)
    if involutions == 1 and n % 4 == 0 and n >= 8:
        if any(perm_order(x) == n // 2 for x in G.elements):
            return ("quaternion", n)
    if n == 8:
        return ("dihedral", 8)
    return None


def name_for_key(key: "tuple | None") -> "str | None":
    if key is None:
        return None
    kind = key[0]
    if kind == "trivial":
        return "1"
    if kind == "cyclic":
        return f"C{key[1]}"
    if kind == "elem_abelian":
        return f"C{key[1]}^{key[2]}"
    if kind == "dihedral":
        return f"D{key[1]}"
    if kind == "quaternion":
        return f"Q{key[1]}"
    if kind == "abelian":
        return "x".join(f"C{d}" for d in key[1])
    return None


# -- Sylow theory and the p-subconjugacy order --------------------------

def sylow(H: "frozenset[Perm] | FiniteGroup", p: int) -> frozenset[Perm]:
    """A Sylow p-subgroup, grown greedily; maximal p-subgroups are Sylow."""
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    els = H.elements if isinstance(H, FiniteGroup) else frozenset(H)
    degree = len(next(iter(els)))
    P = frozenset({identity(degree)})
    p_elements = sorted(x for x in els if set(_prime_factors(perm_order(x))) <= {p})
    grown = True
    while grown:
        grown = False
        for x in p_elements:
            if x in P:
                continue
            Q = mulclose(list(P) + [x], len(els))
            if set(_prime_factors(len(Q))) <= {p} and Q <= els:
                P = Q
                grown = True
                break
    return P


def p_subconjugate_sylow(
    G: FiniteGroup, H: frozenset[Perm], Hp: frozenset[Perm], p: int
) -> bool:
    """Some conjugate of a Sylow p-subgroup of H lies in the second group."""
    H, Hp = G.require_subgroup(H), G.require_subgroup(Hp)
    S = sylow(H, p)
    return any(conjugate_subgroup(g, S) <= Hp for g in sorted(G.elements))


def p_subconjugate_mackey(
    G: FiniteGroup, H: frozenset[Perm], Hp: frozenset[Perm], p: int
) -> bool:
    """Some double-coset intersection has index in H prime to p."""
    H, Hp = G.require_subgroup(H), G.require_subgroup(Hp)
    for g in sorted(G.elements):
        K = H & conjugate_subgroup(g, Hp)
        if (len(H) // len(K)) % p != 0:
            return True
    return False


def p_subconjugate(
    G: FiniteGroup, H: frozenset[Perm], Hp: frozenset[Perm], p: int
) -> bool:
    a = p_subconjugate_sylow(G, H, Hp, p)
    b = p_subconjugate_mackey(G, H, Hp, p)
    if a != b:
        raise GroupError(f"subconjugacy criteria disagree: sylow={a} mackey={b}")
    return a


def p_equivalence_classes(
    G: FiniteGroup, p: int
) -> list[list[SubgroupClass]]:
    """Blocks of mutually p-subconjugate subgroup classes.

    Also certifies the bijection with conjugacy classes of p-subgroups
    that sends a block to the class of its members' Sylow p-subgroups.
    """
    classes = subgroup_classes(G)
    n = len(classes)
    le = [[False] * n for _ in range(n)]
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            le[i][j] = p_subconjugate(G, a.representative, b.representative, p)
    blocks: list[list[int]] = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        block = [j for j in range(n) if le[i][j] and le[j][i]]
        for j in block:
            assigned[j] = True
        blocks.append(block)
    p_classes = [c for c in classes if set(_prime_factors(c.order)) <= {p}]
    sylow_class: list[int] = []
    for block in blocks:
        hits = set()
        for j in block:
            S = sylow(classes[j].representative, p)
            for k, c in enumerate(p_classes):
                if S in c.conjugates:
                    hits.add(k)
        if len(hits) != 1:
            raise GroupError("equivalence block without a single Sylow class")
        sylow_class.append(hits.pop())
    if sorted(sylow_class) != list(range(len(p_classes))):
        raise GroupError("blocks do not biject with p-subgroup classes")
    return [[classes[j] for j in block] for block in blocks]


# -- catalog constructors ----------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("order must be positive")
    if n == 1:
        return FiniteGroup(1, [], name="C1")
    gen = tuple((i + 1) % n for i in range(n))
    return FiniteGroup(n, [gen], name=f"C{n}")


def dihedral(order: int) -> FiniteGroup:
    if order < 4 or order % 2:
        raise GroupError("dihedral order must be an even number >= 4")
    m = order // 2
    rot = tuple((i + 1) % m for i in range(m))
    flip = tuple((m - i) % m for i in range(m))
    return FiniteGroup(m, [rot, flip], name=f"D{order}")


def quaternion(order: int) -> FiniteGroup:
    """Dicyclic group of the given order, as its left-regular action."""
    if order % 4 or order < 8:
        raise GroupError("dicyclic order must be a multiple of 4, at least 8")
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
    gens = []
    for k in range(r):
        g = list(range(p * r))
        for i in range(p):
            g[k * p + i] = k * p + (i + 1) % p
        gens.append(tuple(g))
    return FiniteGroup(p * r, gens, name=f"C{p}^{r}")


def symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise GroupError("symmetric groups only up to degree 4")
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


def group_from_obj(obj: Mapping, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    try:
        degree = int(obj["degree"])
        gens = [perm_from_cycles(degree, cycles) for cycles in obj["generators"]]
    except (KeyError, TypeError) as exc:
        raise GroupError(f"malformed group object: {exc}") from exc
    return FiniteGroup(degree, gens, name=obj.get("name"), order_bound=order_bound)
