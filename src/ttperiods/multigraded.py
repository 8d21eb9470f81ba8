"""Commutative rings graded by a finite abelian group, with sign tables.

A ring here is a finite tabulated object: each graded component is a
finite dimensional vector space over a prime field, multiplication is
given by structure constants, and commutativity is twisted by a
symmetric bilinear transposition table valued in the units of the
degree-zero component.  Everything downstream (ideal lattices, spectra,
fraction localization) is decided by exhaustive enumeration, so
component dimensions are capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .diagnostics import Diagnosis, PASS, SizeBound, UsageError, failure
from .spaces import FiniteSpectralModel, is_prime

MAX_COMPONENT_DIM = 3


class RingShapeError(UsageError):
    """Structurally malformed ring data (bad tables, unknown names)."""


# -- the grading group ------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group presented as a product of cyclic factors."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(n < 1 for n in self.orders):
            raise RingShapeError("cyclic factor orders must be positive")

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def canon(self, x) -> tuple[int, ...]:
        """Accept an int (single factor) or a tuple, reduce mod orders."""
        if isinstance(x, int):
            x = (x,)
        x = tuple(x)
        if len(x) != len(self.orders):
            raise RingShapeError(f"degree {x!r} has wrong rank")
        return tuple(a % n for a, n in zip(x, self.orders))

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(t) for t in itertools.product(*(range(n) for n in self.orders))]

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.orders))

    def order(self) -> int:
        n = 1
        for k in self.orders:
            n *= k
        return n

    def submonoid_closure(self, gens: Iterable[tuple[int, ...]]) -> frozenset:
        """Smallest subset containing zero and closed under addition.

        In a finite group this is automatically a subgroup.
        """
        out = {self.zero}
        frontier = [self.canon(g) for g in gens]
        out.update(frontier)
        changed = True
        while changed:
            changed = False
            for a in list(out):
                for b in list(out):
                    c = self.add(a, b)
                    if c not in out:
                        out.add(c)
                        changed = True
        return frozenset(out)


# -- vectors over the prime field -------------------------------------


def vec_zero(dim: int) -> tuple[int, ...]:
    return (0,) * dim

def vec_add(p: int, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple((a + b) % p for a, b in zip(u, v))

def vec_scale(p: int, c: int, u: Sequence[int]) -> tuple[int, ...]:
    return tuple((c * a) % p for a in u)

def all_vectors(p: int, dim: int):
    return itertools.product(range(p), repeat=dim)


def additive_span(p: int, vectors: Iterable[Sequence[int]], dim: int) -> frozenset:
    """All sums of the given vectors; includes zero."""
    out = {vec_zero(dim)}
    gens = [tuple(v) for v in vectors]
    changed = True
    while changed:
        changed = False
        for v in list(out):
            for g in gens:
                w = vec_add(p, v, g)
                if w not in out:
                    out.add(w)
                    changed = True
    return frozenset(out)


def render_combo(names: Sequence[str], vec: Sequence[int]) -> str:
    """Linear combination as a short string: "x", "2y", "x+2y", "0"."""
    parts = []
    for c, nm in zip(vec, names):
        if c == 0:
            continue
        parts.append(nm if c == 1 else f"{c}{nm}")
    return "+".join(parts) if parts else "0"


# -- the ring ---------------------------------------------------------


@dataclass
class MultigradedRing:
    """Tabulated graded-commutative ring over a prime field.

    dims, basis_names and tau are total over the group; products carries
    a table for every degree pair whose two components are nonzero.  The
    table entry products[(x, y)][i][j] is the coefficient vector of
    (basis_i of R_x) * (basis_j of R_y) inside R_{x+y}.  one is the
    multiplicative identity inside the degree-zero component, the empty
    vector for the zero ring.
    """

    name: str
    group: AbelianGroup
    char: int
    dims: dict
    basis_names: dict
    products: dict
    tau: dict
    one: tuple[int, ...]

    def is_zero_ring(self) -> bool:
        return all(d == 0 for d in self.dims.values())

    def homogeneous_elements(self, include_zero: bool = False):
        """All (degree, vector) pairs, nonzero vectors unless asked."""
        for x in self.group.elements():
            for vec in all_vectors(self.char, self.dims[x]):
                if include_zero or any(vec):
                    yield (x, vec)

    def basis_elements(self):
        """The basis vectors of every component, as (degree, vector) pairs."""
        for x in self.group.elements():
            d = self.dims[x]
            for i in range(d):
                yield (x, tuple(1 if k == i else 0 for k in range(d)))

    def render(self, elt) -> str:
        x, vec = elt
        return render_combo(self.basis_names[tuple(x)], vec)


def mg_mul(ring: MultigradedRing, a, b):
    """Product of homogeneous elements, as (degree, vector)."""
    (x, u), (y, v) = a, b
    z = ring.group.add(x, y)
    p = ring.char
    out = [0] * ring.dims[z]
    table = ring.products.get((x, y))
    if table is not None:
        for i, ci in enumerate(u):
            if ci == 0:
                continue
            for j, cj in enumerate(v):
                if cj == 0:
                    continue
                w = table[i][j]
                for k in range(len(out)):
                    out[k] = (out[k] + ci * cj * w[k]) % p
    return (z, tuple(out))


def _tau_scalar_mul(ring: MultigradedRing, t, a):
    """Multiply a homogeneous element by a degree-zero value."""
    return mg_mul(ring, ((ring.group.zero), t), a)


def make_multigraded(
    name: str,
    orders: Sequence[int],
    char: int,
    components: Mapping = (),
    products: Mapping = (),
    tau_eps=1,
    one_name: str = "1",
) -> MultigradedRing:
    """Build a ring from sparse, human-readable tables.

    components maps a degree to its basis names; basis names must be
    globally unique.  products maps unordered non-identity name pairs to
    a combination (None for zero, a name, or a name-to-coefficient
    mapping); products with the identity are filled in automatically and
    the transposed entries come from the transposition table.  tau_eps
    gives the transposition sign on each pair of cyclic generators,
    either a single unit for rank-one groups or a mapping on factor
    index pairs; it is extended bilinearly.
    """
    group = AbelianGroup(tuple(orders))
    comp = {}
    for deg, names in dict(components).items():
        d = group.canon(deg)
        if d in comp:
            raise RingShapeError(f"degree {d} listed twice")
        comp[d] = tuple(names)
    dims = {x: len(comp.get(x, ())) for x in group.elements()}
    basis_names = {x: comp.get(x, ()) for x in group.elements()}
    if any(d > MAX_COMPONENT_DIM for d in dims.values()):
        raise SizeBound("component dimension above the configured cap")

    where = {}
    for x, names in basis_names.items():
        for i, nm in enumerate(names):
            if nm in where:
                raise RingShapeError(f"basis name {nm!r} reused")
            where[nm] = (x, i)

    def combo_vec(degree, spec) -> tuple[int, ...]:
        out = [0] * dims[degree]
        if spec is None or spec == 0:
            return tuple(out)
        if isinstance(spec, str):
            spec = {spec: 1}
        for nm, c in dict(spec).items():
            x, i = where[nm]
            if x != degree:
                raise RingShapeError(f"{nm!r} is not in degree {degree}")
            out[i] = c % char
        return tuple(out)

    # Transposition table, extended bilinearly from generator signs.
    rank = len(group.orders)
    if isinstance(tau_eps, int):
        eps = {(i, j): (tau_eps if i == j == 0 else 1) for i in range(rank) for j in range(rank)}
        if rank > 1 and tau_eps != 1:
            raise RingShapeError("give tau_eps as a mapping for rank above one")
    else:
        eps = {(i, j): 1 for i in range(rank) for j in range(rank)}
        for (i, j), e in dict(tau_eps).items():
            eps[(i, j)] = e
            eps[(j, i)] = e
    for (i, j), e in eps.items():
        if pow(e % char, group.orders[i], char) != 1 % char:
            raise RingShapeError("transposition sign incompatible with factor order")

    def tau_scalar(x, y) -> int:
        s = 1
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                s = (s * pow(eps[(i, j)] % char, xi * yj, char)) % char
        return s

    zero_deg = group.zero
    if one_name in where:
        ox, oi = where[one_name]
        if ox != zero_deg:
            raise RingShapeError("identity must sit in degree zero")
        one = tuple(1 if i == oi else 0 for i in range(dims[zero_deg]))
    elif dims[zero_deg] == 0:
        one = ()
    else:
        raise RingShapeError("no identity named in degree zero")

    tau = {}
    for x in group.elements():
        for y in group.elements():
            tau[(x, y)] = vec_scale(char, tau_scalar(x, y), one)

    # Raw pair products: identity entries are implied, the rest must be
    # given in at least one order; the other order follows from tau.
    given = {}
    for (na, nb), spec in dict(products).items():
        for nm in (na, nb):
            if nm not in where:
                raise RingShapeError(f"unknown name {nm!r} in products")
        target = group.add(where[na][0], where[nb][0])
        given[(na, nb)] = combo_vec(target, spec)

    def pair_product(na, nb) -> tuple[int, ...]:
        xa, ia = where[na]
        xb, ib = where[nb]
        target = group.add(xa, xb)
        if na == one_name:
            return tuple(1 if i == ib else 0 for i in range(dims[target]))
        if nb == one_name:
            return tuple(1 if i == ia else 0 for i in range(dims[target]))
        if (na, nb) in given:
            return given[(na, nb)]
        if (nb, na) in given:
            # a*b = tau(|a|,|b|) * (b*a)
            return vec_scale(char, tau_scalar(xa, xb), given[(nb, na)])
        raise RingShapeError(f"product of {na!r} and {nb!r} not specified")

    tables = {}
    for x in group.elements():
        for y in group.elements():
            if dims[x] == 0 or dims[y] == 0:
                continue
            tables[(x, y)] = tuple(
                tuple(pair_product(basis_names[x][i], basis_names[y][j]) for j in range(dims[y]))
                for i in range(dims[x])
            )

    return MultigradedRing(
        name=name, group=group, char=char, dims=dims,
        basis_names=basis_names, products=tables, tau=tau, one=one,
    )


# -- validation -------------------------------------------------------


def validate_multigraded(ring: MultigradedRing) -> Diagnosis:
    """Exhaustive structural check of the ring tables.

    Checks the identity, associativity, and the transposition table:
    unit values, symmetry, bilinearity, and the twisted commutation law
    on every homogeneous pair.  Components are already additive by
    construction, so bilinearity of the product tables is free.
    """
    if not is_prime(ring.char):
        return failure("char_not_prime", ring.char)
    z = ring.group.zero
    if len(ring.one) != ring.dims[z]:
        return failure("bad_identity_shape")
    if ring.is_zero_ring():
        return PASS

    one = (z, ring.one)
    elements = list(ring.homogeneous_elements())
    for e in elements:
        if mg_mul(ring, one, e) != e or mg_mul(ring, e, one) != e:
            return failure("identity_fails_on", ring.render(e))

    basis = list(ring.basis_elements())
    for a in basis:
        for b in basis:
            for c in basis:
                if mg_mul(ring, mg_mul(ring, a, b), c) != mg_mul(ring, a, mg_mul(ring, b, c)):
                    return failure("not_associative", ring.render(a), ring.render(b), ring.render(c))

    # The associativity above makes a one-sided inverse in R_0 two-sided.
    units = {u for u in homogeneous_units(ring) if u[0] == z}
    for x in ring.group.elements():
        for y in ring.group.elements():
            t = ring.tau[(x, y)]
            if (z, t) not in units:
                return failure("transposition_not_unit", x, y)
            if ring.tau[(y, x)] != t:
                return failure("transposition_not_symmetric", x, y)
    for x in ring.group.elements():
        for y in ring.group.elements():
            for w in ring.group.elements():
                lhs = (z, ring.tau[(ring.group.add(x, y), w)])
                rhs = mg_mul(ring, (z, ring.tau[(x, w)]), (z, ring.tau[(y, w)]))
                if lhs != rhs:
                    return failure("transposition_not_bilinear", x, y, w)
    if ring.tau[(z, z)] != ring.one:
        return failure("transposition_not_unital")

    for a in basis:
        for b in basis:
            lhs = mg_mul(ring, a, b)
            rhs = _tau_scalar_mul(ring, ring.tau[(a[0], b[0])], mg_mul(ring, b, a))
            if lhs != rhs:
                return failure("commutation_fails", ring.render(a), ring.render(b))
    return PASS


# -- the ideal engine -------------------------------------------------
#
# One implementation serves graded rings and 2-rings.  A member is a
# component key followed by a coefficient vector: (degree, vec) in a
# ring, (src, dst, vec) in a 2-ring.  An ideal is stored as the frozenset
# of its nonzero members; componentwise these are subspaces closed under
# the products the caller supplies.  Callers say only how members
# multiply, how they sort and how they render.  Multiplicative systems
# of both kinds are closed here too, by close_multiplicative.


def close_ideal(char: int, dims: Mapping, gens: Iterable, products) -> frozenset:
    """Smallest ideal containing gens.

    dims maps each component key (a member without its vector) to the
    component dimension.  products(m) lists the members reached from m by
    one multiplication with a basis element on either side; closing
    under sums makes that enough.
    """
    by_comp: dict = {key: set() for key in dims}
    for m in gens:
        if any(m[-1]):
            by_comp[m[:-1]].add(tuple(m[-1]))
    changed = True
    while changed:
        changed = False
        for key, vecs in by_comp.items():
            spanned = additive_span(char, vecs, dims[key])
            nonzero = {v for v in spanned if any(v)}
            if nonzero != vecs:
                by_comp[key] = nonzero
                changed = True
        for key, vecs in list(by_comp.items()):
            for vec in list(vecs):
                for prod in products((*key, vec)):
                    w = prod[-1]
                    if any(w) and w not in by_comp[prod[:-1]]:
                        by_comp[prod[:-1]].add(w)
                        changed = True
    return frozenset((*key, v) for key, vs in by_comp.items() for v in vs)


def close_multiplicative(gens: Iterable, product, twists=lambda m: ()) -> frozenset:
    """Smallest set containing gens and closed under product and twists.

    product(a, b) is the product of two members, or None where they do
    not multiply; twists(m) lists the members reached from m by one unary
    step.  Each member is taken from the worklist once and combined, in
    both orders, with every member found before it and with itself, so
    no pair is multiplied twice.
    """
    members = list(dict.fromkeys(gens))
    seen = set(members)
    for i, m in enumerate(members):
        found = [product(m, other) for other in members[: i + 1]]
        found += [product(other, m) for other in members[:i]]
        found += twists(m)
        for c in found:
            if c is not None and c not in seen:
                seen.add(c)
                members.append(c)
    return frozenset(members)


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of a finite tabulated ring or 2-ring, ordered by size.

    Each ideal is a frozenset of members, so inclusion is subset order;
    the full lattice structure (joins, covers, maximal elements) is
    recovered from that.
    """

    ideals: tuple

    def __iter__(self):
        return iter(self.ideals)

    def __len__(self):
        return len(self.ideals)

    def bottom(self) -> frozenset:
        return self.ideals[0]

    def top(self) -> frozenset:
        return self.ideals[-1]

    def maximal_proper(self) -> list:
        top = self.top()
        proper = [i for i in self.ideals if i != top]
        return [i for i in proper if not any(i < j for j in proper)]


def ideal_lattice(members: Iterable, generate) -> IdealLattice:
    """Every ideal, as joins of the principal ideals of the members.

    generate maps a collection of members to the ideal they generate.
    The join of two comparable ideals is the larger one, so only
    incomparable pairs are joined.
    """
    ideals = {frozenset()}
    ideals.update(generate([m]) for m in members)
    changed = True
    while changed:
        changed = False
        current = list(ideals)
        for k, a in enumerate(current):
            for b in current[k + 1:]:
                if a <= b or b <= a:
                    continue
                j = generate(a | b)
                if j not in ideals:
                    ideals.add(j)
                    changed = True
    return IdealLattice(tuple(sorted(ideals, key=lambda i: (len(i), sorted(i)))))


def is_prime_ideal(ideal: frozenset, members: Iterable, product) -> bool:
    """Some member lies outside, and a product of two members outside is
    a nonzero member outside.

    members are all nonzero members; product(r, s) is None for a pair
    that does not compose.
    """
    outside = [m for m in members if m not in ideal]
    if not outside:
        return False
    for r in outside:
        for s in outside:
            prod = product(r, s)
            if prod is not None and (not any(prod[-1]) or prod in ideal):
                return False
    return True


def ideal_name(ideal: frozenset, generate, sort_key, render) -> str:
    """Name from a deterministic small generating set: members are scanned
    in sort_key order and kept when not generated by those before."""
    gens: list = []
    have: frozenset = frozenset()
    for m in sorted(ideal, key=sort_key):
        if m not in have:
            gens.append(m)
            have = generate(gens)
    return "⟨" + ",".join(render(g) for g in gens) + "⟩"


def prime_spectrum(primes: Sequence, name):
    """Finite spectral model on the named primes, plus the name-to-ideal
    mapping.  An edge p -> q means q lies in the closure of p, which for
    primes is the inclusion p inside q."""
    names = {name(i): i for i in primes}
    if len(names) != len(primes):
        raise RingShapeError("prime naming collision")
    return FiniteSpectralModel.from_inclusions(names), names


def equivalence_classes(items: Iterable, pairs: Iterable) -> list:
    """Classes of the equivalence relation on items generated by pairs,
    ordered by their sorted members."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    classes: dict = {}
    for x in parent:
        classes.setdefault(find(x), set()).add(x)
    return sorted((frozenset(c) for c in classes.values()), key=sorted)


# -- homogeneous ideals -----------------------------------------------


def ideal_generated_ring(ring: MultigradedRing, gens: Iterable) -> frozenset:
    dims = {(x,): d for x, d in ring.dims.items()}
    basis = list(ring.basis_elements())

    def products(m):
        return [mg_mul(ring, b, m) for b in basis] + [mg_mul(ring, m, b) for b in basis]

    return close_ideal(ring.char, dims, gens, products)


def ring_ideals(ring: MultigradedRing) -> IdealLattice:
    """Every homogeneous ideal, as joins of principal ideals."""
    if any(d > MAX_COMPONENT_DIM for d in ring.dims.values()):
        raise SizeBound("component dimension above the configured cap")
    return ideal_lattice(ring.homogeneous_elements(), lambda gens: ideal_generated_ring(ring, gens))


def ring_total_ideal(ring: MultigradedRing) -> frozenset:
    return frozenset(ring.homogeneous_elements())


def is_ring_prime(ring: MultigradedRing, ideal: frozenset) -> bool:
    """Proper, and rs inside forces r or s inside (homogeneous pairs)."""
    return is_prime_ideal(ideal, ring.homogeneous_elements(), lambda r, s: mg_mul(ring, r, s))


def ring_primes(ring: MultigradedRing) -> list:
    return [i for i in ring_ideals(ring) if is_ring_prime(ring, i)]


def ideal_name_ring(ring: MultigradedRing, ideal: frozenset) -> str:
    return ideal_name(ideal, lambda gens: ideal_generated_ring(ring, gens), None, ring.render)


def spech_multigraded(ring: MultigradedRing):
    """Homogeneous prime spectrum as a finite spectral model, plus the
    point-name-to-ideal mapping."""
    return prime_spectrum(ring_primes(ring), lambda i: ideal_name_ring(ring, i))


# -- multiplicative systems and fractions -----------------------------


def homogeneous_units(ring: MultigradedRing) -> list:
    """Homogeneous elements with a two-sided inverse.

    An inverse of an element of degree x has degree -x, so only partners
    of that degree are tried.  The zero ring has none by convention: its
    one element is both 0 and 1, but it is never listed as a unit.
    """
    one = (ring.group.zero, ring.one)
    out = []
    if ring.is_zero_ring():
        return out
    for u in ring.homogeneous_elements():
        x = ring.group.neg(u[0])
        for vec in all_vectors(ring.char, ring.dims[x]):
            v = (x, vec)
            if any(vec) and mg_mul(ring, u, v) == one and mg_mul(ring, v, u) == one:
                out.append(u)
                break
    return out


def mult_system_ring(ring: MultigradedRing, gens: Iterable = ()) -> frozenset:
    """Close the generators and all homogeneous units under products."""
    members = homogeneous_units(ring) + [(tuple(x), tuple(v)) for x, v in gens]
    return close_multiplicative(members, lambda a, b: mg_mul(ring, a, b))


@dataclass
class RingFractions:
    """Degreewise fraction classes of a ring at a multiplicative system.

    A fraction is a pair (numerator, denominator) of homogeneous
    elements with the denominator in the system; its degree is the
    difference.  Two fractions are identified when a chain of common
    dilations connects them.  classes maps each degree to the list of
    classes, each class a frozenset of fraction pairs.
    """

    ring: MultigradedRing
    system: frozenset
    classes: dict

    def class_of(self, frac):
        x = self.ring.group.sub(frac[0][0], frac[1][0])
        for cls in self.classes[x]:
            if frac in cls:
                return cls
        raise RingShapeError(f"fraction {frac!r} not found")

    def zero_class(self, degree):
        s = min(self.system)
        num_deg = self.ring.group.add(tuple(degree), s[0])
        return self.class_of(((num_deg, vec_zero(self.ring.dims[num_deg])), s))

    def add(self, cls_a, cls_b):
        """Class addition via an exhaustively found common denominator."""
        ra, sa = min(cls_a)
        rb, sb = min(cls_b)
        for t in self.ring.homogeneous_elements(include_zero=True):
            for t2 in self.ring.homogeneous_elements(include_zero=True):
                da = mg_mul(self.ring, sa, t)
                if da not in self.system:
                    continue
                if mg_mul(self.ring, sb, t2) != da:
                    continue
                na = mg_mul(self.ring, ra, t)
                nb = mg_mul(self.ring, rb, t2)
                if na[0] != nb[0]:
                    continue
                return self.class_of(((na[0], vec_add(self.ring.char, na[1], nb[1])), da))
        raise RingShapeError("no common denominator found")


def ring_fractions(ring: MultigradedRing, system: frozenset, max_pairs: int = 20000) -> RingFractions:
    fractions = [(r, s) for s in system for r in ring.homogeneous_elements(include_zero=True)]
    if len(fractions) > max_pairs:
        raise SizeBound("too many fraction pairs")
    elements = list(ring.homogeneous_elements())

    # Elementary dilation: (r, s) ~ (r t, s t) whenever s t stays in
    # the system; the equivalence they generate is the full one.
    def dilations():
        for r, s in fractions:
            for t in elements:
                st = mg_mul(ring, s, t)
                if st in system:
                    yield (r, s), (mg_mul(ring, r, t), st)

    classes: dict = {x: [] for x in ring.group.elements()}
    for cls in equivalence_classes(fractions, dilations()):
        rep = min(cls)
        deg = ring.group.sub(rep[0][0], rep[1][0])
        # One orbit can only mix fractions of a single degree.
        assert all(ring.group.sub(r[0], s[0]) == deg for (r, s) in cls)
        classes[deg].append(cls)
    return RingFractions(ring=ring, system=frozenset(system), classes=classes)
