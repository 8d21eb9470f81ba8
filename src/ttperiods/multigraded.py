"""Commutative rings graded by a finite abelian group, with sign tables.

A ring here is a finite tabulated object: each graded component is a
finite dimensional vector space over a prime field, multiplication is
given by structure constants, and commutativity is twisted by a
symmetric bilinear transposition table valued in the units of the
degree-zero component.  Ideal lattices, primes and spectra are linear
algebra on an AlgebraIndex (structure constants on numbered bases, shared
with 2-rings), and so is fraction localization of rings and 2-rings: the
fraction classes of a component are the quotient of one block per
denominator by the dilation relations.  Components are bounded by
diagnostics.LIMITS.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping, Sequence

from .diagnostics import Diagnosis, PASS, UsageError, failure, first_failure
from .diagnostics import Record, require_within
from .spaces import FiniteSpectralModel, is_prime


class RingShapeError(UsageError):
    """Structurally malformed ring data (bad tables, unknown names)."""


# -- the grading group ------------------------------------------------


class AbelianGroup:
    """Finite abelian group presented as a product of cyclic factors."""

    __slots__ = ("orders",)

    def __init__(self, orders: tuple[int, ...]):
        if not orders or any(n < 1 for n in orders):
            raise RingShapeError("cyclic factor orders must be positive")
        self.orders = orders

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.orders == other.orders

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
        steps, found = [self.canon(g) for g in gens], [self.zero]
        for a in found:  # found grows as the loop runs
            found += {self.add(a, g) for g in steps}.difference(found)
        return frozenset(found)


# -- vectors over the prime field -------------------------------------


def check_components(char: int, dims: Iterable[int]) -> None:
    """Refuse components past MAX_COMPONENT_DIM or MAX_COMPONENT_SIZE."""
    for d in dims:
        require_within("MAX_COMPONENT_DIM", d)
        require_within("MAX_COMPONENT_SIZE", char**d)


def vec_zero(dim: int) -> tuple[int, ...]:
    return (0,) * dim

def vec_add(p: int, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple((a + b) % p for a, b in zip(u, v))

def vec_scale(p: int, c: int, u: Sequence[int]) -> tuple[int, ...]:
    return tuple((c * a) % p for a in u)

def all_vectors(p: int, dim: int):
    return itertools.product(range(p), repeat=dim)

@functools.cache
def basis_vectors(dim: int) -> tuple:
    return tuple(tuple(int(k == i) for k in range(dim)) for i in range(dim))


def render_combo(names: Sequence[str], vec: Sequence[int]) -> str:
    """Linear combination as a short string: "x", "2y", "x+2y", "0"."""
    parts = []
    for c, nm in zip(vec, names):
        if c == 0:
            continue
        parts.append(nm if c == 1 else f"{c}{nm}")
    return "+".join(parts) if parts else "0"


# -- the ring ---------------------------------------------------------


class MultigradedRing(Record):
    """Tabulated graded-commutative ring over a prime field.

    dims, basis_names and tau are total over the group; products carries
    a table for every degree pair whose two components are nonzero.  The
    table entry products[(x, y)][i][j] is the coefficient vector of
    (basis_i of R_x) * (basis_j of R_y) inside R_{x+y}.  one is the
    multiplicative identity inside the degree-zero component, the empty
    vector for the zero ring.  The tables are read into an AlgebraIndex
    on first use; a ring with other tables is a copy made by _replace,
    which builds an index of its own.
    """

    def __init__(self, name: str, group: AbelianGroup, char: int, dims: dict,
                 basis_names: dict, products: dict, tau: dict, one: tuple[int, ...]):
        self.name, self.group, self.char, self.dims = name, group, char, dims
        self.basis_names, self.products, self.tau, self.one = basis_names, products, tau, one

    @functools.cached_property
    def index(self) -> "AlgebraIndex":
        """Structure constants on numbered bases, built on first use."""
        return ring_index(self)

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
            for f in basis_vectors(self.dims[x]):
                yield (x, f)

    def render(self, elt) -> str:
        x, vec = elt
        return render_combo(self.basis_names[tuple(x)], vec)


def mg_mul(ring: MultigradedRing, a, b):
    """Product of homogeneous elements, as (degree, vector)."""
    (x, u), (y, v) = a, b
    (z,), n, terms = ring.index.products[((x,), (y,))]
    return (z, _bilinear(ring.char, n, terms, u, v))


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
) -> MultigradedRing:
    """Build a ring from sparse, human-readable tables.

    components maps a degree to its basis names; basis names must be
    globally unique, and the identity is the degree-zero basis element
    named "1".  products maps unordered non-identity name pairs to a
    combination (None for zero, a name, or a name-to-coefficient
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
    check_components(char, dims.values())

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
    if "1" in where:
        ox, oi = where["1"]
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
        if na == "1":
            return tuple(1 if i == ib else 0 for i in range(dims[target]))
        if nb == "1":
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
    """Structural check of the ring tables, each axiom on a generating set.

    Checks the identity, associativity, and the transposition table:
    unit values, symmetry, bilinearity, and the twisted commutation law.
    Components are additive by construction and the tables bilinear, so
    the identity and commutation laws hold on every homogeneous element
    once they hold on a basis, and associativity once it holds on basis
    triples, where a triple that contains one holds by the identity law.  A
    transposition value is tested for being a unit once per distinct
    value.  Multiplicativity tau(x + y, w) = tau(x, w) tau(y, w) is checked
    for y zero or a generator of the group; induction on the length of y
    as a word in the generators gives every y; at x = y = w = 0 it makes
    the unit tau(0, 0) idempotent, so one.  A failure is named by the
    scan over every case (first_failure), so reason and detail do not
    depend on the generators.
    """
    if not is_prime(ring.char):
        return failure("char_not_prime", ring.char)
    G = ring.group
    z = G.zero
    if len(ring.one) != ring.dims[z]:
        return failure("bad_identity_shape")
    if ring.is_zero_ring():
        return PASS

    one = (z, ring.one)
    basis = list(ring.basis_elements())

    def identity_failures(elements):
        for e in elements:
            if mg_mul(ring, one, e) != e or mg_mul(ring, e, one) != e:
                yield failure("identity_fails_on", ring.render(e))

    d = first_failure(identity_failures(basis),
                      lambda: identity_failures(ring.homogeneous_elements()))
    if not d:
        return d

    rest = [e for e in basis if e != one]
    for a in rest:
        for b in rest:
            ab = mg_mul(ring, a, b)
            for c in rest:
                if mg_mul(ring, ab, c) != mg_mul(ring, a, mg_mul(ring, b, c)):
                    return failure("not_associative", ring.render(a), ring.render(b), ring.render(c))

    # The associativity above makes a one-sided inverse in R_0 two-sided.
    # A value is a vector of R_0 when its length and entries fit.
    is_unit: dict = {}
    for x in G.elements():
        for y in G.elements():
            t = ring.tau[(x, y)]
            if t not in is_unit:
                is_unit[t] = (any(t) and isinstance(t, tuple) and len(t) == ring.dims[z]
                              and all(c in range(ring.char) for c in t)
                              and ring.index.is_unit((z,), t))
            if not is_unit[t]:
                return failure("transposition_not_unit", x, y)
            if ring.tau[(y, x)] != t:
                return failure("transposition_not_symmetric", x, y)

    def bilinearity_failures(ys):
        for x in G.elements():
            for y in ys:
                for w in G.elements():
                    lhs = (z, ring.tau[(G.add(x, y), w)])
                    rhs = mg_mul(ring, (z, ring.tau[(x, w)]), (z, ring.tau[(y, w)]))
                    if lhs != rhs:
                        yield failure("transposition_not_bilinear", x, y, w)

    generators = dict.fromkeys([z] + [G.canon(e) for e in basis_vectors(len(G.orders))])
    d = first_failure(bilinearity_failures(generators),
                      lambda: bilinearity_failures(G.elements()))
    if not d:
        return d

    for a in basis:
        for b in basis:
            lhs = mg_mul(ring, a, b)
            rhs = _tau_scalar_mul(ring, ring.tau[(a[0], b[0])], mg_mul(ring, b, a))
            if lhs != rhs:
                return failure("commutation_fails", ring.render(a), ring.render(b))
    return PASS


# -- the indexed kernel -----------------------------------------------
#
# One engine serves graded rings and 2-rings.  A member is a component
# key followed by a coefficient vector: (degree, vec) in a ring,
# (src, dst, vec) in a 2-ring, so member[:-1] is its component key.  An
# AlgebraIndex, built once per ring or 2-ring from the raw tables,
# numbers the components and keeps the structure constants: the
# bilinear product (ring multiplication, or composition in a 2-ring),
# and for each component the linear maps an ideal must absorb, as small
# matrices over the prime field.  Every composable pair has a product, so
# units (a ring's, or a 2-ring's isomorphisms) are decided here too, one
# lazy search per component.  An ideal is one reduced row-echelon basis
# per component, which is canonical, held by an Ideal.  Closure is
# a worklist over newly added rows only; the componentwise sum of two
# ideals is already an ideal, so a join needs no closure.  Order, names,
# primality and containment are read off the rows; members are listed
# only to name a failure.  Multiplicative systems of both kinds are
# closed here too, by close_system, from seeds the caller chooses.


def _structure_terms(table) -> tuple:
    """The nonzero structure constants of a table by target coordinate: a
    pair (k, terms) per coordinate k where some entry w is nonzero, terms
    listing the (i, j, w[k]) with w[k] nonzero."""
    found: dict = {}
    for i, row in enumerate(table or ()):
        for j, w in enumerate(row):
            for k, c in enumerate(w):
                if c:
                    found.setdefault(k, []).append((i, j, c))
    return tuple((k, tuple(terms)) for k, terms in sorted(found.items()))


def _bilinear(p: int, n: int, terms, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """The vector of length n whose coordinate k is the sum of u_i v_j c
    over the terms (i, j, c) of k in _structure_terms, and zero where k
    has none, so the work follows the nonzero structure constants."""
    out = [0] * n
    for k, column in terms:
        total = 0
        for i, j, c in column:
            total += u[i] * v[j] * c
        out[k] = total % p
    return tuple(out)


def _apply(p: int, v, matrix) -> tuple[int, ...]:
    """Image of the row vector v under a matrix whose rows index v."""
    out = [0] * len(matrix[0])
    for c, row in zip(v, matrix):
        if c:
            for k, a in enumerate(row):
                out[k] += c * a
    return tuple(a % p for a in out)


def _pivot(v) -> int:
    """Index of the first nonzero coordinate."""
    return next(k for k, c in enumerate(v) if c)


def _line(p: int, v) -> tuple[int, ...]:
    """The multiple of a nonzero v whose first nonzero coordinate is 1."""
    inv = pow(v[_pivot(v)], p - 2, p)
    return tuple(c * inv % p for c in v)


def _reduce(p: int, basis, v) -> tuple[int, ...]:
    """v less its part along a reduced echelon basis of (pivot, row)
    pairs: zero exactly when v lies in the span.  No row has a nonzero
    entry at another row's pivot, so each coefficient is read off v."""
    out = None
    for piv, row in basis:
        c = v[piv]
        if c:
            if out is None:
                out = list(v)
            for k, b in enumerate(row):
                if b:
                    out[k] -= c * b
    return v if out is None else tuple(a % p for a in out)


def _insert(p: int, basis, v) -> tuple:
    """Reduced echelon basis of the span of basis and v, for a nonzero v
    already reduced against basis."""
    v = _line(p, v)
    piv = _pivot(v)
    rows = [(piv, v)]
    for q, row in basis:
        c = row[piv]
        rows.append((q, tuple((a - c * b) % p for a, b in zip(row, v)) if c else row))
    return tuple(sorted(rows))


def _absorb(p: int, rows: list, ideal: tuple) -> None:
    """Add each component of ideal to the matching basis in rows."""
    for c, basis in enumerate(ideal):
        for _, v in basis:
            v = _reduce(p, rows[c], v)
            if any(v):
                rows[c] = _insert(p, rows[c], v)


def _echelon(p: int, vectors: Iterable) -> tuple:
    """Reduced row-echelon basis of the span of vectors, as (pivot, row)
    pairs in pivot order."""
    basis: tuple = ()
    for v in vectors:
        v = _reduce(p, basis, tuple(v))
        if any(v):
            basis = _insert(p, basis, v)
    return basis


def in_span(p: int, rows: Iterable, target: Sequence[int]) -> bool:
    """Whether target is a linear combination of rows over F_p."""
    return not any(_reduce(p, _echelon(p, rows), tuple(target)))


def rank(p: int, vectors: Iterable) -> int:
    """Dimension of the span of vectors over F_p."""
    return len(_echelon(p, vectors))


def matrix_invertible(p: int, rows: Sequence[Sequence[int]]) -> bool:
    """Whether a square matrix over F_p has full rank."""
    n = len(rows)
    return all(len(r) == n for r in rows) and rank(p, rows) == n


class Ideal:
    """An ideal of an AlgebraIndex as one reduced echelon basis of (pivot,
    row) pairs per component number; equality and hashing read the rows
    alone, and <= and < are containment."""

    __slots__ = ("rows", "char")

    def __init__(self, rows: tuple, char: int):
        self.rows, self.char = rows, char

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __le__(self, other: "Ideal") -> bool:
        return all(len(a) <= len(b) and not any(any(_reduce(self.char, b, v)) for _, v in a)
                   for a, b in zip(self.rows, other.rows))

    def __lt__(self, other: "Ideal") -> bool:
        return self != other and self <= other


class AlgebraIndex:
    """Numbered bases and structure constants of a ring or 2-ring.

    Built once per datum from its raw tables with no axiom assumed, so
    the validators check the tables through it.  dims maps every
    component key to its dimension; products maps each pair (c, e) of
    components whose members multiply to (t, table), where table[i][j] is
    basis i of c times basis j of e (in a 2-ring: basis i of c, then basis
    j of e) inside component t, and table is None, no terms, where a
    factor is zero.  A 2-ring also gives tensors, its tensor tables in the
    same form keyed by (c, e).  identities lists the identities (key,
    vector): the one of a ring, the identity of each object of a 2-ring,
    by whose tensor on either side every ideal is closed.

    Per component number, maps lists the distinct nonzero (target
    number, matrix) maps an ideal absorbs: multiplication by each basis
    element on either side, then the tensors with identities; lines lists
    one vector per line (first nonzero coordinate 1).  inverses maps c to
    the e whose products with c, in both orders, land on identities of
    the right shape.  close and join work on the rows of ideals, is_unit
    on vectors, close_system on members, the other methods on Ideals.
    """

    def __init__(self, char: int, dims: Mapping, products: Mapping,
                 tensors: Mapping = {}, identities: Iterable = ()):
        check_components(char, dims.values())
        self.char = char
        self.keys = tuple(dims)
        self.number = {key: k for k, key in enumerate(self.keys)}
        self.dims = tuple(dims[key] for key in self.keys)
        self.zero = ((),) * len(self.keys)
        # A datum may share one table object among many keys, and products
        # and tensors hold every table while this runs, so the terms are
        # formed once per table object.
        found_terms: dict = {}

        def terms(table):
            if id(table) not in found_terms:
                found_terms[id(table)] = _structure_terms(table)
            return found_terms[id(table)]

        self.tensors = {k: (t, dims[t], terms(table)) for k, (t, table) in tensors.items()}
        self.products = {}
        maps: list = [{} for _ in self.keys]
        for (c, e), (t, table) in products.items():
            n = dims[t]
            self.products[(c, e)] = (t, n, terms(table))
            ci, ce, ct = self.number[c], self.number[e], self.number[t]
            if n == 0 or table is None:
                continue
            for j in range(dims[e]):
                maps[ci][(ct, tuple(tuple(table[i][j]) for i in range(dims[c])))] = None
            for i in range(dims[c]):
                maps[ce][(ct, tuple(tuple(table[i][j]) for j in range(dims[e])))] = None
        self.identities = dict(identities)
        for g, ident in self.identities.items():
            for c, d in zip(self.keys, self.dims):
                basis = basis_vectors(d)
                for entry, rows in (
                    (self.tensors.get((g, c)), [(ident, e) for e in basis]),
                    (self.tensors.get((c, g)), [(e, ident) for e in basis]),
                ):
                    if entry is not None and d:
                        t, n, terms = entry
                        matrix = tuple(_bilinear(char, n, terms, u, v) for u, v in rows)
                        maps[self.number[c]][(self.number[t], matrix)] = None
        self.maps = tuple(
            tuple(m for m in found if any(any(row) for row in m[1])) for found in maps
        )
        lines = {d: tuple(v for v in all_vectors(char, d) if any(v) and v[_pivot(v)] == 1)
                 for d in set(self.dims)}
        self.lines = tuple(lines[d] for d in self.dims)
        shaped = {key for key, v in self.identities.items() if len(v) == dims[key]}
        ends = {ce: t for ce, (t, _, _) in self.products.items()}
        self.inverses = {c: e for (c, e), t in ends.items()
                         if t in shaped and ends.get((e, c)) in shaped}
        self._searches: dict = {}

    def multiply(self, c, e, u, v):
        """Product of u in component c and v in component e, as (target
        key, vector)."""
        t, n, terms = self.products[(c, e)]
        return t, _bilinear(self.char, n, terms, u, v)

    def tensor(self, c, e, u, v):
        """Tensor of u in component c and v in component e, as (target
        key, vector)."""
        t, n, terms = self.tensors[(c, e)]
        return t, _bilinear(self.char, n, terms, u, v)

    def is_unit(self, c, u) -> bool:
        """Whether u in component c has a two-sided inverse: a v in
        inverses[c] with u v = 1 and v u = 1, which exists exactly when
        1 ‖ 1 lies in the span of u v ‖ v u over a basis v.  Without such
        a component, as where an identity has the wrong shape, none."""
        e = self.inverses.get(c)
        if e is None:
            return False
        p = self.char
        (t, n, left), (s, m, right) = self.products[(c, e)], self.products[(e, c)]
        rows = [_bilinear(p, n, left, u, v) + _bilinear(p, m, right, v, u)
                for v in basis_vectors(self.dims[self.number[e]])]
        return in_span(p, rows, self.identities[t] + self.identities[s])

    def units(self, c) -> "_Search":
        """The search for the units of component c, as members in the
        order all_vectors lists them; one per index and component."""
        if c not in self._searches:
            vectors = all_vectors(self.char, self.dims[self.number[c]])
            self._searches[c] = _Search((*c, v) for v in vectors if self.is_unit(c, v))
        return self._searches[c]

    def close_system(self, seeds: Iterable) -> frozenset:
        """Smallest set of members containing seeds and closed under the
        products and the tensors with identities on either side (a ring's
        index has no tensors).  Each member is taken from the worklist
        once and multiplied, in both orders, with every member found
        before it and with itself, so no ordered pair is multiplied twice.
        A seed that is not a member (its component unknown, its vector of
        the wrong length or with an entry outside 0..p-1) is refused."""
        members = list(dict.fromkeys(seeds))
        for m in members:
            c = self.number.get(m[:-1])
            if (c is None or len(m[-1]) != self.dims[c]
                    or not all(0 <= a < self.char for a in m[-1])):
                raise RingShapeError(f"system generator {m!r} is not a member")
        seen = set(members)
        ones = [(*g, v) for g, v in self.identities.items()]
        for i, m in enumerate(members):
            steps = [(self.products, m, b) for b in members[:i + 1]]
            steps += [(self.products, a, m) for a in members[:i]]
            steps += [(self.tensors, g, m) for g in ones] + [(self.tensors, m, g) for g in ones]
            for table, a, b in steps:
                if (entry := table.get((a[:-1], b[:-1]))) is not None:
                    t, n, terms = entry
                    c = (*t, _bilinear(self.char, n, terms, a[-1], b[-1]))
                    if c not in seen:
                        seen.add(c)
                        members.append(c)
        return frozenset(members)

    def split(self, member) -> tuple:
        """(component number, vector) of a member."""
        return self.number[tuple(member[:-1])], tuple(member[-1])

    def close(self, ideal: tuple, gens: Iterable, known: "Mapping | None" = None) -> tuple:
        """Smallest ideal containing ideal, itself closed, and gens, given
        as (component number, vector) pairs.  Each row added is sent once
        through every map of its component, except the maps into a full
        component, where every image reduces to zero.  known maps
        (component number, line) to that line's principal ideal q.  A row
        on a known line lies in the result, so q does too; if q also holds
        ideal and every generator, the result is q, returned at once.
        Otherwise q, being closed, is brought in with no further maps."""
        p = self.char
        dims = self.dims
        rows = list(ideal)
        gens = list(gens)
        held = [(c, v) for c, basis in enumerate(ideal) for _, v in basis] + gens
        todo = []

        def add(c, v):
            """Add v to component c; the finished closure if it is known."""
            v = _reduce(p, rows[c], v)
            if not any(v):
                return None
            q = known.get((c, _line(p, v))) if known else None
            if q is None:
                rows[c] = _insert(p, rows[c], v)
                todo.append((c, v))
            elif not any(any(_reduce(p, q[h], u)) for h, u in held):
                return q
            else:
                _absorb(p, rows, q)
            return None

        for c, v in gens:
            if (q := add(c, v)) is not None:
                return q
        while todo:
            c, v = todo.pop()
            for t, matrix in self.maps[c]:
                if len(rows[t]) < dims[t] and (q := add(t, _apply(p, v, matrix))) is not None:
                    return q
        return tuple(rows)

    def generate(self, members: Iterable) -> Ideal:
        return Ideal(self.close(self.zero, [self.split(m) for m in members]), self.char)

    def join(self, a: tuple, b: tuple) -> tuple:
        """Componentwise sum, which for ideals is again an ideal."""
        out = list(a)
        _absorb(self.char, out, b)
        return tuple(out)

    def members(self, ideal: Ideal) -> frozenset:
        """The nonzero members of an ideal."""
        p, out = self.char, []
        for key, rows, d in zip(self.keys, ideal.rows, self.dims):
            vecs = [vec_zero(d)]
            for _, row in rows:
                vecs = [vec_add(p, v, vec_scale(p, c, row)) for v in vecs for c in range(p)]
            out.extend((*key, v) for v in vecs if any(v))
        return frozenset(out)

    def lattice(self) -> "IdealLattice":
        """Every ideal: the zero ideal and all joins of principal ideals,
        one principal ideal per line, since scalar multiples generate the
        same ideal.  Ideals come by member count, then by sorted members,
        which compare as the rows do, components in key order and pivots
        descending, since a combination of rows orders as its coefficients."""
        zero = self.zero
        known: dict = {}
        for c, lines in enumerate(self.lines):
            for v in lines:
                known[(c, v)] = self.close(zero, [(c, v)], known)
        principal = list(dict.fromkeys(known.values()))
        found = [zero, *principal]
        seen = set(found)
        for ideal in found:
            for q in principal:
                j = self.join(ideal, q)
                if j not in seen:
                    seen.add(j)
                    found.append(j)
        p, order = self.char, sorted(range(len(self.keys)), key=self.keys.__getitem__)
        found.sort(key=lambda rows: (sum(p ** len(b) - 1 for b in rows), [
            (*self.keys[c], v) for c in order for _, v in reversed(rows[c])]))
        return IdealLattice(tuple(Ideal(rows, p) for rows in found))

    def is_prime(self, ideal: Ideal) -> bool:
        """The ideal is proper, and a product of two members outside it is
        a nonzero member outside it.  Scalars do not change either
        condition, so one vector per line is tried."""
        p, ideal = self.char, ideal.rows
        outside = [[v for v in lines if any(_reduce(p, rows, v))]
                   for lines, rows in zip(self.lines, ideal)]
        if not any(outside):
            return False
        for (c, e), (t, n, terms) in self.products.items():
            rows = ideal[self.number[t]]
            for r in outside[self.number[c]]:
                for s in outside[self.number[e]]:
                    if not any(_reduce(p, rows, _bilinear(p, n, terms, r, s))):
                        return False
        return True

    def name(self, ideal: Ideal, component_key, render) -> str:
        """Name from a deterministic small generating set: members, by
        component in component_key order and then by vector, each kept when
        not in the ideal those kept before generate.  In a component that is
        the row of largest pivot not yet in that ideal, so only rows are
        scanned; the ideal grows by closing from where it stands."""
        p, gens, have = self.char, [], self.zero
        for key in sorted(self.keys, key=component_key):
            c = self.number[key]
            for _, v in reversed(ideal.rows[c]):
                if any(_reduce(p, have[c], v)):
                    gens.append((*key, v))
                    have = self.close(have, [(c, v)])
        return "⟨" + ",".join(render(g) for g in gens) + "⟩"


class _Search:
    """The hits of a lazy search, kept as they are found: first reads up
    to the first hit, all to the end."""

    def __init__(self, hits: Iterable):
        self._rest, self._found = iter(hits), []

    def first(self):
        if not self._found:
            self._found.extend(itertools.islice(self._rest, 1))
        return self._found[0] if self._found else None

    @functools.cached_property
    def all(self) -> tuple:
        self._found.extend(self._rest)
        return tuple(self._found)


class FractionQuotient:
    """The fraction classes of one target component of a localization:
    the one engine of ring and 2-ring fractions (Gabriel and Zisman,
    Calculus of Fractions and Homotopy Theory, 1967).

    blocks lists each denominator s with the dimension of its numerators,
    in scan order; their direct sum has one coordinate per basis
    numerator.  dilations lists (s, su, rows), rows[i] being basis
    numerator i times u, in the block of su.  (s, f) ~ (su, f u) is
    linear in f, so the relations e_s(f) - e_su(f u) over basis f span
    them all; the classes are the quotient by that span, a filtered
    colimit of vector spaces, whose elements are the classes of single
    fractions, and relations is its reduced echelon basis.  A relation
    is nonzero in two blocks at most, and is reduced only through the
    rows at its own nonzero coordinates.  basis lists
    the fractions (s, f) scanned first whose classes are independent of
    those before, and a class is given by its coordinates in that basis,
    dim of them.
    """

    def __init__(self, p: int, blocks: Iterable, dilations: Iterable):
        self.p = p
        self.blocks = tuple(blocks)
        self.dilations = tuple(dilations)
        self.offsets = {}
        n = 0
        for s, d in self.blocks:
            self.offsets[s] = (n, d)
            n += d
        self.length = n
        # Each row is kept by its pivot as {column: entry} off the pivot,
        # where it is 1, and is zero at every other pivot, so a relation
        # is reduced by the rows at its coordinates, scaled by its entries.
        rows: dict = {}
        for s, su, images in self.dilations:
            if len(rows) == n:
                break
            i0, _ = self.offsets[s]
            j0, _ = self.offsets[su]
            for i, image in enumerate(images):
                v = {j0 + k: -c for k, c in enumerate(image) if c}
                v[i0 + i] = v.get(i0 + i, 0) + 1
                out: dict = {}
                for k, c in v.items():
                    if k in rows:
                        for col, b in rows[k].items():
                            out[col] = out.get(col, 0) - c * b
                    else:
                        out[k] = out.get(k, 0) + c
                out = {k: c % p for k, c in out.items() if c % p}
                if out:
                    piv = min(out)
                    inv = pow(out.pop(piv), p - 2, p)
                    new = {k: c * inv % p for k, c in out.items()}
                    # The new row's pivot is cleared from the rows that hold it.
                    for row in rows.values():
                        if c := row.pop(piv, 0):
                            for col, b in new.items():
                                row[col] = (row.get(col, 0) - c * b) % p
                    rows[piv] = new
        self.relations = tuple((piv, tuple(rows[piv].get(k, int(k == piv)) for k in range(n)))
                               for piv in sorted(rows))
        self.dim = n - len(rows)
        # Fractions are scanned in order of denominator, then numerator;
        # the lexicographically least vector outside a subspace is the
        # basis vector of largest index outside it, so each block is
        # scanned from its last basis vector.  A fraction kept joins the
        # relations tagged with its own unit vector, so reducing a fraction
        # against them leaves minus its coordinates in the tag.
        self.basis: list = []
        self._tagged = tuple((piv, row + (0,) * self.dim) for piv, row in self.relations)
        tags = basis_vectors(self.dim)
        for s, d in self.blocks:
            for f in reversed(basis_vectors(d)):
                if len(self.basis) == self.dim:
                    break
                v = _reduce(p, self._tagged, self._embed(s, f) + tags[len(self.basis)])
                if any(v[:n]):
                    self._tagged = _insert(p, self._tagged, v)
                    self.basis.append((s, f))

    def _embed(self, s, vec) -> tuple:
        if s not in self.offsets or len(vec) != self.offsets[s][1]:
            raise RingShapeError(f"no block for the fraction {(s, vec)!r}")
        i0, d = self.offsets[s]
        v = [0] * self.length
        v[i0:i0 + d] = vec
        return tuple(v)

    def class_of(self, s, vec) -> tuple:
        """Coordinates in the basis of the class of the fraction (s, vec)."""
        v = _reduce(self.p, self._tagged, self._embed(s, vec) + (0,) * self.dim)
        return tuple(-c % self.p for c in v[self.length:])


class IdealLattice:
    """All ideals of a finite tabulated ring or 2-ring, as Ideals in
    lattice order; joins, covers and maximal elements follow from <=."""

    __slots__ = ("ideals",)

    def __init__(self, ideals: tuple):
        self.ideals = ideals

    def __iter__(self):
        return iter(self.ideals)

    def __len__(self):
        return len(self.ideals)

    def bottom(self) -> Ideal:
        return self.ideals[0]

    def top(self) -> Ideal:
        return self.ideals[-1]

    def maximal_proper(self) -> list:
        proper = self.ideals[:-1]  # i < j only for j later in the order
        return [i for k, i in enumerate(proper) if not any(i < j for j in proper[k + 1:])]


def prime_spectrum(primes: Sequence, name):
    """Finite spectral model on the named primes, plus the name-to-ideal
    mapping.  An edge p -> q means q lies in the closure of p, which for
    primes is the inclusion p inside q: each prime is the mask of those
    inside it."""
    names = {name(i): i for i in primes}
    if len(names) != len(primes):
        raise RingShapeError("prime naming collision")
    masks = {nm: sum(1 << k for k, q in enumerate(primes) if q <= i) for nm, i in names.items()}
    return FiniteSpectralModel.from_inclusion_masks(masks, len(primes)), names


# -- homogeneous ideals -----------------------------------------------


def ring_index(ring: MultigradedRing) -> AlgebraIndex:
    """Index of a ring; its component keys are the one-tuples (degree,),
    and its one identity is the one at degree zero."""
    dims = {(x,): d for x, d in ring.dims.items()}
    products = {
        ((x,), (y,)): ((ring.group.add(x, y),),
                       ring.products.get((x, y)) if ring.dims[x] and ring.dims[y] else None)
        for x in ring.dims for y in ring.dims
    }
    return AlgebraIndex(ring.char, dims, products, identities=[((ring.group.zero,), ring.one)])


def ring_ideals(ring: MultigradedRing) -> IdealLattice:
    """Every homogeneous ideal, as joins of principal ideals."""
    return ring.index.lattice()


def is_ring_prime(ring: MultigradedRing, ideal: Ideal) -> bool:
    """Proper, and rs inside forces r or s inside (homogeneous pairs)."""
    return ring.index.is_prime(ideal)


# -- multiplicative systems and fractions -----------------------------


def homogeneous_units(ring: MultigradedRing) -> list:
    """Nonzero homogeneous elements with a two-sided inverse, by degree.

    The zero ring has none by convention: its one element is both 0 and 1,
    but it is never listed as a unit.  Zero is a unit of no other ring that
    passes validate_multigraded: a zero one fails there at
    identity_fails_on.
    """
    if ring.is_zero_ring():
        return []
    return [u for x in ring.group.elements() for u in ring.index.units((x,)).all if any(u[1])]


def mult_system_ring(ring: MultigradedRing, gens: Iterable = ()) -> frozenset:
    """Close the generators and all homogeneous units under products."""
    seeds = homogeneous_units(ring) + [(tuple(x), tuple(v)) for x, v in gens]
    return ring.index.close_system(seeds)


def ring_fractions(ring: MultigradedRing, system: frozenset) -> dict:
    """Degreewise fraction classes of a ring at a multiplicative system.

    A fraction is a pair (numerator, denominator) of homogeneous elements
    with the denominator in the system; its degree is the difference.
    The result maps each degree x to the FractionQuotient whose
    denominators are the system, each with numerators in degree x plus
    its own, under the dilations (r, s) ~ (r t, s t) for every nonzero
    homogeneous t with s t in the system.  The class of (r, s) in degree
    x is quotients[x].class_of(s, r), a coordinate vector, so addition is
    a vector sum.
    """
    require_within("MAX_FRACTION_PAIRS", len(system) * sum(ring.char**d for d in ring.dims.values()))
    group = ring.group
    denominators = sorted(system)
    # s t does not depend on the numerator, so each (s, t) is multiplied once.
    dilations = [(s, t, st) for s in denominators for t in ring.homogeneous_elements()
                 if (st := mg_mul(ring, s, t)) in system]
    # r -> r t depends on t and the degree of r alone.
    times = {(t, y): [mg_mul(ring, (y, f), t)[1] for f in basis_vectors(ring.dims[y])]
             for t in {t for _, t, _ in dilations} for y in group.elements()}
    quotients = {}
    for x in group.elements():
        numerators = {s: group.add(x, s[0]) for s in denominators}
        quotients[x] = FractionQuotient(
            ring.char,
            [(s, ring.dims[numerators[s]]) for s in denominators],
            [(s, st, times[(t, numerators[s])]) for s, t, st in dilations],
        )
    return quotients
