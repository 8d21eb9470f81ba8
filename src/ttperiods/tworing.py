"""Tabulated graded commutative 2-rings and their spectra.

A 2-ring here is a finite preadditive symmetric monoidal category with
every object tensor-invertible, stored as explicit tables: objects
labeled by a finite abelian group, hom components as vector spaces over
a prime field, bilinear composition and tensor tables, and a symmetry
element for each object pair.  On top of the datum sit categorical
ideals and their primes, a Zariski-style spectrum, the translate oracle,
tightening validation against a graded ring, the executable ideal
correspondence between the two sides, and localization by a two-sided
calculus of fractions.
Ideals, primes, inverses and the span classes of a localization are
linear algebra on the AlgebraIndex the datum shares with graded rings
(span classes through the fraction engine ring fractions use too).  The
validators check each axiom on generators, bilinear ones on basis
morphisms, and scan every case only to name a failure; everything else,
such as the exchange squares that compose span classes, is decided by
exhaustive enumeration over the finite tables.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, NamedTuple, Sequence

from .diagnostics import Diagnosis, PASS, Record, UsageError, failure, first_failure, require_within
from .multigraded import (
    AbelianGroup,
    AlgebraIndex,
    FractionQuotient,
    Ideal,
    IdealLattice,
    MultigradedRing,
    RingShapeError,
    _apply,
    _echelon,
    _reduce,
    all_vectors,
    basis_vectors,
    is_ring_prime,
    matrix_invertible,
    mg_mul,
    mult_system_ring,
    prime_spectrum,
    rank,
    render_combo,
    ring_fractions,
    ring_ideals,
    validate_multigraded,
    vec_zero,
)
from .spaces import FiniteSpectralModel, is_prime


class BadShapes(UsageError):
    """Morphism endpoints do not fit the requested operation."""


class ShapeMismatch(UsageError):
    """Tightening data whose shapes do not match the 2-ring."""


# -- the datum --------------------------------------------------------
#
# A morphism is a triple (src, dst, vec).  compose_tables[(a, b, c)]
# maps basis index i of Hom(a, b) and j of Hom(b, c) to the vector of
# basis_j composed after basis_i.  tensor_tables[(a, b, c, d)] maps
# basis i of Hom(a, b) and j of Hom(c, d) to the vector of their tensor
# inside Hom(a tensor c, b tensor d).  A table is a tuple of rows, and
# one tuple may serve several keys.  The tables are read into the
# datum's AlgebraIndex, a cached property, on first use; a copy made with
# _replace builds an index of its own.


class TwoRingDatum(Record):
    def __init__(self, name: str, group: AbelianGroup, char: int, objects: tuple,
                 labels: dict, unit: str, support: frozenset, dims: dict,
                 basis_names: dict, compose_tables: dict, tensor_obj: dict,
                 tensor_tables: dict, identities: dict, symmetry: dict):
        self.name, self.group, self.char, self.objects = name, group, char, objects
        self.labels, self.unit, self.support, self.dims = labels, unit, support, dims
        self.basis_names, self.compose_tables, self.tensor_obj = basis_names, compose_tables, tensor_obj
        self.tensor_tables, self.identities, self.symmetry = tensor_tables, identities, symmetry

    @functools.cached_property
    def index(self) -> AlgebraIndex:
        """Structure constants on numbered bases, built on first use."""
        return two_ring_index(self)

    def hom_dim(self, a, b) -> int:
        return self.dims.get((a, b), 0)

    def identity(self, a):
        return (a, a, self.identities[a])

    def homs(self, a, b, include_zero: bool = False):
        for vec in all_vectors(self.char, self.hom_dim(a, b)):
            if include_zero or any(vec):
                yield (a, b, vec)

    def morphisms(self, include_zero: bool = False):
        for a in self.objects:
            for b in self.objects:
                yield from self.homs(a, b, include_zero)

    def basis_morphisms(self):
        for a in self.objects:
            for b in self.objects:
                for f in basis_vectors(self.hom_dim(a, b)):
                    yield (a, b, f)

    def render(self, mor) -> str:
        a, b, vec = mor
        body = render_combo(self.basis_names[(a, b)], vec)
        if a == self.unit:
            return body
        return f"{body}@{a}→{b}"


def compose(R2: TwoRingDatum, g, f):
    """g after f; endpoints must chain."""
    a, b, u = f
    b2, c, v = g
    if b != b2:
        raise BadShapes(f"cannot compose {R2.render(g)} after {R2.render(f)}")
    return (a, c, R2.index.multiply((a, b), (b, c), u, v)[1])


def tensor(R2: TwoRingDatum, f, g):
    """Tensor product of two morphisms."""
    a, b, u = f
    c, d, v = g
    (src, dst), vec = R2.index.tensor((a, b), (c, d), u, v)
    return (src, dst, vec)


def two_ring_index(R2: TwoRingDatum) -> AlgebraIndex:
    """Index of a 2-ring: components are hom spaces keyed (src, dst), the
    product is composition, every object quadruple whose tensor objects
    exist has a tensor, and an ideal also absorbs the tensor with every
    object's identity on either side.  Its units are the isomorphisms."""
    objs = R2.objects
    dims = {(a, b): R2.hom_dim(a, b) for a in objs for b in objs}
    products = {
        ((a, b), (b, c)): ((a, c), R2.compose_tables.get((a, b, c))
                           if dims[(a, b)] and dims[(b, c)] else None)
        for a in objs for b in objs for c in objs
    }
    tensors = {
        ((a, b), (c, d)): (t, R2.tensor_tables.get((a, b, c, d))
                           if dims[(a, b)] and dims[(c, d)] else None)
        for a, b in dims for c, d in dims
        if (t := (R2.tensor_obj.get((a, c)), R2.tensor_obj.get((b, d)))) in dims
    }
    identities = [((g, g), R2.identities.get(g, ())) for g in objs]
    return AlgebraIndex(R2.char, dims, products, tensors, identities)


def isomorphisms(R2: TwoRingDatum, a, b) -> tuple:
    """All invertible morphisms from a to b, in enumeration order."""
    return R2.index.units((a, b)).all


def has_iso(R2: TwoRingDatum, a, b) -> bool:
    """Whether a and b are isomorphic; the search stops at the first hit."""
    return R2.index.units((a, b)).first() is not None


def _first_iso(R2: TwoRingDatum, a, b, target: str):
    """The first isomorphism from a to b; ShapeMismatch naming the target
    when there is none."""
    found = R2.index.units((a, b)).first()
    if found is None:
        raise ShapeMismatch(f"no isomorphism from {a!r} to {target}")
    return found


# -- construction from a graded ring ----------------------------------


def object_name(group: AbelianGroup, label) -> str:
    return ",".join(str(k) for k in group.canon(label))


def _basis_table(ring: MultigradedRing, x, y, factor, reverse: bool) -> tuple:
    """Row i, column j: basis i of R_x times basis j of R_y (in the other
    order if reverse), times the degree-zero factor unless it is None."""
    rows = []
    for f in basis_vectors(ring.dims[x]):
        row = []
        for g in basis_vectors(ring.dims[y]):
            prod = mg_mul(ring, (y, g), (x, f)) if reverse else mg_mul(ring, (x, f), (y, g))
            row.append((prod if factor is None else mg_mul(ring, factor, prod))[1])
        rows.append(tuple(row))
    return tuple(rows)


def two_ring_from_multigraded(
    ring: MultigradedRing,
    name: str | None = None,
    extra_objects: Sequence = (),
) -> TwoRingDatum:
    """One object per grading element, homs given by degree difference.

    Composition is the ring product; the tensor of morphisms picks up a
    transposition factor against the source label, which makes the
    interchange law hold whenever every transposition value squares to
    the identity (enforced here).  extra_objects adds duplicate objects
    (name, label) to exercise non-skeletal behavior; object-level tensor
    always lands on the original representative of the sum label.
    A composition table depends only on the two hom degrees and a tensor
    table also on its transposition factor, so each is formed once per
    such key and shared by every object tuple with that key.
    """
    group = ring.group
    require_within("MAX_OBJECTS", group.order() + len(extra_objects))
    zero = group.zero
    one = (zero, ring.one)
    factors = {ring.tau[(x, y)] for x in group.elements() for y in group.elements()}
    if not ring.is_zero_ring() and any(mg_mul(ring, (zero, t), (zero, t)) != one for t in factors):
        raise RingShapeError("transposition value does not square to one")

    labels = {object_name(group, x): x for x in group.elements()}
    objects = [object_name(group, x) for x in group.elements()]
    for nm, lab in extra_objects:
        if nm in labels:
            raise RingShapeError(f"duplicate object name {nm!r}")
        labels[nm] = group.canon(lab)
        objects.append(nm)

    deg = {(a, b): group.sub(labels[b], labels[a]) for a in objects for b in objects}
    dims = {ab: ring.dims[x] for ab, x in deg.items()}
    homs = [ab for ab in deg if dims[ab]]
    tables = {}

    def table(*key):
        if key not in tables:
            tables[key] = _basis_table(ring, *key)
        return tables[key]

    return TwoRingDatum(
        name=name or ring.name,
        group=group,
        char=ring.char,
        objects=tuple(objects),
        labels=labels,
        unit=object_name(group, zero),
        support=frozenset(group.elements()),
        dims=dims,
        basis_names={ab: ring.basis_names[x] for ab, x in deg.items()},
        compose_tables={
            (a, b, c): table(deg[a, b], deg[b, c], None, True)
            for a, b in homs for c in objects if dims[b, c]
        },
        tensor_obj={(a, b): object_name(group, group.add(labels[a], labels[b])) for a, b in deg},
        tensor_tables={
            (a, b, c, d): table(deg[a, b], deg[c, d], (zero, ring.tau[deg[c, d], labels[a]]), False)
            for a, b in homs for c, d in homs
        },
        identities={a: ring.one for a in objects},
        symmetry={(a, b): ring.tau[labels[a], labels[b]] for a, b in deg},
    )


# -- validation -------------------------------------------------------


def validate_two_ring(R2: TwoRingDatum) -> Diagnosis:
    """Check of the category, tensor, and symmetry axioms, the bilinear
    ones on basis morphisms.

    Additivity in each variable is free from the table representation,
    so unitality, associativity and naturality of the symmetry hold once
    they hold on basis morphisms.  The interchange law is checked by the
    bifunctor lemma (Mac Lane, Categories for the Working Mathematician,
    Prop. II.3.1): it holds exactly when every 1_a tensor - and
    - tensor 1_a is a functor and f tensor g = (f tensor 1)(1 tensor g)
    = (1 tensor g)(f tensor 1) for basis morphisms f and g.  That takes
    composable pairs times objects plus basis pairs, not composable pairs
    squared; a failure is named by the scan over every pair of
    composable pairs (first_failure).  Unit behavior of the tensor is
    required only up to isomorphism, so duplicate objects with chosen
    isomorphisms are allowed.
    """
    if not is_prime(R2.char):
        return failure("characteristic_not_prime", R2.char)
    # shapes
    for a in R2.objects:
        if a not in R2.labels:
            return failure("object_without_label", a)
        if len(R2.identities.get(a, ())) != R2.hom_dim(a, a):
            return failure("bad_identity_shape", a)
    if R2.labels.get(R2.unit) != R2.group.zero:
        return failure("unit_not_labeled_zero")
    zero = R2.group.zero
    if zero not in R2.support:
        return failure("support_without_identity")
    for x in R2.support:
        for y in R2.support:
            if R2.group.add(x, y) not in R2.support:
                return failure("support_not_submonoid", x, y)
    for a in R2.objects:
        for b in R2.objects:
            diff = R2.group.sub(R2.labels[b], R2.labels[a])
            if R2.hom_dim(a, b) > 0 and diff not in R2.support:
                return failure("component_outside_support", a, b)
            if len(R2.basis_names[(a, b)]) != R2.hom_dim(a, b):
                return failure("bad_basis_names", a, b)

    # composition: associative and unital
    basis = list(R2.basis_morphisms())
    for f in basis:
        if compose(R2, R2.identity(f[1]), f) != f or compose(R2, f, R2.identity(f[0])) != f:
            return failure("composition_not_unital", R2.render(f))
    # Each composite, and below each tensor, of two basis morphisms is
    # formed once.
    composites = {(f, g): compose(R2, g, f) for f in basis for g in basis if g[0] == f[1]}
    for (f, g), gf in composites.items():
        for h in basis:
            if h[0] == g[1] and compose(R2, h, gf) != compose(R2, composites[(g, h)], f):
                return failure("composition_not_associative",
                               R2.render(f), R2.render(g), R2.render(h))

    # object-level tensor
    for a in R2.objects:
        for b in R2.objects:
            t = R2.tensor_obj.get((a, b))
            if t not in R2.labels:
                return failure("tensor_object_missing", a, b)
            if R2.labels[t] != R2.group.add(R2.labels[a], R2.labels[b]):
                return failure("tensor_label_mismatch", a, b)
    for a in R2.objects:
        for b in R2.objects:
            for c in R2.objects:
                if R2.tensor_obj[(R2.tensor_obj[(a, b)], c)] != R2.tensor_obj[(a, R2.tensor_obj[(b, c)])]:
                    return failure("tensor_object_not_associative", a, b, c)

    # tensor on morphisms: identities and interchange
    for a in R2.objects:
        for b in R2.objects:
            ab = R2.tensor_obj[(a, b)]
            if tensor(R2, R2.identity(a), R2.identity(b)) != R2.identity(ab):
                return failure("tensor_of_identities", a, b)
    tensors = {(f, g): tensor(R2, f, g) for f in basis for g in basis}
    d = first_failure(_bifunctor_failures(R2, basis, composites, tensors),
                      lambda: _interchange_failures(R2, composites, tensors))
    if not d:
        return d

    # invertibility of objects, including unit coherence up to iso
    for a in R2.objects:
        if not any(has_iso(R2, R2.tensor_obj[(a, b)], R2.unit) for b in R2.objects):
            return failure("object_not_invertible", a)
        if not has_iso(R2, R2.tensor_obj[(a, R2.unit)], a):
            return failure("unit_tensor_not_isomorphic", a)
        if not has_iso(R2, R2.tensor_obj[(R2.unit, a)], a):
            return failure("unit_tensor_not_isomorphic", a)

    # symmetry: isomorphism, involutive, natural, and multiplicative
    for a in R2.objects:
        for b in R2.objects:
            ab = R2.tensor_obj[(a, b)]
            ba = R2.tensor_obj[(b, a)]
            s = (ab, ba, R2.symmetry[(a, b)])
            if len(s[2]) != R2.hom_dim(ab, ba):
                return failure("symmetry_bad_shape", a, b)
            sb = (ba, ab, R2.symmetry[(b, a)])
            if compose(R2, sb, s) != R2.identity(ab):
                return failure("symmetry_not_involutive", a, b)
    for f in basis:
        for g in basis:
            a, a2 = f[0], f[1]
            b, b2 = g[0], g[1]
            s1 = (R2.tensor_obj[(a, b)], R2.tensor_obj[(b, a)], R2.symmetry[(a, b)])
            s2 = (R2.tensor_obj[(a2, b2)], R2.tensor_obj[(b2, a2)], R2.symmetry[(a2, b2)])
            if compose(R2, s2, tensors[(f, g)]) != compose(R2, tensors[(g, f)], s1):
                return failure("symmetry_not_natural", R2.render(f), R2.render(g))
    for a in R2.objects:
        for b in R2.objects:
            for c in R2.objects:
                bc = R2.tensor_obj[(b, c)]
                lhs = (R2.tensor_obj[(a, bc)], R2.tensor_obj[(bc, a)], R2.symmetry[(a, bc)])
                first = tensor(R2, (R2.tensor_obj[(a, b)], R2.tensor_obj[(b, a)], R2.symmetry[(a, b)]),
                               R2.identity(c))
                second = tensor(R2, R2.identity(b),
                                (R2.tensor_obj[(a, c)], R2.tensor_obj[(c, a)], R2.symmetry[(a, c)]))
                if compose(R2, second, first) != lhs:
                    return failure("symmetry_not_multiplicative", a, b, c)
    return PASS


def _bifunctor_failures(R2: TwoRingDatum, basis: list, composites: dict, tensors: dict):
    """The failures of the bifunctor lemma's conditions on basis
    morphisms: functoriality of 1_a tensor - and - tensor 1_a on each
    composable pair, then both factorizations of each tensor."""
    ident = {a: R2.identity(a) for a in R2.objects}
    left = {(a, f): tensor(R2, i, f) for a, i in ident.items() for f in basis}
    right = {(f, a): tensor(R2, f, i) for a, i in ident.items() for f in basis}
    for (f, f2), f2f in composites.items():
        for a, i in ident.items():
            if (compose(R2, left[(a, f2)], left[(a, f)]) != tensor(R2, i, f2f)
                    or compose(R2, right[(f2, a)], right[(f, a)]) != tensor(R2, f2f, i)):
                yield failure("interchange_fails")
    for (f, g), fg in tensors.items():
        if (compose(R2, right[(f, g[1])], left[(f[0], g)]) != fg
                or compose(R2, left[(f[1], g)], right[(f, g[0])]) != fg):
            yield failure("interchange_fails")


def _interchange_failures(R2: TwoRingDatum, composites: dict, tensors: dict):
    """The failures of the interchange law on every pair of composable
    pairs of basis morphisms, in scan order."""
    for (f, f2), f2f in composites.items():
        for (g, g2), g2g in composites.items():
            lhs = compose(R2, tensors[(f2, g2)], tensors[(f, g)])
            if lhs != tensor(R2, f2f, g2g):
                yield failure("interchange_fails",
                              R2.render(f), R2.render(f2), R2.render(g), R2.render(g2))


# -- translation oracle -----------------------------------------------


def is_translate(R2: TwoRingDatum, r, s) -> bool:
    """Whether s equals some twist of r framed by isomorphisms.

    Decided by exhaustive search: one object-level twist suffices, so s
    must factor as v after (g tensor r) after u with u, v invertible.
    """
    for g in R2.objects:
        tw = tensor(R2, R2.identity(g), r)
        for u in isomorphisms(R2, s[0], tw[0]):
            left = compose(R2, tw, u)
            for v in isomorphisms(R2, tw[1], s[1]):
                if compose(R2, v, left) == s:
                    return True
    return False


def translate_closure(R2: TwoRingDatum, base: Iterable) -> frozenset:
    """All morphisms that are translates of some member of base: every
    v after (g tensor b) after u with u, v invertible, each stage
    deduplicated before the next."""
    twisted = {tensor(R2, R2.identity(g), b) for b in base for g in R2.objects}
    framed = {compose(R2, t, u) for t in twisted for k in R2.objects
              for u in isomorphisms(R2, k, t[0])}
    return frozenset(compose(R2, v, m) for m in framed for k in R2.objects
                     for v in isomorphisms(R2, m[1], k))


# -- categorical ideals and the spectrum ------------------------------


def ideal_generated_two(R2: TwoRingDatum, gens: Iterable) -> Ideal:
    """Smallest morphism class closed under sums, composition with
    anything on either side, and twists by every object."""
    return R2.index.generate(gens)


def homogeneous_ideals(R2: TwoRingDatum) -> IdealLattice:
    """Every categorical ideal, generated as joins of principal ones."""
    return R2.index.lattice()


def is_prime_two(R2: TwoRingDatum, ideal: Ideal) -> bool:
    """Proper, and a composite inside forces a factor inside."""
    return R2.index.is_prime(ideal)


def ideal_name_two(R2: TwoRingDatum, ideal: Ideal) -> str:
    """Generators scan unit-sourced morphisms first, then by object order."""
    order = {o: k for k, o in enumerate(R2.objects)}
    return R2.index.name(
        ideal,
        lambda key: (key[0] != R2.unit, order[key[0]], order[key[1]]),
        R2.render,
    )


def spc_with_primes(R2: TwoRingDatum):
    """Prime spectrum with the name-to-ideal mapping."""
    primes = [i for i in homogeneous_ideals(R2) if is_prime_two(R2, i)]
    return prime_spectrum(primes, lambda i: ideal_name_two(R2, i))


def spc(R2: TwoRingDatum) -> FiniteSpectralModel:
    """Prime spectrum as a finite spectral model; an edge p -> q means
    q lies in the closure of p, which here is inclusion of ideals."""
    return spc_with_primes(R2)[0]


# -- tightenings ------------------------------------------------------


class Tightening(NamedTuple):
    """A graded ring presented as the unit-sourced homs of a 2-ring.

    projection maps ring degrees onto object labels; representatives
    chooses one object per label in the image, the unit for the zero
    label; phi[x] is the matrix (rows index ring basis vectors of the
    degree-x component) of the identification of that component with
    the homs from the unit into the chosen representative.
    """

    name: str
    ring: MultigradedRing
    projection: dict
    representatives: dict
    phi: dict


def phi_apply(T: Tightening, R2: TwoRingDatum, elt):
    """Image of a homogeneous ring element as a unit-sourced morphism."""
    x, vec = elt
    target = T.representatives[T.projection[x]]
    rows = T.phi[x]
    out = _apply(R2.char, vec, rows) if rows else vec_zero(R2.hom_dim(R2.unit, target))
    return (R2.unit, target, out)


def _check_tightening_shapes(T: Tightening, R2: TwoRingDatum) -> None:
    ring = T.ring
    G = ring.group
    labels_present = {R2.labels[o] for o in R2.objects}
    for x in G.elements():
        if x not in T.projection:
            raise ShapeMismatch(f"projection misses degree {x}")
        if tuple(T.projection[x]) not in labels_present:
            raise ShapeMismatch(f"projection of {x} is not an object label")
    for x in G.elements():
        for y in G.elements():
            if T.projection[G.add(x, y)] != R2.group.add(T.projection[x], T.projection[y]):
                raise ShapeMismatch("projection is not a homomorphism")
    if {tuple(v) for v in T.projection.values()} != labels_present:
        raise ShapeMismatch("projection is not surjective onto the object labels")
    for lab in labels_present:
        if lab not in T.representatives:
            raise ShapeMismatch(f"no representative for label {lab}")
        rep = T.representatives[lab]
        if rep not in R2.labels or R2.labels[rep] != lab:
            raise ShapeMismatch(f"representative {rep!r} has the wrong label")
    if T.representatives[R2.group.zero] != R2.unit:
        raise ShapeMismatch("zero label must be represented by the unit object")
    for x in G.elements():
        rows = T.phi.get(x)
        if rows is None:
            raise ShapeMismatch(f"no component identification at degree {x}")
        target = T.representatives[T.projection[x]]
        want = R2.hom_dim(R2.unit, target)
        if len(rows) != ring.dims[x] or any(len(r) != want for r in rows):
            raise ShapeMismatch(f"identification at degree {x} has wrong shape")
        if ring.dims[x] != want or not (
            ring.dims[x] == 0 or matrix_invertible(R2.char, rows)
        ):
            raise ShapeMismatch(f"identification at degree {x} is not bijective")


def _unit_mediator(R2: TwoRingDatum, g):
    """Canonical isomorphism from g to g tensor unit."""
    target = R2.tensor_obj[(g, R2.unit)]
    if target == g:
        return R2.identity(g)
    return _first_iso(R2, g, target, "its unit tensor")


def validate_tightening(T: Tightening, R2: TwoRingDatum) -> Diagnosis:
    """Check the two compatibility axioms on generators of the ring.

    The first axiom asks the identification to turn products with a
    degree-zero element into composition with its unit endomorphism.
    Both sides are bilinear, so it is checked on pairs of basis vectors
    and a failure is named by the scan over every pair (first_failure).
    The second asks the twisted composite of two identified elements to
    be a translate of the identified product; when the chosen
    representative is not strictly unital for the tensor, a canonical
    mediating isomorphism is inserted first.  Scaling r and s by nonzero
    l and m scales both sides by lm, and being a translate is invariant
    under a common nonzero scalar, so one vector per line of each
    component decides it.  The lines come in the order the nonzero
    vectors are listed, and the first vector of each line is the one the
    check takes, so the first failure is the first over all pairs.
    """
    d = validate_multigraded(T.ring)
    if not d:
        return d
    _check_tightening_shapes(T, R2)
    ring = T.ring
    G = ring.group
    zero = G.zero

    def axiom1_failures(vectors):
        for x in G.elements():
            for r_vec in vectors(ring.dims[x]):
                r = (x, r_vec)
                fr = phi_apply(T, R2, r)
                for s_vec in vectors(ring.dims[zero]):
                    s = (zero, s_vec)
                    if phi_apply(T, R2, mg_mul(ring, r, s)) != compose(R2, fr, phi_apply(T, R2, s)):
                        yield failure("axiom1", x, ring.render(r), ring.render(s))

    d = first_failure(axiom1_failures(basis_vectors),
                      lambda: axiom1_failures(lambda n: all_vectors(ring.char, n)))
    if not d:
        return d

    ix = ring.index
    lines = {x: ix.lines[ix.number[(x,)]] for x in G.elements()}
    images = {x: [phi_apply(T, R2, (x, v)) for v in vs] for x, vs in lines.items()}
    for x in G.elements():
        if not lines[x]:
            continue
        g = T.representatives[T.projection[x]]
        med = _unit_mediator(R2, g)
        framed = [compose(R2, med, fr) for fr in images[x]]
        for y in G.elements():
            twisted = [tensor(R2, R2.identity(g), fs) for fs in images[y]]
            for r_vec, mr in zip(lines[x], framed):
                for s_vec, tw in zip(lines[y], twisted):
                    rhs = phi_apply(T, R2, mg_mul(ring, (x, r_vec), (y, s_vec)))
                    if not is_translate(R2, compose(R2, tw, mr), rhs):
                        return failure("axiom2", x, y, ring.render((x, r_vec)),
                                       ring.render((y, s_vec)))
    return PASS


# -- the ideal correspondence -----------------------------------------


def extend_ideal(T: Tightening, R2: TwoRingDatum, ring_ideal: Ideal) -> Ideal:
    """The ideal generated by the images of the rows of ring_ideal."""
    return ideal_generated_two(R2, [phi_apply(T, R2, (x, v)) for (x,), rows in
                                    zip(T.ring.index.keys, ring_ideal.rows) for _, v in rows])


def restrict_ideal(T: Tightening, R2: TwoRingDatum, two_ideal: Ideal) -> Ideal:
    """The preimage of two_ideal, degree by degree: the kernel of v ->
    reduce(J, v phi_x), J the ideal's rows at the image of degree x, is
    read off the echelon rows of reduce(J, e phi_x) ‖ e over a basis e."""
    p, rows = R2.char, []
    for (x,) in T.ring.index.keys:
        target = (R2.unit, T.representatives[T.projection[x]])
        J, n = two_ideal.rows[R2.index.number[target]], R2.hom_dim(*target)
        tagged = [_reduce(p, J, phi_apply(T, R2, (x, e))[2]) + e
                  for e in basis_vectors(T.ring.dims[x])]
        rows.append(tuple((piv - n, v[n:]) for piv, v in _echelon(p, tagged) if piv >= n))
    return Ideal(tuple(rows), p)


def agreement(T: Tightening, R2: TwoRingDatum) -> Diagnosis:
    """ideal_correspondence of a tightening that validate_tightening passes;
    otherwise the validation's failure."""
    d = validate_tightening(T, R2)
    if not d:
        return d
    return ideal_correspondence(T, R2)


def ideal_correspondence(T: Tightening, R2: TwoRingDatum) -> Diagnosis:
    """Executable two-way ideal correspondence of a valid tightening.

    Extension and restriction must be mutually inverse bijections between
    the homogeneous ideal lattices and match primes with primes.  Both are
    monotone (extension generates, restriction is a preimage), so once the
    round trips hold, extension is an order isomorphism of the lattices;
    matching primes, it restricts to an order isomorphism of the prime
    posets, which for finite spectral models is a homeomorphism of spectra.
    A nonzero ring element lies in i exactly when its image is a nonzero
    member of the extension: with kernel K, the preimage is K where i is
    zero and i where K is zero.  Failures name sorted members.
    """
    ring = T.ring
    lattice_r, lattice_2 = ring_ideals(ring), homogeneous_ideals(R2)

    ext = {i: extend_ideal(T, R2, i) for i in lattice_r.ideals}
    res = {j: restrict_ideal(T, R2, j) for j in lattice_2.ideals}
    kernel = res[lattice_2.bottom()].rows

    for i, j in ext.items():
        if not all(b == (a or k) and not (a and k)
                   for a, b, k in zip(i.rows, res[j].rows, kernel)):
            return failure("round_trip_ring", sorted(ring.index.members(i)))
    for j, i in res.items():
        if i not in ext:
            return failure("restriction_not_ideal", sorted(R2.index.members(j)))
        if ext[i] != j:
            return failure("round_trip_two", sorted(R2.index.members(j)))
    for i in lattice_r.ideals:
        if is_ring_prime(ring, i) != is_prime_two(R2, ext[i]):
            return failure("prime_not_preserved", sorted(ring.index.members(i)))
    return PASS


# -- localization -----------------------------------------------------


def mult_closure_two(R2: TwoRingDatum, gens: Iterable = ()) -> frozenset:
    """Smallest morphism class with all isomorphisms, closed under
    composition and twists by every object."""
    seeds = [f for a in R2.objects for b in R2.objects for f in isomorphisms(R2, a, b)]
    return R2.index.close_system(seeds + [tuple(m) for m in gens])


def span_quotients(R2: TwoRingDatum, system: frozenset) -> Callable:
    """The span classes of every component at a closed multiplicative
    system: a function from a component (a, b) to its FractionQuotient.

    The spans into (a, b) have the members s: k -> a of the system as
    denominators and Hom(k, b) as numerators, and (s, f) ~ (s u, f u)
    whenever s u stays in the system.  localize takes the basis
    fractions of each quotient as the basis of the localized hom space,
    so the class of a span is a morphism of the fraction 2-ring.
    The size limit and the common dilations of every source object are
    checked here; a component's quotient, and each f -> f u table it
    reads, is formed the first time the component is asked for, and kept,
    so a caller that reads only the unit-sourced homs forms only those.
    """
    counts = {a: sum(R2.char ** R2.hom_dim(a, b) for b in R2.objects) for a in R2.objects}
    require_within("MAX_SPANS", sum(counts[s[0]] for s in system))
    # s u does not depend on f, so each (s, u) is composed once.
    dilations = [(s, u, su) for s in sorted(system) for m in R2.objects
                 for u in R2.homs(m, s[0], include_zero=True)
                 if (su := compose(R2, s, u)) in system]
    reach: dict = {}
    by_target: dict = {a: [] for a in R2.objects}
    for s, u, su in dilations:
        reach.setdefault(s, set()).add(su)
        by_target[s[1]].append((s, u, su))
    denominators = {a: [s for s in sorted(system) if s[1] == a] for a in R2.objects}
    for dens in denominators.values():
        # Spans are added through a common dilation of their denominators.
        for i, s in enumerate(dens):
            for t in dens[:i]:
                if reach.get(s, set()).isdisjoint(reach.get(t, ())):
                    raise RingShapeError(
                        f"no common dilation for {R2.render(t)} and {R2.render(s)}")

    @functools.cache
    def times(u, b):
        # f -> f u depends on u and the target of f alone.
        return [compose(R2, (u[1], b, f), u)[2] for f in basis_vectors(R2.hom_dim(u[1], b))]

    @functools.cache
    def quotient(comp):
        a, b = comp
        return FractionQuotient(
            R2.char,
            [(s, R2.hom_dim(s[0], b)) for s in denominators[a]],
            [(s, su, times(u, b)) for s, u, su in by_target[a]],
        )

    return quotient


def span_class(quotients: Callable, span) -> tuple:
    """Coordinates of the class of the span (s, f) in the basis of its
    component's quotient."""
    s, f = span
    return quotients((s[1], f[1])).class_of(s, f[2])


def _basis_spans(quotients: Callable, comp) -> list:
    return [(s, (s[0], comp[1], f)) for s, f in quotients(comp).basis]


def _span_compose(R2: TwoRingDatum, system: frozenset, first, second):
    """Composite span (second after first) via an exchange square."""
    (s, f) = first    # from a: s: k -> a, f: k -> b
    (t, g) = second   # from b: t: l -> b, g: l -> c
    k, l = s[0], t[0]
    for m in R2.objects:
        for t2 in R2.homs(m, k, include_zero=True):
            if t2 not in system:
                continue
            ft2 = compose(R2, f, t2)
            st2 = compose(R2, s, t2)
            if st2 not in system:
                continue
            for f2 in R2.homs(m, l, include_zero=True):
                if compose(R2, t, f2) != ft2:
                    continue
                return (st2, compose(R2, g, f2))
    raise RingShapeError("no exchange square for span composition")


def localize(R2: TwoRingDatum, S: Iterable) -> tuple[frozenset, TwoRingDatum]:
    """Fraction 2-ring of R2 at the multiplicative closure of S, with that
    closure.

    Homs are dilation classes of spans with the backward leg in the closed
    system; each hom space has the basis of its span quotient.
    """
    S = [tuple(m) for m in S]
    objects = set(R2.objects)
    for a, b, vec in S:
        if (a not in objects or b not in objects or len(vec) != R2.hom_dim(a, b)
                or not all(0 <= c < R2.char for c in vec)):
            raise BadShapes(f"system generator {(a, b, vec)!r} is not a morphism of {R2.name}")
    system = mult_closure_two(R2, S)
    quotients = span_quotients(R2, system)
    objects = R2.objects
    dims = {(a, b): quotients((a, b)).dim for a in objects for b in objects}
    basis = {comp: _basis_spans(quotients, comp) for comp in dims}
    compose_tables = {
        (a, b, c): tuple(tuple(span_class(quotients, _span_compose(R2, system, first, second))
                               for second in basis[(b, c)]) for first in basis[(a, b)])
        for a in objects for b in objects for c in objects if dims[(a, b)] and dims[(b, c)]
    }

    def tensor_class(first, second):
        (s, f), (t, g) = first, second
        if tensor(R2, s, t) not in system:
            raise RingShapeError("tensor of denominators left the system")
        return span_class(quotients, (tensor(R2, s, t), tensor(R2, f, g)))

    homs = [comp for comp in dims if dims[comp]]
    tensor_tables = {
        (a, b, c, d): tuple(tuple(tensor_class(first, second) for second in basis[(c, d)])
                            for first in basis[(a, b)])
        for a, b in homs for c, d in homs
    }
    identities = {a: span_class(quotients, (R2.identity(a), R2.identity(a))) for a in objects}
    symmetry = {(a, b): span_class(quotients, (R2.identity(ab), (ab, ba, R2.symmetry[(a, b)])))
                for a in objects for b in objects
                for ab, ba in [(R2.tensor_obj[(a, b)], R2.tensor_obj[(b, a)])]}
    realized = {R2.group.sub(R2.labels[b], R2.labels[a]) for a, b in homs}
    datum = TwoRingDatum(
        name=f"{R2.name}_loc",
        group=R2.group,
        char=R2.char,
        objects=objects,
        labels=dict(R2.labels),
        unit=R2.unit,
        support=R2.group.submonoid_closure(realized),
        dims=dims,
        basis_names={comp: tuple(f"q{i}" for i in range(d)) for comp, d in dims.items()},
        compose_tables=compose_tables,
        tensor_obj=dict(R2.tensor_obj),
        tensor_tables=tensor_tables,
        identities=identities,
        symmetry=symmetry,
    )
    return system, datum


# -- localization against the ring side -------------------------------


def extend_system(T: Tightening, R2: TwoRingDatum, ring_system: Iterable) -> frozenset:
    return mult_closure_two(R2, (phi_apply(T, R2, e) for e in ring_system))


def restrict_system(T: Tightening, R2: TwoRingDatum, two_system: frozenset) -> frozenset:
    # Zero elements matter here: a closed system that contains zero
    # (inverting a nilpotent) restricts to one that contains zero too.
    return frozenset(e for e in T.ring.homogeneous_elements(include_zero=True)
                     if phi_apply(T, R2, e) in two_system)


def localization_agreement(T: Tightening, R2: TwoRingDatum, S: Iterable) -> Diagnosis:
    """Fractions on the ring side match fractions on the 2-ring side.

    Checks three things exhaustively: the generated system equals the
    translate closure of the identified generators; restriction after
    extension recovers the ring system; and for every degree the
    identification carries ring fraction classes bijectively onto the
    localized unit-sourced homs.  The last is linear algebra.  The
    identification is linear in the numerator of each denominator by
    construction (phi, the twist, the frame and the class map are each
    linear), so it is given by its images of basis numerators; those
    must agree on both sides of every dilation that generates the
    ring-side relations, and their rank must be both dimensions.
    """
    d = validate_tightening(T, R2)
    if not d:
        return d
    ring = T.ring
    Sr = mult_system_ring(ring, S)
    e_gen = extend_system(T, R2, Sr)
    e_tr = translate_closure(R2, [phi_apply(T, R2, e) for e in Sr])
    if e_gen != e_tr:
        return failure("translate_closure_differs",
                       len(e_gen), len(e_tr))
    if restrict_system(T, R2, e_gen) != Sr:
        return failure("system_round_trip")

    spans = span_quotients(R2, e_gen)
    fr = ring_fractions(ring, Sr)
    p = R2.char
    # What does not depend on the numerator is formed once per (numerator
    # degree, denominator) block, at the block's first fraction, so a
    # block's failure fires at its first fraction in scan order.
    @functools.cache
    def identifier(y, s):
        return _fraction_identifier(T, R2, e_gen, spans, y, s)

    for x in ring.group.elements():
        gx = T.representatives[T.projection[x]]
        width = spans((R2.unit, gx)).dim

        def combine(coeffs, vectors):
            return tuple(sum(c * v[k] for c, v in zip(coeffs, vectors)) % p for k in range(width))

        q = fr[x]
        numerators = {s: ring.group.add(x, s[0]) for s, _ in q.blocks}
        image = {s: [identifier(numerators[s], s)(f) for f in basis_vectors(d)]
                 for s, d in q.blocks}
        # A block of dimension zero has no basis numerator; its identifier,
        # and the checks made in forming it, come after every image.
        for s, _ in q.blocks:
            identifier(numerators[s], s)
        # The dilations generate the ring-side relations.
        for s, su, rows in q.dilations:
            for mine, row in zip(image[s], rows):
                if mine != combine(row, image[su]):
                    return failure("identification_not_well_defined", x)
        found = rank(p, [v for vs in image.values() for v in vs])
        if found != q.dim:
            return failure("identification_not_injective", x)
        if found != width:
            return failure("identification_not_surjective", x)
    return PASS


def _fraction_identifier(T: Tightening, R2: TwoRingDatum, system: frozenset, spans: Callable,
                         y, den):
    """The tightened identification on the ring fractions with numerator
    degree y and denominator den: a function from a numerator vector to
    the coordinates of the localized morphism its fraction is sent to.

    The fraction r/s goes to the span (gz^-1 s, gz^-1 r) framed into the
    representative of its degree.  The inverse object, the denominator
    leg and the framing isomorphism do not depend on r, so they are
    found, and checked, here.
    """
    ring = T.ring
    z = den[0]
    x = ring.group.sub(y, z)
    gz = T.representatives[T.projection[z]]
    gzinv = next((c for c in R2.objects if R2.tensor_obj[(c, gz)] == R2.unit), None)
    if gzinv is None:
        raise ShapeMismatch(f"no strict tensor inverse for {gz!r}")
    twist = R2.identity(gzinv)
    s_leg = tensor(R2, twist, phi_apply(T, R2, den))
    r_end = R2.tensor_obj[(gzinv, T.representatives[T.projection[y]])]
    gx = T.representatives[T.projection[x]]
    frame = None if r_end == gx else _first_iso(R2, r_end, gx, repr(gx))
    if s_leg not in system:
        raise RingShapeError("identified denominator left the system")
    quotient = spans((s_leg[1], gx))

    def identify(vec):
        r_leg = tensor(R2, twist, phi_apply(T, R2, (y, vec)))
        if frame is not None:
            r_leg = compose(R2, frame, r_leg)
        return quotient.class_of(s_leg, r_leg[2])

    return identify
