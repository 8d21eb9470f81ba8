"""Brute-force references for the ring and 2-ring ideal and fraction
engines.

Each oracle works on explicit member sets: it enumerates vectors and
multiplies them with mg_mul, compose and tensor, so it shares none of the
closure, join, naming, prime or quotient code of the echelon engine it
checks.  Only viable for tiny instances.  square_zero builds the small
rings with few units that several test files share.
"""

import itertools

from ttperiods.multigraded import all_vectors, make_multigraded, mg_mul, vec_add, vec_zero
from ttperiods.tworing import compose, tensor

# Largest number of componentwise subspace families an oracle enumerates.
MAX_FAMILIES = 1024


def square_zero(p, dims):
    """Z/len(dims)-graded F_p + V with V^2 = 0, V of dimension dims[x] in
    degree x > 0: the only units lie in degree zero."""
    comps = {0: ("1",)}
    comps.update({x: tuple(f"v{x}_{i}" for i in range(d)) for x, d in enumerate(dims) if x and d})
    names = [nm for x in comps if x for nm in comps[x]]
    prods = {(a, b): None for i, a in enumerate(names) for b in names[i:]}
    return make_multigraded("square_zero", (len(dims),), p, components=comps, products=prods)


def additive_span(p, vectors, dim):
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


def subspaces(p, dim):
    """Every additive subspace of F_p^dim, as a frozenset including zero."""
    vecs = [v for v in all_vectors(p, dim) if any(v)]
    out = set()
    for r in range(dim + 1):
        for gens in itertools.combinations(vecs, r):
            out.add(additive_span(p, gens, dim))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def family_count(p, dims):
    """Number of componentwise subspace families over the given dimensions."""
    count = 1
    for d in dims:
        count *= len(subspaces(p, d))
    return count


def _absorbing_families(p, keys, dims, absorbs):
    """Member sets, one subspace per component, that absorbs accepts."""
    per_comp = [subspaces(p, d) for d in dims]
    found = set()
    for choice in itertools.product(*per_comp):
        members = {(*key, v) for key, sub in zip(keys, choice) for v in sub if any(v)}
        if absorbs(members):
            found.add(frozenset(members))
    return found


def oracle_ring_ideals(ring):
    """Every homogeneous ideal: a family is one exactly when it absorbs
    multiplication by every homogeneous element on either side."""
    degrees = ring.group.elements()
    dims = [ring.dims[x] for x in degrees]
    assert family_count(ring.char, dims) <= MAX_FAMILIES, "oracle reserved for tiny instances"
    elements = list(ring.homogeneous_elements())

    def absorbs(members):
        for m in members:
            for b in elements:
                for prod in (mg_mul(ring, b, m), mg_mul(ring, m, b)):
                    if any(prod[1]) and prod not in members:
                        return False
        return True

    return _absorbing_families(ring.char, [(x,) for x in degrees], dims, absorbs)


def oracle_two_ring_ideals(R2):
    """Every categorical ideal: a family is one exactly when it absorbs
    composition with every morphism on both sides and twisting by every
    object."""
    comps = [(a, b) for a in R2.objects for b in R2.objects]
    dims = [R2.dims[c] for c in comps]
    assert family_count(R2.char, dims) <= MAX_FAMILIES, "oracle reserved for tiny instances"
    morphisms = list(R2.morphisms())

    def absorbs(members):
        for m in members:
            produced = []
            for f in morphisms:
                if f[0] == m[1]:
                    produced.append(compose(R2, f, m))
                if f[1] == m[0]:
                    produced.append(compose(R2, m, f))
            for g in R2.objects:
                produced.append(tensor(R2, R2.identity(g), m))
                produced.append(tensor(R2, m, R2.identity(g)))
            if any(any(p[2]) and p not in members for p in produced):
                return False
        return True

    return _absorbing_families(R2.char, comps, dims, absorbs)


def oracle_is_prime(ideal, members, product):
    """The definition read literally: some nonzero member lies outside, and
    every product of two members outside is nonzero and outside.  product
    returns None for a pair that does not multiply."""
    outside = [m for m in members if m not in ideal]
    if not outside:
        return False
    for r in outside:
        for s in outside:
            prod = product(r, s)
            if prod is not None and (not any(prod[-1]) or prod in ideal):
                return False
    return True


def oracle_ring_prime(ring, ideal):
    return oracle_is_prime(ideal, list(ring.homogeneous_elements()),
                           lambda r, s: mg_mul(ring, r, s))


def oracle_two_ring_prime(R2, ideal):
    return oracle_is_prime(ideal, list(R2.morphisms()),
                           lambda r, s: compose(R2, s, r) if s[0] == r[1] else None)


def reference_iso_pairs(R2, a, b):
    """Every morphism a -> b with its first two-sided inverse in
    enumeration order, by trying every candidate."""
    out = []
    for f in R2.homs(a, b, include_zero=True):
        for g in R2.homs(b, a, include_zero=True):
            if compose(R2, g, f) == R2.identity(a) and compose(R2, f, g) == R2.identity(b):
                out.append((f, g))
                break
    return tuple(out)


def partition(class_of, items):
    """The items grouped by the class class_of gives them."""
    groups = {}
    for item in items:
        groups.setdefault(class_of(item), set()).add(item)
    return {frozenset(g) for g in groups.values()}


def equivalence_classes(items, pairs):
    """Classes of the equivalence relation on items generated by pairs,
    ordered by their sorted members (union-find)."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    classes = {}
    for x in parent:
        classes.setdefault(find(x), set()).add(x)
    return sorted((frozenset(c) for c in classes.values()), key=sorted)


def reference_fraction_classes(ring, system):
    """Every fraction (numerator, denominator) grouped by the equivalence
    the dilations (r, s) ~ (r t, s t) generate, t nonzero homogeneous with
    s t in the system."""
    numerators = list(ring.homogeneous_elements(include_zero=True))
    fractions = [(r, s) for s in system for r in numerators]
    pairs = [((r, s), (mg_mul(ring, r, t), mg_mul(ring, s, t)))
             for s in system for t in ring.homogeneous_elements()
             if mg_mul(ring, s, t) in system for r in numerators]
    return equivalence_classes(fractions, pairs)


def reference_span_classes(R2, system):
    """Every span (s, f), s in the system and f out of the source of s,
    grouped by the equivalence the dilations (s, f) ~ (s u, f u) generate,
    u any morphism into the source of s with s u in the system."""
    sources = {a: [f for b in R2.objects for f in R2.homs(a, b, include_zero=True)]
               for a in R2.objects}
    spans = [(s, f) for s in system for f in sources[s[0]]]
    pairs = [((s, f), (compose(R2, s, u), compose(R2, f, u)))
             for s in system for m in R2.objects
             for u in R2.homs(m, s[0], include_zero=True)
             if compose(R2, s, u) in system for f in sources[s[0]]]
    return equivalence_classes(spans, pairs)
