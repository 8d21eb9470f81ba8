"""Brute-force references for the ring and 2-ring ideal and fraction
engines, and for the permutation-group kernel.

Each ring oracle works on explicit member sets: it enumerates vectors and
multiplies them with mg_mul, compose and tensor, so it shares none of the
closure, join, naming, prime or quotient code of the echelon engine it
checks.  The group oracles compose permutation tuples and close them by
breadth-first search, without the multiplication table, bitmasks or
cached classes of GroupIndex; p_equivalence_classes, the blocks of the
p-subconjugacy order over the whole lattice, is checked against the classes
GroupIndex.p_classes finds.  Only viable for tiny instances.
square_zero builds the small rings with few units that several test files
share.
"""

import itertools
import math

from ttperiods import groups
from ttperiods.groups import FiniteGroup, identify, name_for_key
from ttperiods.multigraded import all_vectors, make_multigraded, mg_mul, vec_add, vec_zero
from ttperiods.spectra import _label_suffix
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


# -- permutation groups ------------------------------------------------

def perm_order(p):
    """The least common multiple of the cycle lengths."""
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


def mulclose(gens):
    """Every product of the given permutations, found breadth first."""
    gens = list(gens)
    out = {groups.identity(len(gens[0]))}
    frontier = list(out)
    while frontier:
        found = []
        for x in frontier:
            for g in gens:
                y = groups.compose(x, g)
                if y not in out:
                    out.add(y)
                    found.append(y)
        frontier = found
    return frozenset(out)


def conjugate_subgroup(g, H):
    gi = groups.inverse(g)
    return frozenset(groups.compose(g, groups.compose(h, gi)) for h in H)


def is_dedekind(G):
    """Every subgroup equals each of its conjugates."""
    return all(conjugate_subgroup(g, H) == H for H in groups.subgroups(G) for g in G.elements)


def small_generators(G, H):
    """The generating set the group's index keeps for the subgroup H:
    chosen greedily in sorted order."""
    ix = G.index
    return [ix.perms[x] for x in ix.require(H).gens]


def _canon(H):
    return (len(H), sorted(H))


def reference_p_subgroup_classes(G, p):
    """Conjugacy classes of the p-subgroups of the whole lattice, each
    conjugated by every element, least members first; each class is
    listed least member first."""
    left = {H for H in groups.subgroups(G) if p ** round(math.log(len(H), p)) == len(H)}
    classes = []
    while left:
        H = min(left, key=_canon)
        cls = {conjugate_subgroup(g, H) for g in G.elements}
        left -= cls
        classes.append(sorted(cls, key=_canon))
    return classes


def reference_weyl_key(G, H):
    """identify of N_G(H)/H, acting on the left cosets of H in a normalizer
    found by conjugating H with every element."""
    N = [g for g in sorted(G.elements) if conjugate_subgroup(g, H) == H]
    cosets = sorted({frozenset(groups.compose(n, h) for h in H) for n in N}, key=sorted)
    where = {x: i for i, c in enumerate(cosets) for x in c}
    gens = [tuple(where[groups.compose(n, min(c))] for c in cosets) for n in N]
    return identify(FiniteGroup(len(cosets), gens))


def reference_dperm_strata(G, p):
    """The dperm strata as the full-lattice path finds them, one row per
    class of p-subgroups in order: (representative, conjugates, label,
    Weyl key, Weyl name, normal).  A label is the name of the class's
    isomorphism type, identified on a group built from its elements, with
    a, b, c, ... appended in class order where names repeat."""
    classes = reference_p_subgroup_classes(G, p)
    names = [name_for_key(identify(FiniteGroup(G.degree, sorted(c[0])))) or f"H{len(c[0])}"
             for c in classes]
    seen = {}
    rows = []
    for c, name in zip(classes, names):
        label = name
        if names.count(name) > 1:
            label += _label_suffix(seen.get(name, 0))
            seen[name] = seen.get(name, 0) + 1
        key = reference_weyl_key(G, c[0])
        rows.append((c[0], frozenset(c), label, key, name_for_key(key), len(c) == 1))
    return rows


def p_equivalence_classes(G, p):
    """Blocks of mutually p-subconjugate subgroup classes.

    Also certifies the bijection with the classes of p-subgroups that
    GroupIndex.p_classes finds inside the Sylow subgroup, which sends a
    block to the class of its members' Sylow p-subgroups.
    """
    ix = G.index
    classes = ix.classes()
    subs = [c.sub for c in classes]
    n = len(classes)
    le = [[groups.p_subconjugate(G, a, b, p) for b in subs] for a in subs]
    blocks = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        block = [j for j in range(n) if le[i][j] and le[j][i]]
        for j in block:
            assigned[j] = True
        blocks.append(block)
    p_classes = [c.sub.mask for c in ix.p_classes(p)]
    sylow_class = []
    for block in blocks:
        hits = set()
        for j in block:
            # The Sylow route above stored each representative's Sylow
            # subgroup and its class, so this reads them without a search.
            orbit = ix.orbit(ix.sylow(subs[j], p))
            hits.update(k for k, mask in enumerate(p_classes) if mask in orbit)
        if len(hits) != 1:
            raise groups.GroupError("equivalence block without a single Sylow class")
        sylow_class.append(hits.pop())
    if sorted(sylow_class) != list(range(len(p_classes))):
        raise groups.GroupError("blocks do not biject with p-subgroup classes")
    return [[classes[j] for j in block] for block in blocks]
