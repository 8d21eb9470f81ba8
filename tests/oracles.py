"""Brute-force references for the ring and 2-ring ideal and fraction
engines and for the permutation-group kernel, and the checks of side
statements of the paper that no report shows.

Each ring oracle works on explicit member sets: it enumerates vectors and
multiplies them with mg_mul, compose and tensor, so it shares none of the
closure, join, naming, prime or quotient code of the echelon engine it
checks.  The three oracle_validate_* functions are the axiom validators
as they were before they checked each axiom on a generating set: every
case in a fixed order, so their verdicts name the failure the library's
must name too.  oracle_two_ring_from_multigraded forms every table of a
2-ring afresh for each object tuple, where the library forms one per
degree key.  oracle_enumerate_patterns, oracle_from_inclusions and
oracle_periodic_locus are the pattern engine before it worked on
generator bitmasks: frozenset patterns from itertools.combinations, each
named by pattern_name and kept as the OracleSpech's own record, a poset
from holder dictionaries keyed by generator name, and periods from
local_period at every point.  oracle_check_spech diagnoses every pattern
of a model and checks its order against pattern inclusion.
oracle_close, oracle_lattice and oracle_ideal_name are the ideal engine
before closure stopped at saturation and before an ideal was its rows
alone: ideals as member sets, from oracle_members; they share the echelon
helpers, not the stop rules, with AlgebraIndex.  ideal_of_members turns a
member set into the library's Ideal.  oracle_span_quotients and
oracle_localization_agreement are the localization check before a span
quotient was formed on first read: every quotient up front, and each
fraction identified from scratch by oracle_identify_fraction.
oracle_fraction_relations is FractionQuotient's relation basis before
each relation was reduced only through the rows at its own coordinates:
every relation a dense row, reduced against every echelon row.
oracle_check_period_map is the period-map check before openness was
decided once per period value: a scan of each sublevel set, kept as the
second route to the openness that monotonicity implies.
oracle_is_ample and oracle_homeo_onto_image are the comparison checks
before they read the minimal open sets: a walk over every open set.
oracle_central_loc_pullback, oracle_ideal_correspondence and
oracle_artin_tower are the library's central localization, ideal
correspondence and cyclic tower with the checks that no input can fail,
which the library no longer makes: they confirm those checks pass and
that the library's answer is theirs; the correspondence works on member
sets, extending and restricting by enumeration.  from_inclusions, the
poset of named sets under inclusion through
FiniteSpectralModel.from_inclusion_masks, has no caller in the library.
heller_period finds the period of the trivial module of a group with a
normal p-complement K (p_complement) by minimal projective resolutions
over F_p[G/K], reading no catalog; a G of p-rank two or more gets None
before anything is resolved.  oracle_quillen_components lists the
ranks of the classes of maximal elementary abelian p-subgroups, which by
Quillen's stratification are the dimensions variety_components reads off
a cohomology variety's minimal patterns.  The group
oracles compose permutation tuples and close them by breadth-first
search, without the multiplication table, bitmasks or cached classes of
GroupIndex; oracle_p_subconjugate is the third route to the
p-subconjugacy order, beside the library's Sylow and Mackey routes, and
p_equivalence_classes, the blocks of that order
over the whole lattice, is checked against the classes GroupIndex.p_classes
finds.  Only viable for tiny instances.  element_normalizer, element_lifts
and element_section do use GroupIndex's table and masks: they are
GroupIndex.normalizer, weyl_group's lifts and GroupIndex.section before
they read one element per cyclic subgroup, so every element is tested,
and for the section each <x> is walked power by power on the table.
section_mismatches compares them with the index on a list of subgroups
and checks each Sylow subgroup the index finds.
square_zero builds the small rings with few units that several test files
share.  oracle_isomorphisms is isomorphisms before it became a search that
has_iso stops at the first hit: every morphism tested, each call afresh.
reference_iso_pairs and reference_units find inverses by trying
every candidate, the second route to the span test that isomorphisms and
homogeneous_units make.  restrict_table, the induced table on an open
subset, has no caller in the library; base_free_cover and
oracle_central_loc_pullback use it.

The side statements are checked on the package's own engines: the
degree-zero reduction of Laurent presentations, divisor-closed period sets,
abelian invariants, the homogeneous spectrum of a multigraded ring,
commutation up to translates and the two-sided exchange lemma in a 2-ring,
restriction of a 2-ring to a support submonoid and its commuting with
localization, base-free charts of a section table and openness of its image
in an ambient pattern model.
"""

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ttperiods import groups
from ttperiods.comparison import ComparisonError, Section, SectionTable, comp_map
from ttperiods.diagnostics import PASS, Diagnosis, UsageError, failure
from ttperiods.graded import (
    GradedError,
    GradedRingPresentation,
    InvalidPattern,
    NonMonomialWithoutWitnesses,
    PrimePattern,
    SpechModel,
    enumerate_patterns,
    local_period,
    pattern_diagnosis,
    pattern_name,
)
from ttperiods.groups import FiniteGroup, GroupError, _abelian_invariants, identify, name_for_key
from ttperiods.diagnostics import require_within
from ttperiods.multigraded import (
    AlgebraIndex,
    FractionQuotient,
    Ideal,
    MultigradedRing,
    RingShapeError,
    _absorb,
    _apply,
    _echelon,
    _insert,
    _line,
    _reduce,
    all_vectors,
    basis_vectors,
    in_span,
    is_ring_prime,
    make_multigraded,
    mg_mul,
    mult_system_ring,
    prime_spectrum,
    rank,
    ring_fractions,
    ring_ideals,
    vec_add,
    vec_zero,
)
from ttperiods.spaces import (
    ALL,
    FiniteSpectralModel,
    MissingLabel,
    ModelError,
    NegativePeriod,
    PeriodAssignment,
    _bits,
    _values,
    check_period_map,
    divides,
    is_prime,
    tower_period,
)
from ttperiods.spectra import (
    TowerHeightValueError,
    TowerReport,
    TowerStratum,
    _cyclic_tower_levels,
    _label_suffix,
)
from ttperiods.tworing import (
    BadShapes,
    ShapeMismatch,
    Tightening,
    TwoRingDatum,
    _check_tightening_shapes,
    _unit_mediator,
    compose,
    extend_system,
    has_iso,
    is_prime_two,
    is_translate,
    mult_closure_two,
    object_name,
    phi_apply,
    restrict_system,
    span_class,
    span_quotients,
    spc_with_primes,
    tensor,
    translate_closure,
    validate_tightening,
)

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


def oracle_isomorphisms(R2, a, b) -> tuple:
    """isomorphisms as it was before the search stopped at a first hit:
    one span test per morphism a -> b, every one listed, nothing cached."""
    ida, idb = R2.identities[a], R2.identities[b]
    basis = [(b, a, g) for g in basis_vectors(R2.hom_dim(b, a))]
    shaped = len(ida) == R2.hom_dim(a, a) and len(idb) == R2.hom_dim(b, b)
    homs = R2.homs(a, b, include_zero=True) if shaped else ()
    return tuple(f for f in homs if in_span(
        R2.char, [compose(R2, g, f)[2] + compose(R2, f, g)[2] for g in basis], ida + idb))


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


def reference_units(ring):
    """Homogeneous elements with a two-sided inverse, by trying every
    element of the opposite degree."""
    if ring.is_zero_ring():
        return []
    one = (ring.group.zero, ring.one)
    out = []
    for u in ring.homogeneous_elements():
        x = ring.group.sub(ring.group.zero, u[0])
        for v in all_vectors(ring.char, ring.dims[x]):
            if mg_mul(ring, u, (x, v)) == one and mg_mul(ring, (x, v), u) == one:
                out.append(u)
                break
    return out


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


@functools.cache
def _oracle_sylow_conjugates(G, H, p):
    """The conjugates in G of a Sylow p-subgroup of H, grown greedily over
    H's p-elements in sorted order; kept per (G, H, p), so the pairs of one
    lattice do not grow the same subgroup again."""
    gens = []
    P = frozenset({groups.identity(G.degree)})
    for x in sorted(H):
        if x not in P and groups.p_part(perm_order(x), p) == perm_order(x):
            Q = mulclose(gens + [x])
            if groups.p_part(len(Q), p) == len(Q):
                gens, P = gens + [x], Q
    return frozenset(conjugate_subgroup(g, P) for g in G.elements)


def oracle_p_subconjugate(G, H, K, p):
    """Some G-conjugate of a Sylow p-subgroup of H lies in K, on
    permutations alone: no GroupIndex, table or bitmask."""
    K = frozenset(K)
    return any(C <= K for C in _oracle_sylow_conjugates(G, frozenset(H), p))


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


def reference_normalizer(G, H):
    """The elements g of G with g H g^-1 = H, sorted, each conjugation
    made on permutations."""
    return [g for g in sorted(G.elements) if conjugate_subgroup(g, H) == H]


def reference_weyl_group(G, H):
    """N_G(H)/H as a permutation group: each element of reference_normalizer
    acting on the left cosets of H inside it."""
    N = reference_normalizer(G, H)
    cosets = sorted({frozenset(groups.compose(n, h) for h in H) for n in N}, key=sorted)
    where = {x: i for i, c in enumerate(cosets) for x in c}
    gens = [tuple(where[groups.compose(n, min(c))] for c in cosets) for n in N]
    return FiniteGroup(len(cosets), gens)


def reference_weyl_key(G, H):
    """identify of reference_weyl_group."""
    return identify(reference_weyl_group(G, H))


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


def element_normalizer(ix, H):
    """The mask of the elements g with g H g^-1 = H, each element tested on
    H's generators."""
    table, inv, N = ix.table, ix.inv, 0
    for g in range(ix.n):
        row, gi = table[g], inv[g]
        if all(H.mask >> table[row[h]][gi] & 1 for h in H.gens):
            N |= 1 << g
    return N


def element_lifts(ix, N, H):
    """Generators of the subgroup on the mask N modulo H: each element of N,
    in increasing order, that is not in the subgroup grown from H so far."""
    lifts, grown = [], H
    for x in range(ix.n):
        if N >> x & 1 and not grown.mask >> x & 1:
            grown = ix.extend(grown, x)
            lifts.append(x)
    return lifts


def element_section(ix, N, lifts, H):
    """The section N/H as GroupIndex.section reads it, counted one element
    of N at a time: xH has order |<x>| / |<x> ∩ H|, with <x> walked on the
    table, and each coset counts |H| times."""
    table, inv, mask = ix.table, ix.inv, H.mask
    abelian = all(mask >> table[inv[table[a][b]]][table[b][a]] & 1
                  for a, b in itertools.combinations(lifts, 2))
    counts = Counter()
    for x in range(ix.n):
        if N >> x & 1:
            powers, y = {0}, x
            while y:
                powers.add(y)
                y = table[y][x]
            counts[len(powers) // sum(mask >> z & 1 for z in powers)] += 1
    h = len(H.elems)
    # The unkept key function, so no cached key answers for this route.
    key = groups._structure_key.__wrapped__(
        tuple(sorted((k, c // h) for k, c in counts.items())), abelian)
    return groups.WeylGroup(N.bit_count() // h, key, name_for_key(key))


def section_mismatches(G, subs):
    """Each Sub of subs, of G's index, where the index's normalizer, the
    sections sub/1 and N_G(sub)/sub or identify differ from the element
    scans above, and each (sub, p), for every prime p up to |G|, where
    sylow(sub, p) is not a p-subgroup of sub of order p_part(|sub|, p),
    closed up on permutations from its generators."""
    ix, bad = G.index, []
    trivial = ix.trivial()
    primes = [q for q in range(2, max(G.order, 2) + 1) if is_prime(q)]
    for H in subs:
        N = element_normalizer(ix, H)
        whole = element_section(ix, H.mask, H.gens, trivial)
        W = element_section(ix, N, element_lifts(ix, N, H), H)
        got = (ix.normalizer(H), ix.section(H.mask, H.gens, trivial), ix.identify(H),
               groups.weyl_group(G, H))
        if got != (N, whole, whole.key, W):
            bad.append((sorted(H.elems), got, (N, whole, whole.key, W)))
        for p in primes:
            P = ix.sylow(H, p)
            closed = mulclose([ix.perms[x] for x in P.gens] or [ix.perms[0]])
            if (P.mask & ~H.mask or len(P.elems) != groups.p_part(len(H.elems), p)
                    or closed != frozenset(ix.perms[x] for x in P.elems)):
                bad.append((sorted(H.elems), p, sorted(P.elems)))
    return bad


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


# -- graded rings, period sets and abelian groups ----------------------

def oracle_check_period_map(model: FiniteSpectralModel, per) -> Diagnosis:
    """check_period_map as it was before openness was decided once per
    period value: each sublevel set scans its points for one whose
    generalizations leave it."""
    vals = _values(per)
    labels = []
    for p in model.points:
        if p not in vals:
            raise MissingLabel(p)
        if vals[p] < 0:
            raise ModelError(f"negative period at {p!r}")
        labels.append(vals[p])
    level: dict[int, int] = {}
    for i, v in enumerate(labels):
        level[v] = level.get(v, 0) | 1 << i
    open_fail = None
    for d in sorted(v for v in level if v > 0):
        sub = 0
        for v, mask in level.items():
            if divides(v, d):
                sub |= mask
        bad = next((i for i in _bits(sub) if model._up[i] & ~sub), None)
        if bad is not None:
            g = next(_bits(model._up[bad] & ~sub))
            open_fail = failure("sublevel-not-open", model.points[g], model.points[bad])
            break
    reach: dict[int, int] = {}
    for i, v in enumerate(labels):
        reach[v] = reach.get(v, 0) | model._down[i]
    allowed: dict[int, int] = {}
    for v in level:
        allowed[v] = 0
        for w, mask in level.items():
            if divides(v, w):
                allowed[v] |= mask
    if any(reach[v] & ~allowed[v] for v in reach):
        i = next(i for i, v in enumerate(labels) if model._down[i] & ~allowed[v])
        j = next(_bits(model._down[i] & ~allowed[labels[i]]))
        return failure("not-monotone", model.points[i], model.points[j])
    return PASS if open_fail is None else open_fail


def from_inclusions(named_sets) -> FiniteSpectralModel:
    """One point per name; p -> q when the set of p lies strictly inside
    that of q: the sets as masks over their elements, numbered in order of
    first sight, handed to FiniteSpectralModel.from_inclusion_masks."""
    index: dict = {}
    named_masks = {}
    for p, s in named_sets.items():
        mask = 0
        for e in s:
            mask |= 1 << index.setdefault(e, len(index))
        named_masks[p] = mask
    return FiniteSpectralModel.from_inclusion_masks(named_masks, len(index))


def oracle_from_inclusions(named_sets) -> FiniteSpectralModel:
    """The poset of named sets under strict inclusion, from holder sets.

    Each element's holder mask marks the sets containing it, kept in a
    dictionary keyed by the element; the supersets of a set are the AND of
    its elements' holders, and its subsets those holding nothing outside it.
    """
    names = tuple(sorted(named_sets))
    holders: dict = {}
    for i, p in enumerate(names):
        for e in named_sets[p]:
            holders[e] = holders.get(e, 0) | 1 << i
    full = (1 << len(names)) - 1
    down, up = [], []
    for i, p in enumerate(names):
        s = named_sets[p]
        supersets = full
        for e in s:
            supersets &= holders[e]
        outside = 0
        for e, held in holders.items():
            if e not in s:
                outside |= held
        subsets = full & ~outside
        down.append(supersets & ~subsets | 1 << i)
        up.append(subsets & ~supersets | 1 << i)
    return FiniteSpectralModel._from_masks(names, down, up)


@dataclass(frozen=True)
class OracleSpech:
    """The oracle's pattern model.  Its record is the frozenset patterns it
    enumerated; its masks are computed from them, generator by generator,
    so neither is a view of the other's engine."""

    ring: GradedRingPresentation
    space: FiniteSpectralModel
    patterns: dict
    certified: dict
    masks: dict


def _oracle_spech(ring, pats) -> OracleSpech:
    names = {}
    for pattern, cert in pats:
        name = pattern_name(ring, pattern)
        if name in names and names[name][0] != pattern:
            raise InvalidPattern(name, "duplicate name")
        names[name] = (pattern, cert)
    space = oracle_from_inclusions({n: pat.contains for n, (pat, _) in names.items()})
    free = [g.name for g in ring.generators if not g.invertible]
    return OracleSpech(
        ring=ring,
        space=space,
        patterns={n: names[n][0] for n in space.points},
        certified={n: names[n][1] for n in space.points},
        masks={
            n: sum(1 << i for i, g in enumerate(free) if g in names[n][0].contains)
            for n in space.points
        },
    )


def oracle_enumerate_patterns(ring: GradedRingPresentation, witnesses=None) -> OracleSpech:
    """Pattern points as frozensets: every combination of the non-invertible
    generators that holds the nilpotents and meets each relation monomial,
    named one by one with pattern_name.  Witnesses are diagnosed and kept
    as given; a repeated one keeps its last tag."""
    if witnesses is not None:
        for pattern, cert in witnesses:
            if cert not in ("enumerated", "witness", "paper"):
                raise InvalidPattern(pattern_name(ring, pattern), f"bad tag {cert!r}")
            diag = pattern_diagnosis(ring, pattern)
            if not diag:
                raise InvalidPattern(pattern_name(ring, pattern), diag.reason)
        return _oracle_spech(ring, witnesses)
    if any(len(rel) > 1 for rel in ring.relations):
        raise NonMonomialWithoutWitnesses("non-monomial relations need witness patterns")
    free = [g.name for g in ring.generators if not g.invertible]
    forced = frozenset(g.name for g in ring.generators if g.nilpotent)
    hitting = [rel[0].variables() for rel in ring.relations]
    pats = []
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            chosen = frozenset(combo)
            if forced <= chosen and all(vs & chosen for vs in hitting):
                pats.append((PrimePattern(chosen), "enumerated"))
    return _oracle_spech(ring, pats)


def oracle_check_spech(model: SpechModel) -> Diagnosis:
    """Every point's pattern passes pattern_diagnosis, and the order is
    contained in pattern inclusion."""
    for point in model.space.points:
        diag = pattern_diagnosis(model.ring, model.patterns[point])
        if not diag:
            return failure("invalid-pattern", point, diag.reason)
    for p in model.space.points:
        for q in model.space.specializations(p):
            if not model.patterns[p].contains <= model.patterns[q].contains:
                return failure("order-vs-inclusion", p, q)
    return PASS


def oracle_periodic_locus(
    ring: GradedRingPresentation, model: "SpechModel | OracleSpech", d
) -> frozenset:
    """periodic_locus from local_period at every point, with the principal
    loci D(x) gathered as name sets, point by point."""
    periods = {p: local_period(ring, model.patterns[p]) for p in model.space.points}
    loci = [
        (abs(gen.degree), {p for p, pat in model.patterns.items() if gen.name not in pat.contains})
        for gen in ring.generators
        if gen.degree != 0
    ]
    if d == ALL:
        via_formula = frozenset(p for p, v in periods.items() if v > 0)
        if via_formula != frozenset().union(*(locus for _, locus in loci)):
            raise GradedError("periodic locus cross-check failed")
        return via_formula
    if not isinstance(d, int) or d < 0:
        raise GradedError(f"bad period bound {d!r}")
    if not all(divides(periods[p], degree) for degree, locus in loci for p in locus):
        raise GradedError("principal locus period bound failed")
    return frozenset(p for p, v in periods.items() if divides(v, d))


class NotLaurentForm(GradedError):
    """The presentation is not a degree-0 part extended by one unit."""


def degree_zero_reduction_check(ring: GradedRingPresentation) -> Diagnosis:
    """A Laurent extension R0[u, u^-1] has the same pattern set as R0."""
    units = [g for g in ring.generators if g.invertible and g.degree != 0]
    others = [g for g in ring.generators if not (g.invertible and g.degree != 0)]
    if len(units) != 1 or any(g.degree != 0 for g in others):
        raise NotLaurentForm("expected exactly one nonzero-degree unit over a degree-0 part")
    u = units[0]
    for rel in ring.relations:
        for term in rel:
            if u.name in term.variables():
                raise NotLaurentForm(f"unit {u.name!r} appears in a relation")
    sub = GradedRingPresentation(
        ring.char, tuple(others), ring.relations, ring.constraint
    )
    big = enumerate_patterns(ring)
    small = enumerate_patterns(sub)
    big_set = {big.patterns[p].contains for p in big.space.points}
    small_set = {small.patterns[p].contains for p in small.space.points}
    if any(u.name in c for c in big_set):
        return failure("unit-in-pattern", u.name)
    if big_set != small_set:
        return failure("pattern-sets-differ", len(big_set), len(small_set))
    # Identity on traces is inclusion-preserving both ways by construction.
    return Diagnosis(True, "bijection", (len(big_set),))


def is_alexandrov_open(ds) -> bool:
    """True iff the set of periods is divisor-closed.

    Pass ALL for the full poset.  No finite set containing 0 is open,
    since every integer divides 0.
    """
    if ds == ALL:
        return True
    values = set(ds)
    if any(d < 0 for d in values):
        raise NegativePeriod("periods are nonnegative")
    if 0 in values:
        return False
    return all(
        e in values for d in values for e in range(1, d + 1) if d % e == 0
    )


def commute(perms) -> bool:
    """The permutations commute pairwise, composed as permutations."""
    return all(groups.compose(a, b) == groups.compose(b, a)
               for a, b in itertools.combinations(perms, 2))


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... for an abelian group."""
    if not commute(G.generators):
        raise GroupError("abelian invariants of a nonabelian group")
    return _abelian_invariants(Counter(G.index.orders))


# -- multigraded rings -------------------------------------------------

def ideal_generated_ring(ring: MultigradedRing, gens: Iterable) -> frozenset:
    """The members of the ideal the library generates from gens."""
    return oracle_members(ring.index, ring.index.generate(gens).rows)


def ring_primes(ring: MultigradedRing) -> list:
    return [i for i in ring_ideals(ring) if is_ring_prime(ring, i)]


def spech_multigraded(ring: MultigradedRing):
    """Homogeneous prime spectrum as a finite spectral model, plus the
    point-name-to-ideal mapping."""
    return prime_spectrum(ring_primes(ring), lambda i: ring.index.name(i, None, ring.render))


# -- the ideal engine without stop rules -------------------------------
#
# AlgebraIndex.close, lattice and name as they were before closure stopped
# at saturation and before an ideal was its rows alone: every added row
# goes through every map of its component, full target or not, a
# principal ideal is closed to the end even after a row lands on a known
# line whose ideal already holds the generator, and the lattice and the
# names are read off member sets, listed here by summing every
# combination of the rows.  They share the echelon helpers with the
# library.


def oracle_members(index: AlgebraIndex, rows: tuple) -> frozenset:
    """The nonzero members of the ideal with these rows: every combination
    of each component's rows."""
    p = index.char
    out = set()
    for key, basis, d in zip(index.keys, rows, index.dims):
        for coeffs in all_vectors(p, len(basis)):
            v = vec_zero(d)
            for c, (_, row) in zip(coeffs, basis):
                v = vec_add(p, v, tuple(c * a % p for a in row))
            if any(v):
                out.add((*key, v))
    return frozenset(out)


def ideal_of_members(index: AlgebraIndex, members: Iterable) -> Ideal:
    """The Ideal whose rows span the given members component by component,
    without closing them."""
    vectors: list = [[] for _ in index.keys]
    for m in members:
        c, v = index.split(m)
        vectors[c].append(v)
    return Ideal(tuple(_echelon(index.char, vs) for vs in vectors), index.char)


def oracle_close(index: AlgebraIndex, ideal: tuple, gens: Iterable, known=None) -> tuple:
    p = index.char
    rows = list(ideal)
    todo = []

    def add(c, v):
        v = _reduce(p, rows[c], v)
        if not any(v):
            return
        q = known.get((c, _line(p, v))) if known else None
        if q is None:
            rows[c] = _insert(p, rows[c], v)
            todo.append((c, v))
        else:
            _absorb(p, rows, q)

    for c, v in gens:
        add(c, v)
    while todo:
        c, v = todo.pop()
        for t, matrix in index.maps[c]:
            add(t, _apply(p, v, matrix))
    return tuple(rows)


def oracle_lattice(index: AlgebraIndex) -> tuple:
    """Every ideal as its member set, by size and then sorted members."""
    zero = index.zero
    known: dict = {}
    for c, lines in enumerate(index.lines):
        for v in lines:
            known[(c, v)] = oracle_close(index, zero, [(c, v)], known)
    principal = list(dict.fromkeys(known.values()))
    found = [zero, *principal]
    seen = set(found)
    for ideal in found:
        for q in principal:
            j = index.join(ideal, q)
            if j not in seen:
                seen.add(j)
                found.append(j)
    members = [oracle_members(index, i) for i in found]
    return tuple(sorted(members, key=lambda i: (len(i), sorted(i))))


def oracle_ideal_name(index: AlgebraIndex, members, sort_key, render) -> str:
    """Members scanned in sort_key order, each kept when not in the ideal
    those kept before it generate."""
    gens: list = []
    have = index.zero
    for m in sorted(members, key=sort_key):
        c, v = index.split(m)
        if any(_reduce(index.char, have[c], v)):
            gens.append(m)
            have = oracle_close(index, have, [(c, v)])
    return "⟨" + ",".join(render(g) for g in gens) + "⟩"


def two_ring_name_key(R2: TwoRingDatum):
    """The member order of 2-ring names: unit-sourced morphisms first, then
    by object order and vector."""
    order = {o: k for k, o in enumerate(R2.objects)}
    return lambda m: (m[0] != R2.unit, order[m[0]], order[m[1]], m[2])


# -- the axioms, case by case -----------------------------------------
#
# The validators as they were before they checked each axiom on a
# generating set: every homogeneous element, every degree triple, every
# pair of composable basis pairs and every pair of nonzero vectors.  The
# library's verdicts, reasons and details must equal these.


def oracle_validate_multigraded(ring: MultigradedRing) -> Diagnosis:
    if not is_prime(ring.char):
        return failure("char_not_prime", ring.char)
    z = ring.group.zero
    if len(ring.one) != ring.dims[z]:
        return failure("bad_identity_shape")
    if ring.is_zero_ring():
        return PASS

    one = (z, ring.one)
    for e in ring.homogeneous_elements():
        if mg_mul(ring, one, e) != e or mg_mul(ring, e, one) != e:
            return failure("identity_fails_on", ring.render(e))

    basis = list(ring.basis_elements())
    for a in basis:
        for b in basis:
            for c in basis:
                if mg_mul(ring, mg_mul(ring, a, b), c) != mg_mul(ring, a, mg_mul(ring, b, c)):
                    return failure("not_associative", ring.render(a), ring.render(b), ring.render(c))

    zero_part = [(z, v) for v in all_vectors(ring.char, ring.dims[z])]
    units = {u for u in zero_part if any(
        mg_mul(ring, u, v) == one and mg_mul(ring, v, u) == one for v in zero_part)}
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
            rhs = mg_mul(ring, (z, ring.tau[(a[0], b[0])]), mg_mul(ring, b, a))
            if lhs != rhs:
                return failure("commutation_fails", ring.render(a), ring.render(b))
    return PASS


def oracle_two_ring_from_multigraded(
    ring: MultigradedRing,
    name: str | None = None,
    extra_objects=(),
) -> TwoRingDatum:
    """two_ring_from_multigraded as it was before it shared tables: every
    table formed afresh for each object triple and quadruple."""
    group = ring.group
    zero = group.zero
    one = (zero, ring.one)
    for x in group.elements():
        for y in group.elements():
            t = (zero, ring.tau[(x, y)])
            if not ring.is_zero_ring() and mg_mul(ring, t, t) != one:
                raise RingShapeError("transposition value does not square to one")

    labels = {object_name(group, x): x for x in group.elements()}
    objects = [object_name(group, x) for x in group.elements()]
    for nm, lab in extra_objects:
        if nm in labels:
            raise RingShapeError(f"duplicate object name {nm!r}")
        labels[nm] = group.canon(lab)
        objects.append(nm)
    unit = object_name(group, zero)

    def deg(a, b):
        return group.sub(labels[b], labels[a])

    dims = {}
    basis_names = {}
    for a in objects:
        for b in objects:
            dims[(a, b)] = ring.dims[deg(a, b)]
            basis_names[(a, b)] = ring.basis_names[deg(a, b)]

    compose_tables = {}
    for a in objects:
        for b in objects:
            for c in objects:
                if dims[(a, b)] == 0 or dims[(b, c)] == 0:
                    continue
                rows = []
                for i in range(dims[(a, b)]):
                    row = []
                    f = (deg(a, b), tuple(1 if k == i else 0 for k in range(dims[(a, b)])))
                    for j in range(dims[(b, c)]):
                        g = (deg(b, c), tuple(1 if k == j else 0 for k in range(dims[(b, c)])))
                        row.append(mg_mul(ring, g, f)[1])
                    rows.append(tuple(row))
                compose_tables[(a, b, c)] = tuple(rows)

    tensor_obj = {}
    for a in objects:
        for b in objects:
            tensor_obj[(a, b)] = object_name(group, group.add(labels[a], labels[b]))

    tensor_tables = {}
    for a in objects:
        for b in objects:
            for c in objects:
                for d in objects:
                    if dims[(a, b)] == 0 or dims[(c, d)] == 0:
                        continue
                    factor = (zero, ring.tau[(deg(c, d), labels[a])])
                    rows = []
                    for i in range(dims[(a, b)]):
                        f = (deg(a, b), tuple(1 if k == i else 0 for k in range(dims[(a, b)])))
                        row = []
                        for j in range(dims[(c, d)]):
                            g = (deg(c, d), tuple(1 if k == j else 0 for k in range(dims[(c, d)])))
                            row.append(mg_mul(ring, factor, mg_mul(ring, f, g))[1])
                        rows.append(tuple(row))
                    tensor_tables[(a, b, c, d)] = tuple(rows)

    identities = {a: ring.one for a in objects}
    symmetry = {}
    for a in objects:
        for b in objects:
            symmetry[(a, b)] = ring.tau[(labels[a], labels[b])]

    return TwoRingDatum(
        name=name or ring.name,
        group=group,
        char=ring.char,
        objects=tuple(objects),
        labels=labels,
        unit=unit,
        support=frozenset(group.elements()),
        dims=dims,
        basis_names=basis_names,
        compose_tables=compose_tables,
        tensor_obj=tensor_obj,
        tensor_tables=tensor_tables,
        identities=identities,
        symmetry=symmetry,
    )


def oracle_validate_two_ring(R2: TwoRingDatum) -> Diagnosis:
    if not is_prime(R2.char):
        return failure("characteristic_not_prime", R2.char)
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

    basis = list(R2.basis_morphisms())
    for f in basis:
        if compose(R2, R2.identity(f[1]), f) != f or compose(R2, f, R2.identity(f[0])) != f:
            return failure("composition_not_unital", R2.render(f))
    composites = {(f, g): compose(R2, g, f) for f in basis for g in basis if g[0] == f[1]}
    for (f, g), gf in composites.items():
        for h in basis:
            if h[0] == g[1] and compose(R2, h, gf) != compose(R2, composites[(g, h)], f):
                return failure("composition_not_associative",
                               R2.render(f), R2.render(g), R2.render(h))

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

    for a in R2.objects:
        for b in R2.objects:
            ab = R2.tensor_obj[(a, b)]
            if tensor(R2, R2.identity(a), R2.identity(b)) != R2.identity(ab):
                return failure("tensor_of_identities", a, b)
    tensors = {(f, g): tensor(R2, f, g) for f in basis for g in basis}
    for (f, f2), f2f in composites.items():
        for (g, g2), g2g in composites.items():
            lhs = compose(R2, tensors[(f2, g2)], tensors[(f, g)])
            if lhs != tensor(R2, f2f, g2g):
                return failure("interchange_fails",
                               R2.render(f), R2.render(f2), R2.render(g), R2.render(g2))

    for a in R2.objects:
        if not any(has_iso(R2, R2.tensor_obj[(a, b)], R2.unit) for b in R2.objects):
            return failure("object_not_invertible", a)
        if not has_iso(R2, R2.tensor_obj[(a, R2.unit)], a):
            return failure("unit_tensor_not_isomorphic", a)
        if not has_iso(R2, R2.tensor_obj[(R2.unit, a)], a):
            return failure("unit_tensor_not_isomorphic", a)

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


def oracle_phi_apply(T: Tightening, R2: TwoRingDatum, elt):
    """The identification applied coordinate by coordinate."""
    x, vec = elt
    target = T.representatives[T.projection[x]]
    out = vec_zero(R2.hom_dim(R2.unit, target))
    for c, row in zip(vec, T.phi[x]):
        out = vec_add(R2.char, out, tuple(c * a % R2.char for a in row))
    return (R2.unit, target, out)


def oracle_validate_tightening(T: Tightening, R2: TwoRingDatum) -> Diagnosis:
    d = oracle_validate_multigraded(T.ring)
    if not d:
        return d
    _check_tightening_shapes(T, R2)
    ring = T.ring
    G = ring.group
    zero = G.zero

    for x in G.elements():
        for r_vec in all_vectors(ring.char, ring.dims[x]):
            r = (x, r_vec)
            fr = oracle_phi_apply(T, R2, r)
            for s_vec in all_vectors(ring.char, ring.dims[zero]):
                s = (zero, s_vec)
                lhs = oracle_phi_apply(T, R2, mg_mul(ring, r, s))
                rhs = compose(R2, fr, oracle_phi_apply(T, R2, s))
                if lhs != rhs:
                    return failure("axiom1", x, ring.render(r), ring.render(s))

    for x in G.elements():
        for y in G.elements():
            for r_vec in all_vectors(ring.char, ring.dims[x]):
                if not any(r_vec):
                    continue
                r = (x, r_vec)
                fr = oracle_phi_apply(T, R2, r)
                g = T.representatives[T.projection[x]]
                med = _unit_mediator(R2, g)
                for s_vec in all_vectors(ring.char, ring.dims[y]):
                    if not any(s_vec):
                        continue
                    s = (y, s_vec)
                    fs = oracle_phi_apply(T, R2, s)
                    lhs = compose(R2, tensor(R2, R2.identity(g), fs),
                                  compose(R2, med, fr))
                    rhs = oracle_phi_apply(T, R2, mg_mul(ring, r, s))
                    if not is_translate(R2, lhs, rhs):
                        return failure("axiom2", x, y, ring.render(r), ring.render(s))
    return PASS


# -- 2-rings: translates, the exchange lemma, restriction --------------

class NotSubmonoid(UsageError):
    """Restriction set is not a submonoid of the grading group."""


def commutes_up_to_translate(R2: TwoRingDatum, r, s) -> bool:
    """The swapped composite of suitable translates recovers s after r."""
    target = compose(R2, s, r)
    for s2 in R2.morphisms(include_zero=True):
        if s2[0] != target[0] or not is_translate(R2, s, s2):
            continue
        for r2 in R2.homs(s2[1], target[1], include_zero=True):
            if is_translate(R2, r, r2) and compose(R2, r2, s2) == target:
                return True
    return False


def lemma_magic_check(R2: TwoRingDatum, a, b, w) -> bool:
    """Two-sided exchange of a unit endomorphism across a twist.

    For a, b from the unit into the same object and w an endomorphism
    of that object, composing with w on the target side agrees with
    composing on the source side with the conjugated unit endomorphism.
    Returns whether the two conditions have the same truth value.
    """
    if a[0] != R2.unit or b[0] != R2.unit or a[1] != b[1]:
        raise BadShapes("need two morphisms from the unit into one object")
    g = a[1]
    if w[0] != g or w[1] != g:
        raise BadShapes("need an endomorphism of the shared target")
    gi = None
    for cand in R2.objects:
        if R2.tensor_obj[(cand, g)] == R2.unit:
            gi = cand
            break
    if gi is None:
        for cand in R2.objects:
            if has_iso(R2, R2.tensor_obj[(cand, g)], R2.unit):
                gi = cand
                break
    if gi is None:
        raise BadShapes("no tensor inverse object found")
    tw = tensor(R2, R2.identity(gi), w)
    if tw[0] == R2.unit:
        w_unit = tw
    else:
        e, e_inv = reference_iso_pairs(R2, tw[0], R2.unit)[0]
        w_unit = compose(R2, e, compose(R2, tw, e_inv))
    return (compose(R2, w, a) == b) == (compose(R2, a, w_unit) == b)


def restrict_submonoid(R2: TwoRingDatum, M: Iterable):
    """Sub-2-ring on the objects labeled inside M, with the trace map.

    Returns the restricted datum and the mapping from each spectrum
    point of the input to the point of the restriction cut out by
    intersecting the prime with the restricted morphisms.  In a finite
    grading group every submonoid is a subgroup, so the restriction
    keeps every hom between the objects it keeps.
    """
    try:
        mset = {R2.group.canon(m) for m in M}
    except (RingShapeError, TypeError) as exc:
        raise NotSubmonoid(str(exc))
    if R2.group.zero not in mset:
        raise NotSubmonoid("missing the identity label")
    for a in mset:
        for b in mset:
            if R2.group.add(a, b) not in mset:
                raise NotSubmonoid(f"not closed under addition at {a} + {b}")

    keep = tuple(o for o in R2.objects if R2.labels[o] in mset)
    keepset = set(keep)
    restricted = TwoRingDatum(
        name=f"{R2.name}_res",
        group=R2.group,
        char=R2.char,
        objects=keep,
        labels={o: R2.labels[o] for o in keep},
        unit=R2.unit,
        support=R2.support & frozenset(mset),
        dims={(a, b): R2.dims[(a, b)] for a in keep for b in keep},
        basis_names={(a, b): R2.basis_names[(a, b)] for a in keep for b in keep},
        compose_tables={k: v for k, v in R2.compose_tables.items() if set(k) <= keepset},
        tensor_obj={k: v for k, v in R2.tensor_obj.items() if set(k) <= keepset},
        tensor_tables={k: v for k, v in R2.tensor_tables.items() if set(k) <= keepset},
        identities={o: R2.identities[o] for o in keep},
        symmetry={k: v for k, v in R2.symmetry.items() if set(k) <= keepset},
    )

    _, full_primes = spc_with_primes(R2)
    _, res_primes = spc_with_primes(restricted)
    back = {ideal: nm for nm, ideal in res_primes.items()}
    point_map = {}
    for nm, ideal in full_primes.items():
        trace = ideal_of_members(restricted.index, [
            m for m in oracle_members(R2.index, ideal.rows) if m[0] in keepset and m[1] in keepset])
        if trace not in back:
            raise RingShapeError(f"trace of {nm} is not a prime of the restriction")
        point_map[nm] = back[trace]
    return restricted, point_map


def restriction_localization_check(R2: TwoRingDatum, M: Iterable, S: Iterable) -> Diagnosis:
    """Restriction commutes with localization on the kept components.

    S must consist of morphisms of the restriction.  Both sides are
    localized and the canonical span-to-span comparison must be
    bijective on every kept component; since finite submonoids are
    subgroups, every kept label difference stays in the localized
    support, so full components must match exactly.
    """
    restricted, _ = restrict_submonoid(R2, M)
    S = [tuple(m) for m in S]
    for m in S:
        if m[0] not in restricted.objects or m[1] not in restricted.objects:
            return failure("system_outside_restriction", m)
    res_spans = span_quotients(restricted, mult_closure_two(restricted, S))
    full_spans = span_quotients(R2, mult_closure_two(R2, S))
    for a in restricted.objects:
        for b in restricted.objects:
            # The comparison is linear, so it is injective when the images
            # of a basis are independent.
            images = [span_class(full_spans, (s, (s[0], b, f)))
                      for s, f in res_spans((a, b)).basis]
            if rank(R2.char, images) != len(images):
                return failure("restricted_localization_not_injective", a, b)
            sub_count, full_count = (R2.char ** q((a, b)).dim for q in (res_spans, full_spans))
            if sub_count != full_count:
                return failure("restricted_localization_dims", a, b, sub_count, full_count)
    return PASS


# -- fraction relations, dense --------------------------------------


def oracle_fraction_relations(p: int, blocks, dilations) -> tuple:
    """The reduced echelon basis of the relations e_s(f) - e_su(f u) of
    FractionQuotient(p, blocks, dilations), as (pivot, row) pairs in pivot
    order: each relation a full-length row, reduced by _reduce against
    every row found before it and added by _insert."""
    offsets, n = {}, 0
    for s, d in blocks:
        offsets[s] = (n, d)
        n += d
    relations: tuple = ()
    for s, su, rows in dilations:
        if len(relations) == n:
            break
        i0, _ = offsets[s]
        j0, d = offsets[su]
        for i, row in enumerate(rows):
            v = [0] * n
            v[j0:j0 + d] = [-c % p for c in row]
            v[i0 + i] = (v[i0 + i] + 1) % p
            v = _reduce(p, relations, tuple(v))
            if any(v):
                relations = _insert(p, relations, v)
    return relations


# -- localization, every quotient formed up front --------------------
#
# span_quotients and localization_agreement as they were before a
# component's quotient was formed on first read and the numerator-free
# part of each identification once per block: every component's
# FractionQuotient and every f -> f u table are formed at once, and each
# fraction is identified from scratch.  They share FractionQuotient and
# the ring side with the library.


def oracle_span_quotients(R2: TwoRingDatum, system: frozenset) -> dict:
    counts = {a: sum(R2.char ** R2.hom_dim(a, b) for b in R2.objects) for a in R2.objects}
    require_within("MAX_SPANS", sum(counts[s[0]] for s in system))
    dilations = [(s, u, su) for s in sorted(system) for m in R2.objects
                 for u in R2.homs(m, s[0], include_zero=True)
                 if (su := compose(R2, s, u)) in system]
    reach: dict = {}
    for s, _, su in dilations:
        reach.setdefault(s, set()).add(su)
    times = {(u, b): [compose(R2, (u[1], b, f), u)[2] for f in basis_vectors(R2.hom_dim(u[1], b))]
             for u in {u for _, u, _ in dilations} for b in R2.objects}
    out = {}
    for a in R2.objects:
        denominators = [s for s in sorted(system) if s[1] == a]
        for i, s in enumerate(denominators):
            for t in denominators[:i]:
                if reach.get(s, set()).isdisjoint(reach.get(t, ())):
                    raise RingShapeError(
                        f"no common dilation for {R2.render(t)} and {R2.render(s)}")
        for b in R2.objects:
            out[(a, b)] = FractionQuotient(
                R2.char,
                [(s, R2.hom_dim(s[0], b)) for s in denominators],
                [(s, su, times[(u, b)]) for s, u, su in dilations if s[1] == a],
            )
    return out


def oracle_identify_fraction(T: Tightening, R2: TwoRingDatum, system: frozenset, spans,
                             num, den):
    ring = T.ring
    y, z = num[0], den[0]
    x = ring.group.sub(y, z)
    gz = T.representatives[T.projection[z]]
    gzinv = None
    for cand in R2.objects:
        if R2.tensor_obj[(cand, gz)] == R2.unit:
            gzinv = cand
            break
    if gzinv is None:
        raise ShapeMismatch(f"no strict tensor inverse for {gz!r}")
    s_leg = tensor(R2, R2.identity(gzinv), phi_apply(T, R2, den))
    r_leg = tensor(R2, R2.identity(gzinv), phi_apply(T, R2, num))
    gx = T.representatives[T.projection[x]]
    if r_leg[1] != gx:
        isos = reference_iso_pairs(R2, r_leg[1], gx)
        if not isos:
            raise ShapeMismatch(f"no isomorphism from {r_leg[1]!r} to {gx!r}")
        r_leg = compose(R2, isos[0][0], r_leg)
    if s_leg not in system:
        raise RingShapeError("identified denominator left the system")
    return span_class(spans.__getitem__, (s_leg, r_leg))


def oracle_localization_agreement(T: Tightening, R2: TwoRingDatum, S: Iterable) -> Diagnosis:
    d = validate_tightening(T, R2)
    if not d:
        return d
    ring = T.ring
    Sr = mult_system_ring(ring, S)
    e_gen = extend_system(T, R2, Sr)
    e_tr = translate_closure(R2, [phi_apply(T, R2, e) for e in Sr])
    if e_gen != e_tr:
        return failure("translate_closure_differs", len(e_gen), len(e_tr))
    if restrict_system(T, R2, e_gen) != Sr:
        return failure("system_round_trip")

    spans = oracle_span_quotients(R2, e_gen)
    fr = ring_fractions(ring, Sr)
    p = R2.char
    for x in ring.group.elements():
        gx = T.representatives[T.projection[x]]
        width = spans[(R2.unit, gx)].dim

        def combine(coeffs, vectors):
            return tuple(sum(c * v[k] for c, v in zip(coeffs, vectors)) % p for k in range(width))

        q = fr[x]
        numerators = {s: ring.group.add(x, s[0]) for s, _ in q.blocks}
        image = {s: [oracle_identify_fraction(T, R2, e_gen, spans, (numerators[s], f), s)
                     for f in basis_vectors(d)]
                 for s, d in q.blocks}
        for s, d in q.blocks:
            for f in all_vectors(p, d):
                mine = oracle_identify_fraction(T, R2, e_gen, spans, (numerators[s], f), s)
                if mine != combine(f, image[s]):
                    return failure("identification_not_additive", x)
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


# -- section tables: charts and the image in an ambient model ----------

def oracle_is_ample(table: SectionTable) -> bool:
    """is_ample by the literal criterion: every point of every open set
    sits inside some locus contained in that open set."""
    loci = [s.locus for s in table.sections]
    for v in table.space.open_sets():
        for p in v:
            if not any(p in u and u <= v for u in loci):
                return False
    return True


def oracle_homeo_onto_image(table: SectionTable) -> bool:
    """homeo_onto_image from the map itself: injective, and every open set
    maps onto a generalization-closed subset of the image under the
    pattern-inclusion order."""
    comp = comp_map(table)
    patterns = {p: comp[p].contains for p in table.space.points}
    image = set(patterns.values())
    if len(image) != len(table.space.points):
        return False
    for v in table.space.open_sets():
        hit = {patterns[p] for p in v}
        for a in hit:
            for b in image:
                if b <= a and b not in hit:
                    return False
    return True


def restrict_table(table: SectionTable, subset: Iterable[str]) -> SectionTable:
    """Induced table on an open subset; loci restrict literally."""
    sub = frozenset(subset)
    if not table.space.is_open(sub):
        raise ComparisonError("restriction target is not open")
    return SectionTable(
        space=table.space.restrict(sub),
        bundles=dict(table.bundles),
        sections=tuple(
            Section(s.name, s.bundle, s.degree, s.locus & sub)
            for s in table.sections
        ),
        products=dict(table.products),
    )


class NotBaseFree(ComparisonError):
    """No finite set of sections of the bundle covers the space."""

    def __init__(self, bundle: str):
        self.bundle = bundle
        super().__init__(f"bundle {bundle!r} has no covering family of sections")


@dataclass(frozen=True)
class Chart:
    """One covering section's locus with the restricted table."""

    section: str
    points: frozenset[str]
    table: SectionTable


def base_free_cover(table: SectionTable, bundle: str) -> list[Chart]:
    """Charts from the sections of one bundle whose loci cover the space.

    Each chart is verified against the pullback description: its points
    are exactly the points whose pattern omits the chosen section.
    """
    if bundle not in table.bundles:
        raise ComparisonError(f"unknown bundle {bundle!r}")
    chosen = [s for s in table.sections if s.bundle == bundle and s.locus]
    covered: set[str] = set()
    for s in chosen:
        covered |= s.locus
    if covered != set(table.space.points):
        raise NotBaseFree(bundle)
    comp = comp_map(table)
    charts = []
    for s in chosen:
        omits = frozenset(
            p for p in table.space.points if s.name not in comp[p].contains
        )
        if omits != s.locus:
            raise ComparisonError(f"chart of {s.name!r} fails the pullback check")
        charts.append(Chart(s.name, s.locus, restrict_table(table, s.locus)))
    return charts


def image_open_in_model(table: SectionTable, model: SpechModel) -> bool:
    """Is the comparison image open inside an ambient pattern model?

    Reported as a diagnostic only; an embedding needs no open image.
    Every image pattern must name a point of the ambient model.
    """
    comp = comp_map(table)
    by_pattern = {model.patterns[q].contains: q for q in model.space.points}
    hit = set()
    for p in table.space.points:
        key = comp[p].contains
        if key not in by_pattern:
            raise ComparisonError(f"image pattern of {p!r} is not an ambient point")
        hit.add(by_pattern[key])
    return model.space.is_open(hit)


# -- checks no input can fail ------------------------------------------
#
# Each function below is a library function as it was while it still made
# checks that follow from the theorems or from checks made before them.


def oracle_central_loc_pullback(table: SectionTable, names: Iterable[str]) -> tuple[frozenset, Diagnosis]:
    """The region central_localization returns, as the intersection of the
    wanted loci, and the pullback verdict: the region is the set of points
    whose pattern avoids the names, it is open, and the comparison map of
    the table restricted to it is the restriction of the full map."""
    wanted = frozenset(names)
    known = set(table.names())
    if not wanted <= known:
        raise ComparisonError(f"unknown section {sorted(wanted - known)[0]!r}")
    region = frozenset(table.space.points)
    for s in table.sections:
        if s.name in wanted:
            region &= s.locus
    restricted = restrict_table(table, region)
    comp = comp_map(table)
    via_patterns = frozenset(
        p for p in table.space.points if not (comp[p].contains & wanted)
    )
    if region != via_patterns:
        return region, failure("locus-vs-pattern", tuple(sorted(region ^ via_patterns)))
    if not table.space.is_open(region):
        return region, failure("region-not-open", tuple(sorted(region)))
    sub = comp_map(restricted)
    for p in restricted.space.points:
        if sub[p].contains != comp[p].contains:
            return region, failure("restriction-mismatch", p)
    return region, PASS


def oracle_extend_ideal(T: Tightening, R2: TwoRingDatum, ring_ideal: frozenset) -> frozenset:
    """The members of the ideal generated by the images of every member."""
    gens = [R2.index.split(phi_apply(T, R2, e)) for e in ring_ideal]
    return oracle_members(R2.index, oracle_close(R2.index, R2.index.zero, gens))


def oracle_restrict_ideal(T: Tightening, R2: TwoRingDatum, two_ideal: frozenset) -> frozenset:
    """The nonzero ring elements whose image is a member of two_ideal."""
    return frozenset(e for e in T.ring.homogeneous_elements()
                     if phi_apply(T, R2, e) in two_ideal)


def oracle_ideal_correspondence(T: Tightening, R2: TwoRingDatum) -> Diagnosis:
    """ideal_correspondence on member sets: the oracle lattices, extension
    and restriction by enumeration, its inclusion check on every pair of
    ring ideals and its comparison of the two prime spectra point by
    point."""
    ring = T.ring
    lattice_r = oracle_lattice(ring.index)
    lattice_2 = oracle_lattice(R2.index)
    set_2 = set(lattice_2)
    set_r = set(lattice_r)

    ext = {i: oracle_extend_ideal(T, R2, i) for i in lattice_r}
    res = {j: oracle_restrict_ideal(T, R2, j) for j in lattice_2}

    for i, j in ext.items():
        if j not in set_2:
            return failure("extension_not_ideal", sorted(i))
        if res[j] != i:
            return failure("round_trip_ring", sorted(i))
    for j, i in res.items():
        if i not in set_r:
            return failure("restriction_not_ideal", sorted(j))
        if ext[i] != j:
            return failure("round_trip_two", sorted(j))
    for i1 in lattice_r:
        for i2 in lattice_r:
            if (i1 <= i2) != (ext[i1] <= ext[i2]):
                return failure("inclusion_not_preserved", sorted(i1), sorted(i2))
    primes_r = [i for i in lattice_r if is_ring_prime(ring, ideal_of_members(ring.index, i))]
    primes_2 = [j for j in lattice_2 if is_prime_two(R2, ideal_of_members(R2.index, j))]
    for i in lattice_r:
        if (i in primes_r) != (ext[i] in primes_2):
            return failure("prime_not_preserved", sorted(i))

    names_r = {oracle_ideal_name(ring.index, i, None, ring.render): i for i in primes_r}
    names_2 = {oracle_ideal_name(R2.index, j, two_ring_name_key(R2), R2.render): j
               for j in primes_2}
    model_r, model_2 = oracle_from_inclusions(names_r), oracle_from_inclusions(names_2)
    back_2 = {ideal: nm for nm, ideal in names_2.items()}
    point_map = {}
    for nm, ideal in names_r.items():
        image = ext[ideal]
        if image not in back_2:
            return failure("spectra_mismatch", nm)
        point_map[nm] = back_2[image]
    if len(set(point_map.values())) != len(model_2.points) or len(point_map) != len(model_r.points):
        return failure("spectra_mismatch", "point count")
    for p in model_r.points:
        for q in model_r.points:
            if model_r.specializes(p, q) != model_2.specializes(point_map[p], point_map[q]):
                return failure("spectra_mismatch", p, q)
    return PASS


# -- Heller shifts -------------------------------------------------------
#
# For a p-group P the group algebra F_p[P] is local with the augmentation
# ideal I as its radical, so the projective cover of a module M is
# F_p[P]^r with r = dim M/IM, and Omega(M) is its kernel.  A minimal
# resolution has no projective summands, and the only simple module is
# the trivial one, so Omega^n(k) is k exactly when it has dimension one.
# Modules are kept as submodules of free modules F_p[P]^s, as echelon
# rows over the coordinates (block, element).
#
# A group G whose p'-elements form a subgroup K (a normal p-complement)
# reduces to P = G/K: e_K = |K|^-1 sum of K is a central idempotent, and
# the principal block F_p[G] e_K, which holds k, is F_p[G/K].  A minimal
# resolution of k over it is one over F_p[G], so Omega^n_G(k) is
# Omega^n_{G/K}(k) inflated, and the two periods agree.


def p_complement(G: FiniteGroup, p: int) -> "frozenset | None":
    """The p'-elements of G when they are closed under composition, so
    form a normal subgroup, checked on G's own permutations; else None."""
    K = frozenset(g for g in G.elements if perm_order(g) % p)
    return K if all(groups.compose(a, b) in K for a in K for b in K) else None


def heller_period(G: FiniteGroup, p: int) -> "int | None":
    """The least n > 0 with Omega^n(k) of dimension one, for a group G with
    a normal p-complement K over F_p (K = 1 for a p-group), by minimal
    projective resolutions over F_p[G/K] on the table of the cosets of K.
    For a Sylow p-subgroup of p-rank one this is the period of stmod's one
    point, at most 4 at p = 2 and 2(p - 1) at odd p; a p-rank-one G that
    finds no n within that bound raises ValueError.  A G of p-rank two or
    more has no period: None, read from GroupIndex.p_classes before
    anything is resolved.  A G with no normal p-complement raises
    ValueError."""
    K = p_complement(G, p)
    if K is None:
        raise ValueError(f"{G.name} has no normal {p}-complement")
    if p_rank(G, p) >= 2:
        return None
    cosets = sorted({min(groups.compose(g, k) for k in K) for g in G.elements})
    n = len(cosets)
    where = {g: i for i, c in enumerate(cosets) for g in (groups.compose(c, k) for k in K)}
    # acts[i][j] is the position of the coset of c_i c_j, c_i the least
    # member of the i-th coset; K is normal, so any members give it.
    acts = [[where[groups.compose(g, h)] for h in cosets] for g in cosets]
    gens = [acts[where[g]] for g in G.generators]

    def act(a, v):
        out = [0] * len(v)
        for k, c in enumerate(v):
            if c:
                block, i = divmod(k, n)
                out[block * n + a[i]] = c
        return tuple(out)

    def omega(module):
        # I = (g - 1) F_p[P] summed over generators g, so IM is spanned by
        # the (g - 1) m over generators g and a basis m of M.
        top, basis = [], _echelon(p, [
            tuple((x - y) % p for x, y in zip(act(a, m), m)) for a in gens for m in module])
        for m in module:
            v = _reduce(p, basis, m)
            if any(v):
                basis = _insert(p, basis, v)
                top.append(m)
        # The cover sends the basis vector (j, h) of F_p[P]^r to h m_j;
        # its kernel is read off the rows whose image part is zero.
        width, r = len(module[0]), len(top)
        tags = basis_vectors(r * n)
        rows = _echelon(p, [act(a, m) + tags[j * n + i]
                            for j, m in enumerate(top) for i, a in enumerate(acts)])
        return [row[width:] for piv, row in rows if piv >= width]

    module = [(1,) * n]  # the norm element spans the trivial module
    bound = 4 if p == 2 else 2 * (p - 1)
    for step in range(1, bound + 1):
        module = omega(module)
        if len(module) == 1:
            return step
    raise ValueError(f"{G.name} has {p}-rank one, yet Omega^n(k) is not k for any n <= {bound}")


# -- Quillen stratification ----------------------------------------------
#
# The irreducible components of the variety of H*(G; F_p) correspond to the
# G-classes of maximal elementary abelian p-subgroups E, and the component
# of E has dimension rank E (Quillen, "The spectrum of an equivariant
# cohomology ring I, II", Ann. of Math. 1971).


def elementary_abelian_classes(G: FiniteGroup, p: int) -> list:
    """The classes in GroupIndex.p_classes(p) whose members are elementary
    abelian."""
    ix = G.index
    return [c for c in ix.p_classes(p)
            if commute([ix.perms[x] for x in c.sub.gens])
            and all(ix.orders[x] in (1, p) for x in c.sub.elems)]


def p_rank(G: FiniteGroup, p: int) -> int:
    """The largest rank of an elementary abelian p-subgroup of G."""
    return max(round(math.log(c.order, p)) for c in elementary_abelian_classes(G, p))


def oracle_quillen_components(G: FiniteGroup, p: int) -> list:
    """The ranks of the G-classes of maximal elementary abelian
    p-subgroups, sorted, read from GroupIndex.p_classes(p): a class is kept
    when its representative lies properly in no elementary abelian member
    of any class."""
    elementary = elementary_abelian_classes(G, p)
    members = [H for c in elementary for H in c.members]
    return sorted(
        round(math.log(c.order, p)) for c in elementary
        if not any(c.sub.mask & H.mask == c.sub.mask and H.order > c.order for H in members))


def variety_components(model) -> list:
    """The dimensions of the components of a pattern model's variety,
    sorted: one per minimal pattern, the number of non-invertible
    generators outside it."""
    width, masks = len(model.ring.free_names()), list(model.masks.values())
    return sorted(width - bin(m).count("1") for m in masks
                  if not any(n != m and n & m == n for n in masks))


def oracle_artin_tower(p: int, N: int) -> TowerReport:
    """artin_tower with its checks that each level has one subgroup of each
    order, that closed points stay non-periodic, and that the chain is a
    period map."""
    groups.require_prime(p)
    if not 0 <= N <= 6:
        raise TowerHeightValueError("tower height must be between 0 and 6")
    levels = _cyclic_tower_levels(p, N)
    strata: list[TowerStratum] = []
    for j in range(N + 1):
        weyls, proj_seq, closed_seq = [], [], []
        for n in range(j, N + 1):
            assembly = levels[n]
            match = [
                s
                for s in assembly.strata
                if s.subgroup_class.order == p ** (n - j)
            ]
            if len(match) != 1:
                raise ModelError("cyclic group with a non-unique subgroup order")
            s = match[0]
            weyls.append(s.weyl.name or "?")
            closed_seq.append(assembly.periods[s.point_name(s.irrelevant)])
            non_closed = [
                q for q in s.variety.space.points if q != s.irrelevant
            ]
            if non_closed:
                (q,) = non_closed
                proj_seq.append(assembly.periods[s.point_name(q)])
        strata.append(
            TowerStratum(
                index=p**j,
                weyl_names=tuple(weyls),
                proj_sequence=tuple(proj_seq),
                proj_eventual=tower_period(proj_seq) if proj_seq else None,
                closed_sequence=tuple(closed_seq),
            )
        )
    limit_weyls, limit_seq = [], []
    for n in range(1, N + 1):
        assembly = levels[n]
        match = [s for s in assembly.strata if s.subgroup_class.order == 1]
        (s,) = match
        limit_weyls.append(s.weyl.name or "?")
        (q,) = [q for q in s.variety.space.points if q != s.irrelevant]
        limit_seq.append(assembly.periods[s.point_name(q)])
    if limit_seq:
        strata.append(
            TowerStratum(
                index=None,
                weyl_names=tuple(limit_weyls),
                proj_sequence=tuple(limit_seq),
                proj_eventual=tower_period(limit_seq),
                closed_sequence=(),
            )
        )
    for s in strata:
        for v in s.closed_sequence:
            if v != 0:
                raise ModelError("closed points must stay non-periodic")
    chain_points = [f"m{j}" for j in range(N + 1)]
    chain_edges = []
    chain_values = {f"m{j}": 0 for j in range(N + 1)}
    for j in range(1, N + 1):
        split = f"s{j}"
        chain_points.append(split)
        chain_edges.append((split, f"m{j-1}"))
        chain_edges.append((split, f"m{j}"))
        stratum = strata[j]
        assert stratum.proj_eventual is not None
        chain_values[split] = stratum.proj_eventual
    chain = FiniteSpectralModel(chain_points, chain_edges)
    per = PeriodAssignment(chain_values)
    diag = check_period_map(chain, per)
    if not diag:
        raise ModelError(f"tower chain is not a period map: {diag.describe()}")
    return TowerReport(
        prime=p, height=N, strata=tuple(strata), chain=chain, chain_periods=per
    )
