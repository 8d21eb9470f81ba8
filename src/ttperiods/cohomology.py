"""Catalog of group cohomology rings, reduced modulo nilpotents.

rep_period_map is the one entry point.  It reads a section record,
groups.WeylGroup(order, key, name): a group's order and identify key, a
Weyl group's own record, or the record of a group too large to build,
named.  Every abelian group answers by one Künneth rule: a polynomial ring
with one class per cyclic factor of its Sylow p-subgroup, of degree 1 for a
factor C2 and 2 otherwise (Adem and Milgram, Cohomology of Finite Groups,
1994).  Each other entry ships the reduced presentation over the working
prime, with certified witness patterns whenever the relations are not
monomial.  Unrecognized types (key None) are refused loudly unless p does
not divide the order; the catalog never guesses a ring.  The extended
variety of each (key, prime) and its periods are built once per process.
"""

from __future__ import annotations

from .diagnostics import UsageError
from .graded import (
    GradedRingPresentation,
    PrimePattern,
    SpechModel,
    enumerate_patterns,
    make_ring,
    point_periods,
)
from .groups import FiniteGroup, WeylGroup, identify, name_for_key, p_part, require_prime
from .spaces import PeriodAssignment


class GroupNotInCatalog(UsageError):
    """No cohomology entry for this group type at this prime."""


class WeylNotInCatalog(GroupNotInCatalog):
    """A stratum's Weyl group fell outside the catalog."""


# Named entries for groups too large to build.
_NAMED = {"M11": WeylGroup(7920, ("M11",), "M11")}


def catalog_section(group: "FiniteGroup | WeylGroup | str") -> WeylGroup:
    """The record the catalog reads: a group's order and identify(group), a
    Weyl group's record as it is, or a named entry.  Its key is None for a
    type identify does not recognize."""
    if isinstance(group, FiniteGroup):
        key = identify(group)
        return WeylGroup(group.order, key, name_for_key(key))
    if isinstance(group, WeylGroup):
        return group
    if group in _NAMED:
        return _NAMED[group]
    raise GroupNotInCatalog(f"unknown catalog key {(group,)!r}")


def _entry(W: WeylGroup, p: int) -> "tuple[GradedRingPresentation, tuple | None]":
    """The reduced presentation of a section's type at p, with its witness
    patterns.  A p' group, of unrecognized type too, has the field."""
    order, key = W.order, W.key
    wits = None
    if order % p != 0:
        ring = make_ring(p, [])
    elif key is None:
        raise GroupNotInCatalog(f"unidentified isomorphism type (order {order}) at p={p}")
    elif key[0] == "abelian":
        sylow = [q for q in (p_part(d, p) for d in key[1]) if q > 1]
        gens = [("x", 1) if q == 2 else ("y", 2) for q in sylow]
        if len(gens) > 1:
            gens = [(f"{n}{i}", d) for i, (n, d) in enumerate(gens, 1)]
        ring = make_ring(p, gens)
    elif key[0] == "quaternion" and p == 2:
        # The odd part of the cyclic subgroup of index 2 is a normal
        # 2-complement, so G answers as its Sylow 2-subgroup: C4 (Künneth)
        # when n = 4 mod 8; generalized quaternion for Q_n with 8 | n.
        ring = make_ring(2, [("y", 2)] if key[1] % 8 == 4 else [("e", 4)])
    elif key == ("dihedral", 8) and p == 2:
        ring = make_ring(
            2,
            [("α0", 1), ("α1", 1), ("β", 2)],
            [[(1, {"α0": 1, "α1": 1})]],
        )
    elif key == ("M11",) and p == 3:
        ring = make_ring(
            3,
            [("a", 8), ("b", 12), ("c", 16)],
            [[(1, {"b": 2}), (1, {"a": 1, "c": 1}), (-1, {"a": 3})]],
        )
        wits = (
            (PrimePattern.of(), "witness"),
            (PrimePattern.of("b"), "witness"),
            (PrimePattern.of("c"), "witness"),
            (PrimePattern.of("a", "b"), "witness"),
            (PrimePattern.of("a", "b", "c"), "witness"),
        )
    else:
        raise GroupNotInCatalog(f"{key!r} at p={p}")
    return ring, wits


# (catalog key, p) to its extended variety and periods.  Only identified
# types are kept: a refusal raises before anything is stored.
_VARIETIES: dict[tuple[tuple, int], "tuple[SpechModel, PeriodAssignment]"] = {}


def rep_period_map(
    group: "FiniteGroup | WeylGroup | str", p: int
) -> tuple[SpechModel, PeriodAssignment]:
    """Extended variety of the group's reduced cohomology, with periods.

    The group is read as catalog_section reads it.  The irrelevant pattern
    (all generators) is the unique closed point and carries period 0
    through the usual empty-gcd convention.  Built once per (catalog key,
    p) and shared by every caller, which must not change it; a non-prime p
    is refused on every call.
    """
    require_prime(p)
    W = catalog_section(group)
    found = _VARIETIES.get((W.key, p))
    if found is None:
        ring, wits = _entry(W, p)
        model = enumerate_patterns(ring, wits)
        found = model, PeriodAssignment(point_periods(ring, model))
        if W.key is not None:
            _VARIETIES[W.key, p] = found
    return found
