"""Catalog of group cohomology rings, reduced modulo nilpotents.

Keyed by isomorphism-type keys from groups.identify, plus a few named
entries for groups too large to enumerate.  Every abelian group answers by
one Künneth rule: a polynomial ring with one class per cyclic factor of its
Sylow p-subgroup, of degree 1 for a factor C2 and 2 otherwise (Adem and
Milgram, Cohomology of Finite Groups, 1994).  Each other entry ships the
reduced presentation over the working prime, together with certified
witness patterns whenever the relations are not monomial.  Unrecognized types
are refused loudly; the catalog never guesses a ring.  The extended variety
of each (key, prime) and its periods are built once per process and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagnostics import UsageError
from .graded import (
    GradedRingPresentation,
    PrimePattern,
    SpechModel,
    enumerate_patterns,
    make_ring,
    point_periods,
)
from .groups import FiniteGroup, WeylGroup, identify, p_part, require_prime
from .spaces import PeriodAssignment


class GroupNotInCatalog(UsageError):
    """No cohomology entry for this group type at this prime."""


class WeylNotInCatalog(GroupNotInCatalog):
    """A stratum's Weyl group fell outside the catalog."""


@dataclass(frozen=True)
class CatalogEntry:
    key: tuple
    group_order: int
    prime: int
    presentation: GradedRingPresentation
    witnesses: "tuple[tuple[PrimePattern, str], ...] | None"

    def spech(self) -> SpechModel:
        return enumerate_patterns(self.presentation, self.witnesses)


def catalog_key(group: "FiniteGroup | WeylGroup | str | tuple") -> tuple:
    """The catalog key of a group, Weyl group, name or key; ("unidentified",
    order) for a group whose isomorphism type identify does not recognize."""
    if isinstance(group, FiniteGroup):
        return identify(group) or ("unidentified", group.order)
    # Before the tuple branch: the record is a tuple too.
    if isinstance(group, WeylGroup):
        return group.key or ("unidentified", group.order)
    if isinstance(group, str):
        return (group,)
    return tuple(group)


def _key_order(key: tuple) -> int:
    if key == ("M11",):
        return 7920
    if len(key) == 2:
        kind, data = key
        if kind == "abelian":
            return math.prod(data)
        if kind in ("dihedral", "quaternion", "unidentified"):
            return data
    raise GroupNotInCatalog(f"unknown catalog key {key!r}")


def cohomology_entry(group: "FiniteGroup | WeylGroup | str | tuple", p: int) -> CatalogEntry:
    """The reduced cohomology presentation of the group at the prime p."""
    require_prime(p)
    return _entry(catalog_key(group), p)


def _entry(key: tuple, p: int) -> CatalogEntry:
    """The entry of a catalog key at p.  A p' group, of unidentified type
    too, has the field as its reduced cohomology."""
    order = _key_order(key)
    kind = key[0]
    wits = None
    if order % p != 0:
        ring = make_ring(p, [])
    elif kind == "unidentified":
        raise GroupNotInCatalog(f"unidentified isomorphism type (order {order}) at p={p}")
    elif kind == "abelian":
        sylow = [q for q in (p_part(d, p) for d in key[1]) if q > 1]
        gens = [("x", 1) if q == 2 else ("y", 2) for q in sylow]
        if len(gens) > 1:
            gens = [(f"{n}{i}", d) for i, (n, d) in enumerate(gens, 1)]
        ring = make_ring(p, gens)
    elif kind == "quaternion" and p == 2:
        # The odd part of the cyclic subgroup of index 2 is a normal
        # 2-complement, so G answers as its Sylow 2-subgroup: C4 (Künneth)
        # when n = 4 mod 8; generalized quaternion for Q_n with 8 | n.
        ring = make_ring(2, [("y", 2)] if key[1] % 8 == 4 else [("e", 4)])
    elif kind == "dihedral" and key[1] == 8 and p == 2:
        ring = make_ring(
            2,
            [("α0", 1), ("α1", 1), ("β", 2)],
            [[(1, {"α0": 1, "α1": 1})]],
        )
    elif kind == "M11" and p == 3:
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
    return CatalogEntry(key, order, p, ring, wits)


# (catalog key, p) to its extended variety and periods.  Only identified
# types are kept: a refusal raises before anything is stored.
_VARIETIES: dict[tuple[tuple, int], "tuple[SpechModel, PeriodAssignment]"] = {}


def rep_period_map(
    group: "FiniteGroup | WeylGroup | str | tuple", p: int
) -> tuple[SpechModel, PeriodAssignment]:
    """Extended variety of the group's reduced cohomology, with periods.

    The irrelevant pattern (all generators) is the unique closed point
    and carries period 0 through the usual empty-gcd convention.  Built
    once per (catalog key, p) and shared by every caller, which must not
    change it; a non-prime p is refused on every call.
    """
    require_prime(p)
    key = catalog_key(group)
    found = _VARIETIES.get((key, p))
    if found is None:
        entry = _entry(key, p)
        model = entry.spech()
        found = model, PeriodAssignment(point_periods(entry.presentation, model))
        if key[0] != "unidentified":
            _VARIETIES[key, p] = found
    return found
