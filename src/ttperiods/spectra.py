"""Period-stratified spectra for finite-group module categories.

Three layers of assembly over the cohomology catalog:

* pointwise period maps on one extended variety (rep_period_map, which the
  catalog keeps per key and prime), and the same with the irrelevant point
  removed (stmod_period_map);
* the stratification of the derived-permutation-module spectrum, one
  stratum per conjugacy class of p-subgroups, with period labels that are
  exact for normal subgroups and explicit divisor bounds otherwise unless
  STATED_DPERM supplies the value;
* towers of cyclic p-groups modelling the Galois groups of finite fields,
  with eventual periods certified per matched point, read from each
  level's record, kept per (p, n) in a bounded keep and holding no group.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .cohomology import (
    GroupNotInCatalog,
    WeylNotInCatalog,
    catalog_section,
    rep_period_map,
)
from .diagnostics import Diagnosis, PASS, UsageError, failure, require_within
from .graded import SpechModel
from .groups import (
    FiniteGroup,
    GroupIndex,
    Sub,
    SubgroupClass,
    WeylGroup,
    cyclic,
    identify,
    name_for_key,
    p_part,
    p_subconjugate,
    require_prime,
    weyl_group,
    _prime_factors,  # unused here; perfbench/tests reads spectra._prime_factors
)
from .spaces import (
    TAG_COMPUTED,
    FiniteSpectralModel,
    PeriodAssignment,
    check_period_map,
    restrict_to_open,
    tower_period,
)

TAG_DATASET = "paper-dataset"
TAG_BOUND = "bound"


class TowerHeightValueError(UsageError, ValueError):
    """A tower height outside the supported range."""


def _irrelevant_point(model: SpechModel) -> str:
    full = model.ring.pattern_mask(model.ring.names())
    for point, mask in model.masks.items():
        if mask == full:
            return point
    raise RuntimeError("extended variety without its irrelevant point")


def stmod_period_map(
    group: "FiniteGroup | WeylGroup | str", p: int
) -> tuple[SpechModel, PeriodAssignment]:
    """rep_period_map with the irrelevant closed point removed."""
    model, per = rep_period_map(group, p)
    closed = _irrelevant_point(model)
    keep = frozenset(q for q in model.space.points if q != closed)
    space, restricted = restrict_to_open(model.space, per, keep)
    return (
        SpechModel(
            ring=model.ring,
            space=space,
            certified={q: model.certified[q] for q in space.points},
            masks={q: model.masks[q] for q in space.points},
        ),
        restricted,
    )


# Stated singleton tables shipped alongside the catalog: a few points
# carry exact published values, everything else falls under a blanket
# default.  Keyed by (catalog key, prime).
STATED_STMOD: dict[tuple, tuple[dict[str, int], int]] = {
    (("M11",), 3): ({"⟨⟩": 4, "⟨a,b⟩": 16}, 4),
}

# Stated periods of non-normal dperm points, which the engine can only
# bound.  Keyed by (catalog key, prime), then by what isomorphisms keep:
# (key of the stratum's subgroup, key of its Weyl group, pattern point).
STATED_DPERM: dict[tuple, dict[tuple, int]] = {
    (("dihedral", 8), 2): {(("abelian", (2,)), ("abelian", (2,)), "⟨⟩"): 1},
}


def stmod_discrepancies(
    group: "FiniteGroup | WeylGroup | str", p: int
) -> dict[str, tuple[int, int]]:
    """Derived values clashing with the blanket part of a stated table.

    Exactly-named points are hard claims; a clash there is a library
    bug and raises.  Points covered only by the blanket default may
    disagree, and each one maps to (derived, stated) in the result
    instead of being silently adopted or dropped.
    """
    W = catalog_section(group)
    stated = STATED_STMOD.get((W.key, p))
    if stated is None:
        return {}
    named, default = stated
    model, per = stmod_period_map(W, p)
    out = {}
    for q in model.space.points:
        want = named.get(q, default)
        if per[q] == want:
            continue
        if q in named:
            raise RuntimeError(f"stated value broken at {q}: {per[q]} != {want}")
        out[q] = (per[q], default)
    return out


@dataclass(frozen=True)
class DPermStratum:
    """One class of p-subgroups H: its Weyl group's order and catalog key,
    and that key's extended variety and periods."""

    label: str
    subgroup_class: SubgroupClass
    weyl: WeylGroup
    variety: SpechModel
    rep_periods: PeriodAssignment
    normal: bool
    irrelevant: str

    def point_name(self, pattern_point: str) -> str:
        if pattern_point == self.irrelevant:
            return f"m({self.label})"
        return f"{self.label}:{pattern_point}"


def _label_suffix(k: int) -> str:
    """a, ..., z, aa, ab, ...: distinct for distinct k.  Subgroup names end
    in a digit, so no two (name, suffix) pairs give the same label."""
    return (_label_suffix(k // 26 - 1) if k >= 26 else "") + chr(ord("a") + k % 26)


def _stratum_labels(ix: GroupIndex, classes: list[SubgroupClass]) -> list[str]:
    base = [name_for_key(ix.identify(cls.sub)) or f"H{cls.order}" for cls in classes]
    counts = {b: base.count(b) for b in base}
    seen: dict[str, int] = {}
    out = []
    for b in base:
        if counts[b] == 1:
            out.append(b)
        else:
            suffix = _label_suffix(seen.get(b, 0))
            seen[b] = seen.get(b, 0) + 1
            out.append(b + suffix)
    return out


def dperm_strata(G: FiniteGroup, p: int) -> list[DPermStratum]:
    """One stratum per conjugacy class of p-subgroups, read from the
    classes, Weyl groups and table the group's index keeps; the catalog
    keys each Weyl group."""
    ix = G.index
    classes = ix.p_classes(p)
    labels = _stratum_labels(ix, classes)
    strata = []
    for cls, label in zip(classes, labels):
        W = weyl_group(G, cls.sub)
        try:
            variety, rep = rep_period_map(W, p)
        except GroupNotInCatalog as exc:
            raise WeylNotInCatalog(f"stratum {label}: {exc}") from exc
        strata.append(
            DPermStratum(
                label=label,
                subgroup_class=cls,
                weyl=W,
                variety=variety,
                rep_periods=rep,
                normal=len(cls.members) == 1,
                irrelevant=_irrelevant_point(variety),
            )
        )
    return strata


@dataclass(frozen=True)
class DPermAssembly:
    group_name: str
    prime: int
    strata: tuple[DPermStratum, ...]
    space: FiniteSpectralModel
    periods: PeriodAssignment
    tags: Mapping[str, str]
    closed_points: tuple[str, ...]

    def stratum_points(self) -> dict[str, list[str]]:
        return {
            s.label: [s.point_name(q) for q in s.variety.space.points]
            for s in self.strata
        }


def dperm_period_map(G: FiniteGroup, p: int) -> DPermAssembly:
    """Global period labels over all strata.

    Closed points get 0.  Normal strata inherit their Weyl group's values
    exactly.  A non-normal point takes its STATED_DPERM value when its
    (subgroup key, Weyl key, pattern point) has one (tagged paper-dataset);
    otherwise the Weyl value is only an upper divisor bound and is tagged
    as such, never asserted as the period.
    """
    require_prime(p)
    key = identify(G)
    group_name = name_for_key(key)
    stated = STATED_DPERM.get((key, p), {})
    strata = dperm_strata(G, p)
    points = []
    edges = []
    values: dict[str, int] = {}
    tags: dict[str, str] = {}
    closed = []
    for s in strata:
        for a, b in s.variety.space.cover_pairs():
            edges.append((s.point_name(a), s.point_name(b)))
        H = G.index.identify(s.subgroup_class.sub)
        for q in s.variety.space.points:
            name = s.point_name(q)
            points.append(name)
            if q == s.irrelevant:
                values[name] = 0
                tags[name] = TAG_COMPUTED
                closed.append(name)
            elif s.normal:
                values[name] = s.rep_periods[q]
                tags[name] = TAG_COMPUTED
            elif (H, s.weyl.key, q) in stated:
                values[name] = stated[H, s.weyl.key, q]
                tags[name] = TAG_DATASET
            else:
                values[name] = s.rep_periods[q]
                tags[name] = TAG_BOUND
    space = FiniteSpectralModel(points, edges)
    per = PeriodAssignment(values)
    diag = check_period_map(space, per)
    if not diag:
        raise RuntimeError(f"assembled labels are not a period map: {diag.describe()}")
    if p_part(G.order, p) == G.order:
        for name, v in values.items():
            if name not in closed and v == 0:
                raise RuntimeError(f"non-closed point {name} not periodic in a p-group")
    return DPermAssembly(
        group_name=group_name or f"order{G.order}",
        prime=p,
        strata=tuple(strata),
        space=space,
        periods=per,
        tags=tags,
        closed_points=tuple(sorted(closed)),
    )


def perm_module_in_closed_point(
    G: FiniteGroup, p: int, Hprime: "frozenset | Sub", H: "frozenset | Sub"
) -> bool:
    """Whether the permutation object on G/H' lies in the closed point of
    the H-stratum; equivalent to H not being p-subconjugate into H'."""
    return not p_subconjugate(G, H, Hprime, p)


def very_closed_point_check(G: FiniteGroup, p: int) -> Diagnosis:
    """Membership in m(G) must match divisibility of the index by p, for
    every subgroup of the lattice the group's index keeps."""
    ix = G.index
    whole = ix.whole()
    for Hp in ix.subgroups():
        index = G.order // Hp.order
        member = perm_module_in_closed_point(G, p, Hp, whole)
        if member != (index % p == 0):
            return failure("index-criterion", Hp.order, index, member)
    return PASS


# -- towers of cyclic p-groups -----------------------------------------

@dataclass(frozen=True)
class TowerStratum:
    index: "int | None"  # p-power index; None for the order-matched limit
    weyl_names: tuple[str, ...]
    proj_sequence: tuple[int, ...]
    proj_eventual: "int | None"
    closed_sequence: tuple[int, ...]


@dataclass(frozen=True)
class TowerReport:
    prime: int
    height: int
    strata: tuple[TowerStratum, ...]
    chain: FiniteSpectralModel
    chain_periods: PeriodAssignment


@functools.lru_cache(maxsize=256)
def _tower_level(p: int, n: int) -> tuple[tuple[str, int, "int | None"], ...]:
    """What artin_tower reads of the level C_{p^n}, per subgroup order p^k
    in increasing k: its Weyl group's name and the periods of its closed
    point and of its one non-closed point (None without one).  Plain tuples,
    so the group, table and assembly are freed; a raising build is not kept."""
    assembly = dperm_period_map(cyclic(p**n), p)
    per, level = assembly.periods, []
    # A cyclic group has one subgroup of each order dividing it.
    for s in sorted(assembly.strata, key=lambda s: s.subgroup_class.order):
        opened = [per[s.point_name(q)] for q in s.variety.space.points if q != s.irrelevant]
        (proj,) = opened or [None]
        level.append((s.weyl.name or "?", per[s.point_name(s.irrelevant)], proj))
    return tuple(level)


def artin_tower(p: int, N: int) -> TowerReport:
    """Eventual periods across the tower of cyclic p-groups.

    Strata are matched by index (the subgroup of index p^j persists with
    constant Weyl group), plus the order-matched trivial subgroup whose
    Weyl group grows through the whole tower.  Every matched sequence is
    certified by the eventual-value check before it is reported.  The chain
    is a period map by construction: each split point specializes only to
    closed points, whose period 0 every period divides.  Levels are kept
    per (p, n) as _tower_level's records; the report is built afresh from
    them on every call, once MAX_GROUP_ORDER admits each level's order.
    """
    require_prime(p)
    if not 0 <= N <= 6:
        raise TowerHeightValueError("tower height must be between 0 and 6")
    for n in range(N + 1):
        require_within("MAX_GROUP_ORDER", p**n)
    levels = [_tower_level(p, n) for n in range(N + 1)]
    strata: list[TowerStratum] = []
    for j in range(N + 1):
        # Level n's subgroup of index p^j has order p^(n-j).
        weyls, closed_seq, proj_seq = zip(*(levels[n][n - j] for n in range(j, N + 1)))
        proj_seq = tuple(v for v in proj_seq if v is not None)
        strata.append(
            TowerStratum(
                index=p**j,
                weyl_names=weyls,
                proj_sequence=proj_seq,
                proj_eventual=tower_period(proj_seq) if proj_seq else None,
                closed_sequence=closed_seq,
            )
        )
    if N:
        limit_weyls, _, limit_seq = zip(*(levels[n][0] for n in range(1, N + 1)))
        strata.append(
            TowerStratum(
                index=None,
                weyl_names=limit_weyls,
                proj_sequence=limit_seq,
                proj_eventual=tower_period(limit_seq),
                closed_sequence=(),
            )
        )
    chain_points = [f"m{j}" for j in range(N + 1)]
    chain_edges = []
    chain_values = {f"m{j}": 0 for j in range(N + 1)}
    for j in range(1, N + 1):
        split = f"s{j}"
        chain_points.append(split)
        chain_edges.append((split, f"m{j-1}"))
        chain_edges.append((split, f"m{j}"))
        chain_values[split] = strata[j].proj_eventual
    chain = FiniteSpectralModel(chain_points, chain_edges)
    per = PeriodAssignment(chain_values)
    return TowerReport(
        prime=p, height=N, strata=tuple(strata), chain=chain, chain_periods=per
    )
