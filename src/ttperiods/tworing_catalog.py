"""Worked 2-ring instances, their tightenings, and JSON serialization.

The catalog holds small graded rings over prime fields, the tabulated
2-rings built from them, and tightening data connecting the two sides.
Every instance is built from code by the builders below; nothing is
stored on disk.  The JSON record format (two_ring_to_obj and
two_ring_from_obj, checked field by field against TWO_RING_SCHEMA) is
how user-supplied 2-rings come in and how reports print them.
"""

from __future__ import annotations

from .diagnostics import json_object, require_within
from .multigraded import AbelianGroup, MultigradedRing, RingShapeError, check_components
from .multigraded import make_multigraded
from .tworing import Tightening, TwoRingDatum, two_ring_from_multigraded

__all__ = [
    "RING_NAMES",
    "TWO_RING_NAMES",
    "TIGHTENING_NAMES",
    "build_ring",
    "build_two_ring",
    "build_tightening",
    "TWO_RING_SCHEMA",
    "two_ring_to_obj",
    "two_ring_from_obj",
]


# -- ring fixtures ----------------------------------------------------


def _ring_zero() -> MultigradedRing:
    return make_multigraded("zero", (2,), 2, components={}, products={})


def _ring_laurent_f2_z2() -> MultigradedRing:
    return make_multigraded(
        "laurent_f2_z2", (2,), 2,
        components={0: ("1",), 1: ("u",)},
        products={("u", "u"): "1"},
    )


def _ring_laurent_f2_z4() -> MultigradedRing:
    return make_multigraded(
        "laurent_f2_z4", (4,), 2,
        components={0: ("1",), 1: ("t1",), 2: ("t2",), 3: ("t3",)},
        products={
            ("t1", "t1"): "t2",
            ("t1", "t2"): "t3",
            ("t1", "t3"): "1",
            ("t2", "t2"): "1",
            ("t2", "t3"): "t1",
            ("t3", "t3"): "t2",
        },
    )


def _ring_laurent_f3_z4() -> MultigradedRing:
    return make_multigraded(
        "laurent_f3_z4", (4,), 3,
        components={0: ("1",), 1: ("t1",), 2: ("t2",), 3: ("t3",)},
        products={
            ("t1", "t1"): "t2",
            ("t1", "t2"): "t3",
            ("t1", "t3"): "1",
            ("t2", "t2"): "1",
            ("t2", "t3"): "t1",
            ("t3", "t3"): "t2",
        },
    )


def _ring_nilpotent_f2_z2() -> MultigradedRing:
    return make_multigraded(
        "nilpotent_f2_z2", (2,), 2,
        components={0: ("1",), 1: ("x",)},
        products={("x", "x"): None},
    )


def _ring_dual_laurent_f2_z2() -> MultigradedRing:
    # Degree zero carries a square-zero element e; u is a unit of
    # degree one and eu = e*u spans the rest.
    return make_multigraded(
        "dual_laurent_f2_z2", (2,), 2,
        components={0: ("1", "e"), 1: ("u", "eu")},
        products={
            ("e", "e"): None,
            ("e", "u"): "eu",
            ("e", "eu"): None,
            ("u", "u"): "1",
            ("u", "eu"): "e",
            ("eu", "eu"): None,
        },
    )


def _ring_koszul_f3_z2() -> MultigradedRing:
    # The odd transposition sign forces the degree-one generator to
    # square to zero.
    return make_multigraded(
        "koszul_f3_z2", (2,), 3,
        components={0: ("1",), 1: ("th",)},
        products={("th", "th"): None},
        tau_eps=-1,
    )


_RING_BUILDERS = {
    "zero": _ring_zero,
    "laurent_f2_z2": _ring_laurent_f2_z2,
    "laurent_f2_z4": _ring_laurent_f2_z4,
    "laurent_f3_z4": _ring_laurent_f3_z4,
    "nilpotent_f2_z2": _ring_nilpotent_f2_z2,
    "dual_laurent_f2_z2": _ring_dual_laurent_f2_z2,
    "koszul_f3_z2": _ring_koszul_f3_z2,
}

RING_NAMES = tuple(sorted(_RING_BUILDERS))


def build_ring(name: str) -> MultigradedRing:
    if name not in _RING_BUILDERS:
        raise RingShapeError(f"unknown ring {name!r}")
    return _RING_BUILDERS[name]()


# -- 2-ring fixtures --------------------------------------------------


def build_two_ring(name: str) -> TwoRingDatum:
    """Catalog 2-ring built from code."""
    if name == "doubled_laurent_f2_z2":
        return two_ring_from_multigraded(
            build_ring("laurent_f2_z2"),
            name=name,
            extra_objects=(("1b", (1,)),),
        )
    if name in _RING_BUILDERS:
        return two_ring_from_multigraded(build_ring(name), name=name)
    raise RingShapeError(f"unknown 2-ring {name!r}")


TWO_RING_NAMES = (
    "zero",
    "laurent_f2_z2",
    "laurent_f2_z4",
    "laurent_f3_z4",
    "nilpotent_f2_z2",
    "dual_laurent_f2_z2",
    "koszul_f3_z2",
    "doubled_laurent_f2_z2",
)


# -- tightening fixtures ----------------------------------------------


def _identity_tightening(ring_name: str) -> tuple[Tightening, TwoRingDatum]:
    ring = build_ring(ring_name)
    R2 = two_ring_from_multigraded(ring, name=ring_name)
    group = ring.group
    from .tworing import object_name

    projection = {x: x for x in group.elements()}
    representatives = {x: object_name(group, x) for x in group.elements()}
    phi = {
        x: tuple(
            tuple(1 if j == i else 0 for j in range(ring.dims[x]))
            for i in range(ring.dims[x])
        )
        for x in group.elements()
    }
    T = Tightening(
        name=f"identity_{ring_name}",
        ring=ring,
        projection=projection,
        representatives=representatives,
        phi=phi,
    )
    return T, R2


def _folded_tightening() -> tuple[Tightening, TwoRingDatum]:
    """Degree group of order four folded onto objects of order two.

    Every component of the big ring is one dimensional and spanned by a
    power of the same unit, so each maps isomorphically onto the hom
    component of the matching parity.
    """
    ring = build_ring("laurent_f2_z4")
    R2 = build_two_ring("laurent_f2_z2")
    projection = {(k,): (k % 2,) for k in range(4)}
    representatives = {(0,): "0", (1,): "1"}
    phi = {(k,): ((1,),) for k in range(4)}
    T = Tightening(
        name="folded_laurent_f2_z4",
        ring=ring,
        projection=projection,
        representatives=representatives,
        phi=phi,
    )
    return T, R2


def _broken_tightening() -> tuple[Tightening, TwoRingDatum]:
    """Negative control: the degree-one identification swaps the basis,
    which is additive and bijective but not compatible with products."""
    T, R2 = _identity_tightening("dual_laurent_f2_z2")
    phi = dict(T.phi)
    phi[(1,)] = ((0, 1), (1, 0))
    return Tightening(
        name="broken_dual_laurent",
        ring=T.ring,
        projection=T.projection,
        representatives=T.representatives,
        phi=phi,
    ), R2


def _doubled_tightening() -> tuple[Tightening, TwoRingDatum]:
    """Representatives pick the duplicate object, so the compatibility
    checks must route through the mediating isomorphism."""
    ring = build_ring("laurent_f2_z2")
    R2 = build_two_ring("doubled_laurent_f2_z2")
    projection = {(0,): (0,), (1,): (1,)}
    representatives = {(0,): "0", (1,): "1b"}
    phi = {(0,): ((1,),), (1,): ((1,),)}
    T = Tightening(
        name="doubled_laurent_f2_z2",
        ring=ring,
        projection=projection,
        representatives=representatives,
        phi=phi,
    )
    return T, R2


_TIGHTENING_BUILDERS = {
    "identity_laurent_f2_z2": lambda: _identity_tightening("laurent_f2_z2"),
    "identity_laurent_f2_z4": lambda: _identity_tightening("laurent_f2_z4"),
    "identity_laurent_f3_z4": lambda: _identity_tightening("laurent_f3_z4"),
    "identity_nilpotent_f2_z2": lambda: _identity_tightening("nilpotent_f2_z2"),
    "identity_dual_laurent_f2_z2": lambda: _identity_tightening("dual_laurent_f2_z2"),
    "identity_koszul_f3_z2": lambda: _identity_tightening("koszul_f3_z2"),
    "folded_laurent_f2_z4": _folded_tightening,
    "broken_dual_laurent": _broken_tightening,
    "doubled_laurent_f2_z2": _doubled_tightening,
}

TIGHTENING_NAMES = tuple(sorted(_TIGHTENING_BUILDERS))


def build_tightening(name: str) -> tuple[Tightening, TwoRingDatum]:
    if name not in _TIGHTENING_BUILDERS:
        raise RingShapeError(f"unknown tightening {name!r}")
    return _TIGHTENING_BUILDERS[name]()


# -- JSON serialization -----------------------------------------------

# Checks on the JSON values of a 2-ring record.  Integers are JSON
# integers: a float such as 2.0 or a boolean is refused, never coerced.


def _int(least: int):
    return lambda v: type(v) is int and v >= least


def _str(least: int = 0):
    return lambda v: isinstance(v, str) and len(v) >= least


def _list(ok, least: int = 0):
    return lambda v: isinstance(v, list) and len(v) >= least and all(ok(x) for x in v)


def _map(ok):
    return lambda v: isinstance(v, dict) and all(ok(x) for x in v.values())


_VEC = _list(_int(0))
_MATRIX = _list(_list(_VEC))

# Every field of a record, each with the check its value must pass.
TWO_RING_SCHEMA = {
    "format": lambda v: type(v) is int and v == 1,
    "name": _str(1),
    "group_orders": _list(_int(1), 1),
    "char": _int(2),
    "objects": _list(_str(1), 1),
    "labels": _map(_VEC),
    "unit": _str(),
    "support": _list(_VEC),
    "dims": _map(_int(0)),
    "basis_names": _map(_list(_str())),
    "compose": _map(_MATRIX),
    "tensor_obj": _map(_str()),
    "tensor": _map(_MATRIX),
    "identities": _map(_VEC),
    "symmetry": _map(_VEC),
}


def _check_fields(obj) -> None:
    try:
        json_object(obj)
    except TypeError as exc:
        raise RingShapeError(f"malformed 2-ring record: {exc}") from exc
    extra = sorted(obj.keys() - TWO_RING_SCHEMA.keys())
    if extra:
        raise RingShapeError(f"malformed 2-ring record: unexpected fields {extra}")
    for key, ok in TWO_RING_SCHEMA.items():
        if key not in obj:
            raise RingShapeError(f"malformed 2-ring record: missing field {key!r}")
        if not ok(obj[key]):
            raise RingShapeError(f"malformed 2-ring record: bad value for {key!r}")


def two_ring_to_obj(R2: TwoRingDatum) -> dict:
    return {
        "format": 1,
        "name": R2.name,
        "group_orders": list(R2.group.orders),
        "char": R2.char,
        "objects": list(R2.objects),
        "labels": {o: list(lab) for o, lab in R2.labels.items()},
        "unit": R2.unit,
        "support": sorted(list(x) for x in R2.support),
        "dims": {f"{a}->{b}": d for (a, b), d in sorted(R2.dims.items())},
        "basis_names": {
            f"{a}->{b}": list(ns)
            for (a, b), ns in sorted(R2.basis_names.items())
            if ns
        },
        "compose": {
            f"{a}->{b}->{c}": [[list(v) for v in row] for row in table]
            for (a, b, c), table in sorted(R2.compose_tables.items())
        },
        "tensor_obj": {
            f"{a}|{b}": t for (a, b), t in sorted(R2.tensor_obj.items())
        },
        "tensor": {
            f"{a}->{b}|{c}->{d}": [[list(v) for v in row] for row in table]
            for (a, b, c, d), table in sorted(R2.tensor_tables.items())
        },
        "identities": {o: list(v) for o, v in sorted(R2.identities.items())},
        "symmetry": {
            f"{a}|{b}": list(v) for (a, b), v in sorted(R2.symmetry.items())
        },
    }


def _split(key: str, sep: str, parts: int, what: str) -> tuple:
    bits = key.split(sep)
    if len(bits) != parts:
        raise RingShapeError(f"bad {what} key {key!r}")
    return tuple(bits)


def two_ring_from_obj(obj: dict) -> TwoRingDatum:
    """Check the fields of a parsed JSON object and build the datum.

    Shape errors (RingShapeError) and sizes past LIMITS (SizeBound) are
    refused before any algebra runs; the axioms are validate_two_ring's.
    """
    _check_fields(obj)
    require_within("MAX_OBJECTS", len(obj["objects"]))
    check_components(obj["char"], obj["dims"].values())
    group = AbelianGroup(tuple(obj["group_orders"]))
    objects = tuple(obj["objects"])
    oset = set(objects)
    if len(oset) != len(objects):
        raise RingShapeError("duplicate object names")
    if set(obj["labels"]) != oset or set(obj["identities"]) != oset:
        raise RingShapeError("labels and identities must cover the objects")
    if obj["unit"] not in oset:
        raise RingShapeError("unknown unit object")
    labels = {o: group.canon(tuple(v)) for o, v in obj["labels"].items()}
    support = frozenset(group.canon(tuple(v)) for v in obj["support"])

    dims = {}
    for key, d in obj["dims"].items():
        a, b = _split(key, "->", 2, "dims")
        if a not in oset or b not in oset:
            raise RingShapeError(f"dims key {key!r} names unknown objects")
        dims[(a, b)] = d
    for a in objects:
        for b in objects:
            dims.setdefault((a, b), 0)

    basis_names = {}
    for key, ns in obj["basis_names"].items():
        a, b = _split(key, "->", 2, "basis_names")
        if a not in oset or b not in oset:
            raise RingShapeError(f"basis_names key {key!r} names unknown objects")
        basis_names[(a, b)] = tuple(ns)
    for comp, d in dims.items():
        names = basis_names.setdefault(comp, ())
        if len(names) != d:
            raise RingShapeError(f"basis names for {comp} do not match its dimension")

    def mod(v):
        return tuple(x % obj["char"] for x in v)

    def read_table(table, rows, cols, width, key):
        if len(table) != rows or any(len(r) != cols for r in table):
            raise RingShapeError(f"table {key!r} has the wrong shape")
        if any(len(v) != width for r in table for v in r):
            raise RingShapeError(f"table {key!r} has a wrong-width vector")
        return tuple(tuple(mod(v) for v in row) for row in table)

    compose_tables = {}
    for key, table in obj["compose"].items():
        a, b, c = _split(key, "->", 3, "compose")
        if {a, b, c} - oset:
            raise RingShapeError(f"compose key {key!r} names unknown objects")
        compose_tables[(a, b, c)] = read_table(table, dims[(a, b)], dims[(b, c)], dims[(a, c)], key)

    tensor_obj = {}
    for key, t in obj["tensor_obj"].items():
        a, b = _split(key, "|", 2, "tensor_obj")
        if a not in oset or b not in oset or t not in oset:
            raise RingShapeError(f"tensor_obj entry {key!r} names unknown objects")
        tensor_obj[(a, b)] = t
    for a in objects:
        for b in objects:
            if (a, b) not in tensor_obj:
                raise RingShapeError(f"tensor_obj misses the pair ({a!r}, {b!r})")

    tensor_tables = {}
    for key, table in obj["tensor"].items():
        left, right = _split(key, "|", 2, "tensor")
        a, b = _split(left, "->", 2, "tensor")
        c, d = _split(right, "->", 2, "tensor")
        if {a, b, c, d} - oset:
            raise RingShapeError(f"tensor key {key!r} names unknown objects")
        src = tensor_obj[(a, c)]
        dst = tensor_obj[(b, d)]
        tensor_tables[(a, b, c, d)] = read_table(
            table, dims[(a, b)], dims[(c, d)], dims[(src, dst)], key
        )

    identities = {}
    for o, v in obj["identities"].items():
        if len(v) != dims[(o, o)]:
            raise RingShapeError(f"identity of {o!r} has the wrong shape")
        identities[o] = mod(v)

    symmetry = {}
    for key, v in obj["symmetry"].items():
        a, b = _split(key, "|", 2, "symmetry")
        if a not in oset or b not in oset:
            raise RingShapeError(f"symmetry key {key!r} names unknown objects")
        ab = tensor_obj[(a, b)]
        ba = tensor_obj[(b, a)]
        if len(v) != dims[(ab, ba)]:
            raise RingShapeError(f"symmetry entry {key!r} has the wrong shape")
        symmetry[(a, b)] = mod(v)
    for a in objects:
        for b in objects:
            if (a, b) not in symmetry:
                raise RingShapeError(f"symmetry misses the pair ({a!r}, {b!r})")

    return TwoRingDatum(
        name=obj["name"],
        group=group,
        char=obj["char"],
        objects=objects,
        labels=labels,
        unit=obj["unit"],
        support=support,
        dims=dims,
        basis_names=basis_names,
        compose_tables=compose_tables,
        tensor_obj=tensor_obj,
        tensor_tables=tensor_tables,
        identities=identities,
        symmetry=symmetry,
    )
