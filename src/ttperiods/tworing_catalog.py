"""Worked 2-ring instances, their tightenings, and JSON serialization.

The catalog holds small graded rings over prime fields, the tabulated
2-rings built from them, and tightening data connecting the two sides.
Every instance is built from code by the builders below; nothing is
stored on disk.  The JSON record format (two_ring_to_obj and
two_ring_from_obj) is how user-supplied 2-rings come in and how reports
print them.  two_ring_from_obj reads a record in one pass, each value
through the diagnostics readers, strings included, and builds the datum
in the same walk.
"""

from __future__ import annotations

from .diagnostics import json_int, json_list, json_object, json_str, require_within
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


# The fields of a 2-ring record, each read once by two_ring_from_obj.
_FIELDS = frozenset((
    "format", "name", "group_orders", "char", "objects", "labels", "unit", "support",
    "dims", "basis_names", "compose", "tensor_obj", "tensor", "identities", "symmetry",
))


def _at_least(least: int, value) -> int:
    """value, if it is a JSON integer at least least."""
    if json_int(value) < least:
        raise ValueError(f"{value} is less than {least}")
    return value


def _filled(value):
    """value, a string or an array, if it is not empty."""
    if not value:
        raise ValueError(f"{value!r} is empty")
    return value


def _vector(value) -> tuple[int, ...]:
    return tuple(_at_least(0, x) for x in json_list(value))


def two_ring_from_obj(obj) -> TwoRingDatum:
    """Read a parsed JSON 2-ring record and build the datum in one walk.

    Each field is read once, through the diagnostics readers: a malformed
    value raises RingShapeError "malformed 2-ring record: <field>: ...".
    MAX_OBJECTS is checked as soon as the objects are read and the
    component sizes as soon as the dims are, before any table is walked
    (both raise SizeBound).  The axioms are validate_two_ring's.
    """
    try:
        fields = json_object(obj).keys()
    except TypeError as exc:
        raise RingShapeError(f"malformed 2-ring record: {exc}") from exc
    if fields != _FIELDS:
        raise RingShapeError(
            f"malformed 2-ring record: missing fields {sorted(_FIELDS - fields)}, "
            f"unexpected fields {sorted(fields - _FIELDS)}"
        )

    def read(field, reader):
        try:
            return reader(obj[field])
        except (KeyError, TypeError, ValueError) as exc:
            raise RingShapeError(f"malformed 2-ring record: {field}: {exc}") from exc

    def read_objects(value):
        names = tuple(_filled(json_str(o)) for o in _filled(json_list(value)))
        if len(set(names)) != len(names):
            raise ValueError("duplicate object names")
        return names

    def known(name):
        if name not in oset:
            raise ValueError(f"unknown object {name!r}")
        return name

    def keyed(value, shape):
        """(objects, key, entry) for each entry of a JSON object whose keys
        name objects: shape [2] reads "a->b", [3] "a->b->c", [1, 1] "a|b"
        and [2, 2] "a->b|c->d"."""
        for key, entry in json_object(value).items():
            parts = [half.split("->") for half in key.split("|")]
            if [len(part) for part in parts] != shape:
                raise ValueError(f"bad key {key!r}")
            names = tuple(name for part in parts for name in part)
            if not oset.issuperset(names):
                raise ValueError(f"key {key!r} names unknown objects")
            yield names, key, entry

    def per_object(value):
        entries = json_object(value)
        if entries.keys() != oset:
            raise ValueError("the keys are not the objects")
        return entries

    def per_pair(entries):
        missing = next(((a, b) for a in objects for b in objects if (a, b) not in entries), None)
        if missing:
            raise ValueError(f"no entry for the pair {missing}")
        return entries

    def vector(value, width):
        v = _vector(value)
        if len(v) != width:
            raise ValueError(f"{list(v)} does not have {width} entries")
        return tuple(x % char for x in v)

    def table(key, value, rows, cols, width):
        if len(json_list(value)) != rows or any(len(json_list(r)) != cols for r in value):
            raise ValueError(f"table {key!r} has the wrong shape")
        return tuple(tuple(vector(v, width) for v in row) for row in value)

    def read_basis_names(value):
        names = {ab: tuple(map(json_str, json_list(ns))) for ab, _, ns in keyed(value, [2])}
        for comp, d in dims.items():
            if len(names.setdefault(comp, ())) != d:
                raise ValueError(f"the names of {comp} do not match its dimension {d}")
        return names

    fmt = read("format", json_int)
    if fmt != 1:
        raise RingShapeError(f"malformed 2-ring record: format: unsupported format {fmt}")
    name = read("name", lambda v: _filled(json_str(v)))
    group = AbelianGroup(read("group_orders", lambda v: tuple(_at_least(1, n) for n in _filled(json_list(v)))))
    char = read("char", lambda v: _at_least(2, v))
    objects = read("objects", read_objects)
    require_within("MAX_OBJECTS", len(objects))
    oset = set(objects)
    labels = read("labels", lambda v: {o: group.canon(_vector(x)) for o, x in per_object(v).items()})
    unit = read("unit", lambda v: known(json_str(v)))
    support = read("support", lambda v: frozenset(group.canon(_vector(x)) for x in json_list(v)))
    dims = read("dims", lambda v: {ab: _at_least(0, d) for ab, _, d in keyed(v, [2])})
    check_components(char, dims.values())
    for a in objects:
        for b in objects:
            dims.setdefault((a, b), 0)
    basis_names = read("basis_names", read_basis_names)
    compose_tables = read("compose", lambda v: {
        (a, b, c): table(key, t, dims[a, b], dims[b, c], dims[a, c])
        for (a, b, c), key, t in keyed(v, [3])
    })
    tensor_obj = read("tensor_obj", lambda v: per_pair({
        ab: known(json_str(t)) for ab, _, t in keyed(v, [1, 1])
    }))
    tensor_tables = read("tensor", lambda v: {
        (a, b, c, d): table(key, t, dims[a, b], dims[c, d], dims[tensor_obj[a, c], tensor_obj[b, d]])
        for (a, b, c, d), key, t in keyed(v, [2, 2])
    })
    identities = read("identities", lambda v: {o: vector(x, dims[o, o]) for o, x in per_object(v).items()})
    symmetry = read("symmetry", lambda v: per_pair({
        (a, b): vector(x, dims[tensor_obj[a, b], tensor_obj[b, a]]) for (a, b), _, x in keyed(v, [1, 1])
    }))

    return TwoRingDatum(
        name=name,
        group=group,
        char=char,
        objects=objects,
        labels=labels,
        unit=unit,
        support=support,
        dims=dims,
        basis_names=basis_names,
        compose_tables=compose_tables,
        tensor_obj=tensor_obj,
        tensor_tables=tensor_tables,
        identities=identities,
        symmetry=symmetry,
    )
