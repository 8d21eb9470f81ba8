"""Command-line front end: one subcommand per analysis, JSON or DOT out.

Reports are canonical JSON (sorted keys, fixed layout), so identical
inputs give byte-identical output.  Exit code 0 means every executed
check passed, 1 means some diagnosis failed, 2 means the input itself
was unusable: the library raised a UsageError, or this module an
InputError.  Each handler imports the layers it runs, so a command loads
only those.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .diagnostics import Diagnosis, UsageError, json_int, json_list, json_object, json_str, require_within
from .spaces import (
    TAG_COMPUTED,
    dumps_canonical,
    model_from_obj,
    model_to_dot,
    model_to_obj,
)


def __getattr__(name: str):
    """The shipped 2-ring and tightening names, read from the catalog only
    when asked for, so that commands which never use it do not load it."""
    if name in ("TWO_RING_NAMES", "TIGHTENING_NAMES"):
        from . import tworing_catalog

        return getattr(tworing_catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InputError(Exception):
    pass


_MODULE_ERRORS = (UsageError,)


# -- input plumbing ----------------------------------------------------

def _read_source(spec: str) -> tuple[str, str]:
    """Text and sha256 of a file path, or of stdin for '-'."""
    import hashlib  # here and in _digest_of, so commands that take no digest never load it

    if spec == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {spec}: {exc}") from exc
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_json_source(spec: str) -> tuple[object, str]:
    text, digest = _read_source(spec)
    try:
        return json.loads(text), digest
    except ValueError as exc:
        raise InputError(f"{spec}: not valid JSON: {exc}") from exc


def _digest_of(obj) -> str:
    import hashlib

    return hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    # Exact types: a record is a tuple too, and prints as its repr.
    if type(value) in (list, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(v) for v in value), key=str)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _diag_obj(diag: Diagnosis) -> dict:
    out: dict = {"ok": diag.ok}
    if not diag.ok:
        out["reason"] = diag.reason
        out["detail"] = _jsonable(list(diag.detail))
    return out


def _emit(args, inputs: dict, result: dict) -> None:
    report = {"command": args.echo, "inputs": inputs, "result": result}
    sys.stdout.write(dumps_canonical(report))


def _stem(spec: str, fallback: str) -> str:
    return fallback if spec == "-" else Path(spec).stem


# -- ring --------------------------------------------------------------

def _parse_witnesses(obj):
    from .graded import PrimePattern

    if "witnesses" not in obj:
        return None
    # Each entry is [[generator names], tag], all strings, never coerced.
    try:
        witnesses = [
            (tuple(map(json_str, json_list(names))), json_str(tag))
            for names, tag in map(json_list, json_list(obj["witnesses"]))
        ]
    except (TypeError, ValueError) as exc:
        raise InputError("malformed witnesses: each must be [[generator names], tag], all strings") from exc
    return [(PrimePattern.of(*names), cert) for names, cert in witnesses]


def _cmd_ring(args) -> int:
    from .graded import enumerate_patterns, point_periods, ring_from_obj, spech_to_obj
    from .graded import validate_presentation

    obj, digest = _load_json_source(args.input)
    inputs = {args.input: digest}
    ring = ring_from_obj(obj)
    if args.action == "validate" and args.format == "dot":
        raise InputError("validate has no dot form")
    diag = validate_presentation(ring)
    if args.action == "validate" or not diag:
        _emit(args, inputs, {"diagnosis": _diag_obj(diag)})
        return 0 if diag else 1
    model = enumerate_patterns(ring, _parse_witnesses(obj))
    name = _stem(args.input, "ring")
    if args.action == "patterns":
        if args.format == "dot":
            sys.stdout.write(model_to_dot(model.space, None, name=name))
            return 0
        _emit(args, inputs, {"model": spech_to_obj(model)})
        return 0
    periods = point_periods(ring, model)
    if args.format == "dot":
        sys.stdout.write(model_to_dot(model.space, periods, name=name))
        return 0
    result = {
        "model": spech_to_obj(model, periods),
        "tags": {q: TAG_COMPUTED for q in model.space.points},
    }
    _emit(args, inputs, result)
    return 0


# -- group -------------------------------------------------------------

def _resolve_group(text: str, inputs: dict):
    """A constructible group, or the bare name for catalog lookup."""
    from .groups import cyclic, dihedral, elementary_abelian, group_from_obj
    from .groups import quaternion, symmetric

    if text == "-" or text.endswith(".json"):
        obj, digest = _load_json_source(text)
        inputs[text] = digest
        return group_from_obj(obj)
    if text == "1":
        return cyclic(1)
    for pattern, build in (
        (r"C(\d+)\^(\d+)", elementary_abelian),
        (r"C(\d+)", cyclic),
        (r"D(\d+)", dihedral),
        (r"Q(\d+)", quaternion),
        (r"S(\d+)", symmetric),
    ):
        m = re.fullmatch(pattern, text)
        if m:
            return build(*(_name_number(n) for n in m.groups()))
    return text


def _name_number(digits: str) -> int:
    """A number in a group name.  Each one bounds the named group's order
    from below, so one of more than 20 digits (past 2^64) is refused from
    its length before int(), which rejects strings of more than 4300."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > 20:
        require_within("MAX_GROUP_ORDER", 10**20, at_least=True)
    return int(digits)


def _cmd_group(args) -> int:
    from .graded import spech_to_obj
    from .groups import FiniteGroup
    from .spectra import dperm_period_map, stmod_discrepancies, stmod_period_map

    inputs: dict = {}
    G = _resolve_group(args.group, inputs)
    if args.action == "dperm":
        if not isinstance(G, FiniteGroup):
            raise InputError(f"dperm needs a constructible group, not the name {G!r}")
        asm = dperm_period_map(G, args.prime)
        name = f"dperm_{asm.group_name}_{args.prime}"
        if args.format == "dot":
            sys.stdout.write(model_to_dot(asm.space, asm.periods, name=name))
            return 0
        result = {
            "group": asm.group_name,
            "prime": args.prime,
            "model": model_to_obj(asm.space, asm.periods),
            "tags": dict(asm.tags),
            "strata": asm.stratum_points(),
            "closed_points": list(asm.closed_points),
        }
        _emit(args, inputs, result)
        return 0
    model, per = stmod_period_map(G, args.prime)
    name = f"stmod_{args.group}_{args.prime}"
    periods = {q: per[q] for q in model.space.points}
    if args.format == "dot":
        sys.stdout.write(model_to_dot(model.space, periods, name=name))
        return 0
    result = {
        "model": spech_to_obj(model, periods),
        "tags": {q: TAG_COMPUTED for q in model.space.points},
    }
    clashes = stmod_discrepancies(G, args.prime)
    if clashes:
        result["discrepancies"] = {
            q: {"derived": got, "stated": want}
            for q, (got, want) in clashes.items()
        }
    _emit(args, inputs, result)
    return 0


# -- tower -------------------------------------------------------------

def _cmd_tower(args) -> int:
    from .spectra import artin_tower

    rep = artin_tower(args.prime, args.depth)
    name = f"tower_{args.prime}_{args.depth}"
    if args.format == "dot":
        sys.stdout.write(model_to_dot(rep.chain, rep.chain_periods, name=name))
        return 0
    result = {
        "prime": rep.prime,
        "height": rep.height,
        "chain": model_to_obj(rep.chain, rep.chain_periods),
        "tags": {q: TAG_COMPUTED for q in rep.chain.points},
        "strata": [
            {
                "index": s.index,
                "weyl": list(s.weyl_names),
                "proj_sequence": list(s.proj_sequence),
                "proj_eventual": s.proj_eventual,
                "closed_sequence": list(s.closed_sequence),
            }
            for s in rep.strata
        ],
    }
    _emit(args, {}, result)
    return 0


# -- tworing -----------------------------------------------------------

def _load_two_ring_arg(spec: str, inputs: dict):
    from .tworing_catalog import TWO_RING_NAMES, build_two_ring, two_ring_from_obj
    from .tworing_catalog import two_ring_to_obj

    if spec != "-" and spec in TWO_RING_NAMES and not Path(spec).exists():
        R2 = build_two_ring(spec)
        inputs[spec] = _digest_of(two_ring_to_obj(R2))
        return R2
    obj, digest = _load_json_source(spec)
    inputs[spec] = digest
    return two_ring_from_obj(obj)


def _parse_system(spec: "str | None", inputs: dict) -> tuple:
    if spec is None:
        return ()
    obj, digest = _load_json_source(spec)
    inputs[spec] = digest
    try:
        gens = tuple(
            (json_str(row["src"]), json_str(row["dst"]), tuple(json_int(x) for x in json_list(row["vec"])))
            for row in map(json_object, json_list(json_object(obj)["generators"]))
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed system: {exc}") from exc
    return gens


def _cmd_tworing(args) -> int:
    from .tworing import homogeneous_ideals, ideal_correspondence, ideal_name_two
    from .tworing import localize, spc, validate_tightening, validate_two_ring
    from .tworing_catalog import TIGHTENING_NAMES, build_tightening, two_ring_to_obj

    inputs: dict = {}
    if args.action == "agree":
        if args.input not in TIGHTENING_NAMES:
            raise InputError(
                "agree needs a catalog tightening name, one of: "
                + ", ".join(TIGHTENING_NAMES)
            )
        T, R2 = build_tightening(args.input)
        tdiag = validate_tightening(T, R2)
        adiag = ideal_correspondence(T, R2) if tdiag else tdiag
        _emit(
            args,
            inputs,
            {"tightening": _diag_obj(tdiag), "agreement": _diag_obj(adiag)},
        )
        return 0 if tdiag and adiag else 1
    R2 = _load_two_ring_arg(args.input, inputs)
    vdiag = validate_two_ring(R2)
    if not vdiag:
        _emit(args, inputs, {"diagnosis": _diag_obj(vdiag)})
        return 1
    if args.action == "ideals":
        if args.format == "dot":
            raise InputError("ideals has no dot form")
        lat = homogeneous_ideals(R2)
        result = {
            "count": len(lat),
            "ideals": sorted(ideal_name_two(R2, ideal) for ideal in lat),
            "maximal_proper": sorted(
                ideal_name_two(R2, ideal) for ideal in lat.maximal_proper()
            ),
        }
        _emit(args, inputs, result)
        return 0
    if args.action == "spc":
        model = spc(R2)
        if args.format == "dot":
            name = f"spc_{_stem(args.input, R2.name or 'tworing')}"
            sys.stdout.write(model_to_dot(model, None, name=name))
            return 0
        _emit(args, inputs, {"model": model_to_obj(model)})
        return 0
    if args.format == "dot":
        raise InputError("localize has no dot form")
    gens = _parse_system(args.system, inputs)
    system, datum = localize(R2, gens)
    diag = validate_two_ring(datum)
    result = {
        "system_size": len(system),
        "localized": two_ring_to_obj(datum),
        "diagnosis": _diag_obj(diag),
    }
    _emit(args, inputs, result)
    return 0 if diag else 1


# -- compare -----------------------------------------------------------

def _cmd_compare(args) -> int:
    from .comparison import central_localization, comp_map
    from .comparison import divisor_constraint, homeo_onto_image, is_ample
    from .comparison import table_from_obj, transfer_periods
    from .graded import ring_from_obj, validate_presentation

    sobj, sdig = _load_json_source(args.space)
    robj, rdig = _load_json_source(args.ring)
    tobj, tdig = _load_json_source(args.sections)
    inputs = {args.space: sdig, args.ring: rdig, args.sections: tdig}
    space, per = model_from_obj(sobj)
    ring = ring_from_obj(robj)
    table = table_from_obj(tobj, space)
    rdiag = validate_presentation(ring)
    if not rdiag:
        _emit(args, inputs, {"diagnosis": _diag_obj(rdiag)})
        return 1
    comp = comp_map(table)
    embedding = homeo_onto_image(table)
    result: dict = {
        "comparison": {p: sorted(comp[p].contains) for p in table.space.points},
        "ample": is_ample(table),
        "embedding": embedding,
    }
    diagnoses = []
    if per is not None:
        ddiag = divisor_constraint(table, ring, per)
        result["divisor"] = _diag_obj(ddiag)
        diagnoses.append(ddiag)
        if embedding:
            tdiag = transfer_periods(table, ring, per)
            result["transfer"] = _diag_obj(tdiag)
            diagnoses.append(tdiag)
    if args.invert is not None:
        names = sorted({s for s in args.invert.split(",") if s})
        region = central_localization(table, names)
        # The pullback holds by construction (see central_localization);
        # the report keeps its verdict field.
        result["inverted"] = {
            "sections": names,
            "region": sorted(region),
            "pullback": {"ok": True},
            "comparison": {p: result["comparison"][p] for p in region},
        }
    _emit(args, inputs, result)
    return 1 if any(not d for d in diagnoses) else 0


# -- figure ------------------------------------------------------------

def _cmd_figure(args) -> int:
    from .datasets import certify_figure, load_figure_dataset, load_figure_record

    if args.format == "json":
        rec = load_figure_record(args.name)
        certify_figure(args.name, rec)
        _emit(args, {args.name: _digest_of(rec)}, {"record": rec})
        return 0
    model, per = load_figure_dataset(args.name)
    sys.stdout.write(model_to_dot(model, per, name=args.name))
    return 0


# -- parser ------------------------------------------------------------

_RING_HINT = """ring JSON:
  {"char": p, "constraint": "koszul"|"trivial",
   "generators": [{"name": str, "degree": int,
                   "invertible": bool?, "nilpotent": bool?}],
   "relations": [[{"coeff": int, "monomial": {name: exponent}}]],
   "witnesses": [[[generator names], "enumerated"|"witness"|"paper"]]?}
witnesses are required for non-monomial relations."""

_GROUP_HINT = """--group accepts 1, Cn, Cp^r, Dn, Qn, Sn, a catalog name,
or a JSON file {"degree": int, "generators": [[cycle, ...], ...]}."""

_TWORING_HINT = """--input accepts a shipped name or a two-ring JSON file;
--system JSON: {"generators": [{"src": obj, "dst": obj, "vec": [int]}]}.
agree takes a shipped tightening name instead of a file."""

_COMPARE_HINT = """--space: model JSON {"points", "specializes", "periods"?};
--ring: ring JSON (see ring --help);
--sections: {"format": 1, "bundles": {label: degree},
             "sections": [{"name", "bundle", "degree", "locus": [points]}],
             "products": [[s, t, product]]?}"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttperiods",
        description="Desk-scale period computations over finite spectral models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    raw = argparse.RawDescriptionHelpFormatter

    ring = sub.add_parser(
        "ring", help="validate a graded presentation, list patterns or periods",
        epilog=_RING_HINT, formatter_class=raw,
    )
    ring.add_argument("action", choices=["validate", "patterns", "periods"])
    ring.add_argument("--input", required=True, help="ring JSON file, or - for stdin")
    ring.add_argument("--format", choices=["json", "dot"], default="json")
    ring.set_defaults(handler=_cmd_ring)

    group = sub.add_parser(
        "group", help="derived permutation-module or stable-module periods",
        epilog=_GROUP_HINT, formatter_class=raw,
    )
    group.add_argument("action", choices=["dperm", "stmod"])
    group.add_argument("--group", required=True)
    group.add_argument("--prime", type=int, required=True)
    group.add_argument("--format", choices=["json", "dot"], default="json")
    group.set_defaults(handler=_cmd_group)

    tower = sub.add_parser("tower", help="cyclic tower of period chains")
    tower.add_argument("--prime", type=int, required=True)
    tower.add_argument("--depth", type=int, required=True, help="0 to 6")
    tower.add_argument("--format", choices=["json", "dot"], default="json")
    tower.set_defaults(handler=_cmd_tower)

    tworing = sub.add_parser(
        "tworing", help="tabulated 2-ring ideals, spectrum, agreement, localization",
        epilog=_TWORING_HINT, formatter_class=raw,
    )
    tworing.add_argument("action", choices=["ideals", "spc", "agree", "localize"])
    tworing.add_argument("--input", required=True)
    tworing.add_argument("--system", default=None, help="system generators JSON")
    tworing.add_argument("--format", choices=["json", "dot"], default="json")
    tworing.set_defaults(handler=_cmd_tworing)

    compare = sub.add_parser(
        "compare", help="comparison map from a section table",
        epilog=_COMPARE_HINT, formatter_class=raw,
    )
    compare.add_argument("--space", required=True)
    compare.add_argument("--ring", required=True)
    compare.add_argument("--sections", required=True)
    compare.add_argument("--invert", default=None, help="comma-separated section names")
    compare.set_defaults(handler=_cmd_compare)

    figure = sub.add_parser("figure", help="emit a shipped dataset figure")
    figure.add_argument("name")
    figure.add_argument("--format", choices=["dot", "json"], default="dot")
    figure.set_defaults(handler=_cmd_figure)

    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.echo = ["ttperiods", *raw]
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _MODULE_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
