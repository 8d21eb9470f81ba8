"""Shipped figure records: stratified spaces with literature-sourced gluing.

The cross-stratum topology of the assembled spectra (doubled points and
the edges tying strata together) is input data taken from published
figures, not something the engine derives.  Records here freeze those
figures as JSON; loading re-validates every record with check_period_map
so a corrupted file can never masquerade as a verified space.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from pathlib import Path
from typing import Mapping

from .diagnostics import UsageError
from .spaces import (
    FiniteSpectralModel,
    ModelError,
    PeriodAssignment,
    check_period_map,
    dumps_canonical,
    model_from_obj,
    model_to_dot,
)

__all__ = [
    "DATASET_NAMES",
    "TAG_FIGURE",
    "UnknownDataset",
    "load_figure_record",
    "load_figure_dataset",
    "dperm_overrides",
    "build_stmod_d8",
    "build_dperm_q8",
    "build_dperm_d8",
    "build_ratm_r",
    "write_all",
]

# Edge provenance label for specializations copied from published figures.
TAG_FIGURE = "paper-figure"

DATASET_NAMES = ("stmod_d8", "dperm_q8", "dperm_d8", "ratm_r")

OVERRIDES_FILE = "dperm_overrides.json"


class UnknownDataset(UsageError, KeyError):
    pass


def _data_dir():
    return resources.files("ttperiods").joinpath("data")


def load_figure_record(name: str) -> dict:
    """Raw JSON record of a shipped figure, schema-checked but unvalidated."""
    if name not in DATASET_NAMES:
        raise UnknownDataset(name)
    text = _data_dir().joinpath(f"{name}.json").read_text(encoding="utf-8")
    rec = json.loads(text)
    for field in ("format", "name", "points", "specializes", "periods"):
        if field not in rec:
            raise ModelError(f"dataset {name}: missing field {field!r}")
    if rec["name"] != name:
        raise ModelError(f"dataset file {name} declares name {rec['name']!r}")
    return rec


def load_figure_dataset(name: str) -> tuple[FiniteSpectralModel, PeriodAssignment]:
    """Shipped model plus periods, re-certified on every load."""
    rec = load_figure_record(name)
    model, per = model_from_obj(rec)
    if per is None:
        raise ModelError(f"dataset {name}: no periods")
    diag = check_period_map(model, per)
    if not diag:
        raise ModelError(f"dataset {name}: {diag.describe()}")
    return model, per


def dperm_overrides(group_name: "str | None", p: int) -> dict[str, int]:
    """Shipped period values for strata the engine can only bound.

    Keyed by group name and prime; unknown combinations give {} so the
    assembly falls back to reporting divisor bounds.
    """
    if group_name is None:
        return {}
    raw = _override_table().get(group_name, {}).get(str(p), {})
    return {point: int(v) for point, v in raw.items()}


@functools.cache
def _override_table() -> dict:
    """The shipped override table, read and parsed once per process; callers
    only read it."""
    path = _data_dir().joinpath(OVERRIDES_FILE)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return {}
    return json.loads(text).get("overrides", {})


# -- builders ----------------------------------------------------------
#
# Each builder reassembles its record from the engine plus the frozen
# figure edges, so regeneration and the shipped files can be diffed.

def _record(name, model, per, tags, strata, figure_edges) -> dict:
    vals = {q: per[q] for q in model.points}
    return {
        "format": 1,
        "name": name,
        "points": list(model.points),
        "specializes": [list(e) for e in model.cover_pairs()],
        "figure_edges": [list(e) for e in sorted(figure_edges)],
        "periods": vals,
        "tags": {q: tags[q] for q in model.points},
        "strata": {label: sorted(strata[label]) for label in sorted(strata)},
    }


def _extend_assembly(asm, witnesses, witness_edges, cross_edges):
    """Glue witness points and figure edges onto an assembled space."""
    points = list(asm.space.points) + [w for w, _ in witnesses]
    edges = list(asm.space.cover_pairs()) + witness_edges + cross_edges
    model = FiniteSpectralModel(points, edges)
    values = {q: asm.periods[q] for q in asm.space.points}
    tags = dict(asm.tags)
    for w, period in witnesses:
        values[w] = period
        tags[w] = "paper-dataset"
    per = PeriodAssignment(values)
    diag = check_period_map(model, per)
    if not diag:
        raise ModelError(f"figure gluing broke the period map: {diag.describe()}")
    strata = {s.label: [s.point_name(q) for q in s.variety.space.points] for s in asm.strata}
    for w, _ in witnesses:
        label = w.split(":", 1)[0]
        strata[label].append(w)
    return model, per, tags, strata


def build_stmod_d8() -> dict:
    from .groups import dihedral
    from .spectra import TAG_COMPUTED, stmod_period_map

    model, per = stmod_period_map(dihedral(8), 2)
    tags = {q: TAG_COMPUTED for q in model.space.points}
    strata = {"proj": list(model.space.points)}
    return _record("stmod_d8", model.space, per, tags, strata, [])


def build_dperm_q8() -> dict:
    from .groups import quaternion
    from .spectra import dperm_period_map

    asm = dperm_period_map(quaternion(8), 2, overrides={})
    witness_edges = [("C2:⟨⟩", "C2:⟨x1+x2⟩"), ("C2:⟨x1+x2⟩", "m(C2)")]
    cross_edges = [
        ("1:⟨⟩", "m(C2)"),
        ("C2:⟨x1⟩", "m(C4a)"),
        ("C2:⟨x2⟩", "m(C4b)"),
        ("C2:⟨x1+x2⟩", "m(C4c)"),
        ("C4a:⟨⟩", "m(Q8)"),
        ("C4b:⟨⟩", "m(Q8)"),
        ("C4c:⟨⟩", "m(Q8)"),
    ]
    model, per, tags, strata = _extend_assembly(
        asm, [("C2:⟨x1+x2⟩", 1)], witness_edges, cross_edges
    )
    return _record("dperm_q8", model, per, tags, strata, witness_edges + cross_edges)


# Values for the strata the engine only bounds; shipped alongside the records.
D8_OVERRIDES = {"C2a:⟨⟩": 1, "C2b:⟨⟩": 1}


def build_dperm_d8() -> dict:
    from .groups import dihedral
    from .spectra import dperm_period_map

    asm = dperm_period_map(dihedral(8), 2, overrides=D8_OVERRIDES)
    witness_edges = [("C2c:⟨⟩", "C2c:⟨x1+x2⟩"), ("C2c:⟨x1+x2⟩", "m(C2c)")]
    cross_edges = [
        ("1:⟨α0,β⟩", "m(C2a)"),
        ("1:⟨α1,β⟩", "m(C2b)"),
        ("1:⟨α0,α1⟩", "m(C2c)"),
        ("1:⟨α0⟩", "m(C2^2a)"),
        ("1:⟨α1⟩", "m(C2^2b)"),
        ("C2a:⟨⟩", "m(C2^2a)"),
        ("C2b:⟨⟩", "m(C2^2b)"),
        ("C2c:⟨x1⟩", "m(C2^2a)"),
        ("C2c:⟨x2⟩", "m(C2^2b)"),
        ("C2c:⟨x1+x2⟩", "m(C4)"),
        ("C2^2a:⟨⟩", "m(D8)"),
        ("C2^2b:⟨⟩", "m(D8)"),
        ("C4:⟨⟩", "m(D8)"),
    ]
    model, per, tags, strata = _extend_assembly(
        asm, [("C2c:⟨x1+x2⟩", 1)], witness_edges, cross_edges
    )
    return _record("dperm_d8", model, per, tags, strata, witness_edges + cross_edges)


def build_ratm_r() -> dict:
    """Six-point space underlying the rational Artin-motive picture.

    Two periodic points sit under the four aperiodic ones; two of the
    aperiodic points are closed, the other two are not.
    """
    points = ["bottom", "top", "mid_l", "mid_r", "closed_l", "closed_r"]
    edges = [
        ("bottom", "top"),
        ("bottom", "mid_l"),
        ("bottom", "mid_r"),
        ("top", "closed_l"),
        ("top", "closed_r"),
        ("mid_l", "closed_l"),
        ("mid_r", "closed_r"),
    ]
    periods = {
        "bottom": 1,
        "top": 1,
        "mid_l": 0,
        "mid_r": 0,
        "closed_l": 0,
        "closed_r": 0,
    }
    model = FiniteSpectralModel(points, edges)
    per = PeriodAssignment(periods)
    diag = check_period_map(model, per)
    if not diag:
        raise ModelError(diag.describe())
    tags = {q: "paper-dataset" for q in points}
    strata = {
        "main": ["closed_l", "closed_r", "mid_l", "mid_r"],
        "lower": ["bottom", "top"],
    }
    return _record("ratm_r", model, per, tags, strata, edges)


_BUILDERS = {
    "stmod_d8": build_stmod_d8,
    "dperm_q8": build_dperm_q8,
    "dperm_d8": build_dperm_d8,
    "ratm_r": build_ratm_r,
}


def write_all(directory: "str | Path | None" = None) -> list[Path]:
    """Regenerate every shipped record, the override table, and the
    golden DOT rendering; returns the written paths."""
    out = Path(directory) if directory is not None else Path(__file__).parent / "data"
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in _BUILDERS.items():
        rec = builder()
        path = out / f"{name}.json"
        path.write_text(dumps_canonical(rec), encoding="utf-8")
        written.append(path)
    overrides = {"format": 1, "overrides": {"D8": {"2": D8_OVERRIDES}}}
    path = out / OVERRIDES_FILE
    path.write_text(dumps_canonical(overrides), encoding="utf-8")
    written.append(path)

    rec = build_stmod_d8()
    model, per = model_from_obj(rec)
    path = out / "stmod_d8.dot"
    path.write_text(model_to_dot(model, per, name="stmod_d8"), encoding="utf-8")
    written.append(path)
    return written
