"""Shipped figure records: stratified spaces with literature-sourced gluing.

The cross-stratum topology of the assembled spectra (doubled points and
the edges tying strata together) is input data taken from published
figures, not something the engine derives.  The records are frozen as
JSON files; the test suite rebuilds each record from the engine (whose
stated dperm values are spectra.STATED_DPERM) and the figure edges and
diffs it against the shipped file.  Every load re-validates the
record with check_period_map, so a corrupted file can never masquerade as
a verified space.
"""

from __future__ import annotations

import json
from importlib import resources

from .diagnostics import UsageError
from .spaces import (
    FiniteSpectralModel,
    ModelError,
    PeriodAssignment,
    check_period_map,
    model_from_obj,
)

__all__ = [
    "DATASET_NAMES",
    "UnknownDataset",
    "load_figure_record",
    "certify_figure",
    "load_figure_dataset",
]

DATASET_NAMES = ("stmod_d8", "dperm_q8", "dperm_d8", "ratm_r")


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


def certify_figure(name: str, rec: dict) -> tuple[FiniteSpectralModel, PeriodAssignment]:
    """Model plus periods of a record load_figure_record read, certified
    as a period map."""
    model, per = model_from_obj(rec)
    if per is None:
        raise ModelError(f"dataset {name}: no periods")
    diag = check_period_map(model, per)
    if not diag:
        raise ModelError(f"dataset {name}: {diag.describe()}")
    return model, per


def load_figure_dataset(name: str) -> tuple[FiniteSpectralModel, PeriodAssignment]:
    """Shipped model plus periods, re-certified on every load."""
    return certify_figure(name, load_figure_record(name))

