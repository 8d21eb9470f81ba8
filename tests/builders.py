"""Builders of the data files the package ships, rebuilt from the engine.

Each figure builder reassembles its record from the engine plus the frozen
figure edges, and the tests diff it against the shipped JSON file.  The
stated values of the D8 record come from spectra.STATED_DPERM.
stmod_d8_fixture is the generator-only section table over the D8 projective
model; write_all writes it as the demo files of the compare command.
"""

from pathlib import Path

from ttperiods.comparison import make_table, table_to_obj
from ttperiods.graded import enumerate_patterns, ring_to_obj
from ttperiods.groups import dihedral, quaternion
from ttperiods.sections_catalog import ComparisonFixture, _d8_presentation, _local_periods
from ttperiods.spaces import (
    TAG_COMPUTED,
    FiniteSpectralModel,
    ModelError,
    PeriodAssignment,
    check_period_map,
    dumps_canonical,
    model_to_obj,
    restrict_to_open,
)
from ttperiods.spectra import dperm_period_map, stmod_period_map


# -- figure records ----------------------------------------------------

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
    model, per = stmod_period_map(dihedral(8), 2)
    tags = {q: TAG_COMPUTED for q in model.space.points}
    strata = {"proj": list(model.space.points)}
    return _record("stmod_d8", model.space, per, tags, strata, [])


def build_dperm_q8() -> dict:
    asm = dperm_period_map(quaternion(8), 2)
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


def build_dperm_d8() -> dict:
    asm = dperm_period_map(dihedral(8), 2)
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


# -- the section-table demo ------------------------------------------

def stmod_d8_fixture() -> ComparisonFixture:
    """Generator sections over the five-point projective model.

    Truncated on purpose: the three generators alone are not a basis,
    but the map is still an embedding, which is all period transfer
    needs.  The full six-point model is the ambient for the image.
    """
    ring = _d8_presentation()
    full = enumerate_patterns(ring)
    irrelevant = max(
        full.space.points, key=lambda q: len(full.patterns[q].contains)
    )
    keep = frozenset(q for q in full.space.points if q != irrelevant)
    space, per = restrict_to_open(full.space, _local_periods(full), keep)
    sections = []
    for name, d in (("α0", 1), ("α1", 1), ("β", 2)):
        locus = frozenset(
            q for q in space.points if name not in full.patterns[q].contains
        )
        sections.append((name, f"L{d}", d, locus))
    table = make_table(space, {"L1": 1, "L2": 2}, sections)
    return ComparisonFixture(
        name="stmod_d8_generators",
        table=table,
        ample=False,
        ring=ring,
        per=per,
        image_model=full,
        image_open=True,
    )


def write_all(directory: Path) -> list[Path]:
    """The projective model demo as the three JSON files shipped under
    data/sections, written into directory."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    fix = stmod_d8_fixture()
    written = []
    for stem, obj in (
        ("stmod_d8_sections", table_to_obj(fix.table)),
        ("stmod_d8_space", model_to_obj(fix.table.space, fix.per)),
        ("d8_ring", ring_to_obj(fix.ring)),
    ):
        path = out / f"{stem}.json"
        path.write_text(dumps_canonical(obj), encoding="utf-8")
        written.append(path)
    return written
