"""Front-end behavior: exit codes, report shapes, DOT output, determinism."""

import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ttperiods
from ttperiods import cli, comparison, tworing_catalog
from ttperiods.cli import main
from ttperiods.diagnostics import LIMITS, UsageError
from ttperiods.graded import make_ring, ring_to_obj
from ttperiods.groups import dihedral, group_to_obj
from ttperiods.spaces import dumps_canonical
from ttperiods.tworing_catalog import build_two_ring, two_ring_to_obj

from builders import write_all as write_section_files

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden_cli.json").read_text(encoding="utf-8"))

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def d8_ring_file(tmp_path):
    ring = make_ring(
        2, [("α0", 1), ("α1", 1), ("β", 2)], [[(1, {"α0": 1, "α1": 1})]]
    )
    return write_json(tmp_path, "d8.json", ring_to_obj(ring))


class TestRing:
    def test_periods_match_known_table(self, capsys, d8_ring_file):
        code, out, _ = run(capsys, "ring", "periods", "--input", d8_ring_file)
        assert code == 0
        report = json.loads(out)
        periods = report["result"]["model"]["periods"]
        assert periods == {
            "⟨α0⟩": 1,
            "⟨α1⟩": 1,
            "⟨α0,α1⟩": 2,
            "⟨α0,β⟩": 1,
            "⟨α1,β⟩": 1,
            "⟨α0,α1,β⟩": 0,
        }
        tags = report["result"]["tags"]
        assert set(tags.values()) == {"computed"}
        assert set(tags) == set(periods)

    def test_validate_pass_and_fail(self, capsys, tmp_path, d8_ring_file):
        code, out, _ = run(capsys, "ring", "validate", "--input", d8_ring_file)
        assert code == 0
        assert json.loads(out)["result"]["diagnosis"]["ok"] is True
        bad = write_json(
            tmp_path, "bad.json", ring_to_obj(make_ring(6, [("x", 1)]))
        )
        code, out, _ = run(capsys, "ring", "validate", "--input", bad)
        assert code == 1
        assert json.loads(out)["result"]["diagnosis"]["ok"] is False

    INVALID_RINGS = {
        "char-not-prime": ring_to_obj(make_ring(4, [("x", 2)])),
        "duplicate-generator": ring_to_obj(make_ring(2, [("x", 1), ("y", 1), ("x", 1)])),
        "odd-period": ring_to_obj(make_ring(3, [("u", 1, True), ("y", 2)])),
        "unknown-constraint": {**ring_to_obj(make_ring(2, [("x", 1)])), "constraint": "super"},
        "inhomogeneous": {
            **ring_to_obj(make_ring(2, [("x", 1), ("y", 2)], [[(1, {"x": 1}), (1, {"y": 1})]])),
            "witnesses": [[[], "witness"], [["x", "y"], "witness"]],
        },
    }

    @pytest.mark.parametrize("reason", sorted(INVALID_RINGS))
    def test_patterns_and_periods_validate_first(self, capsys, tmp_path, reason):
        path = write_json(tmp_path, "bad.json", self.INVALID_RINGS[reason])
        for action in ("patterns", "periods"):
            for fmt in ("json", "dot"):
                code, out, _ = run(capsys, "ring", action, "--input", path, "--format", fmt)
                assert code == 1
                diagnosis = json.loads(out)["result"]["diagnosis"]
                assert (diagnosis["ok"], diagnosis["reason"]) == (False, reason)

    def test_patterns_dot(self, capsys, d8_ring_file):
        code, out, _ = run(
            capsys, "ring", "patterns", "--input", d8_ring_file, "--format", "dot"
        )
        assert code == 0
        assert out.startswith('digraph "d8"')

    @pytest.mark.parametrize("argv, name", [
        (("group", "stmod", "--group", "D8", "--prime", "2"), "stmod_D8_2"),
        (("group", "stmod", "--group", "1", "--prime", "2"), "stmod_1_2"),
        (("tworing", "spc", "--input", "laurent_f2_z2"), "spc_laurent_f2_z2"),
    ], ids=["stmod D8", "stmod 1", "tworing spc"])
    def test_stmod_and_spc_dot(self, capsys, argv, name):
        # One node per point of the JSON report, under the command's name.
        code, out, _ = run(capsys, *argv, "--format", "dot")
        assert code == 0
        assert out.startswith(f'digraph "{name}" {{\n')
        nodes = {line.split('"')[1] for line in out.splitlines()
                 if line.startswith('  "') and " -> " not in line}
        code, report, _ = run(capsys, *argv)
        assert code == 0
        assert nodes == set(json.loads(report)["result"]["model"]["points"])

    def test_witnesses_required_for_non_monomial(self, capsys, tmp_path):
        ring = make_ring(
            3,
            [("a", 8), ("b", 12), ("c", 16)],
            [[(1, {"b": 2}), (1, {"a": 1, "c": 1}), (-1, {"a": 3})]],
        )
        plain = write_json(tmp_path, "m11.json", ring_to_obj(ring))
        code, _, err = run(capsys, "ring", "patterns", "--input", plain)
        assert code == 2
        assert "NonMonomialWithoutWitnesses" in err
        obj = ring_to_obj(ring)
        obj["witnesses"] = [
            [[], "witness"],
            [["b"], "witness"],
            [["a", "b"], "witness"],
            [["a", "b", "c"], "witness"],
        ]
        with_wits = write_json(tmp_path, "m11w.json", obj)
        code, out, _ = run(capsys, "ring", "periods", "--input", with_wits)
        assert code == 0
        periods = json.loads(out)["result"]["model"]["periods"]
        assert periods["⟨⟩"] == 4
        assert periods["⟨a,b⟩"] == 16

    def test_repeated_witness_pattern_is_refused(self, capsys, tmp_path):
        obj = ring_to_obj(make_ring(2, [("a", 1), ("b", 1)]))
        obj["witnesses"] = [[["a", "b"], "witness"], [["b", "a"], "paper"]]
        path = write_json(tmp_path, "repeated.json", obj)
        for action in ("patterns", "periods"):
            code, out, err = run(capsys, "ring", action, "--input", path)
            assert code == 2 and out == ""
            assert "InvalidPattern" in err and "repeated pattern" in err

    # Each entry must be [[generator names], tag] with every name and the tag
    # a string.  Each value below was once coerced into a pattern or a tag;
    # the ring has a generator named "1", so a number name read as a string
    # would be a valid pattern.
    MALFORMED_WITNESSES = {
        "string names": [["ab", "witness"]],
        "object names": [[{"a": 0}, "witness"]],
        "number name": [[[1], "witness"]],
        "number tag": [[["a"], 1]],
        "object, not a list": {"ab": "witness"},
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_WITNESSES))
    def test_malformed_witnesses_are_refused(self, capsys, tmp_path, case):
        obj = ring_to_obj(make_ring(2, [("a", 1), ("b", 1), ("1", 1)]))
        wits = self.MALFORMED_WITNESSES[case]
        obj["witnesses"] = [[[], "witness"], *wits] if isinstance(wits, list) else wits
        path = write_json(tmp_path, "bad.json", obj)
        code, out, err = run(capsys, "ring", "periods", "--input", path)
        assert (code, out) == (2, "")
        assert "input error: malformed witnesses" in err

    def test_wide_witness_ring_answers_at_once(self, tmp_path):
        # 40 non-invertible generators: each point's generator list must come
        # from its own mask.  A fresh process under a 1 GiB address-space cap,
        # so a table over every subset fails here instead of filling memory.
        ring = make_ring(2, [(f"x{i}", 2) for i in range(40)] + [("u", 4, True)])
        obj = ring_to_obj(ring)
        obj["witnesses"] = [[[], "witness"], [["x39", "x0"], "witness"], [["x7"], "paper"]]
        path = write_json(tmp_path, "wide.json", obj)
        probe = (
            "import resource, sys, ttperiods.cli\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.exit(ttperiods.cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ttperiods.__file__).resolve().parent.parent)}
        for action in ("patterns", "periods"):
            proc = subprocess.run(
                [sys.executable, "-c", probe, "ring", action, "--input", path],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            model = json.loads(proc.stdout)["result"]["model"]
            assert model["pattern"] == {"⟨⟩": [], "⟨x0,x39⟩": ["x0", "x39"], "⟨x7⟩": ["x7"]}
            assert model["certified"]["⟨x7⟩"] == "paper"
        assert model["periods"] == {"⟨⟩": 2, "⟨x0,x39⟩": 2, "⟨x7⟩": 2}

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "ring", "validate", "--input", str(path))
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("action, generator, relation", [
        # Read as x^0, the relation x^-1 = 0 said 1 = 0, and periods
        # exited 0 with an empty spectrum.
        ("periods", {"name": "x", "degree": 1}, [{"x": -1}]),
        # Read as u^0, u^-1 + 1 + u was 2 + u, and validate exited 1 with
        # inhomogeneous.
        ("validate", {"name": "u", "degree": 2, "invertible": True}, [{"u": -1}, {}, {"u": 1}]),
    ], ids=["x^-1 = 0", "u^-1 + 1 + u = 0"])
    def test_negative_exponent_is_refused(self, capsys, tmp_path, action, generator, relation):
        obj = {"char": 3, "generators": [generator],
               "relations": [[{"coeff": 1, "monomial": m} for m in relation]]}
        path = write_json(tmp_path, "negative.json", obj)
        code, out, err = run(capsys, "ring", action, "--input", path)
        assert (code, out) == (2, "")
        assert f"negative exponent -1 on generator {generator['name']!r}" in err

    @pytest.mark.parametrize("argv", [
        ("ring", "validate", "--input", None),
        ("tworing", "ideals", "--input", "laurent_f2_z2"),
        ("tworing", "localize", "--input", "laurent_f2_z2"),
    ], ids=["ring validate", "tworing ideals", "tworing localize"])
    def test_validate_rejects_dot(self, capsys, d8_ring_file, argv):
        argv = tuple(d8_ring_file if a is None else a for a in argv)
        code, out, err = run(capsys, *argv, "--format", "dot")
        assert (code, out) == (2, "")
        assert err == f"input error: {argv[1]} has no dot form\n"

    def test_deterministic_output(self, capsys, d8_ring_file):
        _, first, _ = run(capsys, "ring", "periods", "--input", d8_ring_file)
        _, second, _ = run(capsys, "ring", "periods", "--input", d8_ring_file)
        assert first == second

    def test_emitted_model_reingests_equal(self, capsys, d8_ring_file):
        from ttperiods.spaces import model_from_obj

        _, out, _ = run(capsys, "ring", "periods", "--input", d8_ring_file)
        obj = json.loads(out)["result"]["model"]
        model, per = model_from_obj(obj)
        assert sorted(model.points) == sorted(obj["points"])
        assert sorted(map(tuple, obj["specializes"])) == sorted(
            model.cover_pairs()
        )
        assert {q: per[q] for q in model.points} == obj["periods"]


    @staticmethod
    def monomial_ring_file(n_free):
        """x0..x{n-1} of degrees 2, 4, 6, a unit u, and the relation x0*x1^2."""
        ring = make_ring(
            3,
            [(f"x{i}", 2 * (i % 3) + 2) for i in range(n_free)] + [("u", 2, True)],
            [[(1, {"x0": 1, "x1": 2})]],
        )
        name = f"free{n_free}.json"
        Path(name).write_text(dumps_canonical(ring_to_obj(ring)), encoding="utf-8")
        return name

    def test_large_spectrum_emission_is_pinned(self, capsys, tmp_path, monkeypatch):
        # 768 patterns; the report names the input path, so it is relative.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "ring", "patterns", "--input", self.monomial_ring_file(10))
        assert code == 0, err
        assert len(out) == 447078
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "f68d67b1774b793b2c51876a55715cde7c50182c67702a9c11dc7d1efc65a004"
        )

    def test_pattern_enumeration_is_capped(self, capsys, tmp_path, monkeypatch):
        MAX_FREE_GENERATORS = LIMITS["MAX_FREE_GENERATORS"].value

        monkeypatch.chdir(tmp_path)
        path = self.monomial_ring_file(MAX_FREE_GENERATORS + 1)
        code, out, err = run(capsys, "ring", "patterns", "--input", path)
        assert code == 2
        assert out == ""
        assert err.startswith("SizeBound: ")
        assert f"MAX_FREE_GENERATORS = {MAX_FREE_GENERATORS}" in err


class TestGroup:
    def test_dperm_q8_dot_colors(self, capsys):
        code, out, _ = run(
            capsys, "group", "dperm", "--group", "Q8", "--prime", "2",
            "--format", "dot",
        )
        assert code == 0
        assert "fillcolor=red" in out and "fillcolor=blue" in out
        assert "fillcolor=black" in out

    def test_dperm_q8_json(self, capsys):
        code, out, _ = run(capsys, "group", "dperm", "--group", "Q8", "--prime", "2")
        assert code == 0
        report = json.loads(out)
        periods = report["result"]["model"]["periods"]
        values = sorted(periods.values())
        assert values.count(4) == 1
        assert values.count(0) == 6
        assert set(report["result"]["tags"].values()) <= {
            "computed", "paper-dataset", "bound",
        }

    def test_stmod_d8_json(self, capsys):
        code, out, _ = run(capsys, "group", "stmod", "--group", "D8", "--prime", "2")
        assert code == 0
        periods = json.loads(out)["result"]["model"]["periods"]
        assert periods["⟨α0,α1⟩"] == 2
        assert all(v == 1 for q, v in periods.items() if q != "⟨α0,α1⟩")

    def test_stmod_catalog_name_passthrough(self, capsys):
        code, out, _ = run(capsys, "group", "stmod", "--group", "M11", "--prime", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["model"]["periods"]["⟨a,b⟩"] == 16
        assert result["discrepancies"] == {
            "⟨b⟩": {"derived": 8, "stated": 4}
        }

    def test_stmod_without_stated_table_has_no_discrepancy_block(self, capsys):
        code, out, _ = run(capsys, "group", "stmod", "--group", "D8", "--prime", "2")
        assert code == 0
        assert "discrepancies" not in json.loads(out)["result"]

    def test_group_file_input(self, capsys, tmp_path):
        path = write_json(tmp_path, "d8_group.json", group_to_obj(dihedral(8)))
        code, out, _ = run(capsys, "group", "dperm", "--group", path, "--prime", "2")
        assert code == 0
        assert json.loads(out)["result"]["group"] == "D8"

    def test_relabelled_d8_keeps_stated_tags(self, capsys, tmp_path):
        # D8 on six points: the rotations fix 1 and 2, which the reflections
        # swap, so the central C2 has the least member and is labelled C2a.
        # Both non-normal C2 classes still take the stated value.
        obj = {"degree": 6, "generators": [[[3, 4, 5, 6]], [[1, 2], [4, 6]]]}
        path = write_json(tmp_path, "d8_relabelled.json", obj)
        code, out, _ = run(capsys, "group", "dperm", "--group", path, "--prime", "2")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["group"] == "D8"
        tags = result["tags"]
        assert {t for q, t in tags.items() if q.startswith("C2a:")} == {"computed"}
        assert tags["C2b:⟨⟩"] == tags["C2c:⟨⟩"] == "paper-dataset"

    def test_c4_squared_answers_not_read_as_elementary(self, capsys, tmp_path):
        obj = {"degree": 8, "generators": [[[1, 2, 3, 4]], [[5, 6, 7, 8]]]}
        path = write_json(tmp_path, "c4xc4.json", obj)
        code, out, _ = run(capsys, "group", "stmod", "--group", path, "--prime", "2")
        assert code == 0
        model = json.loads(out)["result"]["model"]
        assert model["periods"] == {"⟨⟩": 2, "⟨y1⟩": 2, "⟨y2⟩": 2}
        assert model["pattern"] == {"⟨⟩": [], "⟨y1⟩": ["y1"], "⟨y2⟩": ["y2"]}

    def test_c3_by_c8_is_not_read_as_q24(self, capsys, tmp_path):
        # C3 ⋊ C8 has one involution and an element of order 12, as Q24
        # does, but only 2 elements of order 4.  Keyed as Q24 it read period
        # 4 at p=2; its Sylow 2-subgroup is C8, so the period is 2, which
        # the catalog cannot give.
        obj = {"degree": 11, "generators": [[[1, 2, 3]], [[2, 3], [4, 5, 6, 7, 8, 9, 10, 11]]]}
        path = write_json(tmp_path, "c3_by_c8.json", obj)
        code, out, err = run(capsys, "group", "stmod", "--group", path, "--prime", "2")
        assert (code, out) == (2, "")
        assert err.startswith("GroupNotInCatalog: unidentified isomorphism type (order 24)")

    @pytest.mark.parametrize("edit", [
        {"generators": {}}, {"generators": ""}, {"generators": [{}]}, {"generators": [""]},
        {"name": 5}, {"name": [1]},
    ], ids=["generators-object", "generators-string", "cycles-object", "cycles-string",
            "name-integer", "name-array"])
    def test_group_field_of_the_wrong_type_is_malformed(self, capsys, monkeypatch, edit):
        # An object or string where an array belongs was read as its keys or
        # characters, none, which gave the trivial group.
        obj = {"degree": 3, "generators": [], **edit}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run(capsys, "group", "dperm", "--group", "-", "--prime", "2")
        assert (code, out) == (2, "")
        assert err.startswith("GroupError: malformed group object")

    @pytest.mark.parametrize(
        "action,group,prime",
        [("stmod", "C8", "4"), ("stmod", "C6", "9"), ("stmod", "C8", "0"), ("dperm", "D8", "4")],
    )
    def test_non_prime_is_refused(self, capsys, action, group, prime):
        code, out, err = run(capsys, "group", action, "--group", group, "--prime", prime)
        assert code == 2
        assert out == ""
        assert f"{prime} is not prime" in err

    @pytest.mark.parametrize("name", ["trivial", "cyclic", "elem_abelian", "abelian", "dihedral"])
    def test_key_kind_is_not_a_name(self, capsys, name):
        code, out, err = run(capsys, "group", "stmod", "--group", name, "--prime", "2")
        assert (code, out) == (2, "")
        assert err.startswith("GroupNotInCatalog: unknown catalog key")

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "group", "dperm", "--group", "X99", "--prime", "2")
        assert code == 2
        code, _, err = run(capsys, "group", "stmod", "--group", "X99", "--prime", "2")
        assert code == 2


class TestTower:
    def test_small_tower(self, capsys):
        code, out, _ = run(capsys, "tower", "--prime", "2", "--depth", "2")
        assert code == 0
        report = json.loads(out)
        chain = report["result"]["chain"]
        assert set(chain["periods"].values()) <= {0, 1, 2}
        for stratum in report["result"]["strata"]:
            if stratum["proj_sequence"]:
                assert stratum["proj_eventual"] is not None

    def test_depth_out_of_range(self, capsys):
        code, _, err = run(capsys, "tower", "--prime", "2", "--depth", "9")
        assert code == 2
        assert "ValueError" in err

    def test_non_prime_is_refused(self, capsys):
        code, out, err = run(capsys, "tower", "--prime", "4", "--depth", "2")
        assert code == 2
        assert out == ""
        assert "4 is not prime" in err


class TestTworing:
    def test_spc_zero_by_name(self, capsys):
        code, out, _ = run(capsys, "tworing", "spc", "--input", "zero")
        assert code == 0
        assert json.loads(out)["result"]["model"]["points"] == []

    def test_spc_zero_by_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "zero.json", two_ring_to_obj(build_two_ring("zero"))
        )
        code, out, _ = run(capsys, "tworing", "spc", "--input", path)
        assert code == 0
        assert json.loads(out)["result"]["model"]["points"] == []

    def test_ideals_laurent(self, capsys):
        code, out, _ = run(
            capsys, "tworing", "ideals", "--input", "laurent_f2_z2"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == 2

    def test_agree_identity(self, capsys):
        code, out, _ = run(
            capsys, "tworing", "agree", "--input", "identity_laurent_f2_z2"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["tightening"]["ok"] and result["agreement"]["ok"]

    def test_agree_broken_fails(self, capsys):
        code, out, _ = run(
            capsys, "tworing", "agree", "--input", "broken_dual_laurent"
        )
        assert code == 1
        assert json.loads(out)["result"]["tightening"]["ok"] is False

    @pytest.mark.parametrize("name", ["identity_laurent_f3_z4", "broken_dual_laurent"])
    def test_agree_validates_the_tightening_once(self, capsys, monkeypatch, name):
        from ttperiods import tworing

        calls = []
        validate = tworing.validate_tightening

        def counted(T, R2):
            calls.append(T.name)
            return validate(T, R2)

        monkeypatch.setattr(tworing, "validate_tightening", counted)
        code, out, _ = run(capsys, "tworing", "agree", "--input", name)
        assert calls == [name]
        result = json.loads(out)["result"]
        assert code == (0 if result["tightening"]["ok"] else 1)
        if not result["tightening"]["ok"]:
            assert result["agreement"] == result["tightening"]

    def test_agree_needs_catalog_name(self, capsys):
        code, _, err = run(capsys, "tworing", "agree", "--input", "nope")
        assert code == 2
        assert "tightening name" in err

    def test_localize_nilpotent_collapses(self, capsys, tmp_path):
        system = write_json(
            tmp_path,
            "sys.json",
            {"generators": [{"src": "0", "dst": "1", "vec": [1]}]},
        )
        code, out, _ = run(
            capsys, "tworing", "localize", "--input", "nilpotent_f2_z2",
            "--system", system,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["diagnosis"]["ok"] is True
        dims = result["localized"]["dims"]
        assert all(v == 0 for v in dims.values())

    def test_localize_without_system(self, capsys):
        code, out, _ = run(
            capsys, "tworing", "localize", "--input", "laurent_f2_z2"
        )
        assert code == 0
        assert json.loads(out)["result"]["diagnosis"]["ok"] is True

    def test_localize_closes_the_system_once(self, capsys, monkeypatch):
        from ttperiods import tworing

        calls = []
        original = tworing.mult_closure_two

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tworing, "mult_closure_two", counted)
        code, out, _ = run(
            capsys, "tworing", "localize", "--input", "laurent_f2_z2"
        )
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["result"]["system_size"] > 0

    @pytest.mark.parametrize(
        "action, calls", [("ideals", 1), ("spc", 1), ("localize", 2)]
    )
    def test_catalog_input_is_validated_once(self, capsys, monkeypatch, action, calls):
        # localize validates its input and then its result.  Every module
        # that binds the validator gets the counter, so no call hides.
        from ttperiods import tworing

        seen = []
        original = tworing.validate_two_ring

        def counted(R2):
            seen.append(R2.name)
            return original(R2)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("ttperiods") and (
                getattr(module, "validate_two_ring", None) is original
            ):
                monkeypatch.setattr(module, "validate_two_ring", counted)
        code, _, _ = run(capsys, "tworing", action, "--input", "laurent_f3_z4")
        assert code == 0
        assert len(seen) == calls
        assert seen[0] == "laurent_f3_z4"

    def test_unknown_input_file(self, capsys):
        code, _, err = run(capsys, "tworing", "spc", "--input", "missing.json")
        assert code == 2

    def test_float_char_is_input_error(self, capsys, tmp_path):
        obj = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        obj["char"] = 2.0
        path = write_json(tmp_path, "float_char.json", obj)
        code, out, err = run(capsys, "tworing", "ideals", "--input", path)
        assert code == 2
        assert out == ""
        assert "malformed" in err

    @pytest.mark.parametrize("two_ring, row", [
        ("laurent_f2_z2", {"src": "zz", "dst": "0", "vec": [1]}),
        ("laurent_f2_z2", {"src": "0", "dst": "1", "vec": [1, 1]}),
        # Entries outside 0..p-1 were kept unreduced: over F_3, [4] and [-2]
        # gave a system of 33 members where [1], equal to both, gives 32.
        ("laurent_f3_z4", {"src": "0", "dst": "0", "vec": [4]}),
        ("laurent_f3_z4", {"src": "0", "dst": "0", "vec": [-2]}),
    ])
    def test_system_generator_outside_the_two_ring_is_refused(self, capsys, tmp_path,
                                                               two_ring, row):
        path = write_json(tmp_path, "system.json", {"generators": [row]})
        code, out, err = run(capsys, "tworing", "localize", "--input", two_ring,
                             "--system", path)
        assert code == 2
        assert out == ""
        assert "BadShapes" in err

    def test_system_endpoint_that_is_no_string_is_malformed(self, capsys, tmp_path):
        path = write_json(tmp_path, "system.json",
                          {"generators": [{"src": ["0"], "dst": "0", "vec": [1]}]})
        code, out, err = run(capsys, "tworing", "localize", "--input", "laurent_f3_z4",
                             "--system", path)
        assert code == 2
        assert out == ""
        assert "input error: malformed system" in err

    def test_kernel_bug_is_a_traceback_not_a_usage_error(self, capsys, monkeypatch):
        """A KeyError raised inside the ideal kernel is a bug: it propagates
        out of main instead of exiting 2."""
        from ttperiods.multigraded import AlgebraIndex

        def broken(self):
            raise KeyError("kernel bug")

        monkeypatch.setattr(AlgebraIndex, "lattice", broken)
        with pytest.raises(KeyError, match="kernel bug"):
            main(["tworing", "ideals", "--input", "laurent_f2_z2"])


class TestCompare:
    @pytest.fixture
    def demo(self, tmp_path):
        paths = {p.stem: str(p) for p in write_section_files(tmp_path)}
        return paths

    def test_full_pipeline(self, capsys, demo):
        code, out, _ = run(
            capsys, "compare",
            "--space", demo["stmod_d8_space"],
            "--ring", demo["d8_ring"],
            "--sections", demo["stmod_d8_sections"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["embedding"] is True
        assert result["ample"] is False
        assert result["transfer"]["ok"] is True
        assert result["divisor"]["ok"] is True
        assert result["comparison"]["⟨α0,α1⟩"] == ["α0", "α1"]

    def test_the_comparison_map_is_built_once(self, capsys, demo, monkeypatch):
        built = []
        real = comparison.PrimePattern
        monkeypatch.setattr(comparison, "PrimePattern",
                            lambda contains: built.append(contains) or real(contains))
        code, out, _ = run(
            capsys, "compare",
            "--space", demo["stmod_d8_space"],
            "--ring", demo["d8_ring"],
            "--sections", demo["stmod_d8_sections"],
            "--invert", "β",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert {"divisor", "transfer", "inverted"} <= result.keys()
        assert len(built) == len(result["comparison"])

    def test_the_loci_and_the_embedding_are_decided_once(self, capsys, demo, monkeypatch):
        # is_ample, the report's embedding and transfer_periods' precondition
        # all read them.
        calls = dict.fromkeys(["_locus_masks", "_reflects_specialization"], 0)
        for name in calls:
            def counted(table, real=getattr(comparison, name), name=name):
                calls[name] += 1
                return real(table)

            monkeypatch.setattr(comparison, name, counted)
        code, out, _ = run(
            capsys, "compare",
            "--space", demo["stmod_d8_space"],
            "--ring", demo["d8_ring"],
            "--sections", demo["stmod_d8_sections"],
            "--invert", "β",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["embedding"] and {"ample", "transfer"} <= result.keys()
        assert calls == {"_locus_masks": 1, "_reflects_specialization": 1}

    def test_invert_beta(self, capsys, demo):
        code, out, _ = run(
            capsys, "compare",
            "--space", demo["stmod_d8_space"],
            "--ring", demo["d8_ring"],
            "--sections", demo["stmod_d8_sections"],
            "--invert", "β",
        )
        assert code == 0
        inverted = json.loads(out)["result"]["inverted"]
        assert inverted["pullback"]["ok"] is True
        assert inverted["region"] == ["⟨α0,α1⟩", "⟨α0⟩", "⟨α1⟩"]

    def test_shifted_period_fails(self, capsys, demo, tmp_path):
        obj = json.loads(Path(demo["stmod_d8_space"]).read_text(encoding="utf-8"))
        obj["periods"]["⟨α0⟩"] = 2
        bad = write_json(tmp_path, "shifted.json", obj)
        code, out, _ = run(
            capsys, "compare",
            "--space", bad,
            "--ring", demo["d8_ring"],
            "--sections", demo["stmod_d8_sections"],
        )
        assert code == 1
        result = json.loads(out)["result"]
        assert result["transfer"]["ok"] is False
        assert result["transfer"]["detail"][0] == "⟨α0⟩"

    def test_invalid_ring_is_diagnosed_before_any_comparison(self, capsys, demo, tmp_path):
        ring = json.loads(Path(demo["d8_ring"]).read_text(encoding="utf-8"))
        ring["char"] = 4
        ring["generators"].append(
            {"name": "u", "degree": 3, "invertible": True, "nilpotent": True})
        bad = write_json(tmp_path, "bad_ring.json", ring)
        code, out, _ = run(
            capsys, "compare",
            "--space", demo["stmod_d8_space"],
            "--ring", bad,
            "--sections", demo["stmod_d8_sections"],
            "--invert", "β",
        )
        assert code == 1
        result = json.loads(out)["result"]
        assert result == {"diagnosis": {"ok": False, "reason": "char-not-prime", "detail": [4]}}
        assert json.loads(run(capsys, "ring", "validate", "--input", bad)[1])["result"] == result

    def test_unknown_invert_section(self, capsys, demo):
        code, _, err = run(
            capsys, "compare",
            "--space", demo["stmod_d8_space"],
            "--ring", demo["d8_ring"],
            "--sections", demo["stmod_d8_sections"],
            "--invert", "zz",
        )
        assert code == 2
        assert "ComparisonError" in err


class TestFigure:
    def test_stmod_d8_matches_golden(self, capsys):
        code, out, _ = run(capsys, "figure", "stmod_d8")
        assert code == 0
        golden = (
            resources.files("ttperiods") / "data" / "stmod_d8.dot"
        ).read_text(encoding="utf-8")
        assert out == golden

    def test_record_round_trips(self, capsys):
        from ttperiods.spaces import model_from_obj

        code, out, _ = run(capsys, "figure", "ratm_r", "--format", "json")
        assert code == 0
        rec = json.loads(out)["result"]["record"]
        model, per = model_from_obj(rec)
        assert sorted(per.values.values()) == [0, 0, 0, 0, 1, 1]

    def test_unknown_dataset(self, capsys):
        code, _, err = run(capsys, "figure", "nope")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_record_that_is_no_period_map_is_refused(self, capsys, monkeypatch, fmt):
        from ttperiods import datasets

        rec = datasets.load_figure_record("ratm_r")
        bad = {**rec, "periods": {**rec["periods"], "bottom": 2}}
        monkeypatch.setattr(datasets, "load_figure_record", lambda name: bad)
        code, out, err = run(capsys, "figure", "ratm_r", "--format", fmt)
        assert (code, out) == (2, "")
        assert "not-monotone" in err


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_bad_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_import_loads_no_jsonschema(self):
        """A fresh process loads only the layers its command runs."""
        src = str(Path(ttperiods.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        probe = (
            "import contextlib, io, json, sys, ttperiods.cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ttperiods.cli.main(argv) if argv else 0\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )

        def loaded(*argv):
            proc = subprocess.run(
                [sys.executable, "-c", probe, json.dumps(argv)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            code, modules = json.loads(proc.stdout)
            assert code == 0, proc.stderr
            assert "jsonschema" not in modules
            return {m.split(".", 1)[1] for m in modules if m.startswith("ttperiods.")}

        assert loaded() == {"cli", "diagnostics", "spaces"}
        ring = resources.files("ttperiods").joinpath("data", "sections", "d8_ring.json")
        layers = loaded("ring", "periods", "--input", str(ring))
        assert not layers & {"groups", "spectra", "tworing", "multigraded", "comparison"}
        layers = loaded("tworing", "ideals", "--input", "zero")
        assert not layers & {"groups", "graded"}
        assert cli.TWO_RING_NAMES == tworing_catalog.TWO_RING_NAMES
        assert cli.TIGHTENING_NAMES == tworing_catalog.TIGHTENING_NAMES

    def test_every_package_error_is_a_usage_error(self):
        """Each error class the package defines exits 2, never as a traceback."""
        found = []
        for info in pkgutil.iter_modules(ttperiods.__path__):
            module = importlib.import_module(f"ttperiods.{info.name}")
            for cls in vars(module).values():
                if (
                    inspect.isclass(cls)
                    and issubclass(cls, Exception)
                    and cls.__module__ == module.__name__
                    and cls is not cli.InputError
                ):
                    found.append(cls)
                    assert issubclass(cls, UsageError), cls.__qualname__
        assert len(found) >= 20

    def test_package_data_globs_match_the_data_files(self):
        """No dead package-data glob and no data file left out of the wheel."""
        tomllib = pytest.importorskip("tomllib")
        config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        globs = config["tool"]["setuptools"]["package-data"]["ttperiods"]
        package = ROOT / "src" / "ttperiods"
        shipped = set()
        for pattern in globs:
            matched = {p for p in package.glob(pattern) if p.is_file()}
            assert matched, f"package-data glob {pattern!r} matches no file"
            shipped |= matched
        data = {p for p in (package / "data").rglob("*") if p.is_file()}
        assert sorted(p.relative_to(package) for p in data - shipped) == []

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_golden_report(self, capsys, monkeypatch, key):
        """Each benchmark command keeps its exit code and stdout bytes."""
        monkeypatch.chdir(ROOT)
        code, out, err = run(capsys, *key.split(" "))
        want = GOLDEN[key]
        assert code == want["exit"], err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["stdout_sha256"]

    @pytest.mark.parametrize("argv, obj", [
        (("ring", "periods", "--input"),
         {"char": 2, "generators": [{"name": "x", "degree": "one"}]}),
        (("ring", "periods", "--input"), {"char": "two", "generators": []}),
        (("group", "stmod", "--prime", "2", "--group"), {"degree": "x", "generators": []}),
    ])
    def test_non_integer_field_is_a_usage_error(self, capsys, tmp_path, argv, obj):
        path = write_json(tmp_path, "bad.json", obj)
        code, out, err = run(capsys, *argv, path)
        assert code == 2
        assert out == ""
        assert "malformed" in err

    # Per reader, a value in an integer or flag position that JSON does not
    # type as one: a float (2.0 too), a boolean or a string is never coerced;
    # nor is anything but a string read as a ring's constraint.
    LOOKALIKES = {
        "ring degree 2.7": ("d8_ring", ("generators", 2, "degree"), 2.7),
        "ring degree 2.0": ("d8_ring", ("generators", 2, "degree"), 2.0),
        "ring char true": ("d8_ring", ("char",), True),
        "ring coeff string": ("d8_ring", ("relations", 0, 0, "coeff"), "1"),
        "ring exponent 1.0": ("d8_ring", ("relations", 0, 0, "monomial", "α0"), 1.0),
        "ring flag string": ("d8_ring", ("generators", 0, "invertible"), "no"),
        "ring flag integer": ("d8_ring", ("generators", 0, "nilpotent"), 0),
        "ring constraint 5": ("d8_ring", ("constraint",), 5),
        "ring constraint object": ("d8_ring", ("constraint",), {}),
        "ring constraint array": ("d8_ring", ("constraint",), ["koszul"]),
        "period 1.0": ("stmod_d8_space", ("periods", "⟨α0⟩"), 1.0),
        "period true": ("stmod_d8_space", ("periods", "⟨α0⟩"), True),
        "bundle degree 1.0": ("stmod_d8_sections", ("bundles", "L1"), 1.0),
        "section degree true": ("stmod_d8_sections", ("sections", 0, "degree"), True),
        "group degree 4.0": ("group", ("degree",), 4.0),
        "cycle entry true": ("group", ("generators", 0, 0, 0), True),
        "cycle entry 2.0": ("group", ("generators", 0, 0, 1), 2.0),
        "system entry 1.0": ("system", ("generators", 0, "vec", 0), 1.0),
    }

    @pytest.mark.parametrize("case", sorted(LOOKALIKES))
    def test_integer_lookalike_is_malformed(self, capsys, tmp_path, case):
        name, at, value = self.LOOKALIKES[case]
        docs = {p.stem: json.loads(p.read_text(encoding="utf-8"))
                for p in write_section_files(tmp_path)}
        docs["group"] = {"degree": 4, "generators": [[[1, 2, 3, 4]]]}
        docs["system"] = {"generators": [{"src": "0", "dst": "1", "vec": [1]}]}
        files = {stem: write_json(tmp_path, f"{stem}.json", doc) for stem, doc in docs.items()}
        commands = {
            "group": ("group", "stmod", "--prime", "2", "--group", files["group"]),
            "system": ("tworing", "localize", "--input", "laurent_f2_z2",
                       "--system", files["system"]),
            "d8_ring": ("ring", "periods", "--input", files["d8_ring"]),
        }
        compare = ("compare", "--space", files["stmod_d8_space"], "--ring", files["d8_ring"],
                   "--sections", files["stmod_d8_sections"])
        assert run(capsys, *commands.get(name, compare))[0] in (0, 1)
        write_json(tmp_path, f"{name}.json", _replaced(docs[name], at, value))
        code, out, err = run(capsys, *commands.get(name, compare))
        assert code == 2
        assert out == ""
        assert "malformed" in err

    # Per array field of the model, section-table, ring and system readers,
    # a string or an object in its place, which iterating would read as its
    # characters or its keys: each edit alone reads as the array form would,
    # save that an empty system vector is no morphism.
    NON_ARRAYS = {
        "model points": ("space", [(("points",), "gs")]),
        "model specializes": ("space", [(("specializes",), {"gs": 0})]),
        "model edge": ("space", [(("specializes", 0), "gs")]),
        "table sections": ("sections", [(("sections",), {}), (("products",), [])]),
        "table locus": ("sections", [(("sections", 0, "locus"), "gs")]),
        "table products": ("sections", [(("products",), {"tuv": 0})]),
        "table product entry": ("sections", [(("products", 0), "tuv")]),
        "ring generators": ("ring", [(("generators",), {})]),
        "ring generators text": ("ring", [(("generators",), "")]),
        "ring relations": ("ring", [(("relations",), {})]),
        "ring relations text": ("ring", [(("relations",), "")]),
        "ring relation": ("ring", [(("relations",), [{}])]),
        "ring relation text": ("ring", [(("relations",), [""])]),
        "system generators": ("system", [(("generators",), {})]),
        "system generators text": ("system", [(("generators",), "")]),
        "system vec": ("system", [(("generators", 0, "vec"), "")]),
    }

    @pytest.mark.parametrize("case", sorted(NON_ARRAYS))
    def test_non_array_is_malformed(self, capsys, tmp_path, case):
        # The chain g -> s, and t u = v for sections on all of it.
        sections = [("t", "L1", 1), ("u", "L1", 1), ("v", "L2", 2)]
        ring = make_ring(2, [(name, degree) for name, _, degree in sections])
        docs = {
            "space": {"points": ["g", "s"], "specializes": [["g", "s"]]},
            "sections": {
                "format": 1,
                "bundles": {"L1": 1, "L2": 2},
                "sections": [{"name": name, "bundle": bundle, "degree": degree, "locus": ["g", "s"]}
                             for name, bundle, degree in sections],
                "products": [["t", "u", "v"]],
            },
            "ring": ring_to_obj(ring),
            "system": {"generators": [{"src": "0", "dst": "1", "vec": [1]}]},
        }
        files = {stem: write_json(tmp_path, f"{stem}.json", doc) for stem, doc in docs.items()}
        commands = {
            "ring": ("ring", "periods", "--input", files["ring"]),
            "system": ("tworing", "localize", "--input", "laurent_f2_z2",
                       "--system", files["system"]),
        }
        compare = ("compare", "--space", files["space"], "--sections", files["sections"],
                   "--ring", files["ring"])
        name, edits = self.NON_ARRAYS[case]
        argv = commands.get(name, compare)
        assert run(capsys, *argv)[0] == 0
        doc = docs[name]
        for at, value in edits:
            doc = _replaced(doc, at, value)
        write_json(tmp_path, f"{name}.json", doc)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "malformed" in err

    def test_non_integer_period_is_a_usage_error(self, capsys, tmp_path):
        paths = {p.stem: str(p) for p in write_section_files(tmp_path)}
        space = json.loads(Path(paths["stmod_d8_space"]).read_text(encoding="utf-8"))
        space["periods"] = {q: "x" for q in space["points"]}
        bad = write_json(tmp_path, "bad_space.json", space)
        code, out, err = run(capsys, "compare", "--space", bad, "--ring", paths["d8_ring"],
                             "--sections", paths["stmod_d8_sections"])
        assert code == 2
        assert out == ""
        assert "malformed periods" in err

    def test_schema_hint_in_help(self, capsys):
        code, out, _ = run(capsys, "ring", "--help")
        assert code == 0
        assert "ring JSON" in out


def _json_paths(node, at=()):
    """The path of every node of a JSON document, the root first."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _json_paths(v, (*at, k))


def _replaced(doc, at, value):
    if not at:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in at[:-1]:
        node = node[k]
    node[at[-1]] = value
    return doc


class TestMalformedJsonSweep:
    """Every node of a shipped input, replaced by a value of each JSON type,
    gives an answer or a refusal and never a traceback."""

    VALUES = [None, 2.0, True, "x", [], [1], {}, [[1]]]

    @pytest.mark.parametrize("name", ["stmod_d8_space", "stmod_d8_sections", "d8_ring", "laurent_f2_z2"])
    def test_every_node_replaced(self, capsys, tmp_path, name):
        sections = resources.files("ttperiods").joinpath("data", "sections")
        docs = {
            stem: json.loads(sections.joinpath(f"{stem}.json").read_text(encoding="utf-8"))
            for stem in ("stmod_d8_space", "stmod_d8_sections", "d8_ring")
        }
        docs["laurent_f2_z2"] = two_ring_to_obj(build_two_ring("laurent_f2_z2"))
        files = {stem: write_json(tmp_path, f"{stem}.json", doc) for stem, doc in docs.items()}
        if name == "laurent_f2_z2":
            commands = [("tworing", "ideals", "--input", files[name])]
        else:
            commands = [("compare", "--space", files["stmod_d8_space"], "--ring", files["d8_ring"],
                         "--sections", files["stmod_d8_sections"], "--invert", "β")]
            if name == "d8_ring":
                commands.append(("ring", "periods", "--input", files[name]))
        doc = docs[name]
        for at in _json_paths(doc):
            for value in self.VALUES:
                write_json(tmp_path, f"{name}.json", _replaced(doc, at, value))
                for argv in commands:
                    assert run(capsys, *argv)[0] in (0, 1, 2), (at, value, argv)
