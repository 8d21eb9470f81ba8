"""A traced cli child prints and exits exactly as the command line does."""

from pathlib import Path

import pytest

from commands import KNOWN_TRACEBACK, run_child, split_trace

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("argv", [
    ("tower", "--prime", "2", "--depth", "2"),
    ("figure", "no_such_dataset"),
    KNOWN_TRACEBACK,
])
def test_traced_entry_matches_the_command_line(argv):
    code, out, err = run_child(ROOT, argv, traced=False)
    traced_code, traced_out, traced_err = run_child(ROOT, argv, traced=True)
    traced_err, trace = split_trace(traced_err)
    assert (traced_code, traced_out) == (code, out)
    assert traced_err.strip().splitlines()[-1:] == err.strip().splitlines()[-1:]
    assert trace["import_s"] > 0
