"""Rewrite golden_cli.json from the current code.

    python3 perfbench/capture_golden.py

Run it from the root of a checkout.  The golden file pins the exit code and
stdout digest of every cli-workload command; capture it only at a commit
whose reports are known to be right.
"""

import hashlib
import json
import sys
from pathlib import Path

from commands import GOLDEN, KNOWN_TRACEBACK, command_list, key_of, run_child


def capture(root: Path) -> dict:
    golden = {}
    for argv in command_list():
        if argv == KNOWN_TRACEBACK:
            continue
        code, out, _ = run_child(root, argv, traced=False)
        golden[key_of(argv)] = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
    return golden


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    golden = capture(root)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} entries to {GOLDEN.relative_to(root)}", file=sys.stderr)
