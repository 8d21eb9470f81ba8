"""Scale gates: library engines against the oracles in tests/oracles.py at
the declared limits.  Too slow for the tier-1 suite, so they sit outside
its testpaths; run them with

    python -W error -m pytest tests_scale

The source tree and the tier-1 test directory, whose oracles and helpers
these gates import, go on the path first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("tests", "src"):
    sys.path.insert(0, str(ROOT / sub))
