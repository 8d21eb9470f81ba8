"""Traced entry to the ttperiods command line, used for traced cli children.

Times the import of ``ttperiods.cli``, installs the layer spans, runs
``ttperiods.cli.main`` as the root span of the ``cli`` layer, and appends one
line with the trace to stderr.  Stdout and the exit code are the command's own.

    PYTHONPATH=src python3 perfbench/cli_entry.py group dperm --group D8 --prime 2
"""

import importlib
import json
import sys
from time import perf_counter


def main() -> int:
    start = perf_counter()
    cli = importlib.import_module("ttperiods.cli")
    import_s = perf_counter() - start

    from tracer import TRACE_MARKER, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli", cli.main, sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.end_round()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        sys.stderr.write("\n" + TRACE_MARKER + json.dumps(snap) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main())
