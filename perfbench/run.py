"""ttperiods benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
Ops run one at a time in rounds; every round runs the same op list, and the
run keeps starting rounds until ``--seconds`` have passed and enough rounds
are done for the tail percentile to have ten ops beyond it (two, one plain
and one traced, with ``--trace 1``).  Each op counts at its median over its
rounds.  Every result is checked by a second route.  Ops that run in this
process are costed at a nominal machine speed, which a fixed loop of the
benchmark's own samples around and during every op; cli ops and set-up
probes, which run in child processes, are costed against a fixed child
process of the benchmark's own (see ``measure``).  The record keeps the
measured latencies too.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates plain and traced rounds, so it can also report the tracing
overhead.  The full record (commit, seed, Python version, CPU count and one
row per op) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("tower", "catalog", "algebra", "cli")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Past this many seconds no new round starts, whatever the round minimum.
HARD_STOP_S = 110

LAYERS = (
    "groups", "spectra", "cohomology", "graded", "spaces", "tworing",
    "multigraded", "tworing_catalog", "datasets", "comparison",
    "sections_catalog", "cli",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Row(NamedTuple):
    """One execution of one op."""

    op: str
    round: int
    traced: bool
    latency: float  # seconds the op took, less any speed samples taken in it
    outcome: str
    detail: "str | None"
    cost: float  # the latency at the nominal machine speed


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.runner = None
        if name == "cli":
            import commands

            self.ops, self.runner = commands.build(seed, ROOT)
            module = commands
        else:
            module = __import__(name)
            self.ops = module.build(seed)
        self.tail_pct = module.TAIL_PCT


# -- set-up time ---------------------------------------------------------

def probe_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start until the inputs are built, per probe, at
    the nominal speed of child processes."""
    from measure import ChildSpeedometer

    speed = ChildSpeedometer()
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    spans = []
    for _ in range(SETUP_PROBES):
        speed.refresh()
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            spans.append((start, perf_counter()))
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        speed.sample()
    return [speed.cost(*span)[1] for span in spans]


# -- the measuring loop --------------------------------------------------

def run_rounds(bench: Workload, seconds: float, trace: bool):
    """Rows, rounds, tracer and a summary of the speed samples.

    Ops that run in this process are costed at the nominal speed by a
    ``Speedometer``, cli ops (child processes) by a ``ChildSpeedometer``.
    """
    from measure import ChildSpeedometer, Speedometer, min_rounds_for_tail, run_op
    from tracer import Tracer

    speed = Speedometer() if bench.runner is None else ChildSpeedometer()
    executions = []  # (op id, round, traced, Execution)
    tracer = Tracer() if trace and bench.runner is None else None
    if trace:  # one plain and one traced round at least
        min_rounds = 2
    else:
        min_rounds = min_rounds_for_tail(len(bench.ops), bench.tail_pct)
    speed.start()
    start = perf_counter()
    rounds = 0
    try:
        while True:
            elapsed = perf_counter() - start
            if elapsed >= HARD_STOP_S or (rounds >= min_rounds and elapsed >= seconds):
                break
            traced = trace and rounds % 2 == 1
            # Every round starts from a collected heap, with what earlier
            # rounds left frozen, so the collection before each op only
            # scans the round's own objects.
            gc.unfreeze()
            gc.collect()
            gc.freeze()
            if bench.runner is not None:
                bench.runner.traced = traced
            elif traced:
                tracer.install()
            try:
                for op in bench.ops:
                    run = run_op(op, tracer if traced else None, speed)
                    executions.append((op.id, rounds, traced, run))
            finally:
                if tracer is not None and traced:
                    tracer.uninstall()
                    tracer.end_round()
            rounds += 1
    finally:
        speed.stop()
        gc.unfreeze()
    rows = []
    for op_id, rnd, traced, run in executions:
        busy, cost = speed.cost(run.start, run.start + run.latency)
        rows.append(Row(op_id, rnd, traced, busy, run.outcome, run.detail, cost))
    return rows, rounds, tracer, speed.summary()


def op_costs(rows) -> dict[str, float]:
    """Each op's median cost (latency at the nominal speed) over its rounds."""
    from measure import median

    costs: dict[str, list[float]] = {}
    for row in rows:
        costs.setdefault(row.op, []).append(row.cost)
    return {op: median(values) for op, values in costs.items()}


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(bench: Workload, rows, setup: list[float]) -> tuple[dict, dict]:
    from measure import OK, REFUSED, median, percentile

    plain = [r for r in rows if not r.traced]
    cost = op_costs(plain)
    # One sample per execution, at its op's median cost.
    lat_ms = [cost[r.op] * 1000.0 for r in plain]
    beyond = len(lat_ms) * (100.0 - bench.tail_pct) / 100.0
    values = {
        "setup_s": (median(setup), "s"),
        "wall_s": (sum(cost.values()), "s"),
        "op_p50_ms": (percentile(lat_ms, 50.0), "ms"),
        "op_tail_ms": (percentile(lat_ms, bench.tail_pct), "ms"),
        "peak_rss_mb": (peak_rss_mb(bench.runner is not None), "MB"),
        "ok_share": (sum(r.outcome in (OK, REFUSED) for r in plain) / len(plain), "share"),
    }
    tail = {"percentile": bench.tail_pct, "ops": len(lat_ms), "ops_beyond": beyond}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, tail


def per_layer(bench: Workload, rows, tracer) -> dict:
    from tracer import merge

    traced_rounds = len({r.round for r in rows if r.traced})
    if bench.runner is not None:
        snap = merge(bench.runner.snapshots)
        stdout_bytes = bench.runner.stdout_bytes
    else:
        snap = tracer.snapshot()
        snap["import_s"] = 0.0
        stdout_bytes = 0
    self_s, calls, counters = snap["self_s"], snap["calls"], snap["counters"]

    def per_round(x):
        return x / traced_rounds

    def ratio(a, b):
        return a / b if b else 0.0

    values = {f"{layer}.self_s": (per_round(self_s.get(layer, 0.0)), "s") for layer in LAYERS}
    values.update({
        "cli.import_s": (per_round(snap["import_s"]), "s"),
        "cli.stdout_bytes": (per_round(stdout_bytes), "bytes"),
        "groups.calls": (per_round(calls.get("groups", 0)), "count"),
        "groups.subgroups": (per_round(counters.get("groups.subgroups", 0)), "count"),
        "groups.weyl_groups": (per_round(counters.get("groups.weyl_groups", 0)), "count"),
        "groups.identify.calls": (
            per_round(counters.get("groups.identify.calls", 0)), "count"),
        "groups.identify.distinct_ratio": (
            ratio(counters.get("groups.identify.distinct", 0),
                  counters.get("groups.identify.calls", 0)), "ratio"),
        "spectra.strata": (per_round(counters.get("spectra.strata", 0)), "count"),
        "graded.patterns": (per_round(counters.get("graded.patterns", 0)), "count"),
        "graded.pattern_yield": (
            ratio(counters.get("graded.patterns", 0), counters.get("graded.subsets", 0)),
            "ratio"),
        "spaces.points": (per_round(counters.get("spaces.points", 0)), "count"),
        "tworing.ideals": (per_round(counters.get("tworing.ideals", 0)), "count"),
        "tworing.primes": (per_round(counters.get("tworing.primes", 0)), "count"),
        "sections_catalog.calls": (per_round(calls.get("sections_catalog", 0)), "count"),
        "trace.overhead_share": (
            sum(op_costs([r for r in rows if r.traced]).values())
            / sum(op_costs([r for r in rows if not r.traced]).values()) - 1.0, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# -- the record ----------------------------------------------------------

def commit_of(root: Path) -> "str | None":
    """HEAD of the checkout's own git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    base = root / "src" / "ttperiods"
    for path in sorted(base.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(base)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def write_record(args, rows, rounds, metrics, extra) -> Path:
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "metrics": metrics,
        **extra,
        "ops": [
            {"workload": args.workload, "op": r.op, "round": r.round, "traced": r.traced,
             "latency_ms": round(r.latency * 1000.0, 4), "cost_ms": round(r.cost * 1000.0, 4),
             "outcome": r.outcome, **({"detail": r.detail} if r.detail else {})}
            for r in rows
        ],
    }
    path.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ttperiods" / "__init__.py").is_file():
        print(f"perfbench: no ttperiods sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        Workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from measure import FAILED, KNOWN_FAILURE, TAIL_BEYOND

    setup = probe_setup(args.workload, args.seed)
    bench = Workload(args.workload, args.seed)
    rows, rounds, tracer, speed = run_rounds(bench, args.seconds, bool(args.trace))
    extra = {"setup_samples_s": setup, "speed": speed}
    if args.trace:
        metrics = per_layer(bench, rows, tracer)
        extra["trace"] = (tracer.snapshot() if tracer is not None
                          else {"children": bench.runner.snapshots})
    else:
        metrics, extra["tail"] = end_to_end(bench, rows, setup)
        if extra["tail"]["ops_beyond"] < TAIL_BEYOND:
            print(f"perfbench: only {extra['tail']['ops_beyond']:.1f} ops beyond the "
                  f"p{bench.tail_pct:g} tail; the run stopped early", file=sys.stderr)
    failed = [r for r in rows if r.outcome == FAILED]
    known = sorted({r.op for r in rows if r.outcome == KNOWN_FAILURE})
    extra["known_failures"] = known
    path = write_record(args, rows, rounds, metrics, extra)

    print(f"perfbench {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{len(rows)} ops, record {path.relative_to(ROOT)}", file=sys.stderr)
    for name in known:
        print(f"  known failure: {name}", file=sys.stderr)
    for r in failed[:20]:
        print(f"  FAILED {r.op} (round {r.round}): {r.detail}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
