"""Ops, their outcomes, and the statistics over their latencies.

An op is one timed call into the library plus an untimed check of its result
by a second route.  Ops run one at a time, in rounds: every round runs the
same op list in the same order, so each op id gets one latency per round.

A shared host changes speed by a third and more within seconds, as other
tenants come and go.  A ``Speedometer`` therefore times a fixed piece of the
benchmark's own work around (and, for ops in this process, during) every op,
and each latency is costed at the speed at which that work takes its nominal
time.  The reference work never calls the library, so the cost of an op
changes only when the library's work does.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, NamedTuple

OK = "ok"
REFUSED = "refused"
KNOWN_FAILURE = "known_failure"
FAILED = "failed"

# The tail percentile of a workload must have this many ops beyond it.
TAIL_BEYOND = 10


@dataclass
class Op:
    """One unit of work.

    call: the timed library call.
    layer: the ttperiods module the call enters (None when the op runs in a
        child process, which traces itself).
    check: returns None when the result passes its second-route check, or a
        short description of the mismatch.
    refusals: library exception types that count as a clean refusal.
    known: recognises a listed defect of the program (an exception or a
        mismatch description), so it is reported as a known failure.
    """

    id: str
    call: Callable[[], Any]
    layer: "str | None" = None
    check: "Callable[[Any], str | None] | None" = None
    refusals: tuple = ()
    known: "Callable[[object], bool] | None" = None


def is_library_exception(exc: BaseException) -> bool:
    return type(exc).__module__.split(".")[0] == "ttperiods"


def classify_exception(exc: BaseException, refusals: tuple) -> str:
    """A refusal is a library exception type the op declares; all else fails."""
    if refusals and isinstance(exc, refusals) and is_library_exception(exc):
        return REFUSED
    return FAILED


class Execution(NamedTuple):
    latency: float  # seconds
    outcome: str
    detail: "str | None"
    start: float  # perf_counter() when the call began


def run_op(op: Op, tracer=None, speed: "Speedometer | None" = None) -> Execution:
    """Latency, outcome and detail of one execution of the op.

    With an installed tracer the call runs as a root span of the op's layer
    and the check runs with the tracer paused.  A garbage collection runs
    first, untimed, so that no op pays for an earlier op's garbage.  A
    speedometer samples right before (unless its last sample is fresh) and
    right after the call.
    """
    gc.collect()
    if speed is not None:
        speed.refresh()
    start = perf_counter()
    error = None
    try:
        if tracer is None or op.layer is None:
            result = op.call()
        else:
            result = tracer.call(op.layer, op.call)
    except Exception as exc:  # every op failure is recorded, none ends the run
        error = exc
    latency = perf_counter() - start
    if speed is not None:
        speed.sample()
    if error is not None:
        outcome = classify_exception(error, op.refusals)
        if outcome == FAILED and op.known is not None and op.known(error):
            outcome = KNOWN_FAILURE
        return Execution(latency, outcome, f"{type(error).__name__}: {error}", start)
    problem = None
    if op.check is not None:
        if tracer is not None:
            tracer.paused = True
        try:
            problem = op.check(result)
        except Exception as exc:  # a check that cannot read the result fails the op
            problem = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.paused = False
    if problem is None:
        return Execution(latency, OK, None, start)
    if op.known is not None and op.known(problem):
        return Execution(latency, KNOWN_FAILURE, problem, start)
    return Execution(latency, FAILED, problem, start)


def last_frame_name(exc: BaseException) -> str:
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name if tb is not None else ""


# -- machine speed -------------------------------------------------------

# Nominal time of one speed sample (the faster of two reference loops): its
# median over a tower run on a 2-vCPU Xeon VM.
REFERENCE_S = 0.00044
# A sample every 50 ms takes about 2 % of the time.
SAMPLE_EVERY_S = 0.05
SAMPLE_LOOPS = 2
# A sample that ended this recently still stands for the speed now.
FRESH_S = 0.005

# A child process's time is mostly interpreter start-up and imports, which
# reference_loop follows poorly (they slow down under load by about half as
# much); the time of a child that starts and imports a fixed set of standard
# modules follows them more closely.  Its nominal time on the same VM:
REFERENCE_CHILD = (
    "-I", "-c",
    "import argparse, dataclasses, decimal, fractions, inspect, json, logging, pathlib, typing",
)
REFERENCE_CHILD_S = 0.08


def reference_loop() -> int:
    """A fixed piece of pure-Python work like the library's own: permutation
    composition on tuples, set and dict updates."""
    perm = tuple((7 * i + 3) % 61 for i in range(61))
    x = tuple(range(61))
    seen: set = set()
    counts: dict = {}
    for _ in range(150):
        x = tuple(x[j] for j in perm)
        seen.add(x)
        counts[x[0]] = counts.get(x[0], 0) + 1
    return len(seen) + len(counts)


class Speedometer:
    """Follows the machine's speed while ops run in this process.

    While running, an interval timer interrupts the process every
    ``SAMPLE_EVERY_S`` seconds to time ``SAMPLE_LOOPS`` reference loops (the
    fastest counts), so samples fall inside long ops too.  ``cost(start, end)``
    turns the interval an op took into seconds at the nominal speed: each
    stretch between two samples counts at the mean speed of those two, and
    the samples' own time counts not at all.
    """

    nominal_s = REFERENCE_S

    def __init__(self):
        self.begins: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []
        self._previous = None
        self._sampling = False

    def measure(self) -> float:
        best = math.inf
        for _ in range(SAMPLE_LOOPS):
            start = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - start)
        return best

    def sample(self, *_signal) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        begin = perf_counter()
        loop = self.measure()
        self.begins.append(begin)
        self.ends.append(perf_counter())
        self.loops.append(loop)
        self._sampling = False

    def refresh(self) -> None:
        """Sample unless the last sample is fresh."""
        if not self.ends or perf_counter() - self.ends[-1] > FRESH_S:
            self.sample()

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def cost(self, start: float, end: float) -> tuple[float, float]:
        """(seconds busy in the op, the same at the nominal speed)."""
        first = bisect_right(self.ends, start) - 1
        last = bisect_left(self.begins, end)
        if first < 0 or last >= len(self.loops):
            raise ValueError("no speed sample before or after the interval")
        busy = nominal = 0.0
        for k in range(first + 1, last + 1):
            lo = max(start, self.ends[k - 1])
            hi = min(end, self.begins[k])
            if hi > lo:
                busy += hi - lo
                nominal += (hi - lo) * 2 * self.nominal_s / (self.loops[k - 1] + self.loops[k])
        return busy, nominal

    def summary(self) -> dict:
        quartiles = statistics.quantiles(self.loops, n=4) if len(self.loops) > 1 else []
        return {"samples": len(self.loops), "reference_s": self.nominal_s,
                "sample_s_quartiles": quartiles}


class ChildSpeedometer(Speedometer):
    """Follows the speed of child processes, for ops and probes run in them.

    A sample is the elapsed time of one REFERENCE_CHILD; samples are taken
    only between children, never by a timer.
    """

    nominal_s = REFERENCE_CHILD_S

    def measure(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, *REFERENCE_CHILD], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        return perf_counter() - start

    def start(self) -> None:
        self.sample()

    def stop(self) -> None:
        self.sample()


# -- statistics ----------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def min_rounds_for_tail(ops_per_round: int, q: float) -> int:
    """Rounds needed so that percentile q has ten samples beyond it."""
    share = (100.0 - q) / 100.0
    return max(1, math.ceil((TAIL_BEYOND - 1e-9) / (ops_per_round * share)))
