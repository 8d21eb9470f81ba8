"""Layer-boundary spans around the ttperiods modules, installed from outside.

A layer is one module of the package.  Spans sit only where one module calls
into another: on the names a module imports from another layer (including
imports made inside function bodies, which read the source module's attribute
at call time), on a few constructors and methods other layers call, and around
each call the benchmark itself makes.  A call from a layer into itself opens
no span, so hot helpers such as ``groups.compose`` stay unwrapped.

A layer's self time is its span time minus the time of the spans it caused.
Counters are read from return values.  Everything stays in memory; the caller
reads the totals once at the end.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import FunctionType

PACKAGE = "ttperiods"
# Prefix of the stderr line on which a traced CLI child reports its trace.
TRACE_MARKER = "perfbench-trace "
_CO_GENERATOR = 0x20

# Cross-module helpers too small and too frequent to carry a span; their time
# counts towards the calling layer.
UNWRAPPED = frozenset(
    {
        "ttperiods.diagnostics",
        "ttperiods.multigraded.vec_add",
        "ttperiods.multigraded.vec_scale",
        "ttperiods.multigraded.vec_zero",
        "ttperiods.multigraded.all_vectors",
        "ttperiods.multigraded.render_combo",
        "ttperiods.multigraded.mg_mul",
        "ttperiods.spaces.divides",
        "ttperiods.spaces._values",
        "ttperiods.groups._prime_factors",
        "ttperiods.groups.name_for_key",
        "ttperiods.graded.pattern_name",
    }
)

# Methods that other layers call on objects of a layer's classes.
METHODS = (
    ("groups", "FiniteGroup", "__init__"),
    ("spaces", "FiniteSpectralModel", "__init__"),
    ("spaces", "FiniteSpectralModel", "cover_pairs"),
    ("spaces", "FiniteSpectralModel", "restrict"),
    ("spaces", "FiniteSpectralModel", "open_sets"),
)


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _count_identify(tracer, args, result):
    G = args[0]
    tracer.identify_seen.add((G.degree, G.elements))
    tracer.counters["groups.identify.calls"] += 1


def _count_patterns(tracer, args, result):
    free = sum(1 for g in result.ring.generators if not g.invertible)
    tracer.counters["graded.patterns"] += len(result.space.points)
    tracer.counters["graded.subsets"] += 2**free


COUNTERS = {
    "ttperiods.groups.subgroups": lambda t, a, r: t.count("groups.subgroups", len(r)),
    "ttperiods.groups.weyl_group": lambda t, a, r: t.count("groups.weyl_groups", 1),
    "ttperiods.groups.identify": _count_identify,
    "ttperiods.spectra.dperm_period_map": lambda t, a, r: t.count(
        "spectra.strata", len(r.strata)
    ),
    "ttperiods.graded.enumerate_patterns": _count_patterns,
    "ttperiods.spaces.FiniteSpectralModel.__init__": lambda t, a, r: t.count(
        "spaces.points", len(a[0].points)
    ),
    "ttperiods.tworing.homogeneous_ideals": lambda t, a, r: t.count(
        "tworing.ideals", len(r)
    ),
    "ttperiods.tworing.spc": lambda t, a, r: t.count("tworing.primes", len(r.points)),
}


class Tracer:
    """Span bookkeeping for one process.

    Spans record only while installed and not paused; the benchmark pauses
    the tracer while it checks a result, so checks never count as work.
    """

    def __init__(self):
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.identify_seen: set = set()
        self.paused = False
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    def end_round(self) -> None:
        """Close a round: distinct identify arguments are counted per round."""
        self.counters["groups.identify.distinct"] += len(self.identify_seen)
        self.identify_seen.clear()

    def wrap(self, layer: str, fn, key: "str | None" = None):
        """A function that runs fn inside a span of the given layer."""
        if getattr(fn, "_perfbench_span", False):
            return fn
        key = key or f"{fn.__module__}.{fn.__qualname__}"
        count = COUNTERS.get(key)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    tracer.self_s[layer] += elapsed - frame[1]
                    tracer.calls[layer] += 1
                    if stack:
                        stack[-1][1] += elapsed
            if count is not None:
                count(tracer, args, result)
            return result

        span._perfbench_span = True
        return span

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn as a root span of the layer (used for the CLI's main)."""
        return self.wrap(layer, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer boundary of the package; undo with uninstall()."""
        if self._patches:
            return
        modules = _package_modules()
        # Names imported inside function bodies are looked up on the source
        # module at call time, so the span goes on the source attribute; so
        # do the counted functions, which count calls from every caller.
        counted = [
            (modules[key.split(".")[1]], key.split(".")[2])
            for key in COUNTERS
            if key.count(".") == 2
        ]
        for target, name in _function_level_imports(modules) + counted:
            fn = getattr(target, name, None)
            if (
                isinstance(fn, FunctionType)
                and _wrappable(fn)
                and not getattr(fn, "_perfbench_span", False)
            ):
                self._patch(target, name, self.wrap(layer_of(fn), fn))
        for module in modules.values():
            for name, fn in list(vars(module).items()):
                if (
                    isinstance(fn, FunctionType)
                    and fn.__module__ != module.__name__
                    and fn.__module__.startswith(PACKAGE + ".")
                    and _wrappable(fn)
                ):
                    self._patch(module, name, self.wrap(layer_of(fn), fn))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            key = f"{PACKAGE}.{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self.wrap(layer, fn, key))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def _wrappable(fn) -> bool:
    """Generators are left alone: a span would close before their work runs."""
    key = f"{fn.__module__}.{fn.__qualname__}"
    return (
        fn.__module__ not in UNWRAPPED
        and key not in UNWRAPPED
        and not fn.__code__.co_flags & _CO_GENERATOR
    )


def _package_modules() -> dict:
    pkg = importlib.import_module(PACKAGE)
    out = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        out[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return out


_INNER_IMPORT = re.compile(r"^[ \t]+from \.(\w+) import ([\w, ]+)", re.MULTILINE)


def _function_level_imports(modules: dict) -> list[tuple[object, str]]:
    """(source module, name) for every indented one-line relative import."""
    found = []
    for module in modules.values():
        text = Path(module.__file__).read_text(encoding="utf-8")
        for source, names in _INNER_IMPORT.findall(text):
            if source in modules:
                found += [(modules[source], n.strip()) for n in names.split(",") if n.strip()]
    return found


def merge(snapshots: list[dict]) -> dict:
    """Sum of several snapshots (for example, one per CLI child)."""
    out = {"self_s": Counter(), "calls": Counter(), "counters": Counter()}
    import_s = 0.0
    for snap in snapshots:
        for field in out:
            out[field].update(snap.get(field, {}))
        import_s += snap.get("import_s", 0.0)
    merged = {field: dict(total) for field, total in out.items()}
    merged["import_s"] = import_s
    return merged
