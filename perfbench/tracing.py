"""Span tracing for the benchmark, applied from outside the library.

`instrument(tracer)` wraps every public module-level function of the traced
qspir modules (plus a few named private helpers and methods) for the duration
of a `with` block, then restores the originals. Each call becomes a span
`[name, start, end, parent, op, shape]` appended to an in-memory list; the
list is written out only when the run ends. Counts (calls, Byzantine
candidates, enumerated audit states, SHA-256 blocks) are recorded by the
same wrappers into a per-operation Counter, so they can be summed over a
fixed window of operations and repeat exactly for a given seed.

The library itself carries no tracing code: the wrappers replace the module
attributes, and every qspir module that imported a wrapped function by name
gets the wrapper too, so intra-package calls are traced as well.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

TRACED_MODULES = (
    "plan", "protocol", "codes", "nsumbox", "threats", "rng", "corrector",
    "kernel", "mi", "audit", "rates",
)
# private helpers traced because a per-layer metric names them
TRACED_PRIVATE = {"audit": ("_pack",)}

# spans that contain a whole round rather than one layer of it
CONTAINERS = frozenset({"op", "protocol.run_round"})

# audit entry points; their self time is the state enumeration inside them
AUDIT_ENTRIES = frozenset({
    "audit.run_audit", "audit.audit_storage_security",
    "audit.audit_query_privacy", "audit.audit_masking_vs_byzantine",
    "audit.audit_masking_vs_user", "audit.audit_symmetric_privacy",
    "audit.audit_eavesdropper",
})


def _kernel_shape(name: str, args) -> str:
    if name == "k_mul":        # (a, ar, ac, b, br, bc, q)
        return f"{args[1]}x{args[2]}@{args[4]}x{args[5]}"
    if name == "k_rank":       # (a, r, c, q)
        return f"{args[1]}x{args[2]}"
    return f"{args[1]}x{args[1]}"  # k_inv (a, n, q), k_solve (a, n, b, q)


class NullTracer:
    """Stand-in used by untraced runs: spans cost one no-op context."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """In-memory span and count recorder for one single-threaded run."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.counts: Counter = Counter()
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []

    def _open(self, name: str, shape=None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, shape]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def begin_op(self, index: int) -> None:
        self.op = index
        self.counts = Counter()
        self._op_rec = self._open("op")

    def end_op(self) -> None:
        self._close(self._op_rec)
        self.op_counts.append(self.counts)
        self.op = -1
        self.counts = Counter()

    def wrap(self, name: str, fn, shape=None, on_return=None):
        """Wrapper recording a span and a call count around fn."""
        tracer = self
        calls = name + ".calls"

        def traced(*args, **kwargs):
            tracer.counts[calls] += 1
            rec = tracer._open(name, shape(args) if shape else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_return is not None:
                on_return(tracer.counts, out)
            return out

        return traced

    def counter(self, key: str, fn):
        """Wrapper that only counts calls (for hot, tiny functions)."""
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted


def _count_search(counts: Counter, out) -> None:
    counts["corrector.accepted"] += 1


def _count_audit(counts: Counter, report) -> None:
    counts["audit.states"] += report.states
    counts["audit.route." + report.mode] += 1


ON_RETURN = {
    "corrector.search_joint": _count_search,
    **{name: _count_audit for name in AUDIT_ENTRIES},
}


def _public_functions(mod):
    for attr, value in vars(mod).items():
        if not inspect.isfunction(value):
            continue
        if attr.startswith("_") and attr not in TRACED_PRIVATE.get(
                mod.__name__.rsplit(".", 1)[1], ()):
            continue
        # kernel re-exports the backend's functions under its own name
        if mod.__name__.endswith(".kernel") or value.__module__ == mod.__name__:
            yield attr, value


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the traced layers for the duration of the block."""
    mods = {m: importlib.import_module(f"qspir.{m}") for m in TRACED_MODULES}
    replaced: dict[int, object] = {}
    for short, mod in mods.items():
        for attr, fn in _public_functions(mod):
            name = f"{short}.{attr}"
            shape = None
            if short == "kernel":
                shape = (lambda a, k=attr: _kernel_shape(k, a))
            replaced[id(fn)] = (fn, tracer.wrap(name, fn, shape,
                                                ON_RETURN.get(name)))
    saved = []
    loaded = [m for name, m in sys.modules.items()
              if name == "qspir" or name.startswith("qspir.")]
    for mod in loaded:
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    methods = [
        (mods["nsumbox"].TransferBox, "apply",
         lambda fn: tracer.wrap("nsumbox.box_apply", fn)),
        (mods["rng"].Stream, "__init__",
         lambda fn: tracer.counter("rng.sha256_blocks", fn)),
        (mods["rng"].Stream, "_refill",
         lambda fn: tracer.counter("rng.sha256_blocks", fn)),
    ]
    for cls, attr, make in methods:
        original = cls.__dict__[attr]
        saved.append((cls, attr, original))
        setattr(cls, attr, make(original))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def rescale(spans, factor):
    """Copy of `spans` with the durations inside operation k multiplied by
    factor(k), keeping every span's offset from its operation's start in
    proportion, so nesting and self times scale with it."""
    out = []
    origin: dict = {}
    for name, start, end, parent, op, shape in spans:
        if name == "op":
            origin[op] = start
        f = factor(op) if op >= 0 else 1.0
        o = origin.get(op, 0.0)
        out.append([name, o + (start - o) * f, o + (end - o) * f, parent, op,
                    shape])
    return out


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its direct children cover.

    Calls are single-threaded, so a span's children are disjoint intervals
    inside it and their durations add up to the covered time."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def outermost_total(spans, match) -> float:
    """Total duration of spans accepted by `match` that have no accepted
    ancestor, so nested calls within one group count once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s[3]
        covered = p >= 0 and (inside[p] or match(spans[p][0]))
        inside[i] = covered
        if not covered and match(s[0]):
            total += s[2] - s[1]
    return total


def coverage(spans) -> float:
    """Share of operation time covered by top-level layer spans: spans that
    are not containers and whose parent is a container."""
    covered = 0.0
    total = 0.0
    for s in spans:
        if s[0] == "op":
            total += s[2] - s[1]
        elif s[0] not in CONTAINERS and s[3] >= 0 \
                and spans[s[3]][0] in CONTAINERS:
            covered += s[2] - s[1]
    return covered / total if total else 0.0


def shape_histogram(spans, window: int) -> dict:
    """{primitive: {shape: [calls in window, total ms over all ops]}}."""
    hist: dict = {}
    for s in spans:
        if s[5] is None:
            continue
        cell = hist.setdefault(s[0], {}).setdefault(s[5], [0, 0.0])
        if 0 <= s[4] < window:
            cell[0] += 1
        cell[1] += (s[2] - s[1]) * 1e3
    for per_shape in hist.values():
        for cell in per_shape.values():
            cell[1] = round(cell[1], 3)
    return {k: dict(sorted(v.items(), key=lambda kv: -kv[1][0]))
            for k, v in sorted(hist.items())}


# ----------------------------------------------------------------------
# latency statistics
# ----------------------------------------------------------------------

TAIL_BEYOND = 10
# candidate percentiles in tenths: p99.9, then every whole percentile
TAIL_PERCENTILES = (999, *range(990, 0, -10))


def tail_latency(samples, beyond: int = TAIL_BEYOND):
    """(value, percentile, n) at the highest candidate percentile whose
    nearest-rank sample still has at least `beyond` samples ranked above
    it. Whole percentiles keep the figure's definition fixed over a range
    of sample counts, so runs of different lengths report the same
    percentile. None when no candidate qualifies."""
    n = len(samples)
    ordered = sorted(samples)
    for tenths in TAIL_PERCENTILES:
        rank = -(-tenths * n // 1000)        # ceil(p n / 100)
        if n - rank >= beyond:
            return ordered[rank - 1], tenths / 10, n
    return None
