"""qspir benchmark: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload grid-rounds --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from `src/` of the
same tree, never from an installed copy. Workloads are described in
`workloads.py` and BENCHMARK.json.

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
runs the same kind of operations with every traced layer wrapped (see
`tracing.py`), then untraced for the overhead figure, and reports the
per-layer metrics. Every operation's output is checked exactly; a wrong
dit, a raised QspirError, a rate mismatch or an unexpected audit verdict
counts as a failed operation and makes the run exit with status 1.

Human-readable lines come first and a fuller record is written to
`.bench_out/` at the repository root. The last line of stdout is one JSON
object whose times are rescaled to reference machine speed (`speed.py`):

    ops_per_s    verified operations (rounds; audits on audit-suite) per
                 second of operation time
    op_p50_ms    median operation latency
    op_tail_ms   latency at the highest percentile with at least 10
                 samples beyond it (percentile and count in the header)
    setup_s      median over fresh interpreters of import plus set-up
    peak_rss_mb  peak resident memory of the measuring process

The lines above it add failed_frac, host_speed and the wall-clock figures
rounds_per_s, round_p50_ms and round_tail_ms (audit_wall_s on
audit-suite) and setup_wall_s.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
import tracing as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_OPS = 11          # the tail rule needs more than 10 samples


def _import_library():
    """Import qspir from this tree's src/; exit 2 when the tree has no
    usable source."""
    sys.path.insert(0, str(SRC))
    try:
        import qspir
    except ImportError as exc:
        print(f"benchmark: cannot import qspir from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(qspir.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: qspir resolved outside {SRC}: {qspir.__file__}",
              file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


class Phase:
    """Latencies and verdicts of one measured stretch of operations."""

    def __init__(self):
        self.runs: list[float] = []        # latency of every execution, s
        self.op_runs: list[range] = []     # executions behind each operation
        self.speed = speed.SpeedLog()
        self.failed = 0
        self.failures: list[str] = []

    @property
    def ops(self) -> int:
        return len(self.op_runs)

    @property
    def executions(self) -> int:
        return len(self.runs)

    def latencies(self, normalised: bool = True) -> list[float]:
        """Per-operation latency in s: the median of its executions, each
        rescaled to reference speed unless `normalised` is false."""
        scale = self.speed.factor if normalised else (lambda k: 1.0)
        return [statistics.median(self.runs[k] * scale(k) for k in r)
                for r in self.op_runs]

    def rate(self, normalised: bool = True) -> float:
        """Operations per second of operation time."""
        return self.ops / sum(self.latencies(normalised))


def run_op(workload, inp, tracer) -> tuple[float, str | None]:
    """Execute and check one operation: (latency in s, failure or None)."""
    from qspir.errors import QspirError
    if tracer.enabled:
        tracer.begin_op(inp.index)
    t0 = time.perf_counter()
    try:
        out = workload.execute(inp, tracer)
    except QspirError as exc:
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer.enabled:
            tracer.end_op()
    latency = time.perf_counter() - t0
    return latency, None if workload.verify(inp, out) else "wrong output"


def measure(workload, inputs, tracer, seconds: float, min_ops: int,
            repeat_below: float = 0.0) -> Phase:
    """Closed loop over whole units of work (one round, or one audit suite).

    Stops at a unit boundary once `seconds` have passed, or earlier when
    one more unit like the last would overrun them, but not before
    `min_ops` operations. The host speed is sampled between operations
    (see `speed.py`). An operation shorter than `repeat_below` seconds is
    run again until its runs add up to that much, and its latency is their
    median."""
    phase = Phase()
    unit = workload.ops_per_unit
    phase.speed.sample(0, force=True)
    start = unit_start = time.perf_counter()
    for inp in inputs:
        first = phase.executions
        while True:
            latency, failure = run_op(workload, inp, tracer)
            phase.runs.append(latency)
            phase.speed.sample(phase.executions)
            if failure is not None:
                phase.failed += 1
                phase.failures.append(f"op {inp.index}: {failure}")
            if failure is not None or sum(phase.runs[first:]) >= repeat_below:
                break
        phase.op_runs.append(range(first, phase.executions))
        if phase.ops % unit:
            continue
        now = time.perf_counter()
        done, last_unit, unit_start = now - start, now - unit_start, now
        if phase.ops >= min_ops and (done >= seconds
                                     or done + last_unit > seconds):
            break
    phase.speed.sample(phase.executions, force=True)
    return phase


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: set up, report, exit."""
    _import_library()
    from workloads import WORKLOADS
    WORKLOADS[name](seed)
    print("ready", flush=True)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter to the end of its set-up
    (imports plus planning the workload's inputs), several times; returned
    raw and rescaled to reference speed by a calibration either side."""
    raw, normalised = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        around = (before + speed.probe()) / 2
        raw.append(elapsed)
        normalised.append(elapsed * speed.REF_SECONDS / around)
    return raw, normalised


# ----------------------------------------------------------------------
# metadata and per-layer metrics
# ----------------------------------------------------------------------


def run_metadata(name: str, seed: int, trace: int) -> dict:
    import numpy
    from qspir import kernel
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qspir").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "trace": trace,
        "kernel": kernel.KERNEL_NAME,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# (metric, unit, kind, argument); kinds "self" and "incl" sum the self or
# the outermost inclusive time of the spans named in the argument (or
# starting with it, when it is a string), "count" averages a window count
# and "ratio" divides two window counts
LAYER_METRICS = (
    ("protocol.build_scheme.self_ms", "ms", "self", ("protocol.build_scheme",)),
    ("protocol.build_scheme.calls", "count", "count", "protocol.build_scheme.calls"),
    ("codes.ms", "ms", "incl", "codes."),
    ("nsumbox.make_transfer.ms", "ms", "incl", ("nsumbox.make_transfer",)),
    ("nsumbox.precode.ms", "ms", "incl", ("nsumbox.precode",)),
    ("kernel.k_inv.calls", "count", "count", "kernel.k_inv.calls"),
    ("kernel.k_inv.ms", "ms", "incl", ("kernel.k_inv",)),
    ("corrector.search_joint.self_ms", "ms", "self", ("corrector.search_joint",)),
    ("corrector.candidates", "count", "count",
     "corrector.estimate_and_check.calls"),
    ("corrector.accept_ratio", "ratio", "ratio",
     ("corrector.accepted", "corrector.estimate_and_check.calls")),
    ("kernel.k_solve.calls", "count", "count", "kernel.k_solve.calls"),
    ("kernel.k_mul.calls", "count", "count", "kernel.k_mul.calls"),
    ("kernel.k_rank.calls", "count", "count", "kernel.k_rank.calls"),
    ("kernel.k_solve.ms", "ms", "incl", ("kernel.k_solve",)),
    ("kernel.k_mul.ms", "ms", "incl", ("kernel.k_mul",)),
    ("corrector.build_views.ms", "ms", "incl", ("corrector.build_views",)),
    ("protocol.decode.self_ms", "ms", "self", ("protocol.decode",)),
    ("nsumbox.box_apply.ms", "ms", "incl", ("nsumbox.box_apply",)),
    ("protocol.gen.ms", "ms", "incl",
     ("protocol.gen_messages", "protocol.gen_storage",
      "protocol.gen_queries", "protocol.gen_shared_noise")),
    ("rng.sha256_blocks", "count", "count", "rng.sha256_blocks"),
    ("threats.placement.ms", "ms", "incl", ("threats.placement",)),
    ("threats.apply_strategy.ms", "ms", "incl", ("threats.apply_strategy",)),
    ("protocol.answers.ms", "ms", "incl",
     ("protocol.compute_answers", "protocol.encode_channel")),
    ("plan.plan_regime.ms", "ms", "incl", ("plan.plan_regime",)),
    ("plan.plan_regime.calls", "count", "count", "plan.plan_regime.calls"),
    ("rates.theorem_rate.ms", "ms", "incl", ("rates.theorem_rate",)),
    ("audit.enumerate.self_s", "s", "self", tuple(sorted(tr.AUDIT_ENTRIES))),
    ("audit.states", "count", "count", "audit.states"),
    ("audit._pack.s", "s", "incl", ("audit._pack",)),
    ("mi.mi_exact.s", "s", "incl", ("mi.mi_exact",)),
    ("mi.mi_exact.calls", "count", "count", "mi.mi_exact.calls"),
    ("mi.rank_certificate.s", "s", "incl", ("mi.rank_certificate",)),
    ("mi.rank_certificate.calls", "count", "count", "mi.rank_certificate.calls"),
    ("audit.route.enumeration", "count", "count", "audit.route.enumeration"),
    ("audit.route.rank-certificate", "count", "count",
     "audit.route.rank-certificate"),
)


def _matcher(arg):
    if isinstance(arg, str):
        return lambda name: name.startswith(arg)
    return frozenset(arg).__contains__


def layer_metrics(spans, op_counts, traced_ops: int, unit: int,
                  window: int) -> dict:
    """Per-layer figures per round (per whole suite for audits): times over
    every traced operation from `spans`, and counts over the first `window`
    operations so they repeat exactly for a seed."""
    self_t = tr.self_times(spans)
    units_timed = traced_ops / unit
    counts = Counter()
    for c in op_counts[:window]:
        counts.update(c)
    out = {}
    for metric, unit_name, kind, arg in LAYER_METRICS:
        if kind == "count":
            value = counts[arg] * unit / window
        elif kind == "ratio":
            value = counts[arg[0]] / counts[arg[1]] if counts[arg[1]] else 0.0
        else:
            match = _matcher(arg)
            if kind == "self":
                seconds = sum(t for s, t in zip(spans, self_t) if match(s[0]))
            else:
                seconds = tr.outermost_total(spans, match)
            value = seconds / units_timed * (1e3 if unit_name == "ms" else 1)
        out[metric] = (value, unit_name)
    out["trace.coverage"] = (tr.coverage(spans), "ratio")
    return out


def traced_run(workload, seconds: float, record: dict) -> tuple:
    """Half the time traced, half untraced on the operations that follow;
    returns both phases and the per-layer metrics, at reference speed."""
    inputs = workload.inputs()
    tracer = tr.Tracer()
    window = workload.count_window
    with tr.instrument(tracer):
        traced = measure(workload, inputs, tracer, seconds / 2,
                         max(MIN_OPS, window))
    untraced = measure(workload, inputs, tr.NullTracer(), seconds / 2, 1)
    spans = tr.rescale(tracer.spans, traced.speed.factor)
    metrics = layer_metrics(spans, tracer.op_counts, traced.ops,
                            workload.ops_per_unit, window)
    metrics["trace.overhead"] = (traced.rate() / untraced.rate(), "ratio")
    record["count_window_ops"] = window
    record["kernel_shapes"] = tr.shape_histogram(spans, window)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{workload.name}.spans.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write('{"fields": ["name", "start", "end", "parent", "op", '
                 '"shape"]}\n')
        for span in tracer.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    return (traced, untraced), metrics


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def latency_figures(phase: Phase, normalised: bool) -> tuple:
    """(ops per s, p50 ms, (tail ms, percentile, samples))."""
    ms = [t * 1e3 for t in phase.latencies(normalised)]
    return (phase.rate(normalised), statistics.median(ms),
            tr.tail_latency(ms))


def end_to_end(workload, phase: Phase, setup) -> tuple[dict, dict]:
    """End-to-end metrics and the facts behind the tail figure. The
    BENCHMARK.json metrics are at reference speed; the wall-clock figures
    under the names rounds_per_s, round_p50_ms, round_tail_ms, audit_wall_s
    and setup_wall_s are printed and recorded beside them."""
    setup_raw, setup_norm = setup
    rate, p50, (tail, pct, n) = latency_figures(phase, True)
    m = {
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "failed_frac": (phase.failed / phase.executions, "ratio"),
        "host_speed": (phase.speed.host_speed(), "ratio"),
    }
    rate, p50, (tail, _, _) = latency_figures(phase, False)
    if workload.name == "audit-suite":
        m["audit_wall_s"] = (workload.ops_per_unit / rate, "s")
    else:
        m["rounds_per_s"] = (rate, "1/s")
        m["round_p50_ms"] = (p50, "ms")
        m["round_tail_ms"] = (tail, "ms")
    m["setup_wall_s"] = (statistics.median(setup_raw), "s")
    facts = {"tail_percentile": pct, "tail_samples": n,
             "tail_beyond": tr.TAIL_BEYOND}
    return m, facts


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    _import_library()
    from workloads import WORKLOADS
    meta = run_metadata(name, seed, trace)
    setup = None if trace else measure_setup(name, seed)
    workload = WORKLOADS[name](seed)
    record = {"meta": meta}
    if trace:
        phases, metrics = traced_run(workload, seconds, record)
    else:
        phase = measure(workload, workload.inputs(), tr.NullTracer(), seconds,
                        MIN_OPS, workload.min_op_seconds)
        phases = (phase,)
        metrics, facts = end_to_end(workload, phase, setup)
        meta.update(facts)
    attempted = sum(p.executions for p in phases)
    failed = sum(p.failed for p in phases)
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record["attempted"], record["failed"] = attempted, failed
    record["failures"] = [f for p in phases for f in p.failures][:50]
    OUT_DIR.mkdir(exist_ok=True)
    suffix = ".trace" if trace else ""
    (OUT_DIR / f"BENCH_{name}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for key, (value, unit_name) in metrics.items():
        print(f"{key:34s} {value:.6g} {unit_name}")
    for line in record["failures"]:
        print("FAILED", line)
    listed = _listed_metrics("per_layer" if trace else "end_to_end")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in listed},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _listed_metrics(section: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, one after another, each in a fresh process so that
    set-up time and peak memory stay per workload."""
    _import_library()
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("grid-rounds", "byz-wide", "audit-suite",
                             "config-sweep", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
