"""Tests of the benchmark harness itself: the tail rule, span arithmetic,
seed -> input determinism of every workload, and exact repetition of the
traced counts.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import itertools
import math
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# tail percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n,pct,rank", [
    (11, 9.0, 1), (18, 44.0, 8), (100, 90.0, 90), (190, 94.0, 179),
    (2000, 99.0, 1980), (10000, 99.9, 9990)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, rank):
    samples = [float(v) for v in range(n, 0, -1)]   # distinct, unsorted
    value, got_pct, count = tracing.tail_latency(samples)
    assert (got_pct, value, count) == (pct, float(rank), n)
    assert sum(s > value for s in samples) >= tracing.TAIL_BEYOND
    # the next candidate percentile up leaves fewer than ten beyond it
    higher = [p / 10 for p in tracing.TAIL_PERCENTILES if p / 10 > pct]
    if higher:
        next_rank = math.ceil(min(higher) * n / 100)
        assert n - next_rank < tracing.TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    assert tracing.tail_latency([1.0] * 10) is None
    assert tracing.tail_latency([]) is None


def test_tail_with_ties_uses_nearest_rank():
    value, _, _ = tracing.tail_latency([5.0] * 30)
    assert value == 5.0


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def synthetic_spans():
    # [name, start, end, parent, op, shape]
    return [
        ["op", 0.0, 10.0, -1, 0, None],                   # 0
        ["protocol.run_round", 1.0, 9.0, 0, 0, None],     # 1
        ["codes.build_csa", 1.5, 4.0, 1, 0, None],        # 2
        ["codes.build_csa", 2.0, 3.0, 2, 0, None],        # 3 nested same name
        ["kernel.k_inv", 5.0, 8.0, 1, 0, "4x4"],          # 4
        ["kernel.k_mul", 6.0, 6.5, 4, 0, "4x4@4x1"],      # 5
        ["op", 10.0, 12.0, -1, 1, None],                  # 6
        ["kernel.k_inv", 10.5, 11.5, 6, 1, "4x4"],        # 7
    ]


def test_self_time_subtracts_direct_children_only():
    st = tracing.self_times(synthetic_spans())
    assert st == pytest.approx([2.0, 2.5, 1.5, 1.0, 2.5, 0.5, 1.0, 1.0])


def test_self_times_partition_each_root():
    spans = synthetic_spans()
    st = tracing.self_times(spans)
    for root in (0, 6):
        members = [i for i, s in enumerate(spans) if s[4] == spans[root][4]]
        assert sum(st[i] for i in members) == pytest.approx(
            spans[root][2] - spans[root][1])


def test_outermost_total_counts_nested_calls_once():
    spans = synthetic_spans()
    assert tracing.outermost_total(
        spans, lambda n: n.startswith("codes.")) == pytest.approx(2.5)
    assert tracing.outermost_total(
        spans, lambda n: n.startswith("kernel.")) == pytest.approx(4.0)


def test_coverage_counts_layers_under_containers():
    # op 0: layers 1.5..4 and 5..8 under run_round; op 1: k_inv directly
    assert tracing.coverage(synthetic_spans()) == pytest.approx(6.5 / 12.0)


def test_shape_histogram_counts_window_and_times_all():
    hist = tracing.shape_histogram(synthetic_spans(), window=1)
    assert hist["kernel.k_inv"]["4x4"] == [1, pytest.approx(4000.0)]
    assert hist["kernel.k_mul"]["4x4@4x1"] == [1, pytest.approx(500.0)]


def test_rescale_scales_each_operation_about_its_start():
    spans = tracing.rescale(synthetic_spans(), {0: 2.0, 1: 0.5}.__getitem__)
    assert spans[4][1:3] == [10.0, 16.0]     # op 0 starts at 0, k_inv 5..8
    assert spans[7][1:3] == [10.25, 10.75]   # op 1 starts at 10
    st = tracing.self_times(spans)
    assert st[:6] == pytest.approx([2 * t for t in tracing.self_times(
        synthetic_spans())[:6]])


def test_speed_factor_uses_the_samples_either_side():
    log = speed.SpeedLog()
    log.positions = [0, 2, 3]                # after 0, 2 and 3 executions
    log.seconds = [speed.REF_SECONDS, 3 * speed.REF_SECONDS,
                   speed.REF_SECONDS]
    assert log.factor(0) == pytest.approx(0.5)   # between samples 0 and 2
    assert log.factor(1) == pytest.approx(0.5)
    assert log.factor(2) == pytest.approx(0.5)   # between samples 2 and 3
    assert log.host_speed() == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_library():
    from qspir import kernel, protocol
    from qspir.field import FqMatrix
    original = protocol.build_scheme
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert protocol.build_scheme is not original
        tracer.begin_op(0)
        with tracer.span("outer"):
            FqMatrix.identity(3, 7).inv()
        tracer.end_op()
    assert protocol.build_scheme is original
    assert kernel.k_inv.__module__ == "qspir._purekernel"
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "outer", "kernel.k_inv"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[2][5] == "3x3"
    assert tracer.op_counts == [Counter({"kernel.k_inv.calls": 1})]


# ----------------------------------------------------------------------
# seed -> inputs
# ----------------------------------------------------------------------

ROUND_WORKLOADS = ("grid-rounds", "byz-wide", "config-sweep")


def first_inputs(name, seed, k=12):
    wl = workloads.WORKLOADS[name](seed)
    return list(itertools.islice(wl.inputs(), k))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_inputs(name, 5) == first_inputs(name, 5)


@pytest.mark.parametrize("name", ROUND_WORKLOADS)
def test_same_seed_same_placements(name):
    a = [workloads.placement(i) for i in first_inputs(name, 5)]
    b = [workloads.placement(i) for i in first_inputs(name, 5)]
    assert a == b


@pytest.mark.parametrize("name", ROUND_WORKLOADS)
def test_other_seed_other_placements(name):
    a = [workloads.placement(i) for i in first_inputs(name, 5)]
    b = [workloads.placement(i) for i in first_inputs(name, 6)]
    assert a != b


def test_byz_wide_liars_cover_every_stratum_per_block():
    wl = workloads.ByzWide(3)
    rank = {J: r for r, J in enumerate(wl.supports)}
    size = len(wl.supports)
    block = [i.liars for i in itertools.islice(wl.inputs(), wl.STRATA)]
    strata = sorted(rank[J] * wl.STRATA // size for J in block)
    assert strata == list(range(wl.STRATA))


def test_config_sweep_is_the_full_feasible_sweep_once():
    wl = workloads.ConfigSweep(1)
    assert len(wl.configs) == 2401
    cfgs = [i.cfg for i in wl.inputs()]
    assert len(cfgs) == len(set(cfgs)) == 2401


def test_audit_suite_expectations():
    jobs = workloads.audit_jobs()
    assert len(jobs) == 18
    assert sum(not expect for *_, expect in jobs) == 7  # 6 mutants + weak relay


# ----------------------------------------------------------------------
# traced counts repeat exactly
# ----------------------------------------------------------------------

COUNT_KEYS = ("kernel.k_inv.calls", "kernel.k_mul.calls", "kernel.k_solve.calls",
              "corrector.estimate_and_check.calls", "rng.sha256_blocks",
              "audit.states")


def traced_counts(name, seed, ops, only=None):
    wl = workloads.WORKLOADS[name](seed)
    inputs = (i for i in wl.inputs() if only is None or i.name in only)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for inp in itertools.islice(inputs, ops):
            _, failure = run.run_op(wl, inp, tracer)
            assert failure is None
    total = Counter()
    for c in tracer.op_counts:
        total.update(c)
    return {k: total[k] for k in COUNT_KEYS}


@pytest.mark.parametrize("name,ops", [("grid-rounds", 30), ("byz-wide", 3),
                                      ("config-sweep", 30)])
def test_traced_round_counts_repeat(name, ops):
    first = traced_counts(name, 9, ops)
    assert first == traced_counts(name, 9, ops)
    assert first["kernel.k_inv.calls"] > 0 and first["rng.sha256_blocks"] > 0


def test_traced_audit_counts_repeat():
    cheap = {"query-privacy", "eavesdropper", "relay-weak",
             "mask-exposure-N17"}
    first = traced_counts("audit-suite", 1, len(cheap), only=cheap)
    assert first == traced_counts("audit-suite", 1, len(cheap), only=cheap)
    assert first["audit.states"] == 1250 + 12500 + 4802
