import importlib.util
import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from qspir import audit as audit_mod
from qspir.audit import (DEFAULT_MUTANTS, MaskExposure, RoundFormulas,
                         StateGrid, _pack, _probe_dropped, _view_code,
                         audit_eavesdropper, audit_masking_vs_user,
                         audit_storage_security,
                         audit_symmetric_privacy, default_suite,
                         default_suite_configs, mask_exposure, round_digit_names,
                         run_audit)
from qspir.errors import (BudgetExceeded, DimensionMismatch, Infeasible)
from qspir.mi import AuditBudget
from qspir.plan import Model, SchemeConfig, plan_regime
from qspir.protocol import build_scheme, decode
from qspir import threats
from qspir.threats import BUILTIN_STRATEGIES


def cfg_of(model, N, X, T, E, U, B, q):
    return SchemeConfig(model=Model.parse(model), N=N, K=2, X=X, T=T, E=E,
                        U=U, B=B, q=q)


# ---------------------------------------------------------
# enumeration engine
# ---------------------------------------------------------

def test_state_grid_digit_extraction():
    grid = StateGrid(3, ("a", "b"))
    idx = np.arange(grid.states)
    a = grid.digit(idx, "a")
    b = grid.digit(idx, "b")
    seen = sorted(zip(a.tolist(), b.tolist()))
    assert seen == sorted((x, y) for y in range(3) for x in range(3))
    assert "a" in grid and "zzz" not in grid


def test_state_grid_chunks_cover_every_state():
    grid = StateGrid(2, ("a", "b", "c"), chunk_size=3)
    got = np.concatenate(list(grid.chunks()))
    assert got.tolist() == list(range(8))


def test_state_grid_rejects_duplicates_and_budget():
    with pytest.raises(DimensionMismatch):
        StateGrid(3, ("a", "a"))
    with pytest.raises(BudgetExceeded):
        StateGrid(5, tuple("abcdefgh"), AuditBudget(max_states=100))


def test_state_grid_puts_secret_digits_last_in_blocks():
    grid = StateGrid(3, ("s", "a", "b", "t"), secret=("t", "s"))
    assert grid.names == ("a", "b", "t", "s") and grid.block == 9
    idx = np.arange(grid.states)
    secret = grid.digit(idx, "t") + 3 * grid.digit(idx, "s")
    assert secret.tolist() == np.repeat(np.arange(9), 9).tolist()
    with pytest.raises(DimensionMismatch):
        StateGrid(3, ("a", "b"), secret=("c",))


def test_state_grid_reader_matches_digit_on_every_chunk():
    """On power-of-q chunks the reader returns shared patterns for the low
    digits and one int for the high ones; both equal the plain division."""
    grid = StateGrid(3, ("a", "b", "c", "d", "e"), chunk_size=9)
    chunks = list(grid.chunks())
    assert len(chunks) == 27
    for chunk in chunks:
        read = grid.reader(chunk)
        for name in grid.names:
            want = grid.digit(np.arange(chunk.start, chunk.stop), name)
            got = np.broadcast_to(read(name), (len(chunk),))
            assert got.tolist() == want.tolist(), (chunk, name)
        assert read("zzz") == 0
    assert isinstance(grid.reader(chunks[5])("e"), int)
    odd = StateGrid(2, ("a", "b", "c"), chunk_size=3)
    read = odd.reader(list(odd.chunks())[1])
    assert read("a").tolist() == [1, 0, 1] and read("c").tolist() == [0, 1, 1]


def test_pack_is_bijective_even_with_compaction():
    rng = np.random.default_rng(3)
    count = 200
    cols = [rng.integers(0, 5, count) for _ in range(40)]  # forces compaction
    code = _pack(cols, 5, count)
    tuples = list(zip(*(c.tolist() for c in cols)))
    for i in range(count):
        for j in range(i + 1, count):
            assert (code[i] == code[j]) == (tuples[i] == tuples[j])


def test_view_code_refuses_a_view_that_would_need_compacting():
    """A compacted code is a rank within one chunk, so the block test could
    not compare it across chunks: such a view is refused instead."""
    fits = [np.full(3, 4)] * 23            # 5^22 is below the threshold
    assert _view_code(fits, 5, 3).tolist() == [5 ** 23 - 1] * 3
    with pytest.raises(BudgetExceeded):
        _view_code(fits + [0], 5, 3)


# ---------------------------------------------------------
# the engine is the protocol: decode assembled grid states
# ---------------------------------------------------------

CROSS_CHECK_COMBOS = [
    # (model, N, X, T, E, U, B, q, strategy, byz_count)
    ("xeutspir", 3, 0, 2, 0, 0, 0, 5, "honest-zero", 0),
    ("xeutspir", 4, 0, 2, 1, 0, 0, 7, "honest-zero", 0),
    ("xeutspir", 3, 0, 1, 0, 1, 0, 5, "honest-zero", 0),
    ("xeutspir", 4, 1, 1, 0, 1, 0, 7, "honest-zero", 0),
    ("xeutspir", 6, 1, 1, 0, 3, 0, 7, "honest-zero", 0),
] + [
    ("xbeutspir-static", 6, 1, 1, 0, 0, 1, 7, s, 1)
    for s in BUILTIN_STRATEGIES
] + [
    # regime 3 with no payload column in instance 1: the relay and leak
    # strategies fall back to instance 0's first column
    ("xbeutspir-static", 7, 0, 1, 0, 0, 1, 11, s, 1)
    for s in BUILTIN_STRATEGIES
]


def test_round_formulas_agree_with_protocol_decoder():
    """Assemble random grid states, push them through the real transfer box
    and decoder, and demand the planted message dits back. This pins the
    audit formulas to the protocol they claim to describe, across regimes,
    Byzantine strategies and erasure slots."""
    reps = 40
    regimes = set()
    for combo in CROSS_CHECK_COMBOS:
        model, N, X, T, E, U, B, q, strategy, byz_count = combo
        cfg = cfg_of(model, N, X, T, E, U, B, q)
        plan = plan_regime(cfg)
        regimes.add(plan.regime)
        scheme = build_scheme(cfg, plan, ())
        byz = tuple(scheme.responsive[:byz_count])
        names, _ = round_digit_names(cfg, plan, scheme, strategy=strategy,
                                     byzantine=byz, drop_masked=False)
        grid = StateGrid(q, names, AuditBudget(max_states=q ** len(names)))
        # Python-int state indices: the widest grid here exceeds int64
        pick = random.Random(99)
        idx = np.array([pick.randrange(grid.states) for _ in range(reps)],
                       dtype=object)
        rng = np.random.default_rng(99)
        for theta in range(cfg.K):
            fm = RoundFormulas(scheme, theta, byzantine=byz,
                               strategy=strategy).bind(grid, idx)
            if plan.classical:
                tx = [np.broadcast_to(fm.transmitted(0, n), (reps,))
                      for n in scheme.responsive]
                channels = [[int(t[s]) for t in tx] for s in range(reps)]
                outputs = channels
            else:
                ch = {}
                for i in (0, 1):
                    scale = scheme.u if i == 0 else scheme.v
                    for n in scheme.responsive:
                        ch[i * N + n] = np.broadcast_to(
                            scale[n] * fm.transmitted(i, n) % q, (reps,))
                outputs = []
                for s in range(reps):
                    vec = [int(ch[p][s]) if p in ch
                           else int(rng.integers(0, q))  # erasure garbage
                           for p in range(2 * N)]
                    outputs.append(scheme.box.apply(vec))
            for s in range(reps):
                res = decode(scheme, outputs[s])
                want = tuple(int(grid.digit(idx, ("w", theta, d))[s])
                             for d in range(plan.L1 + plan.L2))
                assert res.w_theta == want, (combo, theta, s)
    assert regimes == {1, 2, 3, 4}


def test_erasure_columns_vanish_from_measured_rows():
    """Generator coefficients of the unresponsive-server directions are zero
    in every measured row, so garbage dits cannot reach any audit view."""
    cfg = cfg_of("xeutspir", 7, 1, 3, 0, 1, 0, 11)
    plan = plan_regime(cfg)
    assert not plan.classical and cfg.U == 1
    scheme = build_scheme(cfg, plan, (4,))
    gp = scheme.box.gprime
    measured = plan.vw + 4 * plan.B
    for row in range(measured):
        for i in (0, 1):
            for n in scheme.unresponsive:
                assert gp[(row, i * cfg.N + n)] == 0
    # and the erasure rows themselves are where the garbage lands
    assert any(gp[(row, i * cfg.N + n)] != 0
               for row in range(measured, cfg.N)
               for i in (0, 1) for n in scheme.unresponsive)


def test_probe_catches_a_coordinate_that_is_not_dropped():
    cfg = cfg_of("xeutspir", 3, 0, 2, 0, 0, 0, 5)
    plan = plan_regime(cfg)
    scheme = build_scheme(cfg, plan, ())
    # instance 1 keeps masking degree 2 (drop is 1 of 2): probing it as if
    # dropped must be refused, probing the real dropped list must pass
    assert plan.drop[1] < plan.m[1]
    with pytest.raises(DimensionMismatch):
        _probe_dropped(scheme, 0, [("zp", 1, plan.m[1])], (), "honest-zero",
                       None)
    _, dropped = round_digit_names(cfg, plan, scheme)
    _probe_dropped(scheme, 0, dropped, (), "honest-zero", None)


# ---------------------------------------------------------
# the six lemmas at micro scale, and their mutants
# ---------------------------------------------------------

def test_default_suite_all_pass():
    reports = default_suite()
    assert [r.name for r in reports] == list(default_suite_configs())
    for r in reports:
        assert r.passed, (r.name, r.details)
        assert r.mode == "enumeration"


def test_each_documented_mutant_fails_its_lemma():
    configs = default_suite_configs()
    for lemma, mutation in DEFAULT_MUTANTS.items():
        rep = run_audit(lemma, configs[lemma], mutation=mutation)
        assert not rep.passed, (lemma, mutation, rep.details)


def test_broken_flag_flips_exactly_one_lemma():
    reports = default_suite(broken=("storage-security",))
    by_name = {r.name: r.passed for r in reports}
    assert not by_name.pop("storage-security")
    assert all(by_name.values())


def test_trivial_threat_classes_pass_without_enumeration():
    no_x = cfg_of("xeutspir", 3, 0, 1, 0, 0, 0, 5)
    rep = audit_storage_security(no_x)
    assert (rep.passed, rep.mode, rep.states) == (True, "n/a", 0)
    no_eaves = cfg_of("xeutspir", 3, 0, 1, 0, 0, 0, 5)
    rep = audit_eavesdropper(no_eaves)
    assert (rep.passed, rep.mode, rep.states) == (True, "n/a", 0)


def test_run_audit_rejects_unknown_lemma():
    with pytest.raises(DimensionMismatch):
        run_audit("tempest", cfg_of("xeutspir", 3, 0, 1, 0, 0, 0, 5))


# ---------------------------------------------------------
# masking exposure bookkeeping
# ---------------------------------------------------------

def test_exposure_arithmetic():
    exp = mask_exposure((9, 9), (9, 8), 2, None)
    assert exp == MaskExposure(l1=(), l2=(9,), h1=(1, 2), h2=(1, 2),
                               gamma1=9, gamma2=8)


def test_user_masking_worked_example_large():
    cfg = cfg_of("xbeutspir-static", 17, 5, 4, 0, 0, 2, 257)
    rep = audit_masking_vs_user(cfg)
    assert rep.passed and rep.mode == "rank-certificate"
    assert rep.exposure.l1 == ()
    assert rep.exposure.l2 == (9,)
    assert rep.exposure.h1 == (1, 2)
    assert rep.exposure.h2 == (1, 2)


def test_mask_audits_run_on_rate_infeasible_shapes():
    cfg = default_suite_configs()["masking-vs-user"]
    with pytest.raises(Infeasible):
        plan_regime(cfg)  # no positive payload at this size
    rep = audit_masking_vs_user(cfg)
    assert rep.passed and rep.mode == "enumeration"
    assert rep.exposure == MaskExposure(l1=(), l2=(3,), h1=(1,), h2=(1,),
                                        gamma1=3, gamma2=2)


def test_user_masking_refuses_classical_byzantine():
    cfg = cfg_of("xbeutspir-static", 6, 1, 0, 0, 1, 1, 7)
    assert plan_regime(cfg).classical
    rep = audit_masking_vs_user(cfg)
    assert (rep.passed, rep.mode, rep.states) == (True, "n/a", 0)
    assert "symmetric-privacy" in rep.details


def test_user_masking_trivial_without_byzantine():
    cfg = cfg_of("xeutspir", 6, 1, 1, 0, 3, 0, 7)
    rep = audit_masking_vs_user(cfg)
    assert (rep.passed, rep.mode, rep.states) == (True, "n/a", 0)
    assert rep.exposure is not None


# ---------------------------------------------------------
# eavesdropper: relay attack under two noise sizings
# ---------------------------------------------------------

def test_relay_through_tapped_link_leaks_when_noise_ignores_byzantine():
    cfg = cfg_of("xeutspir", 4, 1, 1, 1, 0, 0, 7)
    rep = audit_eavesdropper(cfg, eaves_up=(0,), eaves_down=(3,),
                             strategy="query-relay", byzantine=(3,))
    assert not rep.passed
    assert "leak" in rep.details


def test_relay_through_tapped_link_safe_when_noise_covers_byzantine():
    cfg = cfg_of("xbeutspir-dynamic", 7, 1, 1, 1, 0, 1, 11)
    rep = audit_eavesdropper(cfg, eaves_up=(0,), eaves_down=(6,),
                             strategy="query-relay", byzantine=(6,))
    assert rep.passed and rep.states > 0


def test_downlink_view_keeps_the_masking_coefficients_the_box_drops():
    """Tapped downlink dits are taken before the transfer box, so every
    masking coefficient masks them, the dropped ones included; leaving
    those off the grid read as a leak."""
    cfg = cfg_of("xeutspir", 2, 0, 1, 1, 0, 0, 5)
    plan = plan_regime(cfg)
    _, dropped = round_digit_names(cfg, plan, build_scheme(cfg, plan, ()))
    assert dropped
    rep = audit_eavesdropper(cfg)
    assert rep.passed and rep.states == 1562500, rep.details


# ---------------------------------------------------------
# registered strategies run under audit
# ---------------------------------------------------------

def test_registered_strategy_runs_under_symmetric_privacy(monkeypatch):
    """A strategy the audit has never heard of is evaluated through the
    registry on grid arrays: here a nonlinear function of the coalition's
    storage, query and masking share replaces its answer."""
    monkeypatch.setattr(threats, "STRATEGIES", dict(threats.STRATEGIES))

    def product(ctx):
        return {n: tuple(ctx.storage[n][i][0][0] * ctx.queries[n][i][0][0]
                         + ctx.zhat[n][i] - ctx.honest[n][i]
                         for i in range(ctx.instances))
                for n in ctx.servers}

    def greedy(ctx):
        return {n: (ctx.stream.randint(ctx.q) + ctx.stream.randint(ctx.q),)
                for n in ctx.servers}

    threats.register_strategy("test-product", product)
    threats.register_strategy("test-greedy", greedy)
    cfg = cfg_of("xbeutspir-static", 6, 1, 0, 0, 1, 1, 7)
    rep = audit_symmetric_privacy(cfg, strategy="test-product")
    base = audit_symmetric_privacy(cfg, strategy="honest-zero")
    assert rep.passed, rep.details
    assert rep.states == base.states > 0  # deterministic: no extra digits
    rnd = audit_symmetric_privacy(cfg, strategy="additive-random")
    assert rnd.passed and rnd.states == base.states * cfg.q
    # one classical instance: two draws exceed one digit per server
    with pytest.raises(DimensionMismatch):
        audit_symmetric_privacy(cfg, strategy="test-greedy")


# ---------------------------------------------------------
# budget handling
# ---------------------------------------------------------

def test_budget_exceeded_propagates_by_default():
    cfg = default_suite_configs()["symmetric-privacy"]
    with pytest.raises(BudgetExceeded):
        audit_symmetric_privacy(cfg, budget=AuditBudget(max_states=10))


# ---------------------------------------------------------
# every benchmark audit's report, pinned
# ---------------------------------------------------------

def _benchmark_audit_jobs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.audit_jobs()


PAIRS4 = list(itertools.combinations(range(4), 2))
SYMMETRIC = ("unrequested messages independent of the receiver view for "
             "strategies %s over %d states")
PINNED_REPORTS = {
    "storage-security": (True, "enumeration", 15625,
        "independent of every 2-server view over 15625 states"),
    "query-privacy": (True, "enumeration", 1250,
        "index hidden from every 2-server view over 1250 states"),
    "masking-vs-byzantine": (True, "enumeration", 343,
        "shares uniform and independent of Z' for every coalition over 343 "
        "states"),
    "masking-vs-user": (True, "enumeration", 390625,
        "surviving masks independent of the receiver view over 390625 states"),
    "symmetric-privacy": (True, "enumeration", 3906250,
        SYMMETRIC % ("honest-zero", 3906250)),
    "eavesdropper": (True, "enumeration", 12500,
        "view independent of (theta, messages): static:ok; dynamic:ok over "
        "12500 states"),
    "symmetric-xeutspir-N6": (True, "enumeration", 11529602,
        SYMMETRIC % ("honest-zero", 11529602)),
    "symmetric-static-N6": (True, "enumeration", 2588278,
        SYMMETRIC % (",".join(BUILTIN_STRATEGIES), 2588278)),
    "eavesdropper-dynamic-N7": (True, "enumeration", 29282,
        "view independent of (theta, messages): dynamic relay:ok over 29282 "
        "states"),
    "mutant-storage-security": (False, "enumeration", 15625,
        "leak at coalitions %s" % [(c, 2.000000000000001) for c in PAIRS4]),
    "mutant-query-privacy": (False, "enumeration", 1250,
        "leak at coalitions %s" % [(c, 0.43067655807339333) for c in PAIRS4]),
    "mutant-masking-vs-byzantine": (False, "enumeration", 343,
        "violations: %s" % [(2, (n,), 0.9999999999999998, True)
                            for n in range(6)]),
    "mutant-masking-vs-user": (False, "enumeration", 390625,
        "leak at coalitions %s" % [((n,), 2.0) for n in range(5)]),
    "mutant-symmetric-privacy": (False, "enumeration", 781250,
        "leak at (strategy, theta, bits): [('honest-zero', 0, 0.8), "
        "('honest-zero', 1, 0.8)]"),
    "mutant-eavesdropper": (False, "enumeration", 2500,
        "leak at (placement, strategy, bits): [('static', 'honest-zero', "
        "0.96), ('dynamic', 'honest-zero', 0.981)]"),
    "relay-weak": (False, "enumeration", 4802,
        "leak at (placement, strategy, bits): [('dynamic', 'relay', 0.3562)]"),
    "relay-strong": (True, "enumeration", 29282,
        "view independent of (theta, messages): dynamic relay:ok over 29282 "
        "states"),
    "mask-exposure-N17": (True, "rank-certificate", 0,
        "one-time-pad certificate holds for every coalition"),
}


def test_benchmark_audit_reports_are_pinned():
    """Verdict, route, state count and details of all 18 benchmark audits,
    the six documented mutants among them, as the joint-table test gave
    them before the block test replaced it; leak sizes come from mi_exact
    and must not move by one bit."""
    jobs = _benchmark_audit_jobs()
    assert [job[0] for job in jobs] == list(PINNED_REPORTS)
    for name, func, args, kwargs, _ in jobs:
        report = getattr(audit_mod, func)(*args, **kwargs)
        got = (report.passed, report.mode, report.states, report.details)
        assert got == PINNED_REPORTS[name], name
