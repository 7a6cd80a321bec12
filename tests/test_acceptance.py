"""End-to-end acceptance checks, one per shipped guarantee.

Each test records exactly one pass/fail line (shown in the terminal
summary after the run) and asserts the guarantee at its stated
tolerance — exact equality unless noted."""

import itertools
import re
import time
from fractions import Fraction

from conftest import (RETRIEVAL_GRID, box_defects, feasible_byzantine_configs,
                      record_acceptance, scheme_boxes)

from qspir.audit import (DEFAULT_MUTANTS, audit_eavesdropper,
                         audit_masking_vs_user, audit_symmetric_privacy,
                         default_suite, default_suite_configs, run_audit)
from qspir.corrector import (build_views, correction_vector, psi,
                             search_and_correct)
from qspir.field import FqMatrix
from qspir.plan import Model, SchemeConfig, plan_regime
from qspir.protocol import build_scheme, expected_dits, run_round
from qspir.rates import theorem_rate
from qspir.rng import Stream
from qspir.threats import BUILTIN_STRATEGIES, ThreatConfig


def report(name: str, ok: bool, detail: str) -> None:
    line = "%-24s %s  %s" % (name, "pass" if ok else "FAIL", detail)
    print(line)
    record_acceptance(line)


def cfg_of(model, N, X, T, E, U, B, q=257):
    return SchemeConfig(model=Model.parse(model), N=N, K=2, X=X, T=T, E=E,
                        U=U, B=B, q=q)


TRIALS = 200


def test_exact_retrieval_every_regime():
    """200 randomized-threat trials per reachable (model, regime), every
    built-in Byzantine strategy: zero decode failures, exact dit equality."""
    t0 = time.perf_counter()
    rounds = 0
    failures = 0
    for ci, (model, regime, N, X, T, E, U, B) in enumerate(RETRIEVAL_GRID):
        cfg = cfg_of(model, N, X, T, E, U, B)
        plan = plan_regime(cfg)
        assert plan.regime == regime
        tags = BUILTIN_STRATEGIES if B else ("honest-zero",)
        for si, tag in enumerate(tags):
            seed = 1000 * ci + si
            for trial in range(TRIALS):
                threat = ThreatConfig.random(
                    cfg, Stream(seed, f"t{trial}/placement"), strategy=tag)
                tr = run_round(cfg, seed, trial, threat=threat)
                rounds += 1
                failures += tr.result.w_theta != expected_dits(tr.W, tr.theta)
    wall = time.perf_counter() - t0
    ok = failures == 0 and wall < 120.0
    report("retrieval", ok,
           f"{len(RETRIEVAL_GRID)} configs, {rounds} rounds, "
           f"{failures} failures, {wall:.1f}s (budget 120s)")
    assert ok


def test_rate_formula_reproduction():
    """Measured structural rate equals the closed-form rational for every
    retrieval-grid config, plus the two pinned anchor points."""
    bad = []
    for model, regime, N, X, T, E, U, B in RETRIEVAL_GRID:
        cfg = cfg_of(model, N, X, T, E, U, B)
        tr = run_round(cfg, seed=77, trial=0)
        measured = Fraction(len(tr.result.w_theta), cfg.N)
        if measured != theorem_rate(cfg).rate:
            bad.append((model, N, measured))
    anchor1 = theorem_rate(cfg_of("xeutspir", 8, 3, 2, 1, 1, 0)).rate
    anchor2 = theorem_rate(cfg_of("xbeutspir-static", 17, 5, 4, 0, 0, 2)).rate
    tr17 = run_round(cfg_of("xbeutspir-static", 17, 5, 4, 0, 0, 2),
                     seed=17, trial=0)
    ok = (not bad and anchor1 == Fraction(1, 2)
          and anchor2 == Fraction(4, 17)
          and len(tr17.result.w_theta) == 4
          and tr17.result.w_theta == expected_dits(tr17.W, tr17.theta))
    report("rate-formula", ok,
           f"{len(RETRIEVAL_GRID)} configs exact; anchors {anchor1} and "
           f"{anchor2}" + ("" if ok else f"; mismatches {bad}"))
    assert ok


def test_mask_exposure_worked_example():
    """The 17-server, 2-Byzantine layout exposes interference-mask position
    9 of instance 2 only, plus both extra masks in each instance."""
    rep = audit_masking_vs_user(cfg_of("xbeutspir-static", 17, 5, 4, 0, 0, 2))
    e = rep.exposure
    ok = (rep.passed and e.l1 == () and e.l2 == (9,)
          and e.h1 == (1, 2) and e.h2 == (1, 2))
    report("mask-exposure-17", ok,
           f"L1={set(e.l1) or '{}'} L2={set(e.l2)} H1={set(e.h1)} "
           f"H2={set(e.h2)} ({rep.mode})")
    assert ok


def test_estimation_block_invertibility_sweep():
    """psi(J) invertible for every candidate support J of every feasible
    configuration with N <= 10, U <= 2, B <= 3, every erasure placement."""
    t0 = time.perf_counter()
    configs = 0
    checks = 0
    singular = 0
    for cfg, plan in feasible_byzantine_configs(10):
        configs += 1
        for unresp in itertools.combinations(range(cfg.N), cfg.U):
            scheme = build_scheme(cfg, plan, unresp)
            nv = len(scheme.responsive)
            for i in range(1 if plan.classical else 2):
                views = build_views(scheme.csa_resp[i], plan.c[i],
                                    plan.m[i], plan.B)
                for J in itertools.combinations(range(nv), plan.B):
                    checks += 1
                    singular += psi(views, J).rank() != plan.B
    wall = time.perf_counter() - t0
    ok = singular == 0 and wall < 30.0
    report("estimator-invertibility", ok,
           f"{configs} configs, {checks} candidate blocks, {singular} "
           f"singular, {wall:.1f}s (budget 30s)")
    assert ok


def test_correction_consistency_sweep():
    """100 planted deviation patterns per feasible Byzantine config: every
    accepted candidate reproduces the true-support correction exactly."""
    t0 = time.perf_counter()
    plants = 0
    mismatches = 0
    for cfg, plan in feasible_byzantine_configs(10):
        scheme = build_scheme(cfg, plan, ())
        nv = len(scheme.responsive)
        insts = 1 if plan.classical else 2
        views = [build_views(scheme.csa_resp[i], plan.c[i], plan.m[i],
                             plan.B) for i in range(insts)]
        st = Stream(5, f"plant/{cfg.model.value}/{cfg.N}/{cfg.X}/{cfg.T}/"
                       f"{cfg.E}/{cfg.U}/{cfg.B}")
        for rep in range(100):
            support = sorted(st.sample(nv, plan.B))
            truth, zblocks = [], []
            for v in views:
                delta = [st.randint(cfg.q) for _ in range(plan.B)]
                full = correction_vector(v, support, delta)
                truth.append(tuple(full))
                zblocks.append(full[nv - 2 * plan.B:])
            accepted, corrections = search_and_correct(views, zblocks)
            plants += 1
            for got, want in zip(corrections, truth):
                mismatches += tuple(got) != want
    wall = time.perf_counter() - t0
    ok = mismatches == 0
    report("correction-consistency", ok,
           f"{plants} planted deviations, {mismatches} mismatches, "
           f"{wall:.1f}s")
    assert ok


def test_transfer_matrix_feasibility():
    """Every box the protocol builds: self-orthogonal dropped block,
    full-rank 2N generator stack and the selector identity, on the
    retrieval grid and on every feasible quantum config with N <= 8 at
    q = 13."""
    schemes = 0
    bad = 0
    for model, regime, N, X, T, E, U, B in RETRIEVAL_GRID:
        cfg = cfg_of(model, N, X, T, E, U, B)
        plan = plan_regime(cfg)
        if plan.classical:
            continue
        schemes += 1
        bad += bool(box_defects(build_scheme(cfg, plan, ()).box))
    sweep = 0
    sweep_bad = 0
    for _, box in scheme_boxes(8, 13):
        sweep += 1
        sweep_bad += bool(box_defects(box))
    ok = bad == 0 and sweep_bad == 0
    report("transfer-feasibility", ok,
           f"{schemes} grid boxes, {sweep} boxes with N <= 8 at q = 13; "
           f"{bad + sweep_bad} violate SSO, rank 2N or the selector identity")
    assert ok


def test_security_lemma_suite():
    """Six executable security lemmas, exact and exhaustive at micro scale,
    plus the extra symmetric/eavesdropper configurations; each lemma's
    documented mutant must fail."""
    t0 = time.perf_counter()
    reports = default_suite()
    lemma_fail = [r.name for r in reports if not r.passed]
    extra = []
    extra.append(audit_symmetric_privacy(
        cfg_of("xeutspir", 6, 1, 1, 0, 3, 0, q=7)))
    extra.append(audit_symmetric_privacy(
        cfg_of("xbeutspir-static", 6, 1, 0, 0, 1, 1, q=7)))
    extra.append(audit_eavesdropper(
        cfg_of("xbeutspir-dynamic", 7, 1, 1, 1, 0, 1, q=11),
        eaves_up=(0,), eaves_down=(6,), strategy="query-relay",
        byzantine=(6,)))
    extra_fail = [r.name for r in extra if not r.passed]
    configs = default_suite_configs()
    mutant_ok = []
    for lemma, mutation in DEFAULT_MUTANTS.items():
        rep = run_audit(lemma, configs[lemma], mutation=mutation)
        if rep.passed:
            mutant_ok.append(lemma)
    wall = time.perf_counter() - t0
    states = sum(r.states for r in reports + extra)
    ok = not lemma_fail and not extra_fail and not mutant_ok and wall < 300.0
    report("security-suite", ok,
           f"{len(reports) + len(extra)} audits over {states} states, "
           f"{len(DEFAULT_MUTANTS)} mutants all failing, {wall:.1f}s "
           f"(budget 300s)" if ok else
           f"lemmas failing {lemma_fail + extra_fail}, mutants passing "
           f"{mutant_ok}, {wall:.1f}s")
    assert ok


def test_relay_attack_demonstration():
    """A Byzantine server re-transmitting query symbols over a tapped
    downlink: leaks when the query-noise order ignores Byzantine count,
    exactly private when it covers it."""
    weak = audit_eavesdropper(
        cfg_of("xeutspir", 4, 1, 1, 1, 0, 0, q=7),
        eaves_up=(0,), eaves_down=(3,), strategy="query-relay",
        byzantine=(3,))
    strong = audit_eavesdropper(
        cfg_of("xbeutspir-dynamic", 7, 1, 1, 1, 0, 1, q=11),
        eaves_up=(0,), eaves_down=(6,), strategy="query-relay",
        byzantine=(6,))
    leak = re.search(r"\d+\.\d+", weak.details)
    ok = (not weak.passed) and strong.passed
    report("relay-attack-pair", ok,
           f"undersized noise leaks {leak.group() if leak else '?'} q-its "
           f"over {weak.states} states; covering noise exact over "
           f"{strong.states} states")
    assert ok
