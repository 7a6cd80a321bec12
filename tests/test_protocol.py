import itertools

import pytest
from conftest import RETRIEVAL_GRID
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qspir import protocol
from qspir.errors import DimensionMismatch, FieldTooSmall, Infeasible
from qspir.plan import Model, SchemeConfig, plan_regime
from qspir.protocol import build_scheme, expected_dits, run_round
from qspir.rng import Stream
from qspir.threats import BUILTIN_STRATEGIES, ThreatConfig


def cfg_of(model, N, X, T, E, U, B, q=257, K=2):
    return SchemeConfig(model=Model.parse(model), N=N, K=K, X=X, T=T, E=E,
                        U=U, B=B, q=q)


REGIME_CONFIGS = (
    (1, cfg_of("xeutspir", 8, 3, 2, 1, 1, 0)),
    (2, cfg_of("xeutspir", 4, 1, 1, 1, 0, 0, q=7)),
    (3, cfg_of("xeutspir", 10, 2, 2, 1, 1, 0)),
    (4, cfg_of("xeutspir", 6, 1, 1, 0, 3, 0, q=7)),
)


# ---------------------------------------------------------
# honest rounds
# ---------------------------------------------------------

def test_honest_round_decodes_in_every_regime():
    for regime, cfg in REGIME_CONFIGS:
        plan = plan_regime(cfg)
        assert plan.regime == regime
        for trial in range(3):
            tr = run_round(cfg, seed=101, trial=trial)
            assert tr.result.w_theta == expected_dits(tr.W, tr.theta)
            assert (tr.y is None) == plan.classical


def test_round_is_deterministic_in_seed_and_trial():
    cfg = REGIME_CONFIGS[0][1]
    a = run_round(cfg, seed=55, trial=3)
    b = run_round(cfg, seed=55, trial=3)
    assert a.W == b.W
    assert a.theta == b.theta
    assert a.answers.channel == b.answers.channel
    assert a.y == b.y
    assert a.result.w_theta == b.result.w_theta
    c = run_round(cfg, seed=55, trial=4)
    assert c.W != a.W


def test_theta_override_is_honored():
    cfg = REGIME_CONFIGS[0][1]
    for theta in range(cfg.K):
        tr = run_round(cfg, seed=9, trial=0, theta=theta)
        assert tr.theta == theta
        assert tr.result.w_theta == tuple(tr.W[theta])


# ---------------------------------------------------------
# adversarial rounds
# ---------------------------------------------------------

def test_every_byzantine_strategy_is_corrected():
    cfg = cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1)
    for strategy in BUILTIN_STRATEGIES:
        for trial in range(3):
            threat = ThreatConfig.make(cfg, byzantine=(4,), unresponsive=(7,),
                                       strategy=strategy)
            tr = run_round(cfg, seed=23, trial=trial, threat=threat)
            assert tr.result.w_theta == expected_dits(tr.W, tr.theta), strategy
            assert tr.result.accepted_set is not None


def test_strategies_decode_when_instance_two_has_no_payload_column():
    cfg = cfg_of("xbeutspir-static", 7, 0, 1, 0, 0, 1)
    assert plan_regime(cfg).c == (1, 0)
    for strategy in BUILTIN_STRATEGIES:
        for trial in range(3):
            threat = ThreatConfig.make(cfg, byzantine=(trial,),
                                       strategy=strategy)
            tr = run_round(cfg, seed=41, trial=trial, threat=threat)
            assert tr.result.w_theta == expected_dits(tr.W, tr.theta), strategy


def test_deviations_only_touch_byzantine_servers():
    cfg = cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1)
    threat = ThreatConfig.make(cfg, byzantine=(2,), strategy="additive-random")
    tr = run_round(cfg, seed=31, trial=0, threat=threat)
    for inst_devs in tr.answers.deviations:
        for n, d in enumerate(inst_devs):
            if n != 2:
                assert d == 0


def test_unresponsive_garbage_never_reaches_the_decoder():
    cfg = cfg_of("xeutspir", 8, 3, 2, 1, 1, 0)
    for spot in range(cfg.N):
        threat = ThreatConfig.make(cfg, unresponsive=(spot,))
        tr = run_round(cfg, seed=47, trial=spot, threat=threat)
        assert tr.result.w_theta == expected_dits(tr.W, tr.theta)
        assert tr.scheme.unresponsive == (spot,)
        # the junk really is on the wire in both instance slots
        garbage = tr.answers.unresp_garbage
        assert tr.answers.channel[spot] == garbage[0][spot]
        assert tr.answers.channel[cfg.N + spot] == garbage[1][spot]


def test_classical_regime_ignores_dropped_instance():
    cfg = cfg_of("xeutspir", 6, 1, 1, 0, 3, 0, q=7)
    plan = plan_regime(cfg)
    assert plan.classical and plan.vw == 0
    for trial in range(5):
        tr = run_round(cfg, seed=71, trial=trial)
        assert tr.result.w_theta == expected_dits(tr.W, tr.theta)


def test_dummy_symbols_do_not_corrupt_decoding():
    cfg = cfg_of("xeutspir", 4, 1, 1, 1, 0, 0, q=7)
    plan = plan_regime(cfg)
    assert plan.regime == 2 and plan.dummies > 0
    for trial in range(8):
        tr = run_round(cfg, seed=83, trial=trial)
        assert tr.result.w_theta == expected_dits(tr.W, tr.theta)


def test_random_threat_rounds_across_models():
    configs = (
        cfg_of("xeutspir", 8, 3, 2, 1, 1, 0),
        cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1),
        cfg_of("xbeutspir-dynamic", 7, 1, 1, 1, 0, 1, q=11),
        # a prime above 2**32: field elements outgrow 32-bit ints
        cfg_of("xeutspir", 4, 1, 1, 1, 0, 0, q=4294967311),
        cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1, q=4294967311),
    )
    for cfg in configs:
        for trial in range(4):
            tr = run_round(cfg, seed=97, trial=trial)
            assert tr.result.w_theta == expected_dits(tr.W, tr.theta)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(model=st.sampled_from(list(Model)), N=st.integers(1, 12),
       X=st.integers(0, 3), T=st.integers(0, 3), E=st.integers(0, 3),
       U=st.integers(0, 2), B=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_feasible_configs_decode_under_every_strategy(model, N, X, T, E, U,
                                                      B, seed):
    """Any feasible config at q = 257 returns exactly the requested dits
    under a random full-size threat placement, whatever the liars send."""
    assume(B == 0 or model.byzantine)
    cfg = SchemeConfig(model=model, N=N, K=2, X=X, T=T, E=E, U=U, B=B, q=257)
    try:
        plan_regime(cfg)
    except Infeasible:
        assume(False)
    for strategy in BUILTIN_STRATEGIES:
        threat = ThreatConfig.random(cfg, Stream(seed, "placement"),
                                     strategy=strategy)
        tr = run_round(cfg, seed, 0, threat=threat)
        assert tr.result.w_theta == expected_dits(tr.W, tr.theta)


# ---------------------------------------------------------
# the scheme cache
# ---------------------------------------------------------

def scheme_matrices(scheme) -> tuple:
    box = scheme.box
    return ((box.g, box.h, box.gprime) if box else (),
            scheme.csa_resp,
            tuple(v.cinv for v in scheme.views))


def test_cached_scheme_equals_a_fresh_build():
    for model, regime, *counts in RETRIEVAL_GRID:
        cfg = cfg_of(model, *counts)
        plan = plan_regime(cfg)
        assert plan.regime == regime
        placements = list(itertools.combinations(range(cfg.N), cfg.U))
        warm = {}
        for unresp in placements:
            warm[unresp] = build_scheme(cfg, plan, unresp)
            assert build_scheme(cfg, plan, unresp) is warm[unresp]
            assert len(warm[unresp].views) == (
                0 if plan.B == 0 else 1 if plan.classical else 2)
        protocol._cached_scheme.cache_clear()
        for unresp in placements:
            fresh = build_scheme(cfg, plan, unresp)
            assert fresh is not warm[unresp]
            assert scheme_matrices(fresh) == scheme_matrices(warm[unresp])


def test_padded_placements_share_one_scheme():
    cfg = cfg_of("xbeutspir-static", 10, 1, 1, 0, 2, 1)
    plan = plan_regime(cfg)
    padded = build_scheme(cfg, plan, (8, 9))
    assert build_scheme(cfg, plan, ()) is padded
    assert build_scheme(cfg, plan, (9,)) is padded
    assert padded.unresponsive == (8, 9)


def test_equal_configs_do_not_share_schemes():
    """Entries belong to the config object: an equal config made elsewhere
    builds its own scheme, so one caller's rounds leave another's costs and
    kernel counts as they were."""
    mine = cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1)
    theirs = cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1)
    assert mine == theirs and mine is not theirs
    plan = plan_regime(mine)
    scheme = build_scheme(mine, plan, (4,))
    assert build_scheme(mine, plan, (4,)) is scheme
    other = build_scheme(theirs, plan, (4,))
    assert other is not scheme
    assert scheme_matrices(other) == scheme_matrices(scheme)


def test_rounds_are_identical_cold_and_warm():
    cfg = cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1)
    for strategy in BUILTIN_STRATEGIES:
        threat = ThreatConfig.make(cfg, byzantine=(3,), unresponsive=(6,),
                                   strategy=strategy)
        protocol._cached_scheme.cache_clear()
        cold = run_round(cfg, seed=61, trial=0, threat=threat)
        warm = run_round(cfg, seed=61, trial=0, threat=threat)
        assert warm.scheme is cold.scheme
        assert warm.y == cold.y
        assert warm.result.w_theta == cold.result.w_theta
        assert warm.result.accepted_set == cold.result.accepted_set


def test_bad_inputs_raise_again_and_are_not_cached():
    cfg = cfg_of("xbeutspir-static", 10, 2, 2, 0, 1, 1)
    plan = plan_regime(cfg)
    small = cfg_of("xeutspir", 8, 3, 2, 1, 1, 0, q=5)
    small_plan = plan_regime(small)
    protocol._cached_scheme.cache_clear()
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            build_scheme(cfg, plan, (0, 1))
        with pytest.raises(FieldTooSmall):
            build_scheme(small, small_plan, ())
    assert protocol._cached_scheme.cache_info().currsize == 0


def test_scheme_cache_is_bounded():
    cfg = cfg_of("xeutspir", 12, 1, 1, 1, 4, 0)
    plan = plan_regime(cfg)
    assert plan.classical
    maxsize = protocol._cached_scheme.cache_info().maxsize
    placements = list(itertools.combinations(range(cfg.N), cfg.U))
    assert len(placements) > maxsize
    for unresp in placements:
        build_scheme(cfg, plan, unresp)
        assert protocol._cached_scheme.cache_info().currsize <= maxsize
