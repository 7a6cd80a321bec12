import itertools

import pytest
from conftest import exhaustive_search_joint, feasible_byzantine_configs

from qspir.codes import build_csa
from qspir.corrector import (build_views, correction_vector,
                             estimate_and_check, phi, psi,
                             search_and_correct, search_joint, syndromes)
from qspir.errors import DecodeFailure, DimensionMismatch
from qspir.field import FqMatrix
from qspir.plan import Model, SchemeConfig, plan_regime
from qspir.protocol import build_scheme, scheme_points
from qspir.rng import Stream


def views_of(cfg, plan, unresp=()):
    scheme = build_scheme(cfg, plan, unresp)
    insts = 1 if plan.classical else 2
    return scheme, [build_views(scheme.csa_resp[i], plan.c[i], plan.m[i],
                                plan.B) for i in range(insts)]


# ---------------------------------------------------------
# construction and slicing
# ---------------------------------------------------------

def test_build_views_checks_column_budget():
    cfg = SchemeConfig(model=Model.parse("xbeutspir-static"), N=8, K=2, X=1,
                       T=1, E=0, U=0, B=1, q=257)
    plan = plan_regime(cfg)
    scheme = build_scheme(cfg, plan, ())
    with pytest.raises(DimensionMismatch):
        build_views(scheme.csa_resp[0], plan.c[0] + 1, plan.m[0], plan.B)


def test_slice_shapes():
    cfg = SchemeConfig(model=Model.parse("xbeutspir-static"), N=8, K=2, X=1,
                       T=1, E=0, U=0, B=1, q=257)
    plan = plan_regime(cfg)
    _, views = views_of(cfg, plan)
    v = views[0]
    J = (2,)
    assert psi(v, J).rows == plan.B and psi(v, J).cols == 1
    assert phi(v, J).rows == plan.B


# ---------------------------------------------------------
# the estimation block is invertible for every candidate set
# ---------------------------------------------------------

def test_estimation_block_invertible_everywhere():
    for cfg, plan in feasible_byzantine_configs(8):
        for unresp in itertools.combinations(range(cfg.N), cfg.U):
            scheme, views = views_of(cfg, plan, unresp)
            nv = len(scheme.responsive)
            for v in views:
                for J in itertools.combinations(range(nv), plan.B):
                    assert psi(v, J).rank() == plan.B, (cfg, unresp, J)


# ---------------------------------------------------------
# estimation and consistency on planted deviations
# ---------------------------------------------------------

def test_estimate_recovers_planted_deviation():
    cfg = SchemeConfig(model=Model.parse("xbeutspir-static"), N=10, K=2, X=2,
                       T=2, E=0, U=1, B=1, q=257)
    plan = plan_regime(cfg)
    _, views = views_of(cfg, plan)
    v = views[0]
    J = (4,)
    delta = (123,)
    full = correction_vector(v, J, delta)
    est = estimate_and_check(v, full[v.nv - 2 * plan.B:], J)
    assert est.consistent and est.delta == delta


def test_disjoint_candidate_rejected():
    cfg = SchemeConfig(model=Model.parse("xbeutspir-static"), N=10, K=2, X=2,
                       T=2, E=0, U=1, B=1, q=257)
    plan = plan_regime(cfg)
    _, views = views_of(cfg, plan)
    v = views[0]
    full = correction_vector(v, (4,), (123,))
    est = estimate_and_check(v, full[v.nv - 2 * plan.B:], (7,))
    assert not est.consistent


def test_zero_deviation_corrects_to_zero():
    cfg = SchemeConfig(model=Model.parse("xbeutspir-static"), N=10, K=2, X=1,
                       T=1, E=0, U=0, B=2, q=257)
    plan = plan_regime(cfg)
    _, views = views_of(cfg, plan)
    z = (0,) * (2 * plan.B)
    accepted, corrections = search_and_correct(views, [z, z])
    assert all(all(c == 0 for c in corr) for corr in corrections)


def test_unexplainable_block_raises():
    cfg = SchemeConfig(model=Model.parse("xbeutspir-static"), N=8, K=2, X=1,
                       T=1, E=0, U=0, B=1, q=257)
    plan = plan_regime(cfg)
    _, views = views_of(cfg, plan)
    # independent junk in both instances is jointly unexplainable by any
    # single shared support
    with pytest.raises(DecodeFailure):
        search_joint(views, [(1, 2), (200, 3)])


def test_accepted_candidate_gives_true_correction():
    """Whatever candidate search_joint accepts, the resulting correction
    vector equals the one computed from the planted support."""
    for cfg, plan in feasible_byzantine_configs(8):
        scheme, views = views_of(cfg, plan)
        nv = len(scheme.responsive)
        st = Stream(5, f"plant/{cfg.model.value}/{cfg.N}/{cfg.X}/{cfg.T}/"
                        f"{cfg.E}/{cfg.U}/{cfg.B}")
        for rep in range(20):
            support = sorted(st.sample(nv, plan.B))
            truth, zblocks = [], []
            for v in views:
                delta = [st.randint(cfg.q) for _ in range(plan.B)]
                full = correction_vector(v, support, delta)
                truth.append(tuple(full))
                zblocks.append(full[nv - 2 * plan.B:])
            accepted, corrections = search_and_correct(views, zblocks)
            for got, want in zip(corrections, truth):
                assert tuple(got) == want, (cfg, support, accepted)


# ---------------------------------------------------------
# the syndrome locator against the exhaustive walk
# ---------------------------------------------------------

def test_cinv_tail_is_a_grs_parity_check():
    """The last 2B rows of Cinv equal R * [w_n a_n^j] (j < 2B), with
    w_n = 1 / (prod_l csa[n, l] * prod_{m != n} (a_n - a_m)) and R taken
    from the first 2B columns, and the syndrome map inverts R: it sends
    column n of those rows to [w_n a_n^j]. Every feasible config with
    N <= 10 and every erasure placement, each distinct matrix once."""
    seen = set()
    for cfg, plan in feasible_byzantine_configs(10):
        pts = scheme_points(cfg, plan)
        B2, q = 2 * plan.B, cfg.q
        for unresp in itertools.combinations(range(cfg.N), cfg.U):
            responsive = [n for n in range(cfg.N) if n not in unresp]
            for i in range(1 if plan.classical else 2):
                key = (cfg.N, pts.fs, tuple(responsive), plan.c[i],
                       plan.m[i], plan.B)
                if key in seen:
                    continue
                seen.add(key)
                csa = build_csa(len(responsive), plan.c[i],
                                pts.restrict(responsive))
                views = build_views(csa, plan.c[i], plan.m[i], plan.B)
                nv = views.nv
                tail = views.cinv.take_rows(range(nv - B2, nv))
                alphas = [pts.alphas[n] for n in responsive]
                weights = []
                for n, a in enumerate(alphas):
                    d = 1
                    for x in csa.row(n)[:plan.c[i]]:
                        d = d * x % q
                    for b in alphas[:n] + alphas[n + 1:]:
                        d = d * (a - b) % q
                    weights.append(pow(d, -1, q))
                grs = FqMatrix.from_rows(
                    [[w * pow(a, j, q) for a, w in zip(alphas, weights)]
                     for j in range(B2)], q)
                head = range(B2)
                R = tail.take_cols(head).mul(grs.take_cols(head).inv())
                assert R.mul(grs) == tail, (cfg, unresp, i)
                for n in range(nv):
                    assert (syndromes(views, tail.col(n))
                            == list(grs.col(n))), (cfg, unresp, i, n)


def _planted_blocks(views, supports, st, q):
    """Contaminated slots of random deviations on the given per-instance
    supports, each value zero with probability about 1/4."""
    blocks = []
    for v, support in zip(views, supports):
        delta = [st.randint(q) if st.randint(4) else 0 for _ in support]
        full = correction_vector(v, support, delta)
        blocks.append(full[v.nv - 2 * v.B:])
    return blocks


def test_locator_agrees_with_exhaustive_walk():
    """search_joint returns what the lexicographic walk over every size-B
    support returns, or both raise DecodeFailure: every feasible config
    with N <= 8, erasures at the highest and at the lowest indices, planted
    supports of weight 0..B+1, shared by the instances or drawn apart."""
    agreed = failed = 0
    for cfg, plan in feasible_byzantine_configs(8):
        placements = {(), tuple(range(cfg.U))}
        for unresp in sorted(placements):
            scheme, views = views_of(cfg, plan, unresp)
            nv, B = len(scheme.responsive), plan.B
            st = Stream(7, f"oracle/{cfg}/{unresp}")
            for weight, shared, rep in itertools.product(
                    range(B + 2), (True, False), range(4)):
                if weight > nv:
                    continue
                first = sorted(st.sample(nv, weight))
                supports = [first if shared or i == 0
                            else sorted(st.sample(nv, weight))
                            for i in range(len(views))]
                zblocks = _planted_blocks(views, supports, st, cfg.q)
                try:
                    want = exhaustive_search_joint(views, zblocks)
                except DecodeFailure:
                    with pytest.raises(DecodeFailure):
                        search_joint(views, zblocks)
                    failed += 1
                    continue
                got = search_joint(views, zblocks)
                assert (got[0], list(got[1])) == (want[0], list(want[1])), (
                    cfg, unresp, supports, zblocks)
                agreed += 1
    assert agreed and failed
