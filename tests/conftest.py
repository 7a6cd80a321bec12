"""Shared test plumbing: the acceptance summary block, the retrieval grid,
the sweeps over the feasible Byzantine configs and the transfer boxes the
protocol builds, and the exhaustive support walk that is the oracle for the
Byzantine locator.

Acceptance tests register one line each; the hook below prints the block
after the run so the per-guarantee verdicts are visible without -s."""

import itertools

from qspir.corrector import estimate_and_check
from qspir.errors import DecodeFailure, FieldTooSmall, Infeasible
from qspir.field import FqMatrix
from qspir.nsumbox import check_sso
from qspir.plan import Model, SchemeConfig, plan_regime
from qspir.protocol import build_scheme

# every (model, regime) pair reachable with N <= 12: (model, regime, N, X,
# T, E, U, B)
RETRIEVAL_GRID = (
    ("xeutspir", 1, 8, 3, 2, 1, 1, 0),
    ("xeutspir", 2, 8, 2, 2, 1, 1, 0),
    ("xeutspir", 3, 10, 2, 2, 1, 1, 0),
    ("xeutspir", 4, 8, 1, 1, 1, 3, 0),
    ("xbeutspir-static", 1, 10, 2, 2, 0, 1, 1),
    ("xbeutspir-static", 2, 10, 2, 2, 1, 0, 1),
    ("xbeutspir-static", 3, 12, 1, 2, 0, 0, 1),
    ("xbeutspir-static", 4, 10, 1, 1, 0, 2, 1),
    ("xbeutspir-dynamic", 1, 12, 3, 3, 1, 0, 1),
    ("xbeutspir-dynamic", 2, 10, 2, 2, 1, 0, 1),
    ("xbeutspir-dynamic", 3, 12, 1, 2, 0, 0, 1),
    ("xbeutspir-dynamic", 4, 10, 1, 1, 0, 2, 1),
)

_acceptance_lines: list = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance summary")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def feasible_byzantine_configs(max_n: int, q: int = 257):
    """Every feasible configuration with at least one Byzantine server,
    N <= max_n, X, T, E <= 4, U <= 2 and B <= 3."""
    for model in (Model.XBEUTSPIR_STATIC, Model.XBEUTSPIR_DYNAMIC):
        for N in range(2, max_n + 1):
            for X, T, E, U, B in itertools.product(range(5), range(5),
                                                   range(5), range(3),
                                                   range(1, 4)):
                cfg = SchemeConfig(model=model, N=N, K=2, X=X, T=T, E=E,
                                   U=U, B=B, q=q)
                try:
                    plan = plan_regime(cfg)
                except Infeasible:
                    continue
                yield cfg, plan


def exhaustive_search_joint(views_list, zblocks):
    """Oracle for corrector.search_joint: walk every size-B support in
    lexicographic order and return the first one consistent in every
    instance, with its per-instance deltas; DecodeFailure when none is."""
    B = views_list[0].B
    for J in itertools.combinations(range(views_list[0].nv), B):
        estimates = []
        for views, z in zip(views_list, zblocks):
            est = estimate_and_check(views, z, J)
            if not est.consistent:
                break
            estimates.append(est)
        else:
            return J, [est.delta for est in estimates]
    raise DecodeFailure(f"no support of size {B} is consistent")


def scheme_boxes(max_N: int, q: int):
    """Yield (cfg, box) for the box build_scheme runs on every feasible
    quantum config with N <= max_N and X, T, E, U, B <= N, once per distinct
    (N, plan) since the box depends on nothing else. Configs whose points
    do not fit in F_q are skipped."""
    seen = set()
    for model in Model:
        for N in range(1, max_N + 1):
            for X, T, E, U, B in itertools.product(range(N + 1), repeat=5):
                if B and not model.byzantine:
                    continue
                cfg = SchemeConfig(model=model, N=N, K=2, X=X, T=T, E=E,
                                   U=U, B=B, q=q)
                try:
                    plan = plan_regime(cfg)
                except Infeasible:
                    continue
                if plan.classical or (N, plan) in seen:
                    continue
                seen.add((N, plan))
                try:
                    box = build_scheme(cfg, plan, ()).box
                except FieldTooSmall:
                    continue
                yield cfg, box


def box_defects(box) -> list:
    """Which of the box guarantees fail: G self-orthogonal, [G H] of rank
    2N, and the selector identity gprime [G H] = [0 I], i.e. the receiver
    gets exactly the second-block coefficients of every input."""
    N, q = box.N, box.q
    defects = []
    if not check_sso(box.g):
        defects.append("sso")
    if box.generator.rank() != 2 * N:
        defects.append("rank")
    selector = FqMatrix.zeros(N, N, q).hstack(FqMatrix.identity(N, q))
    if box.gprime.mul(box.generator) != selector:
        defects.append("selector")
    return defects
