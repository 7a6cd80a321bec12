"""Shared test plumbing: the acceptance summary block and the sweep over
the transfer boxes the protocol builds.

Acceptance tests register one line each; the hook below prints the block
after the run so the per-guarantee verdicts are visible without -s."""

import itertools

from qspir.errors import FieldTooSmall, Infeasible
from qspir.field import FqMatrix
from qspir.nsumbox import check_sso
from qspir.plan import Model, SchemeConfig, plan_regime
from qspir.protocol import build_scheme

_acceptance_lines: list = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance summary")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


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
