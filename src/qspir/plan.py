"""Scheme configuration and per-regime layout planning.

Given threat parameters (N, K, X, T, E, U, B, q) and a threat model, the
planner picks the operating regime and derives every layout dimension the
protocol needs: per-instance payload widths, masked-interference degrees,
dropped-over-the-air counts, query noise orders, dummy-column counts and
the payload + kept width vw the decoder reads off the box. The derived
quantities satisfy the bookkeeping identities (payload + mask + 3B = N - U
per instance; dropped counts sum to N; vw + 4B + 2U = N) which the
constructor asserts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import Infeasible
from .field import is_prime


class Model(enum.Enum):
    """Threat model: which adversaries the scheme is sized against."""

    XEUTSPIR = "xeutspir"                    # no Byzantine servers
    XBEUTSPIR_STATIC = "xbeutspir-static"    # Byzantine + same-link eavesdropper
    XBEUTSPIR_DYNAMIC = "xbeutspir-dynamic"  # Byzantine + link-hopping eavesdropper

    @staticmethod
    def parse(s: "str | Model") -> "Model":
        if isinstance(s, Model):
            return s
        key = s.strip().lower()
        for m in Model:
            if m.value == key:
                return m
        raise ValueError(f"unknown model {s!r}; choose from "
                         f"{[m.value for m in Model]}")

    @property
    def byzantine(self) -> bool:
        return self is not Model.XEUTSPIR

    @property
    def dynamic_eaves(self) -> bool:
        return self is Model.XBEUTSPIR_DYNAMIC


@dataclass(frozen=True)
class SchemeConfig:
    """All protocol parameters. M and H are derived, never stored."""

    model: Model
    N: int
    K: int
    X: int
    T: int
    E: int
    U: int
    B: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "model", Model.parse(self.model))
        if self.N < 1 or self.K < 1:
            raise ValueError("need N >= 1 and K >= 1")
        if min(self.X, self.T, self.E, self.U, self.B) < 0:
            raise ValueError("threat counts must be nonnegative")
        if self.B > 0 and not self.model.byzantine:
            raise ValueError("model xeutspir does not admit Byzantine servers")
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} is not prime")

    @property
    def M(self) -> int:
        """Query/interference noise order the scheme is sized for."""
        if self.model.dynamic_eaves:
            return max(self.E + self.B, self.T)
        return max(self.E, self.T)

    @property
    def H(self) -> int:
        """Storage noise order."""
        if self.model.byzantine:
            return max(self.X, self.B)
        return self.X


@dataclass(frozen=True)
class RegimePlan:
    """Complete layout of one scheme run.

    Instance fields are pairs indexed 0/1; regime 4 is classical and uses
    instance 0 only. c = payload columns (dummies + message dits), m =
    masked interference degrees, t = query noise order, drop = coefficients
    lost over the air, k = masked coefficients the user still receives,
    vw = payload + kept width: the first vw box outputs, which the decoder
    reads as the payload and kept-mask coordinates.
    """

    regime: int
    N: int
    U: int
    B: int
    L1: int
    L2: int
    delta: int
    dummies: int            # dummy payload columns, always in instance 0
    c: tuple[int, int]
    m: tuple[int, int]
    t: tuple[int, int]
    drop: tuple[int, int]
    k: tuple[int, int]
    vw: int
    classical: bool
    shared_queries: bool
    boundary: bool = False

    def __post_init__(self):
        for i in self.instances:
            if self.c[i] + self.m[i] + 3 * self.B != self.N - self.U:
                raise Infeasible(
                    f"instance {i}: payload {self.c[i]} + mask {self.m[i]} + "
                    f"3B {3 * self.B} != N-U {self.N - self.U}"
                )
            if self.k[i] < 0:
                raise Infeasible(f"instance {i}: negative kept-mask count")
        if not self.classical:
            if self.drop[0] + self.drop[1] != self.N:
                raise Infeasible("dropped counts must sum to N")
            if self.vw + 4 * self.B + 2 * self.U != self.N:
                raise Infeasible("payload + kept width vw + 4B + 2U must equal N")

    @property
    def instances(self) -> tuple[int, ...]:
        """Indices of the instances that run: (0,) in the classical regime,
        else (0, 1)."""
        return (0,) if self.classical else (0, 1)

    @property
    def query_sets(self) -> int:
        """Distinct query sets sent: 1 when the instances share queries
        (always in the classical regime), else 2."""
        return 1 if self.shared_queries else 2

    @property
    def message_slices(self) -> tuple[range, range]:
        """Which W dit-columns each instance carries."""
        return range(0, self.L1), range(self.L1, self.L1 + self.L2)


def rate_of(plan: RegimePlan) -> Fraction:
    """Structural rate: retrieved message dits per channel use of N servers."""
    return Fraction(plan.L1 + plan.L2, plan.N)


def _regime_candidates(cfg: SchemeConfig):
    """Yield (regime, plan, tie) for each case whose entry conditions hold.

    tie marks plans admitted only because the strict inequality separating
    cases 3 and 4 is an equality.

    Case 3 needs no check that its instance-0 noise order t1 = floor(N/2) - H
    covers T and M: the branch has 2 (H + M + B) < N, so H + M <= floor(N/2)
    and t1 >= M >= T, because M = max(..., T).
    """
    N, U, B, E = cfg.N, cfg.U, cfg.B, cfg.E
    H, M = cfg.H, cfg.M
    hmb = H + M + B
    mu, nu = N // 2, (N + 1) // 2
    delta = N + E - 2 * H - 2 * M - 2 * B

    if 2 * hmb >= N:
        if E <= 2 * hmb - N:
            # case 1: full-width alignment, no dummies
            L = N - H - M - 3 * B - U
            if N - U > hmb and L >= 1:
                yield 1, _quantum_plan(
                    cfg, regime=1, L1=L, L2=L, delta=0, dummies=0,
                    c=(L, L), m=(H + M, H + M), t=(M, M), drop=(nu, mu),
                ), False
        else:
            # case 2: delta dummy columns pad instance 0
            L1 = N - H - M - 3 * B - U - delta
            L2 = L1 + delta
            if 2 * (N - U) - delta > 2 * hmb and L1 >= 0 and L1 + L2 >= 1:
                yield 2, _quantum_plan(
                    cfg, regime=2, L1=L1, L2=L2, delta=delta, dummies=delta,
                    c=(L2, L2), m=(H + M, H + M), t=(M, M), drop=(nu, mu),
                ), False
    else:
        split = 2 * B + U + E  # vs hmb: strict < is case 3, strict > case 4
        if split <= hmb and N > 6 * B + 2 * U + E:
            # case 3: asymmetric instances, E dummy columns in instance 0
            L1 = nu - 3 * B - U - E
            L2 = mu - 3 * B - U
            t1, t2 = mu - H, nu - H
            if L1 >= 0 and L2 >= 0 and L1 + L2 >= 1:
                yield 3, _quantum_plan(
                    cfg, regime=3, L1=L1, L2=L2, delta=0, dummies=E,
                    c=(E + L1, L2), m=(H + t1, H + t2), t=(t1, t2),
                    drop=(H + t1, H + t2),
                ), split == hmb
        if split >= hmb:
            # case 4: single classical instance
            extra = 2 * M if cfg.model.dynamic_eaves else M
            L = N - H - M - 3 * B - U
            if N > H + 3 * B + U + extra and L >= 1:
                plan = RegimePlan(
                    regime=4, N=N, U=U, B=B, L1=L, L2=0, delta=0, dummies=0,
                    c=(L, 0), m=(H + M, 0), t=(M, 0), drop=(0, 0), k=(0, 0),
                    vw=0, classical=True, shared_queries=True,
                    boundary=(split == hmb),
                )
                yield 4, plan, split == hmb


def _quantum_plan(cfg, *, regime, L1, L2, delta, dummies, c, m, t, drop,
                  boundary=False) -> RegimePlan:
    B, U, N = cfg.B, cfg.U, cfg.N
    k = (m[0] + B - drop[0], m[1] + B - drop[1])
    vw = c[0] + c[1] + k[0] + k[1]
    shared = c[0] == c[1] and t[0] == t[1]
    return RegimePlan(
        regime=regime, N=N, U=U, B=B, L1=L1, L2=L2, delta=delta,
        dummies=dummies, c=c, m=m, t=t, drop=drop, k=k, vw=vw,
        classical=False, shared_queries=shared, boundary=boundary,
    )


def plan_regime(cfg: SchemeConfig) -> RegimePlan:
    """Select the operating regime and return its layout.

    When the strict case-3/case-4 separator holds with equality, both plans
    are built and the one with the larger rate wins, flagged as boundary.
    """
    candidates = [(regime, plan, tie) for regime, plan, tie in _regime_candidates(cfg)]
    if not candidates:
        raise Infeasible(_infeasible_reason(cfg))
    if len(candidates) == 1:
        regime, plan, tie = candidates[0]
        if tie and not plan.boundary:
            plan = _flag_boundary(plan)
        return plan
    # only the case-3/4 tie can produce two candidates
    best = max(candidates, key=lambda c: (rate_of(c[1]), -c[0]))
    return _flag_boundary(best[1])


def _flag_boundary(plan: RegimePlan) -> RegimePlan:
    if plan.boundary:
        return plan
    return RegimePlan(**{**_plan_dict(plan), "boundary": True})


def _plan_dict(plan: RegimePlan) -> dict:
    return {
        f: getattr(plan, f) for f in (
            "regime", "N", "U", "B", "L1", "L2", "delta", "dummies", "c", "m",
            "t", "drop", "k", "vw", "classical", "shared_queries", "boundary",
        )
    }


def _infeasible_reason(cfg: SchemeConfig) -> str:
    N, U, B = cfg.N, cfg.U, cfg.B
    H, M = cfg.H, cfg.M
    hmb = H + M + B
    if 2 * hmb >= N:
        if N - U <= hmb:
            return (f"too few responsive servers: N-U = {N - U} must exceed "
                    f"H+M+B = {hmb}")
        return (f"no positive payload: N-H-M-3B-U leaves no room at "
                f"N={N}, H={H}, M={M}, B={B}, U={U}")
    return (f"below-threshold alignment (H+M+B = {hmb} < N/2) with no "
            f"feasible narrow case at N={N}, U={U}, E={cfg.E}, B={B}")
