"""The benchmark's workloads: inputs made from a seed, the timed operation,
and the exact check of its output.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. The library receives
only the generated configurations, placements and retrieval indices; the
seed reaches it only as the round seed of `run_round` and the stream handed
to `ThreatConfig.random`, which is how `qspir simulate` seeds its rounds.

Operations call the library through module attributes (`protocol.run_round`,
not a name imported here), so the wrappers installed by `tracing.instrument`
see them.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from qspir import audit, plan as plan_mod, protocol, rates
from qspir.errors import Infeasible
from qspir.plan import Model, SchemeConfig
from qspir.protocol import expected_dits
from qspir.rng import Stream
from qspir.threats import BUILTIN_STRATEGIES, ThreatConfig

Q = 257
K = 2


def cfg_of(model: str, N: int, X: int, T: int, E: int, U: int, B: int,
           q: int = Q) -> SchemeConfig:
    return SchemeConfig(model=Model.parse(model), N=N, K=K, X=X, T=T, E=E,
                        U=U, B=B, q=q)


@dataclass(frozen=True)
class RoundInput:
    """One round: config, plan (None when the operation plans it itself),
    Byzantine strategy, retrieval index and the label of its placement."""

    index: int
    cfg: SchemeConfig
    plan: object
    strategy: str
    theta: int
    seed: int
    label: str
    liars: tuple | None = None


def placement(inp: RoundInput) -> ThreatConfig:
    """Full-size uniform placement of every adversary class, drawn from the
    workload seed the way `qspir simulate` draws it from its own; `liars`,
    when given, replaces the drawn Byzantine set."""
    stream = Stream(inp.seed, f"{inp.label}/{inp.index}/placement")
    threat = ThreatConfig.random(inp.cfg, stream, strategy=inp.strategy)
    if inp.liars is None:
        return threat
    return dataclasses.replace(threat, byzantine=frozenset(inp.liars))


class RoundWorkload:
    """Shared timed operation and check of the three round workloads."""

    name = ""
    ops_per_unit = 1      # per-layer figures are per round
    min_op_seconds = 0.0  # a round runs once: reruns would reuse its inputs

    def __init__(self, seed: int):
        self.seed = seed

    def execute(self, inp: RoundInput, tracer):
        with tracer.span("threats.placement"):
            threat = placement(inp)
        return protocol.run_round(inp.cfg, inp.seed, inp.index,
                                  theta=inp.theta, threat=threat,
                                  plan=inp.plan)

    def verify(self, inp: RoundInput, tr) -> bool:
        return tr.result.w_theta == expected_dits(tr.W, tr.theta)


# every (model, regime) pair reachable with N <= 12, as (model, regime, N,
# X, T, E, U, B); the same grid the retrieval acceptance check runs
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


class GridRounds(RoundWorkload):
    """Headline `simulate` traffic: the retrieval grid, every built-in
    strategy when B > 0, repeated configs so per-scheme work recurs."""

    name = "grid-rounds"
    count_window = 88     # two passes over the 44 (config, strategy) jobs

    def __init__(self, seed: int):
        super().__init__(seed)
        self.jobs = []
        for model, regime, N, X, T, E, U, B in RETRIEVAL_GRID:
            cfg = cfg_of(model, N, X, T, E, U, B)
            plan = plan_mod.plan_regime(cfg)
            if plan.regime != regime:
                raise RuntimeError(f"{model} N={N} planned regime "
                                   f"{plan.regime}, grid says {regime}")
            for tag in (BUILTIN_STRATEGIES if B else ("honest-zero",)):
                self.jobs.append((cfg, plan, tag))

    def inputs(self):
        rng = random.Random(self.seed)
        for index in itertools.count():
            if index % len(self.jobs) == 0:
                order = rng.sample(self.jobs, len(self.jobs))
            cfg, plan, tag = order[index % len(self.jobs)]
            yield RoundInput(index, cfg, plan, tag, rng.randrange(cfg.K),
                             self.seed, self.name)


# strategies that make the liars actually deviate
DEVIATING = ("additive-random", "query-relay", "storage-leak",
             "coordinated-custom")


class ByzWide(RoundWorkload):
    """Wide Byzantine correction: N=24, B=3 gives C(24,3) = 2,024 candidate
    supports, walked in order until the liars' own; their position sets
    the round's cost.

    Liar sets are drawn stratified by their position in that order: each
    block of STRATA rounds takes one uniformly random set from each of
    STRATA equal slices of the order, in a random sequence. A run of about
    a hundred rounds then sees the same spread of positions whatever the
    seed, so the seed does not move the run's latency figures."""

    name = "byz-wide"
    count_window = 40
    STRATA = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cfg = cfg_of("xbeutspir-static", N=24, X=1, T=1, E=0, U=0, B=3)
        self.plan = plan_mod.plan_regime(self.cfg)
        self.supports = list(itertools.combinations(range(self.cfg.N),
                                                    self.cfg.B))

    def inputs(self):
        rng = random.Random(self.seed)
        size = len(self.supports)
        for index in itertools.count():
            if index % self.STRATA == 0:
                strata = rng.sample(range(self.STRATA), self.STRATA)
            lo = strata[index % self.STRATA] * size // self.STRATA
            hi = (strata[index % self.STRATA] + 1) * size // self.STRATA
            yield RoundInput(index, self.cfg, self.plan,
                             DEVIATING[index % len(DEVIATING)],
                             rng.randrange(self.cfg.K), self.seed, self.name,
                             liars=self.supports[rng.randrange(lo, hi)])


def sweep_configs():
    """Every feasible config with N 3..12, X,T 0..3, E 0..2, U 0..2 and
    B 1..2 (B = 0 for xeutspir), in a fixed order."""
    out = []
    for model in Model:
        Bs = (1, 2) if model.byzantine else (0,)
        for N, X, T, E, U, B in itertools.product(
                range(3, 13), range(4), range(4), range(3), range(3), Bs):
            cfg = cfg_of(model.value, N, X, T, E, U, B)
            try:
                plan_mod.plan_regime(cfg)
            except Infeasible:
                continue
            out.append(cfg)
    return out


class ConfigSweep(RoundWorkload):
    """Cold traffic: each operation plans a config it has not seen, checks
    the planned rate against the theorem, and runs one round with the
    default strategy of `qspir simulate` (honest-zero). The sweep is
    walked once in a seeded order and never repeats, so nothing built for
    one (config, unresponsive set) is reused by another operation."""

    name = "config-sweep"
    count_window = 400

    def __init__(self, seed: int):
        super().__init__(seed)
        self.configs = sweep_configs()

    def inputs(self):
        rng = random.Random(self.seed)
        order = rng.sample(self.configs, len(self.configs))
        for index, cfg in enumerate(order):
            yield RoundInput(index, cfg, None, "honest-zero",
                             rng.randrange(cfg.K), self.seed, self.name)

    def execute(self, inp: RoundInput, tracer):
        plan = plan_mod.plan_regime(inp.cfg)
        point = rates.theorem_rate(inp.cfg)
        with tracer.span("threats.placement"):
            threat = placement(inp)
        tr = protocol.run_round(inp.cfg, inp.seed, inp.index,
                                theta=inp.theta, threat=threat, plan=plan)
        return plan, point, tr

    def verify(self, inp: RoundInput, out) -> bool:
        plan, point, tr = out
        rate = Fraction(len(tr.result.w_theta), inp.cfg.N)
        return (point.feasible and point.regime == plan.regime
                and point.rate == rate == plan_mod.rate_of(plan)
                and super().verify(inp, tr))


@dataclass(frozen=True)
class AuditInput:
    """One audit: the `qspir.audit` function to call, its arguments, and
    whether its verdict must be a pass."""

    index: int
    name: str
    func: str
    args: tuple
    kwargs: dict
    expect_pass: bool


RELAY_STRONG = dict(eaves_up=(0,), eaves_down=(6,), strategy="query-relay",
                    byzantine=(6,))
RELAY_WEAK = dict(eaves_up=(0,), eaves_down=(3,), strategy="query-relay",
                  byzantine=(3,))


def audit_jobs():
    """The security-lemma acceptance workload: the default suite, three
    extra configurations, every documented mutant (each must fail), the
    relay-attack pair and the N=17 mask-exposure rank certificate."""
    configs = audit.default_suite_configs()
    jobs = [(lemma, "run_audit", (lemma, cfg), {}, True)
            for lemma, cfg in configs.items()]
    jobs += [
        ("symmetric-xeutspir-N6", "audit_symmetric_privacy",
         (cfg_of("xeutspir", 6, 1, 1, 0, 3, 0, q=7),), {}, True),
        ("symmetric-static-N6", "audit_symmetric_privacy",
         (cfg_of("xbeutspir-static", 6, 1, 0, 0, 1, 1, q=7),), {}, True),
        ("eavesdropper-dynamic-N7", "audit_eavesdropper",
         (cfg_of("xbeutspir-dynamic", 7, 1, 1, 1, 0, 1, q=11),),
         RELAY_STRONG, True),
    ]
    jobs += [(f"mutant-{lemma}", "run_audit", (lemma, configs[lemma]),
              {"mutation": mutation}, False)
             for lemma, mutation in audit.DEFAULT_MUTANTS.items()]
    jobs += [
        ("relay-weak", "audit_eavesdropper",
         (cfg_of("xeutspir", 4, 1, 1, 1, 0, 0, q=7),), RELAY_WEAK, False),
        ("relay-strong", "audit_eavesdropper",
         (cfg_of("xbeutspir-dynamic", 7, 1, 1, 1, 0, 1, q=11),),
         RELAY_STRONG, True),
        ("mask-exposure-N17", "audit_masking_vs_user",
         (cfg_of("xbeutspir-static", 17, 5, 4, 0, 0, 2),), {}, True),
    ]
    return jobs


class AuditSuite:
    """Exact security audits; one operation is one audit verdict and the
    per-layer figures are per whole suite. The suite is fixed and runs in
    the same order for every seed: it has no random inputs, and a fixed
    order keeps one-off warm-up costs on the same audit every run.

    A third of the audits take a few milliseconds and sit at the median
    and the tail of the suite's latencies, so each is timed over repeated
    runs adding up to `min_op_seconds` when measured end to end (see
    `run.measure`); traced runs time every audit once."""

    name = "audit-suite"
    min_op_seconds = 0.25

    def __init__(self, seed: int):
        self.jobs = audit_jobs()
        self.ops_per_unit = len(self.jobs)
        self.count_window = len(self.jobs)

    def inputs(self):
        for start in itertools.count(0, len(self.jobs)):
            for offset, job in enumerate(self.jobs):
                yield AuditInput(start + offset, *job)

    def execute(self, inp: AuditInput, tracer):
        return getattr(audit, inp.func)(*inp.args, **inp.kwargs)

    def verify(self, inp: AuditInput, report) -> bool:
        if report.passed != inp.expect_pass:
            return False
        if inp.name == "mask-exposure-N17":
            e = report.exposure
            return (e.l1 == () and e.l2 == (9,) and e.h1 == (1, 2)
                    and e.h2 == (1, 2))
        return True


WORKLOADS = {w.name: w for w in (GridRounds, ByzWide, AuditSuite, ConfigSweep)}
