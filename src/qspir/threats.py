"""Threat placements and Byzantine strategies.

ThreatConfig fixes which servers collude, communicate, eavesdrop (uplink
and downlink link sets), act Byzantine and stay silent. Byzantine behavior
is a pluggable deterministic function from the coalition's view — its own
storage rows, query blocks, evaluated masking shares, resulting honest
answers — plus a dedicated randomness stream, to additive per-instance
answer deviations. Strategies that conceptually *replace* an answer return
(replacement - honest) so the recorded deviation stays additive.

The same strategies run inside the security audits, where every entry of
the view is a numpy array holding one value per enumerated state and the
stream hands out enumerated digits. A strategy is auditable when it uses
only +, -, * and % q on its view and draws at most one digit per server
and instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SetTooLarge
from .plan import SchemeConfig
from .rng import Stream


@dataclass(frozen=True)
class ThreatConfig:
    """One placement of every adversary class (0-based server indices)."""

    colluding: frozenset
    communicating: frozenset
    eaves_up: frozenset
    eaves_down: frozenset
    byzantine: frozenset
    unresponsive: frozenset
    strategy: str = "honest-zero"

    @staticmethod
    def make(cfg: SchemeConfig, *, colluding=(), communicating=(), eaves_up=(),
             eaves_down=(), byzantine=(), unresponsive=(),
             strategy: str = "honest-zero", strict: bool = True) -> "ThreatConfig":
        """Validated placement. strict=False skips the bound checks, which
        models adversaries exceeding the design assumptions (used by the
        attack demonstrations); static models always force the two
        eavesdropped link sets equal."""
        tc = ThreatConfig(
            colluding=frozenset(colluding),
            communicating=frozenset(communicating),
            eaves_up=frozenset(eaves_up),
            eaves_down=frozenset(eaves_down),
            byzantine=frozenset(byzantine),
            unresponsive=frozenset(unresponsive),
            strategy=strategy,
        )
        for name, s in (("colluding", tc.colluding), ("communicating", tc.communicating),
                        ("eaves_up", tc.eaves_up), ("eaves_down", tc.eaves_down),
                        ("byzantine", tc.byzantine), ("unresponsive", tc.unresponsive)):
            if any(not (0 <= n < cfg.N) for n in s):
                raise SetTooLarge(f"{name} contains an out-of-range server index")
        if strict:
            bounds = {
                "colluding": cfg.T, "communicating": cfg.X,
                "eaves_up": cfg.E, "eaves_down": cfg.E,
                "byzantine": cfg.B, "unresponsive": cfg.U,
            }
            for name, bound in bounds.items():
                if len(getattr(tc, name)) > bound:
                    raise SetTooLarge(
                        f"{name} set has {len(getattr(tc, name))} servers, "
                        f"bound is {bound}"
                    )
            if tc.strategy not in STRATEGIES:
                raise SetTooLarge(f"unknown strategy tag {tc.strategy!r}")
            from .plan import Model
            if cfg.model is Model.XBEUTSPIR_STATIC and tc.eaves_up != tc.eaves_down:
                raise SetTooLarge(
                    "static eavesdropper model requires eaves_up == eaves_down"
                )
        return tc

    @staticmethod
    def random(cfg: SchemeConfig, rng: Stream,
               strategy: str | None = None) -> "ThreatConfig":
        """Uniform full-size placement of every adversary class."""
        from .plan import Model
        col = rng.sample(cfg.N, cfg.T)
        com = rng.sample(cfg.N, cfg.X)
        e_up = rng.sample(cfg.N, cfg.E)
        if cfg.model is Model.XBEUTSPIR_STATIC:
            e_down = e_up
        else:
            e_down = rng.sample(cfg.N, cfg.E)
        byz = rng.sample(cfg.N, cfg.B)
        unresp = rng.sample(cfg.N, cfg.U)
        if strategy is None:
            strategy = "honest-zero"
        return ThreatConfig.make(
            cfg, colluding=col, communicating=com, eaves_up=e_up,
            eaves_down=e_down, byzantine=byz, unresponsive=unresp,
            strategy=strategy,
        )


@dataclass
class ByzContext:
    """Exactly the Byzantine coalition's view, plus its private stream.

    storage[n][i][l] -> stored K-vector; queries[n][i][l] -> query K-vector;
    zhat[n][i] -> evaluated masking share; honest[n][i] -> the honest answer
    the server could compute itself. instances is 1 in the classical regime.
    """

    q: int
    servers: tuple
    instances: int
    storage: dict
    queries: dict
    zhat: dict
    honest: dict
    stream: Stream
    payload: object = field(default=None)  # strategy-specific extras


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------

STRATEGIES: dict = {}


def register_strategy(tag: str, fn) -> None:
    """Register fn(ctx: ByzContext) -> {server: per-instance deltas}."""
    STRATEGIES[tag] = fn


def apply_strategy(tag: str, ctx: ByzContext) -> dict:
    if tag not in STRATEGIES:
        raise SetTooLarge(f"unknown strategy tag {tag!r}")
    out = STRATEGIES[tag](ctx)
    # normalize: every byz server present, per-instance tuples mod q
    norm = {}
    for n in ctx.servers:
        ds = out.get(n, (0,) * ctx.instances)
        norm[n] = tuple(d % ctx.q for d in ds)
    return norm


def _honest_zero(ctx: ByzContext) -> dict:
    return {n: (0,) * ctx.instances for n in ctx.servers}


def _additive_random(ctx: ByzContext) -> dict:
    return {
        n: tuple(ctx.stream.randint(ctx.q) for _ in range(ctx.instances))
        for n in ctx.servers
    }


def _first_column(per_instance, i: int):
    """First payload column of instance i, or of instance 0 when instance i
    carries none (regime-3 layouts may leave instance 1 empty)."""
    return (per_instance[i] or per_instance[0])[0]


def _query_relay(ctx: ByzContext) -> dict:
    """Transmit a raw query dit instead of the answer: instance i relays
    coordinate i of the first query block."""
    out = {}
    for n in ctx.servers:
        ds = []
        for i in range(ctx.instances):
            block = _first_column(ctx.queries[n], i)
            dit = block[min(i, len(block) - 1)]
            ds.append((dit - ctx.honest[n][i]) % ctx.q)
        out[n] = tuple(ds)
    return out


def _storage_leak(ctx: ByzContext) -> dict:
    """Transmit the first stored coordinate instead of the answer."""
    out = {}
    for n in ctx.servers:
        ds = []
        for i in range(ctx.instances):
            dit = _first_column(ctx.storage[n], i)[0]
            ds.append((dit - ctx.honest[n][i]) % ctx.q)
        out[n] = tuple(ds)
    return out


def _coordinated_custom(ctx: ByzContext) -> dict:
    """Plug-in slot: ctx.payload may carry a callable; the shipped default
    strips the coalition's masking shares from its answers."""
    if callable(ctx.payload):
        return ctx.payload(ctx)
    return {
        n: tuple((-ctx.zhat[n][i]) % ctx.q for i in range(ctx.instances))
        for n in ctx.servers
    }


register_strategy("honest-zero", _honest_zero)
register_strategy("additive-random", _additive_random)
register_strategy("query-relay", _query_relay)
register_strategy("storage-leak", _storage_leak)
register_strategy("coordinated-custom", _coordinated_custom)

BUILTIN_STRATEGIES = (
    "honest-zero", "additive-random", "query-relay", "storage-leak",
    "coordinated-custom",
)
