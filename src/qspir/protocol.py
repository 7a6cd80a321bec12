"""End-to-end protocol: storage, queries, shared noise, answers, channel
encoding and decoding.

Quantum regimes (1-3) run two instances. Per instance i a server holds
c_i payload columns (dummy columns first, then message dits), each padded
with H storage-noise terms in powers of (f_l - a_n). Queries deliver, per
payload column, the retrieval unit vector masked by t_i noise terms. Every
server adds its share of the shared masking polynomial (m_i masking degrees
plus B extra degrees) to its answer. Instance-1 answers are scaled by u_n,
instance-2 by v_n = dual scaling, and the 2N dits enter the transfer box,
whose dropped directions are exactly the low-degree (heavily masked)
interference. Regime 4 is classical: one instance, scalar answers from
responsive servers, direct interpolation.

Decoding reads the payload coefficients straight off the box output,
ignores the kept-mask and erasure slots, and, when B > 0, delegates to the
corrector to locate and cancel Byzantine contamination before reading off
the retrieved dits.

The audits do not read round transcripts: they evaluate the per-round
formulas below on grids of states.

Everything fixed by (cfg, plan, unresponsive placement) -- points,
scalings, transfer box, responsive interpolation matrices and the
corrector's views -- is built once by `build_scheme` and kept in a bounded
LRU cache, per config object. Cached schemes are immutable and shared
between rounds and transcripts; only the per-round randomness is generated
afresh.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import corrector as corr_mod
from .codes import Points, build_csa, build_qcsa, canonical_points, dual_scaling
from .errors import DimensionMismatch
from .field import FqMatrix, fe_inv
from .nsumbox import TransferBox, make_transfer
from .plan import RegimePlan, SchemeConfig, plan_regime
from .rng import Stream
from .threats import ThreatConfig, apply_strategy, ByzContext


# ======================================================================
# data records
# ======================================================================


@dataclass(frozen=True)
class AnswerSet:
    """Recorded deviations and garbage, and the final channel input."""

    deviations: tuple        # [i][n] scalar, nonzero only at Byzantine servers
    unresp_garbage: tuple    # [i][n] scalar at unresponsive servers, else 0
    channel: tuple           # quantum: 2N dits; classical: responsive scalars


@dataclass(frozen=True)
class DecodedResult:
    """Decoder output: retrieved dits and the accepted Byzantine candidate
    set (responsive-position indices)."""

    w_theta: tuple[int, ...]
    accepted_set: tuple[int, ...] | None


@dataclass(frozen=True)
class BuiltScheme:
    """Everything derived from (cfg, plan, unresponsive placement)."""

    cfg: SchemeConfig
    plan: RegimePlan
    pts: Points
    u: tuple[int, ...]
    v: tuple[int, ...]
    responsive: tuple[int, ...]
    unresponsive: tuple[int, ...]
    box: TransferBox | None
    csa_resp: tuple          # per-instance responsive interpolation matrix
    views: tuple             # per-instance CorrectionViews when B > 0, else ()


@dataclass(frozen=True)
class Transcript:
    """What one round ran and what it produced: the config, plan and threat
    that say what ran, the index and messages, the channel input, the
    scheme, the box output and the decoder's result."""

    cfg: SchemeConfig
    plan: RegimePlan
    threat: ThreatConfig
    theta: int
    W: tuple
    answers: AnswerSet
    scheme: BuiltScheme
    y: tuple | None          # box output (quantum regimes)
    result: DecodedResult


# ======================================================================
# per-round formulas
# ======================================================================
#
# The formulas below are the only statement of what a server stores,
# receives, masks with and answers. They use nothing but +, * and % q, so
# they run unchanged on ints (one protocol round) and on int64 numpy arrays
# holding one value per enumerated state (the audits). Vectors are K-tuples.


def powers(x, count: int, q: int) -> list:
    """[1, x, x^2, ..., x^(count-1)] mod q."""
    out = []
    p = 1
    for _ in range(count):
        out.append(p)
        p = p * x % q
    return out


def storage_row(payload, noise, x: int, q: int) -> tuple:
    """Stored K-vector of one payload column at one server:
    payload + sum_j x^j noise_j (j = 1..H), where x = f_l - a_n."""
    row = tuple(payload)
    p = 1
    for zj in noise:
        p = p * x % q
        row = tuple((b + p * z) % q for b, z in zip(row, zj))
    return row


def query_row(theta: int, K: int, noise, x: int, q: int) -> tuple:
    """Query K-vector of one payload column at one server:
    x^-1 (e_theta + sum_j x^j z_j) (j = 1..t), where x = f_l - a_n."""
    unit = [int(k == theta) for k in range(K)]
    inv = fe_inv(x, q)
    return tuple(v * inv % q for v in storage_row(unit, noise, x, q))


def mask_share(alpha: int, zprime, rprime, q: int):
    """Server share of the masking polynomial: the m + B powers of alpha
    dotted with [Z' | R']."""
    coeffs = (*zprime, *rprime)
    acc = 0
    for p, z in zip(powers(alpha, len(coeffs), q), coeffs):
        acc = (acc + p * z) % q
    return acc


def honest_answer(zhat, srows, qrows, q: int):
    """Masking share plus every stored row dotted with its query row."""
    acc = zhat
    for srow, qrow in zip(srows, qrows):
        for s, x in zip(srow, qrow):
            acc = (acc + s * x) % q
    return acc


# ======================================================================
# construction
# ======================================================================


def scheme_points(cfg: SchemeConfig, plan: RegimePlan) -> Points:
    num_f = max(plan.c)
    return canonical_points(cfg.N, num_f, cfg.q)


def canonical_u(cfg: SchemeConfig) -> tuple[int, ...]:
    return tuple(range(1, cfg.N + 1))


def build_scheme(cfg: SchemeConfig, plan: RegimePlan, unresponsive) -> BuiltScheme:
    """Points, scalings, transfer box, interpolation matrices and correction
    views for one placement of unresponsive servers (0-based indices).

    Placements with fewer than U servers are padded, so equal padded sets
    share one scheme. The result comes from a bounded LRU cache and is
    shared between callers; it is immutable. Entries belong to the config
    object passed in: a caller that keeps its config across rounds builds
    each placement once, while an equal config made elsewhere starts cold,
    so one caller's rounds never change what another's cost."""
    scheme_points(cfg, plan)  # a field too small fails before the placement
    unresp = tuple(sorted(unresponsive))
    if len(unresp) > cfg.U:
        raise DimensionMismatch("more unresponsive servers than the plan allows")
    if len(unresp) < cfg.U:
        # layout reserves exactly U erasure slots; pad deterministically with
        # the highest-index servers not already chosen
        pad = [n for n in range(cfg.N - 1, -1, -1) if n not in unresp]
        unresp = tuple(sorted(set(unresp) | set(pad[: cfg.U - len(unresp)])))
    return _cached_scheme(id(cfg), cfg, plan, unresp)


# 256 schemes cover the under 200 placements the retrieval grid reaches
@functools.lru_cache(maxsize=256)
def _cached_scheme(owner: int, cfg: SchemeConfig, plan: RegimePlan,
                   unresp: tuple) -> BuiltScheme:
    """The build behind build_scheme's cache, for a validated, padded
    placement. `owner` is id(cfg); the key also holds cfg itself, which
    keeps the object alive, so no other config can take its id while the
    entry lives."""
    pts = scheme_points(cfg, plan)
    responsive = tuple(n for n in range(cfg.N) if n not in unresp)
    u = canonical_u(cfg)
    v = dual_scaling(u, pts)
    rpts = pts.restrict(responsive)
    nv = len(responsive)
    box = None if plan.classical else _scheme_box(cfg, plan, pts, u, v, unresp)
    csa0 = build_csa(nv, plan.c[0], rpts)
    if plan.classical:
        csa_resp = (csa0, None)
    else:
        csa1 = csa0 if plan.c[1] == plan.c[0] else build_csa(nv, plan.c[1], rpts)
        csa_resp = (csa0, csa1)
    views = () if plan.B == 0 else tuple(
        corr_mod.build_views(csa_resp[i], plan.c[i], plan.m[i], plan.B)
        for i in plan.instances
    )
    return BuiltScheme(cfg, plan, pts, u, v, responsive, unresp,
                       box=box, csa_resp=csa_resp, views=views)


def _scheme_box(cfg, plan, pts, u, v, unresp) -> TransferBox:
    """Generator stack of the scheme's transfer box.

    Instance i's columns are those of build_qcsa(N, c_i) row-scaled by u
    (instance 1) or v (instance 2): c_i Cauchy columns, then the powers
    0, 1, ... of the alphas. Dropped directions: per instance, the lowest
    drop_i powers. Kept directions, in order: instance payload (Cauchy)
    columns, kept masked-degree powers, correction-data powers
    (honest-zero), then one erasure unit column per unresponsive server and
    instance. The receiver thus reads the payload and kept-mask
    coefficients in its first vw outputs, of which the decoder uses the
    payload.
    """
    N, q = cfg.N, cfg.q
    inst = [build_qcsa(N, plan.c[i], pts, scale) for i, scale in enumerate((u, v))]

    def column(i, j) -> list[int]:
        """Column j of instance i, placed in rows i*N .. i*N + N - 1."""
        col = [0] * (2 * N)
        col[i * N : (i + 1) * N] = inst[i].col(j)
        return col

    def unit(i, n) -> list[int]:
        col = [0] * (2 * N)
        col[i * N + n] = 1
        return col

    def degree_cols(lo, hi) -> list[list[int]]:
        """The powers lo[i]..hi[i]-1 of instance i, i = 0 then 1."""
        return [column(i, plan.c[i] + d)
                for i in (0, 1) for d in range(lo[i], hi[i])]

    def stack(cols) -> FqMatrix:
        return FqMatrix(2 * N, len(cols), q,
                        tuple(col[r] for r in range(2 * N) for col in cols))

    mb = [plan.m[i] + plan.B for i in (0, 1)]
    drop = degree_cols((0, 0), plan.drop)
    keep = ([column(i, l) for i in (0, 1) for l in range(plan.c[i])]  # payload
            + degree_cols(plan.drop, mb)                          # kept masks
            + degree_cols(mb, [d + 2 * plan.B for d in mb])       # correction
            + [unit(i, n) for i in (0, 1) for n in unresp])       # erasures
    return make_transfer(stack(drop), stack(keep))


# ======================================================================
# generation
# ======================================================================


def gen_messages(cfg: SchemeConfig, plan: RegimePlan, rng: Stream) -> tuple:
    """K messages of L1+L2 dits each: W[k][d]."""
    total = plan.L1 + plan.L2
    return tuple(rng.randvec(total, cfg.q) for _ in range(cfg.K))


def payload_columns(cfg, plan, W, dummies) -> tuple:
    """Per-instance list of K-vectors occupying the payload columns."""
    s0, s1 = plan.message_slices
    inst0 = [dummies[l] for l in range(plan.dummies)]
    inst0 += [tuple(W[k][d] for k in range(cfg.K)) for d in s0]
    inst1 = [tuple(W[k][d] for k in range(cfg.K)) for d in s1]
    if plan.classical:
        return (tuple(inst0), ())
    return (tuple(inst0), tuple(inst1))


def gen_storage(cfg: SchemeConfig, plan: RegimePlan, pts: Points, W,
                rng: Stream) -> tuple:
    """Storage rows[i][n][l]: the K-vector server n stores for payload
    column l of instance i, the payload plus H noise terms in
    (f_l - a_n)."""
    q, H = cfg.q, cfg.H
    dummies = tuple(rng.randvec(cfg.K, q) for _ in range(plan.dummies))
    cols = payload_columns(cfg, plan, W, dummies)
    rows = []
    for i in plan.instances:
        noise = tuple(
            tuple(rng.randvec(cfg.K, q) for _ in range(H))
            for _ in range(plan.c[i])
        )
        rows.append(tuple(
            tuple(storage_row(cols[i][l], noise[l],
                              (pts.fs[l] - pts.alphas[n]) % q, q)
                  for l in range(plan.c[i]))
            for n in range(cfg.N)
        ))
    return tuple(rows)


def gen_queries(cfg: SchemeConfig, plan: RegimePlan, pts: Points, theta: int,
                rng: Stream) -> tuple:
    """Query blocks[i][n][l]: (1/(f_l - a_n)) (e_theta + sum_j (f_l - a_n)^j
    Z_j), the K-vector server n dots against its l-th payload row of
    instance i. When the plan shares queries, instance 1 aliases
    instance 0."""
    q = cfg.q
    if not 0 <= theta < cfg.K:
        raise ValueError(f"theta must be in [0, {cfg.K})")
    blocks = []
    for s in range(plan.query_sets):
        noise = tuple(
            tuple(rng.randvec(cfg.K, q) for _ in range(plan.t[s]))
            for _ in range(plan.c[s])
        )
        blocks.append(tuple(
            tuple(query_row(theta, cfg.K, noise[l],
                            (pts.fs[l] - pts.alphas[n]) % q, q)
                  for l in range(plan.c[s]))
            for n in range(cfg.N)
        ))
    return tuple(blocks[min(i, plan.query_sets - 1)] for i in plan.instances)


def gen_shared_noise(cfg: SchemeConfig, plan: RegimePlan, pts: Points,
                     rng: Stream) -> tuple:
    """Masking shares zhat[i][n]: server n's evaluation of instance i's
    masking polynomial (m_i coefficients Z' then B coefficients R'), the
    only part of it a server, hence a Byzantine coalition, ever holds."""
    q = cfg.q
    zhat = []
    for i in plan.instances:
        zp = rng.randvec(plan.m[i], q)
        rp = rng.randvec(plan.B, q)
        zhat.append(tuple(mask_share(a, zp, rp, q) for a in pts.alphas))
    return tuple(zhat)


# ======================================================================
# answers and channel
# ======================================================================


def compute_answers(cfg, plan, rows, blocks, zhat) -> tuple:
    """Honest answers[i][n] from the storage rows, query blocks and masking
    shares."""
    return tuple(
        tuple(honest_answer(zhat[i][n], rows[i][n], blocks[i][n], cfg.q)
              for n in range(cfg.N))
        for i in plan.instances
    )


def encode_channel(cfg: SchemeConfig, plan: RegimePlan, scheme: BuiltScheme,
                   honest, deviations, garbage) -> tuple:
    """Final channel input: quantum dit pairs (u_n-scaled, v_n-scaled) or the
    classical responsive answer list. Unresponsive slots carry garbage."""
    q = cfg.q
    if plan.classical:
        out = []
        for n in scheme.responsive:
            out.append((honest[0][n] + deviations[0][n]) % q)
        return tuple(out)
    dits = []
    for i in (0, 1):
        scale = scheme.u if i == 0 else scheme.v
        for n in range(cfg.N):
            if n in scheme.unresponsive:
                dits.append(garbage[i][n] % q)
            else:
                dits.append(scale[n] * ((honest[i][n] + deviations[i][n]) % q) % q)
    return tuple(dits)


# ======================================================================
# decoding
# ======================================================================


def decode(scheme: BuiltScheme, received) -> DecodedResult:
    """Recover the retrieved dits from the box output (quantum) or the
    responsive answer list (classical)."""
    plan, cfg = scheme.plan, scheme.cfg
    if plan.classical:
        return _decode_classical(scheme, received)
    q = cfg.q
    vw, B = plan.vw, plan.B
    c0, c1 = plan.c
    payload = [received[:c0], received[c0 : c0 + c1]]
    accepted = None
    if B > 0:
        zblocks = [
            received[vw : vw + 2 * B],
            received[vw + 2 * B : vw + 4 * B],
        ]
        accepted, corrections = corr_mod.search_and_correct(scheme.views,
                                                            zblocks)
        # a correction vector starts with the payload coordinates
        payload = [[(p - f) % q for p, f in zip(payload[i], corrections[i])]
                   for i in (0, 1)]
    w = tuple(payload[0][plan.dummies :]) + tuple(payload[1])
    return DecodedResult(w_theta=w, accepted_set=accepted)


def _decode_classical(scheme: BuiltScheme, answers) -> DecodedResult:
    plan, cfg = scheme.plan, scheme.cfg
    q, B = cfg.q, plan.B
    nv = len(scheme.responsive)
    if len(answers) != nv:
        raise DimensionMismatch("answer list length != responsive count")
    x = list(scheme.csa_resp[0].solve(answers))
    accepted = None
    if B > 0:
        zblock = tuple(x[nv - 2 * B :])
        accepted, (full,) = corr_mod.search_and_correct(scheme.views,
                                                        [zblock])
        x = [(xi - fi) % q for xi, fi in zip(x, full)]
    w = tuple(x[plan.dummies : plan.c[0]])
    return DecodedResult(w_theta=w, accepted_set=accepted)


# ======================================================================
# one full round
# ======================================================================


def run_round(cfg: SchemeConfig, seed, trial: int, theta: int | None = None,
              threat: ThreatConfig | None = None,
              plan: RegimePlan | None = None) -> Transcript:
    """Execute one protocol round deterministically from (seed, trial)."""
    plan = plan or plan_regime(cfg)
    label = f"t{trial}"
    if theta is None:
        theta = Stream(seed, f"{label}/theta").randint(cfg.K)
    if threat is None:
        threat = ThreatConfig.random(cfg, Stream(seed, f"{label}/placement"))
    pts = scheme_points(cfg, plan)
    W = gen_messages(cfg, plan, Stream(seed, f"{label}/w"))
    rows = gen_storage(cfg, plan, pts, W, Stream(seed, f"{label}/storage"))
    blocks = gen_queries(cfg, plan, pts, theta, Stream(seed, f"{label}/query"))
    zhat = gen_shared_noise(cfg, plan, pts, Stream(seed, f"{label}/mask"))
    scheme = build_scheme(cfg, plan, threat.unresponsive)
    honest = compute_answers(cfg, plan, rows, blocks, zhat)
    inst = plan.instances

    ctx = ByzContext(
        q=cfg.q,
        servers=tuple(sorted(threat.byzantine)),
        instances=len(inst),
        storage={n: tuple(rows[i][n] for i in inst) for n in threat.byzantine},
        queries={n: tuple(blocks[i][n] for i in inst)
                 for n in threat.byzantine},
        zhat={n: tuple(zhat[i][n] for i in inst) for n in threat.byzantine},
        honest={n: tuple(honest[i][n] for i in inst)
                for n in threat.byzantine},
        stream=Stream(seed, f"{label}/strategy"),
    )
    dev_map = apply_strategy(threat.strategy, ctx)
    deviations = tuple(
        tuple(dev_map.get(n, (0,) * len(inst))[i] for n in range(cfg.N))
        for i in inst
    )
    gst = Stream(seed, f"{label}/unresp")
    garbage = tuple(
        tuple(gst.randint(cfg.q) if n in scheme.unresponsive else 0
              for n in range(cfg.N))
        for i in inst
    )
    answers = AnswerSet(
        deviations=deviations, unresp_garbage=garbage,
        channel=encode_channel(cfg, plan, scheme, honest, deviations, garbage),
    )
    if plan.classical:
        y = None
        result = decode(scheme, answers.channel)
    else:
        y = scheme.box.apply(answers.channel)
        result = decode(scheme, y)
    return Transcript(cfg=cfg, plan=plan, threat=threat, theta=theta, W=W,
                      answers=answers, scheme=scheme, y=y, result=result)


def expected_dits(W, theta: int) -> tuple[int, ...]:
    return tuple(W[theta])
