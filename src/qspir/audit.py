"""Executable security lemmas.

Each audit restates one of the scheme's security claims as an exact
independence statement and decides it by exhaustive enumeration of the
relevant randomness at micro parameters: build the joint distribution of
(secret, adversary view) over every assignment of the enumerated variables,
then test factorisation with integer arithmetic (see mi.py).

The view is never re-derived here. Storage rows, query rows, masking
shares and honest answers come from the per-round formulas in protocol.py,
evaluated on numpy arrays of grid digits instead of ints; Byzantine
deviations come from the strategy registry in threats.py, run on a
coalition view made of those arrays. Any registered strategy can therefore
be audited, provided it uses only +, -, * and % q on its view and draws at
most one uniform digit per server and instance from its stream.

Audits shrink the state space only by exact reductions: per-symbol scope
where the encoding uses fresh randomness per symbol, dropping variables that
provably never enter the view (checked by a linearity probe, not assumed),
and replacing query-noise vectors by their evaluations at the handful of
relevant points when that substitution is a bijection onto uniform tuples
(checked by a rank computation).  Beyond the enumeration budget,
audit_masking_vs_user switches to a one-time-pad rank certificate.

Every audit takes an optional ``mutation`` that removes exactly the
ingredient the corresponding lemma credits; a healthy configuration must
then fail, which is how the audits themselves are validated. A mutant is an
edit of the formula inputs only: the removed noise or masking term is set
to zero (or left off the grid) where the audit assembles the inputs, and
the shared formulas themselves never see the mutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import canonical_points
from .errors import DimensionMismatch, Infeasible, SetTooLarge
from .field import FqMatrix, fe_inv
from .mi import AuditBudget, JointDistribution, mi_exact, rank_certificate
from .plan import Model, RegimePlan, SchemeConfig, plan_regime
from .protocol import (BuiltScheme, build_scheme, honest_answer, mask_share,
                       powers, query_row, scheme_points, storage_row)
from .threats import BUILTIN_STRATEGIES, ByzContext, apply_strategy

MUTATIONS = (
    "storage-drop-top-noise",
    "query-zero-last-noise",
    "mask-no-rprime",
    "mask-expose-extra",
    "mask-no-zprime",
)


@dataclass(frozen=True)
class MaskExposure:
    """Masking coordinates the user can observe after the drop.

    l1/l2 are the surviving interference-mask positions of instances 1 and 2
    (1-based, within [m_i]); h1/h2 the surviving extra-mask positions (within
    [B]); gamma1/gamma2 the per-instance drop counts that produced them."""

    l1: tuple
    l2: tuple
    h1: tuple
    h2: tuple
    gamma1: int
    gamma2: int


@dataclass(frozen=True)
class AuditReport:
    name: str
    passed: bool
    mode: str
    states: int
    details: str
    exposure: MaskExposure | None = None


# ======================================================================
# enumeration engine
# ======================================================================


class StateGrid:
    """Exhaustive enumeration of named q-ary digits.

    Each name is one uniform digit in [0, q); the state space is the full
    product, walked in chunks."""

    def __init__(self, q: int, names, budget: AuditBudget | None = None,
                 chunk_size: int = 1 << 20):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise DimensionMismatch("duplicate digit names on the grid")
        self.q = q
        self.names = names
        self.states = q ** len(names)
        (budget or AuditBudget()).admit(self.states)
        self._weights = {name: q ** p for p, name in enumerate(names)}
        self.chunk_size = chunk_size

    def __contains__(self, name) -> bool:
        return name in self._weights

    def chunks(self):
        for start in range(0, self.states, self.chunk_size):
            stop = min(start + self.chunk_size, self.states)
            yield np.arange(start, stop, dtype=np.int64)

    def digit(self, idx: np.ndarray, name) -> np.ndarray:
        return (idx // self._weights[name]) % self.q


def _pack(values, q: int, count: int) -> np.ndarray:
    """Radix-q packing of view/secret values into one int64 code per state.

    The packing is bijective on the packed tuple, so mutual information is
    unchanged; codes are compacted before they could overflow."""
    code = np.zeros(count, dtype=np.int64)
    span = 1
    for v in values:
        if span > (1 << 55) // max(q, 2):
            _, code = np.unique(code, return_inverse=True)
            code = code.astype(np.int64)
            span = int(code.max()) + 1 if code.size else 1
        code = code * q + (v % q if isinstance(v, np.ndarray) else int(v) % q)
        span *= q
    return code


def _noise_vectors(digit, depth: int, K: int, drop_top: bool) -> list:
    """Noise K-vectors j = 1..depth of one storage or query row, entry k of
    vector j read as digit(j, k); ``drop_top`` zeroes vector depth, which
    is how the storage and query mutants remove their ingredient. Entries
    are read lazily and once, so a batch holds only the row being built."""
    return [[0] * K if drop_top and j == depth else map(digit, [j] * K, range(K))
            for j in range(1, depth + 1)]


def _mi_pair(secret: np.ndarray, view: np.ndarray, q: int):
    jd = JointDistribution.from_columns(("secret", "view"), (secret, view))
    return mi_exact(jd, (("secret",), ("view",)), base=q)


# ======================================================================
# vectorised round formulas
# ======================================================================


class _GridStream:
    """Byzantine randomness under audit: hands the strategy the given
    digits (grid arrays, or zeros) in the order it draws them."""

    def __init__(self, q: int, digits):
        self.q = q
        self._digits = list(digits)
        self.drawn = 0

    def randint(self, q: int):
        if q != self.q:
            raise DimensionMismatch(
                "strategy draws from [0, %d); the audit enumerates F_%d"
                % (q, self.q))
        if self.drawn == len(self._digits):
            raise DimensionMismatch(
                "strategy draws more than one digit per Byzantine server "
                "and instance")
        self.drawn += 1
        return self._digits[self.drawn - 1]


class RoundFormulas:
    """One protocol round evaluated on a batch of grid states.

    Storage rows, query rows, masking shares and honest answers are
    protocol.py's own formulas applied to arrays of grid digits, and
    Byzantine deviations are threats.apply_strategy run on the coalition's
    view of those arrays; this class only assembles the inputs.

    Digit names on the grid:
      ("w", k, d)         message dits
      ("dum", l, k)       dummy-column dits
      ("sr", i, l, j, k)  storage noise, j = 1..H
      ("qz", s, l, j, k)  query noise, j = 1..t_s
      ("zp", i, j)        masking coefficients, j = 1..m_i
      ("rp", i, j)        extra masking coefficients, j = 1..B
      ("dev", i, n)       Byzantine strategy digits, in draw order

    Names absent from the grid evaluate to zero; the caller either proves
    that exact (dropped-coordinate probe) or never references them. The
    storage and query mutants zero the top noise vector of every row's
    inputs. The test suite decodes assembled grid states with the protocol
    decoder to pin this assembly to the round it describes.
    """

    def __init__(self, scheme: BuiltScheme, theta: int,
                 byzantine=(), strategy: str = "honest-zero",
                 mutation: str | None = None):
        self.scheme = scheme
        self.cfg = scheme.cfg
        self.plan = scheme.plan
        self.q = scheme.cfg.q
        self.theta = theta
        self.byz = tuple(sorted(byzantine))
        self.strategy = strategy
        self.mutation = mutation
        self._grid = None
        self._idx = None
        self._cache = {}
        s0, s1 = scheme.plan.message_slices
        self._slices = (tuple(s0), tuple(s1))

    # ---- grid binding -------------------------------------------------

    def bind(self, grid: StateGrid, idx: np.ndarray) -> "RoundFormulas":
        self._grid = grid
        self._idx = idx
        self._cache = {}
        return self

    def _d(self, name):
        if name in self._grid:
            return self._grid.digit(self._idx, name)
        return 0

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # ---- formula inputs -----------------------------------------------

    def payload(self, i: int, l: int) -> list:
        K, dummies = self.cfg.K, self.plan.dummies
        if i == 0 and l < dummies:
            return [self._d(("dum", l, k)) for k in range(K)]
        d = self._slices[i][l - dummies if i == 0 else l]
        return [self._d(("w", k, d)) for k in range(K)]

    def _noise(self, kind: str, i: int, l: int, depth: int, mutant: str):
        return _noise_vectors(lambda j, k: self._d((kind, i, l, j, k)),
                              depth, self.cfg.K, self.mutation == mutant)

    def _x(self, n: int, l: int) -> int:
        pts = self.scheme.pts
        return (pts.fs[l] - pts.alphas[n]) % self.q

    # ---- the round ----------------------------------------------------

    def storage_rows(self, i: int, n: int) -> tuple:
        """Server n's stored K-vectors of instance i, one per column."""
        return self._memo(("s", i, n), lambda: tuple(
            storage_row(self.payload(i, l),
                        self._noise("sr", i, l, self.cfg.H,
                                    "storage-drop-top-noise"),
                        self._x(n, l), self.q)
            for l in range(self.plan.c[i])))

    def query_rows(self, i: int, n: int) -> tuple:
        """Query K-vectors server n receives for instance i."""
        s = 0 if self.plan.shared_queries else i
        t = self.plan.t[s]
        return self._memo(("q", s, n), lambda: tuple(
            query_row(self.theta, self.cfg.K,
                      self._noise("qz", s, l, t, "query-zero-last-noise"),
                      self._x(n, l), self.q)
            for l in range(self.plan.c[s])))

    def zhat(self, i: int, n: int):
        plan = self.plan
        return self._memo(("z", i, n), lambda: mask_share(
            self.scheme.pts.alphas[n],
            [self._d(("zp", i, j)) for j in range(1, plan.m[i] + 1)],
            [self._d(("rp", i, j)) for j in range(1, plan.B + 1)],
            self.q))

    def honest(self, i: int, n: int):
        return self._memo(("h", i, n), lambda: honest_answer(
            self.zhat(i, n), self.storage_rows(i, n), self.query_rows(i, n),
            self.q))

    def _byz_context(self) -> ByzContext:
        """The coalition's view of this batch, with the enumerated strategy
        digits as its randomness."""
        inst = range(len(_instances(self.plan)))
        byz = self.byz
        return ByzContext(
            q=self.q, servers=byz, instances=len(inst),
            storage={n: tuple(self.storage_rows(i, n) for i in inst)
                     for n in byz},
            queries={n: tuple(self.query_rows(i, n) for i in inst)
                     for n in byz},
            zhat={n: tuple(self.zhat(i, n) for i in inst) for n in byz},
            honest={n: tuple(self.honest(i, n) for i in inst) for n in byz},
            stream=_GridStream(self.q, [self._d(name) for name in
                                        _deviation_names(self.plan, byz)]),
        )

    def transmitted(self, i: int, n: int):
        """Pre-scaling channel dit of a responsive server."""
        def build():
            dev = 0
            if n in self.byz:
                devs = self._memo(("dev",), lambda: apply_strategy(
                    self.strategy, self._byz_context()))
                dev = devs[n][i]
            return (self.honest(i, n) + dev) % self.q
        return self._memo(("t", i, n), build)

    # ---- receiver-side values ----------------------------------------

    def box_output(self, row: int):
        """One measured coordinate of the transfer-box output.

        Rows below vw + 4B never involve the erasure directions, so the
        garbage dits of unresponsive servers cannot appear in them; the
        corresponding generator coefficients are zero by construction."""
        def build():
            q, N = self.q, self.cfg.N
            gp = self.scheme.box.gprime
            acc = 0
            for i in (0, 1):
                scale = self.scheme.u if i == 0 else self.scheme.v
                for n in self.scheme.responsive:
                    coeff = gp[(row, i * N + n)] * scale[n] % q
                    if coeff:
                        acc = (acc + coeff * self.transmitted(i, n)) % q
            return acc
        return self._memo(("y", row), build)

    def measured_rows(self) -> list:
        """All receiver coordinates except the 2U erasure slots, whose
        content is fresh garbage independent of everything audited."""
        if self.plan.classical:
            return [self.transmitted(0, n) for n in self.scheme.responsive]
        rows = range(self.plan.vw + 4 * self.plan.B)
        return [self.box_output(r) for r in rows]

    def downlink_pair(self, n: int) -> list:
        """Channel dits an eavesdropper captures on server n's downlink."""
        q = self.q
        if self.plan.classical:
            return [self.transmitted(0, n)]
        out = []
        for i in (0, 1):
            scale = self.scheme.u if i == 0 else self.scheme.v
            out.append(scale[n] * self.transmitted(i, n) % q)
        return out


def _instances(plan: RegimePlan):
    return (0,) if plan.classical else (0, 1)


def round_digit_names(cfg: SchemeConfig, plan: RegimePlan, scheme: BuiltScheme,
                      strategy: str = "honest-zero", byzantine=(),
                      mutation: str | None = None,
                      drop_masked: bool = True):
    """Full digit inventory of one round, plus the names provably absent
    from the measured view (the dropped masking coordinates)."""
    names = []
    for k in range(cfg.K):
        for d in range(plan.L1 + plan.L2):
            names.append(("w", k, d))
    for l in range(plan.dummies):
        for k in range(cfg.K):
            names.append(("dum", l, k))
    for i in _instances(plan):
        for l in range(plan.c[i]):
            for j in range(1, cfg.H + 1):
                for k in range(cfg.K):
                    names.append(("sr", i, l, j, k))
    sets = 1 if (plan.classical or plan.shared_queries) else 2
    for s in range(sets):
        for l in range(plan.c[s]):
            for j in range(1, plan.t[s] + 1):
                for k in range(cfg.K):
                    names.append(("qz", s, l, j, k))
    dropped = []
    for i in _instances(plan):
        for j in range(1, plan.m[i] + 1):
            if mutation == "mask-no-zprime":
                continue
            name = ("zp", i, j)
            kept = plan.classical or not drop_masked or j > plan.drop[i]
            (names if kept else dropped).append(name)
        for j in range(1, plan.B + 1):
            if mutation == "mask-no-rprime":
                continue
            names.append(("rp", i, j))
    if byzantine:
        draws = _strategy_draws(scheme, byzantine, strategy)
        names += _deviation_names(plan, byzantine)[:draws]
    return names, dropped


def _deviation_names(plan: RegimePlan, byzantine) -> list:
    """Strategy digits in draw order: at most one per Byzantine server and
    instance, servers ascending."""
    return [("dev", i, n) for n in sorted(byzantine) for i in _instances(plan)]


def _strategy_draws(scheme: BuiltScheme, byzantine, strategy: str) -> int:
    """How many digits ``strategy`` draws from its stream in one round,
    found by running it once on the all-zero state."""
    fm = RoundFormulas(scheme, 0, byzantine=byzantine, strategy=strategy)
    ctx = fm.bind(StateGrid(scheme.cfg.q, ()),
                  np.zeros(1, dtype=np.int64))._byz_context()
    apply_strategy(strategy, ctx)
    return ctx.stream.drawn


def _probe_dropped(scheme: BuiltScheme, theta: int, dropped, byzantine,
                   strategy: str, mutation: str | None) -> None:
    """Verify each dropped masking coordinate really cancels from every
    measured coordinate.  The measured values are affine in the masking
    coefficients with constant coefficients, so probing one coordinate at a
    time over [0, q) with all else zero decides the claim exactly."""
    for name in dropped:
        grid = StateGrid(scheme.cfg.q, [name])
        fm = RoundFormulas(scheme, theta, byzantine=byzantine,
                           strategy=strategy, mutation=mutation)
        for idx in grid.chunks():
            fm.bind(grid, idx)
            for value in fm.measured_rows():
                if isinstance(value, np.ndarray) and np.any(value != value[0]):
                    raise DimensionMismatch(
                        "dropped masking coordinate %r leaks into the "
                        "measured view" % (name,)
                    )


# ======================================================================
# storage security
# ======================================================================


def audit_storage_security(cfg: SchemeConfig, mutation: str | None = None,
                           budget: AuditBudget | None = None) -> AuditReport:
    """Stored shares leak nothing about messages to any H-server coalition.

    One symbol, one payload column: each message symbol is encoded with its
    own fresh noise vectors, so single-symbol independence is the general
    statement.  The coalition size is H = the storage-noise depth, covering
    both the communicating set (size X <= H) and Byzantine readers
    (size B <= H).  Secret: the full K-vector of message symbols (implies
    each per-message statement).  View: the coalition's stored entries.
    """
    budget = budget or AuditBudget()
    q, K, H, N = cfg.q, cfg.K, cfg.H, cfg.N
    name = "storage-security"
    if H == 0:
        return AuditReport(name, True, "n/a", 0,
                           "no communicating or Byzantine servers; empty view")
    pts = canonical_points(N, 1, q)
    names = [("w", k) for k in range(K)]
    names += [("sr", j, k) for j in range(1, H + 1) for k in range(K)]
    grid = StateGrid(q, names, budget)

    secret_parts = []
    entries = {}
    for idx in grid.chunks():
        payload = [grid.digit(idx, ("w", k)) for k in range(K)]
        secret_parts.append(_pack(payload, q, len(idx)))
        for n in range(N):
            noise = _noise_vectors(lambda j, k: grid.digit(idx, ("sr", j, k)),
                                   H, K, mutation == "storage-drop-top-noise")
            x = (pts.fs[0] - pts.alphas[n]) % q
            entries.setdefault(n, []).append(storage_row(payload, noise, x, q))
    secret = np.concatenate(secret_parts)
    server_vals = {
        n: [np.concatenate([chunk[k] for chunk in entries[n]])
            if len(entries[n]) > 1 else entries[n][0][k]
            for k in range(K)]
        for n in entries
    }

    failures = []
    for coalition in itertools.combinations(range(N), H):
        view_vals = [server_vals[n][k] for n in coalition for k in range(K)]
        view = _pack(view_vals, q, grid.states)
        res = _mi_pair(secret, view, q)
        if not res.zero:
            failures.append((coalition, res.bits))
    passed = not failures
    details = ("independent of every %d-server view over %d states"
               % (H, grid.states) if passed
               else "leak at coalitions %s" % failures)
    return AuditReport(name, passed, "enumeration", grid.states, details)


# ======================================================================
# query privacy
# ======================================================================


def audit_query_privacy(cfg: SchemeConfig, mutation: str | None = None,
                        budget: AuditBudget | None = None) -> AuditReport:
    """Queries hide the retrieval index from any M-server coalition.

    M >= T covers both colluding servers and uplink taps (both see exactly
    the delivered query vectors).  Secret: theta, uniform over [K].  View:
    all query blocks delivered to the coalition.
    """
    budget = budget or AuditBudget()
    plan = plan_regime(cfg)
    q, K, N, M = cfg.q, cfg.K, cfg.N, cfg.M
    name = "query-privacy"
    if M == 0:
        return AuditReport(name, True, "n/a", 0,
                           "no collusion or uplink taps; empty view")
    pts = scheme_points(cfg, plan)
    sets = 1 if (plan.classical or plan.shared_queries) else 2
    names = [("qz", s, l, j, k)
             for s in range(sets)
             for l in range(plan.c[s])
             for j in range(1, plan.t[s] + 1)
             for k in range(K)]
    grid = StateGrid(q, names, budget)

    theta_col = []
    per_server = {n: [] for n in range(N)}
    for theta in range(K):
        for idx in grid.chunks():
            theta_col.append(np.full(len(idx), theta, dtype=np.int64))
            for n in range(N):
                vals = []
                for s in range(sets):
                    for l in range(plan.c[s]):
                        noise = _noise_vectors(
                            lambda j, k: grid.digit(idx, ("qz", s, l, j, k)),
                            plan.t[s], K, mutation == "query-zero-last-noise")
                        x = (pts.fs[l] - pts.alphas[n]) % q
                        vals.extend(query_row(theta, K, noise, x, q))
                per_server[n].append(vals)
    total = K * grid.states
    secret = np.concatenate(theta_col)
    stitched = {
        n: [np.concatenate([chunk[v] for chunk in per_server[n]])
            if len(per_server[n]) > 1 else per_server[n][0][v]
            for v in range(len(per_server[n][0]))]
        for n in range(N)
    }

    failures = []
    for coalition in itertools.combinations(range(N), min(M, N)):
        view_vals = [v for n in coalition for v in stitched[n]]
        view = _pack(view_vals, q, total)
        res = _mi_pair(secret, view, q)
        if not res.zero:
            failures.append((coalition, res.bits))
    passed = not failures
    details = ("index hidden from every %d-server view over %d states"
               % (min(M, N), total) if passed
               else "leak at coalitions %s" % failures)
    return AuditReport(name, passed, "enumeration", total, details)


# ======================================================================
# masking vs Byzantine coalition
# ======================================================================


def _mask_shape(cfg: SchemeConfig):
    """Per-instance masking widths and drop counts, from the plan when the
    configuration is constructible and from the threat bounds otherwise."""
    try:
        plan = plan_regime(cfg)
    except Infeasible:
        plan = None
    mu, nu = cfg.N // 2, cfg.N - cfg.N // 2
    if plan is None:
        return None, (cfg.H + cfg.M, cfg.H + cfg.M), (nu, mu)
    if plan.classical:
        return plan, (plan.m[0], plan.m[0]), (0, 0)
    return plan, plan.m, plan.drop


def _mask_alphas(cfg: SchemeConfig, plan):
    if plan is not None:
        return scheme_points(cfg, plan).alphas
    return canonical_points(cfg.N, 0, cfg.q).alphas


def audit_masking_vs_byzantine(cfg: SchemeConfig, mutation: str | None = None,
                               budget: AuditBudget | None = None) -> AuditReport:
    """A Byzantine coalition's masking shares reveal nothing about Z'.

    Per instance: the coalition holds B evaluations of the degree-(m+B)
    masking polynomial; the B extra coefficients R' make those evaluations
    exactly uniform and exactly independent of the m interference-mask
    coefficients.  Queries and storage use disjoint randomness, so their
    presence in the coalition view cannot create dependence on Z'; the
    enumerated claim is precisely the evaluation-share statement.
    """
    budget = budget or AuditBudget()
    q, N, B = cfg.q, cfg.N, cfg.B
    name = "masking-vs-byzantine"
    if B == 0:
        return AuditReport(name, True, "n/a", 0,
                           "no Byzantine servers; empty view")
    plan, m_pair, _ = _mask_shape(cfg)
    alphas = _mask_alphas(cfg, plan)
    total = 0
    failures = []
    for i, m in enumerate(dict.fromkeys(m_pair)):
        names = [("zp", i, j) for j in range(1, m + 1)]
        names += [("rp", i, j) for j in range(1, B + 1)]
        # audit instance index i is notational; formula depends only on m
        names = [(kind, 0, j) for kind, _, j in names]
        grid = StateGrid(q, names, budget)
        total += grid.states
        idx = np.arange(grid.states, dtype=np.int64)
        zp = [grid.digit(idx, ("zp", 0, j)) for j in range(1, m + 1)]
        rp = [grid.digit(idx, ("rp", 0, j)) for j in range(1, B + 1)]
        if mutation == "mask-no-rprime":
            rp = [0] * B
        zhat = [mask_share(a, zp, rp, q) for a in alphas]
        secret = _pack(zp, q, grid.states)
        share = grid.states // (q ** B)
        for coalition in itertools.combinations(range(N), B):
            view = _pack([zhat[n] for n in coalition], q, grid.states)
            res = _mi_pair(secret, view, q)
            _, counts = np.unique(view, return_counts=True)
            uniform = len(counts) == q ** B and bool(np.all(counts == share))
            if not (res.zero and uniform):
                failures.append((m, coalition, res.bits, uniform))
    passed = not failures
    details = ("shares uniform and independent of Z' for every coalition "
               "over %d states" % total if passed
               else "violations: %s" % failures)
    return AuditReport(name, passed, "enumeration", total, details)


# ======================================================================
# masking vs user
# ======================================================================


def mask_exposure(m_pair, drop_pair, B: int,
                  mutation: str | None = None) -> MaskExposure:
    """Index sets of masking coordinates the receiver can still observe."""
    gammas = (0, 0) if mutation == "mask-expose-extra" else drop_pair
    surv_l = [tuple(range(g + 1, m + 1)) for g, m in zip(gammas, m_pair)]
    surv_h = [tuple(range(max(1, g - m + 1), B + 1))
              for g, m in zip(gammas, m_pair)]
    return MaskExposure(l1=surv_l[0], l2=surv_l[1], h1=surv_h[0],
                        h2=surv_h[1], gamma1=gammas[0], gamma2=gammas[1])


def audit_masking_vs_user(cfg: SchemeConfig, mutation: str | None = None,
                          budget: AuditBudget | None = None) -> AuditReport:
    """Surviving interference masks stay secret from the receiver.

    After the transfer-box drop, the receiver observes the interference
    coordinates above gamma_i (masked by Z'_{L_i}), the surviving extra
    masks R'_{H_i}, and — through whatever the Byzantine coalition encodes
    in its deviations — at worst the coalition's masking shares.  The audit
    checks the surviving Z' coordinates are exactly independent of that
    entire view, for every possible coalition.

    Enumerates when the state space fits the budget, otherwise switches to
    the one-time-pad rank certificate over the masking coefficient vector.
    A classical plan with B > 0 has no drop, so the lemma does not apply:
    the report then has mode "n/a" and no states.
    """
    budget = budget or AuditBudget()
    q, N, B = cfg.q, cfg.N, cfg.B
    name = "masking-vs-user"
    plan, m_pair, drop_pair = _mask_shape(cfg)
    if plan is not None and plan.classical and B > 0:
        return AuditReport(
            name, True, "n/a", 0,
            "kept-mask exposure is defined by the transfer-box drop; the "
            "single-instance classical regime keeps every coordinate and is "
            "covered end-to-end by the symmetric-privacy audit"
        )
    exposure = mask_exposure(m_pair, drop_pair, B, mutation)
    if B == 0:
        return AuditReport(name, True, "n/a", 0,
                           "no extra masks and no coalition; empty view",
                           exposure=exposure)
    alphas = _mask_alphas(cfg, plan)
    m1, m2 = m_pair
    digits = m1 + m2 + 2 * B
    surv_l = (exposure.l1, exposure.l2)
    surv_h = (exposure.h1, exposure.h2)
    coalitions = list(itertools.combinations(range(N), B)) or [()]

    if q ** digits <= budget.max_states:
        names = [("zp", i, j) for i, m in enumerate(m_pair)
                 for j in range(1, m + 1)]
        names += [("rp", i, j) for i in (0, 1) for j in range(1, B + 1)]
        grid = StateGrid(q, names, budget)
        idx = np.arange(grid.states, dtype=np.int64)
        zhat = [[mask_share(a,
                            [grid.digit(idx, ("zp", i, j))
                             for j in range(1, m_pair[i] + 1)],
                            [grid.digit(idx, ("rp", i, j))
                             for j in range(1, B + 1)], q)
                 for a in alphas]
                for i in (0, 1)]
        secret_vals = [grid.digit(idx, ("zp", i, j))
                       for i in (0, 1) for j in surv_l[i]]
        secret = (_pack(secret_vals, q, grid.states) if secret_vals
                  else np.zeros(grid.states, dtype=np.int64))
        failures = []
        for coalition in coalitions:
            view_vals = [grid.digit(idx, ("rp", i, j))
                         for i in (0, 1) for j in surv_h[i]]
            view_vals += [zhat[i][n] for i in (0, 1) for n in coalition]
            view = (_pack(view_vals, q, grid.states) if view_vals
                    else np.zeros(grid.states, dtype=np.int64))
            res = _mi_pair(secret, view, q)
            if not res.zero:
                failures.append((coalition, res.bits))
        passed = not failures
        details = ("surviving masks independent of the receiver view over "
                   "%d states" % grid.states if passed
                   else "leak at coalitions %s" % failures)
        return AuditReport(name, passed, "enumeration", grid.states, details,
                           exposure=exposure)

    # rank-certificate route: coordinates of the masking vector are
    # [zp(1) 1..m1 | rp(1) 1..B | zp(2) 1..m2 | rp(2) 1..B]
    offs = {("zp", 0): 0, ("rp", 0): m1,
            ("zp", 1): m1 + B, ("rp", 1): m1 + B + m2}
    width = m1 + m2 + 2 * B
    secret_cols = [offs[("zp", i)] + (j - 1)
                   for i in (0, 1) for j in surv_l[i]]
    noise_cols = [c for c in range(width) if c not in set(secret_cols)]
    failures = []
    for coalition in coalitions:
        rows = []
        for i in (0, 1):
            for j in surv_h[i]:
                row = [0] * width
                row[offs[("rp", i)] + (j - 1)] = 1
                rows.append(row)
        for i in (0, 1):
            for n in coalition:
                # mask_share dots these powers with [Z'_i | R'_i]
                pw = powers(alphas[n], m_pair[i] + B, q)
                row = [0] * width
                row[offs[("zp", i)]:offs[("zp", i)] + m_pair[i]] = pw[:m_pair[i]]
                row[offs[("rp", i)]:offs[("rp", i)] + B] = pw[m_pair[i]:]
                rows.append(row)
        if not rows:
            continue
        view_map = FqMatrix.from_rows(rows, q)
        if not rank_certificate(view_map, noise_cols):
            failures.append(coalition)
    passed = not failures
    details = ("one-time-pad certificate holds for every coalition"
               if passed else "certificate fails at coalitions %s" % failures)
    return AuditReport(name, passed, "rank-certificate", 0, details,
                       exposure=exposure)


# ======================================================================
# symmetric privacy
# ======================================================================


def audit_symmetric_privacy(cfg: SchemeConfig, strategy: str = "all",
                            mutation: str | None = None,
                            budget: AuditBudget | None = None) -> AuditReport:
    """The receiver learns nothing about the unrequested messages.

    For each theta (known to the receiver), secret = every other message's
    dits; view = all measured channel outputs plus the receiver's own query
    randomness.  Marginalises over all protocol randomness including
    Byzantine strategy randomness; the raw pre-decoding view dominates the
    decoded one, so checking it is the stronger statement.
    """
    budget = budget or AuditBudget()
    plan = plan_regime(cfg)
    scheme = build_scheme(cfg, plan, unresponsive=())
    q, K = cfg.q, cfg.K
    name = "symmetric-privacy"
    byz = tuple(scheme.responsive[: cfg.B])
    strategies = (BUILTIN_STRATEGIES if strategy == "all" and byz
                  else ("honest-zero",) if strategy == "all"
                  else (strategy,))
    total = 0
    failures = []
    for tag in strategies:
        names, dropped = round_digit_names(cfg, plan, scheme, strategy=tag,
                                           byzantine=byz, mutation=mutation)
        qz_names = [nm for nm in names if nm[0] == "qz"]
        for theta in range(K):
            if dropped:
                _probe_dropped(scheme, theta, dropped, byz, tag, mutation)
            grid = StateGrid(q, names, budget)
            fm = RoundFormulas(scheme, theta, byzantine=byz, strategy=tag,
                               mutation=mutation)
            sec_parts, view_parts = [], []
            for idx in grid.chunks():
                fm.bind(grid, idx)
                sec_vals = [grid.digit(idx, ("w", k, d))
                            for k in range(K) if k != theta
                            for d in range(plan.L1 + plan.L2)]
                view_vals = fm.measured_rows()
                view_vals += [grid.digit(idx, nm) for nm in qz_names]
                sec_parts.append(
                    _pack(sec_vals, q, len(idx)) if sec_vals
                    else np.zeros(len(idx), dtype=np.int64))
                view_parts.append(_pack(view_vals, q, len(idx)))
            secret = np.concatenate(sec_parts)
            view = np.concatenate(view_parts)
            total += len(secret)
            res = _mi_pair(secret, view, q)
            if not res.zero:
                failures.append((tag, theta, round(res.bits, 4)))
    passed = not failures
    details = ("unrequested messages independent of the receiver view for "
               "strategies %s over %d states"
               % (",".join(strategies), total) if passed
               else "leak at (strategy, theta, bits): %s" % failures)
    return AuditReport(name, passed, "enumeration", total, details)


# ======================================================================
# eavesdropper security
# ======================================================================


def _relay_shortcut_names(cfg, plan, pts, up, down):
    """Digit inventory for the all-relayed-downlink view.

    The view depends on query noise only through its evaluations at the
    tapped points.  When every per-(set, block) evaluation map onto those
    points has full row rank (checked, not assumed), the evaluations are a
    bijection of uniform tuples and become the enumerated variables;
    otherwise the raw noise digits are enumerated.
    """
    q, K = cfg.q, cfg.K
    sets = 1 if (plan.classical or plan.shared_queries) else 2
    points = sorted(set(up) | set(down))
    aggregated = True
    for s in range(sets):
        if plan.t[s] < len(points):
            aggregated = False
            break
        for l in range(plan.c[s]):
            # coefficients of z_1..z_t in storage_row at each tapped point
            rows = [powers((pts.fs[l] - pts.alphas[n]) % q, plan.t[s] + 1, q)[1:]
                    for n in points]
            if rows and FqMatrix.from_rows(rows, q).rank() < len(points):
                aggregated = False
    if aggregated:
        names = [("agg", s, l, n, k)
                 for s in range(sets)
                 for l in range(plan.c[s])
                 for n in points
                 for k in range(K)]
    else:
        names = [("qz", s, l, j, k)
                 for s in range(sets)
                 for l in range(plan.c[s])
                 for j in range(1, plan.t[s] + 1)
                 for k in range(K)]
    return names, sets, aggregated


def _relay_query_rows(grid, idx, pts, q, K, theta, s, n, plan, aggregated):
    """Query K-vectors server n receives for query set s, from either the
    raw noise digits or their enumerated evaluations at n."""
    rows = []
    for l in range(plan.c[s]):
        x = (pts.fs[l] - pts.alphas[n]) % q
        if aggregated:
            inv = fe_inv(x, q)
            rows.append(tuple(
                (int(k == theta) + grid.digit(idx, ("agg", s, l, n, k))) * inv % q
                for k in range(K)))
        else:
            noise = _noise_vectors(
                lambda j, k: grid.digit(idx, ("qz", s, l, j, k)),
                plan.t[s], K, False)
            rows.append(query_row(theta, K, noise, x, q))
    return tuple(rows)


def audit_eavesdropper(cfg: SchemeConfig, eaves_up=None, eaves_down=None,
                       strategy: str = "honest-zero", byzantine=(),
                       mutation: str | None = None,
                       budget: AuditBudget | None = None) -> AuditReport:
    """Tapped links reveal nothing about the messages or the index.

    Secret: (theta, all messages).  View: query vectors on the tapped
    uplinks plus transmitted channel dits on the tapped downlinks, under
    the given Byzantine strategy.  ``byzantine`` may exceed cfg.B — that is
    how over-threat attacks are demonstrated.  Default placements tap the
    first responsive servers; dynamic-capable models also get a disjoint
    downlink set.
    """
    budget = budget or AuditBudget()
    plan = plan_regime(cfg)
    scheme = build_scheme(cfg, plan, unresponsive=())
    q, K, E = cfg.q, cfg.K, cfg.E
    name = "eavesdropper"
    static_model = cfg.model.value == "xbeutspir-static"

    if eaves_up is None and eaves_down is None:
        if E == 0 and not byzantine:
            return AuditReport(name, True, "n/a", 0,
                               "no tapped links; empty view")
        placements = [(scheme.responsive[:E], scheme.responsive[:E], "static")]
        if not static_model and len(scheme.responsive) >= 2 * E:
            placements.append(
                (scheme.responsive[:E], scheme.responsive[E:2 * E], "dynamic"))
    else:
        up = tuple(eaves_up or ())
        down = tuple(eaves_down or ())
        if static_model and set(up) != set(down):
            raise SetTooLarge("static-eavesdropper model taps the same links "
                              "on both directions")
        placements = [(up, down, "static" if set(up) == set(down) else "dynamic")]

    total = 0
    failures = []
    details_parts = []
    for up, down, kind in placements:
        relayed = (strategy == "query-relay" and down
                   and set(down) <= set(byzantine))
        if relayed:
            pts = scheme.pts
            names, sets, aggregated = _relay_shortcut_names(
                cfg, plan, pts, up, down)
            grid = StateGrid(q, names, budget)
            insts = _instances(plan)
            sec_parts, view_parts = [], []
            for theta in range(K):
                for idx in grid.chunks():
                    rows = {(s, n): _relay_query_rows(grid, idx, pts, q, K,
                                                      theta, s, n, plan,
                                                      aggregated)
                            for s in range(sets) for n in set(up) | set(down)}
                    view_vals = [v for n in up for s in range(sets)
                                 for row in rows[s, n] for v in row]
                    # a relayed dit replaces the whole answer, so it is the
                    # strategy's deviation from an honest answer of zero;
                    # storage and masking never enter it
                    ctx = ByzContext(
                        q=q, servers=tuple(down), instances=len(insts),
                        storage={n: ((),) * len(insts) for n in down},
                        queries={n: tuple(rows[min(i, sets - 1), n]
                                          for i in insts) for n in down},
                        zhat={n: (0,) * len(insts) for n in down},
                        honest={n: (0,) * len(insts) for n in down},
                        stream=_GridStream(q, ()))
                    relay = apply_strategy(strategy, ctx)
                    for n in down:
                        for i in insts:
                            dit = relay[n][i]
                            if not plan.classical:
                                scale = scheme.u if i == 0 else scheme.v
                                dit = dit * scale[n] % q
                            view_vals.append(dit)
                    sec_parts.append(np.full(len(idx), theta, dtype=np.int64))
                    view_parts.append(_pack(view_vals, q, len(idx)))
            # the relayed view is a function of (theta, query noise) only;
            # messages never enter it, so I(theta, W; view) = I(theta; view)
            secret = np.concatenate(sec_parts)
            view = np.concatenate(view_parts)
            total += len(secret)
            res = _mi_pair(secret, view, q)
            if not res.zero:
                failures.append((kind, "relay", round(res.bits, 4)))
            details_parts.append("%s relay:%s" % (kind, "ok" if res.zero else "LEAK"))
            continue

        names, dropped = round_digit_names(cfg, plan, scheme,
                                           strategy=strategy,
                                           byzantine=byzantine,
                                           mutation=mutation)
        grid = StateGrid(q, names, budget)
        sets = 1 if (plan.classical or plan.shared_queries) else 2
        sec_parts, view_parts = [], []
        for theta in range(K):
            if dropped:
                _probe_dropped(scheme, theta, dropped, byzantine, strategy,
                               mutation)
            fm = RoundFormulas(scheme, theta, byzantine=byzantine,
                               strategy=strategy, mutation=mutation)
            for idx in grid.chunks():
                fm.bind(grid, idx)
                view_vals = [v for n in up for i in range(sets)
                             for row in fm.query_rows(i, n) for v in row]
                for n in down:
                    view_vals.extend(fm.downlink_pair(n))
                sec_vals = [np.full(len(idx), theta, dtype=np.int64)]
                sec_vals += [grid.digit(idx, ("w", k, d))
                             for k in range(K)
                             for d in range(plan.L1 + plan.L2)]
                sec_parts.append(_pack(sec_vals, q, len(idx)))
                view_parts.append(_pack(view_vals, q, len(idx)))
        secret = np.concatenate(sec_parts)
        view = np.concatenate(view_parts)
        total += len(secret)
        res = _mi_pair(secret, view, q)
        if not res.zero:
            failures.append((kind, strategy, round(res.bits, 4)))
        details_parts.append("%s:%s" % (kind, "ok" if res.zero else "LEAK"))

    passed = not failures
    details = ("view independent of (theta, messages): %s over %d states"
               % ("; ".join(details_parts), total) if passed
               else "leak at (placement, strategy, bits): %s" % failures)
    return AuditReport(name, passed, "enumeration", total, details)


# ======================================================================
# default micro suite
# ======================================================================


def _micro(model: str, **kw) -> SchemeConfig:
    return SchemeConfig(model=Model.parse(model), **kw)


def default_suite_configs() -> dict:
    """Smallest configurations exercising each lemma non-trivially."""
    return {
        "storage-security": _micro("xeutspir", N=4, K=2, X=2, T=1, E=0,
                                   U=0, B=0, q=5),
        "query-privacy": _micro("xeutspir", N=4, K=2, X=1, T=2, E=0,
                                U=0, B=0, q=5),
        "masking-vs-byzantine": _micro("xbeutspir-static", N=6, K=2, X=1,
                                       T=1, E=0, U=0, B=1, q=7),
        "masking-vs-user": _micro("xbeutspir-static", N=5, K=2, X=1, T=2,
                                  E=0, U=0, B=1, q=5),
        "symmetric-privacy": _micro("xeutspir", N=3, K=2, X=0, T=2, E=0,
                                    U=0, B=0, q=5),
        "eavesdropper": _micro("xeutspir", N=3, K=2, X=0, T=1, E=1,
                               U=1, B=0, q=5),
    }


DEFAULT_MUTANTS = {
    "storage-security": "storage-drop-top-noise",
    "query-privacy": "query-zero-last-noise",
    "masking-vs-byzantine": "mask-no-rprime",
    "masking-vs-user": "mask-expose-extra",
    "symmetric-privacy": "mask-no-zprime",
    "eavesdropper": "mask-no-zprime",
}

_AUDIT_FUNCS = {
    "storage-security": audit_storage_security,
    "query-privacy": audit_query_privacy,
    "masking-vs-byzantine": audit_masking_vs_byzantine,
    "masking-vs-user": audit_masking_vs_user,
    "symmetric-privacy": audit_symmetric_privacy,
    "eavesdropper": audit_eavesdropper,
}


def run_audit(lemma: str, cfg: SchemeConfig, mutation: str | None = None,
              budget: AuditBudget | None = None) -> AuditReport:
    if lemma not in _AUDIT_FUNCS:
        raise DimensionMismatch("unknown lemma %r" % lemma)
    return _AUDIT_FUNCS[lemma](cfg, mutation=mutation, budget=budget)


def default_suite(broken=(), budget: AuditBudget | None = None) -> list:
    """One report per lemma at its micro configuration; lemmas named in
    ``broken`` run with their documented mutant instead."""
    reports = []
    configs = default_suite_configs()
    for lemma, cfg in configs.items():
        mutation = DEFAULT_MUTANTS[lemma] if lemma in broken else None
        reports.append(run_audit(lemma, cfg, mutation=mutation, budget=budget))
    return reports
