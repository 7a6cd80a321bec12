"""Executable security lemmas.

Each audit restates one of the scheme's security claims as an exact
independence statement between a secret and an adversary view, and decides
it by exhaustive enumeration of the relevant randomness at micro parameters.
The secret is always uniform. Its digits go last on the grid (the retrieval
index theta is an outer loop), so each secret value owns a contiguous block
of states in which every other digit takes every value equally often. The
view is then independent of the secret iff every block holds the same
multiset of view codes. mi.BlockStream checks this while the states are
walked chunk by chunk: it sorts each block once, compares it with the
first by integer equality and holds only those two blocks. No joint table
is built for an audit that passes. When a block differs, a second pass
collects (secret, view) codes and mi_exact sizes the leak in bits, so a
failed audit reports the same figure as a direct joint-table test.

The view is never re-derived here. Storage rows, query rows, masking
shares and honest answers come from the per-round formulas in protocol.py,
evaluated on numpy arrays of grid digits instead of ints; Byzantine
deviations come from the strategy registry in threats.py, run on a
coalition view made of those arrays. Any registered strategy can therefore
be audited, provided it uses only +, -, * and % q on its view and draws at
most one uniform digit per server and instance from its stream.

Audits shrink the state space only by exact reductions: per-symbol scope
where the encoding uses fresh randomness per symbol, dropping the masking
coordinates the transfer box removes from the box-output view of symmetric
privacy (checked by a linearity probe, not assumed; the eavesdropper's
downlink dits are taken before the box and keep them), and replacing
query-noise vectors by their evaluations at the handful of relevant points
when that substitution is a bijection onto uniform tuples (checked by a
rank computation).  Beyond the enumeration budget,
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
from functools import partial

import numpy as np

from .codes import canonical_points
from .errors import (BudgetExceeded, DimensionMismatch, Infeasible,
                     SetTooLarge)
from .field import FqMatrix, fe_inv
from .mi import (AuditBudget, BlockStream, MIResult, mi_exact,
                 rank_certificate)
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


CHUNK_STATES = 1 << 16


class StateGrid:
    """Exhaustive enumeration of named q-ary digits.

    Each name is one uniform digit in [0, q); the state space is the full
    product, walked in chunks of consecutive state indices.  The ``secret``
    names go last, with the highest weights, so each secret value owns a
    contiguous block of ``block`` states.  The default chunk is the largest
    power of q up to CHUNK_STATES (and at least q), so a chunk lies inside
    one block or holds whole blocks."""

    def __init__(self, q: int, names, budget: AuditBudget | None = None,
                 chunk_size: int | None = None, secret=()):
        names, secret = tuple(names), tuple(secret)
        if len(set(names)) != len(names) or len(set(secret)) != len(secret):
            raise DimensionMismatch("duplicate digit names on the grid")
        if not set(secret) <= set(names):
            raise DimensionMismatch("secret digits must be grid digits")
        names = tuple(n for n in names if n not in set(secret)) + secret
        self.q = q
        self.names = names
        self.states = q ** len(names)
        (budget or AuditBudget()).admit(self.states)
        self.block = q ** (len(names) - len(secret))
        self._weights = {name: q ** p for p, name in enumerate(names)}
        if chunk_size is None:
            chunk_size = q
            while chunk_size * q <= CHUNK_STATES:
                chunk_size *= q
        self.chunk_size = chunk_size
        power = 1
        while power < chunk_size:
            power *= q
        self._aligned = power == chunk_size
        self._patterns = {}

    def __contains__(self, name) -> bool:
        return name in self._weights

    def chunks(self):
        """Ranges of consecutive state indices that cover the grid."""
        for start in range(0, self.states, self.chunk_size):
            yield range(start, min(start + self.chunk_size, self.states))

    def digit(self, idx, name) -> np.ndarray:
        if isinstance(idx, range):
            idx = np.arange(idx.start, idx.stop, dtype=np.int64)
        return (idx // self._weights[name]) % self.q

    def reader(self, idx):
        """Digit reader over the states ``idx``: each digit is computed
        once, and names absent from the grid read as zero.

        On a chunk from ``chunks()`` with a power-of-q chunk size, a digit
        whose weight is below the chunk size runs through the same pattern
        in every chunk, which is computed once per grid, and a digit whose
        weight is at least the chunk size is one int over the chunk."""
        cache = {}
        aligned = isinstance(idx, range) and self._aligned

        def digit(name):
            value = cache.get(name)
            if value is None:
                weight = self._weights.get(name)
                if weight is None:
                    value = 0
                elif not aligned:
                    value = self.digit(idx, name)
                elif weight >= self.chunk_size:
                    value = idx.start // weight % self.q
                else:
                    key = (weight, len(idx))
                    if key not in self._patterns:
                        self._patterns[key] = self.digit(range(len(idx)), name)
                    value = self._patterns[key]
                cache[name] = value
            return value
        return digit


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
        code *= q
        code += v % q if isinstance(v, np.ndarray) else int(v) % q
        span *= q
    return code


def _view_code(values, q: int, count: int) -> np.ndarray:
    """View code per state that means the same in every chunk: _pack's
    radix-q code, refused when _pack would have to compact it (a compacted
    code is a rank within its own chunk)."""
    values = list(values)
    if q ** max(len(values) - 1, 0) > (1 << 55) // max(q, 2):
        raise BudgetExceeded("a view of %d values over F_%d does not pack "
                             "into one int64 code" % (len(values), q))
    return _pack(values, q, count)


def _noise_vectors(digit, depth: int, K: int, drop_top: bool) -> list:
    """Noise K-vectors j = 1..depth of one storage or query row, entry k of
    vector j read as digit(j, k); ``drop_top`` zeroes vector depth, which
    is how the storage and query mutants remove their ingredient. Entries
    are read lazily and once, so a batch holds only the row being built."""
    return [[0] * K if drop_top and j == depth else map(digit, [j] * K, range(K))
            for j in range(1, depth + 1)]


def _decide(stream, blocks: BlockStream, q: int) -> MIResult:
    """Exact independence of a view from a uniform secret.

    ``stream()`` yields (secret, view) per chunk, in state order, each
    secret value owning ``blocks.block`` consecutive states: ``view`` is
    the chunk's view code and ``secret()`` computes its secret code.  The
    block test decides.  Only when a block differs are the secret codes
    computed, for mi_exact to size the leak: the chunks already read are
    reused while they hold at most CHUNK_STATES states, and read again
    otherwise."""
    chunks = stream()
    held, states = [], 0
    for secret, view in chunks:
        states += view.shape[0]
        if states > CHUNK_STATES:
            held = None
        elif held is not None:
            held.append((secret, view))
        if not blocks.feed(view):
            break
    else:
        if blocks.complete:
            return MIResult(zero=True, bits=0.0)
    if held is None:
        held, chunks = [], stream()
    secret, view = zip(*[(secret(), view) for secret, view
                         in itertools.chain(held, chunks)])
    return mi_exact(np.concatenate(secret), np.concatenate(view), base=q)


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
        self.digit = None
        self._cache = {}
        s0, s1 = scheme.plan.message_slices
        self._slices = (tuple(s0), tuple(s1))

    # ---- grid binding -------------------------------------------------

    def bind(self, grid: StateGrid, idx) -> "RoundFormulas":
        """Evaluate on the states ``idx``, a chunk from ``grid.chunks()`` or
        an index array; ``digit(name)`` then reads a grid digit over them."""
        self.digit = grid.reader(idx)
        self._cache = {}
        return self

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # ---- formula inputs -----------------------------------------------

    def payload(self, i: int, l: int) -> list:
        K, dummies = self.cfg.K, self.plan.dummies
        if i == 0 and l < dummies:
            return [self.digit(("dum", l, k)) for k in range(K)]
        d = self._slices[i][l - dummies if i == 0 else l]
        return [self.digit(("w", k, d)) for k in range(K)]

    def _noise(self, kind: str, i: int, l: int, depth: int, mutant: str):
        return _noise_vectors(lambda j, k: self.digit((kind, i, l, j, k)),
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
            [self.digit(("zp", i, j)) for j in range(1, plan.m[i] + 1)],
            [self.digit(("rp", i, j)) for j in range(1, plan.B + 1)],
            self.q))

    def honest(self, i: int, n: int):
        return self._memo(("h", i, n), lambda: honest_answer(
            self.zhat(i, n), self.storage_rows(i, n), self.query_rows(i, n),
            self.q))

    def _byz_context(self) -> ByzContext:
        """The coalition's view of this batch, with the enumerated strategy
        digits as its randomness."""
        inst = self.plan.instances
        byz = self.byz
        return ByzContext(
            q=self.q, servers=byz, instances=len(inst),
            storage={n: tuple(self.storage_rows(i, n) for i in inst)
                     for n in byz},
            queries={n: tuple(self.query_rows(i, n) for i in inst)
                     for n in byz},
            zhat={n: tuple(self.zhat(i, n) for i in inst) for n in byz},
            honest={n: tuple(self.honest(i, n) for i in inst) for n in byz},
            stream=_GridStream(self.q, [self.digit(name) for name in
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


def round_digit_names(cfg: SchemeConfig, plan: RegimePlan, scheme: BuiltScheme,
                      strategy: str = "honest-zero", byzantine=(),
                      mutation: str | None = None,
                      drop_masked: bool = True):
    """Full digit inventory of one round, plus the masking coordinates the
    transfer box drops, which the box-output view never reads.

    With ``drop_masked`` false those coordinates stay on the grid and the
    dropped list is empty: views taken before the box carry them."""
    names = []
    for k in range(cfg.K):
        for d in range(plan.L1 + plan.L2):
            names.append(("w", k, d))
    for l in range(plan.dummies):
        for k in range(cfg.K):
            names.append(("dum", l, k))
    for i in plan.instances:
        for l in range(plan.c[i]):
            for j in range(1, cfg.H + 1):
                for k in range(cfg.K):
                    names.append(("sr", i, l, j, k))
    for s in range(plan.query_sets):
        for l in range(plan.c[s]):
            for j in range(1, plan.t[s] + 1):
                for k in range(cfg.K):
                    names.append(("qz", s, l, j, k))
    dropped = []
    for i in plan.instances:
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
    return [("dev", i, n) for n in sorted(byzantine) for i in plan.instances]


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
    secret = [("w", k) for k in range(K)]
    names = secret + [("sr", j, k) for j in range(1, H + 1) for k in range(K)]
    grid = StateGrid(q, names, budget, secret=secret)
    drop = mutation == "storage-drop-top-noise"

    def stream(coalition):
        for idx in grid.chunks():
            digit = grid.reader(idx)
            payload = [digit(nm) for nm in secret]
            view = []
            for n in coalition:
                noise = _noise_vectors(lambda j, k: digit(("sr", j, k)),
                                       H, K, drop)
                x = (pts.fs[0] - pts.alphas[n]) % q
                view.extend(storage_row(payload, noise, x, q))
            yield (partial(_pack, payload, q, len(idx)),
                   _view_code(view, q, len(idx)))

    failures = []
    for coalition in itertools.combinations(range(N), H):
        res = _decide(lambda: stream(coalition), BlockStream(grid.block), q)
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
    sets = plan.query_sets
    names = [("qz", s, l, j, k)
             for s in range(sets)
             for l in range(plan.c[s])
             for j in range(1, plan.t[s] + 1)
             for k in range(K)]
    grid = StateGrid(q, names, budget)
    drop = mutation == "query-zero-last-noise"

    def stream(coalition):
        # theta is the secret: each value owns one pass over the grid
        for theta in range(K):
            for idx in grid.chunks():
                digit = grid.reader(idx)
                view = []
                for n in coalition:
                    for s in range(sets):
                        for l in range(plan.c[s]):
                            noise = _noise_vectors(
                                lambda j, k: digit(("qz", s, l, j, k)),
                                plan.t[s], K, drop)
                            x = (pts.fs[l] - pts.alphas[n]) % q
                            view.extend(query_row(theta, K, noise, x, q))
                yield (partial(np.full, len(idx), theta, dtype=np.int64),
                       _view_code(view, q, len(idx)))

    total = K * grid.states
    failures = []
    for coalition in itertools.combinations(range(N), min(M, N)):
        res = _decide(lambda: stream(coalition), BlockStream(grid.states),
                      q)
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
    for m in dict.fromkeys(m_pair):
        # the instance index is notational; the formula depends only on m
        zp_names = [("zp", 0, j) for j in range(1, m + 1)]
        rp_names = [("rp", 0, j) for j in range(1, B + 1)]
        grid = StateGrid(q, zp_names + rp_names, budget, secret=zp_names)
        total += grid.states
        share = grid.states // (q ** B)

        def stream(coalition):
            for idx in grid.chunks():
                digit = grid.reader(idx)
                zp = [digit(nm) for nm in zp_names]
                rp = ([0] * B if mutation == "mask-no-rprime"
                      else [digit(nm) for nm in rp_names])
                view = [mask_share(alphas[n], zp, rp, q) for n in coalition]
                yield partial(_pack, zp, q, len(idx)), _pack(view, q, len(idx))

        for coalition in itertools.combinations(range(N), B):
            blocks = BlockStream(grid.block)
            res = _decide(lambda: stream(coalition), blocks, q)
            if res.zero:
                # every block holds the reference multiset
                _, counts = np.unique(blocks.ref, return_counts=True)
                counts *= grid.states // grid.block
            else:
                view = np.concatenate([v for _, v in stream(coalition)])
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
        zp_names = [[("zp", i, j) for j in range(1, m + 1)]
                    for i, m in enumerate(m_pair)]
        rp_names = [[("rp", i, j) for j in range(1, B + 1)] for i in (0, 1)]
        secret = [("zp", i, j) for i in (0, 1) for j in surv_l[i]]
        grid = StateGrid(q, zp_names[0] + zp_names[1] + rp_names[0]
                         + rp_names[1], budget, secret=secret)

        def stream(coalition):
            for idx in grid.chunks():
                digit = grid.reader(idx)
                view = [digit(("rp", i, j)) for i in (0, 1) for j in surv_h[i]]
                view += [mask_share(alphas[n], [digit(nm) for nm in zp_names[i]],
                                    [digit(nm) for nm in rp_names[i]], q)
                         for i in (0, 1) for n in coalition]
                yield (partial(_pack, [digit(nm) for nm in secret], q,
                               len(idx)),
                       _view_code(view, q, len(idx)))

        failures = []
        for coalition in coalitions:
            res = _decide(lambda: stream(coalition), BlockStream(grid.block),
                          q)
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
            secret = [("w", k, d) for k in range(K) if k != theta
                      for d in range(plan.L1 + plan.L2)]
            grid = StateGrid(q, names, budget, secret=secret)
            fm = RoundFormulas(scheme, theta, byzantine=byz, strategy=tag,
                               mutation=mutation)

            def stream():
                for idx in grid.chunks():
                    fm.bind(grid, idx)
                    view = fm.measured_rows()
                    view += [fm.digit(nm) for nm in qz_names]
                    yield (partial(_pack, [fm.digit(nm) for nm in secret], q,
                                   len(idx)),
                           _view_code(view, q, len(idx)))

            total += grid.states
            res = _decide(stream, BlockStream(grid.block), q)
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
    sets = plan.query_sets
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


def _relay_query_rows(digit, pts, q, K, theta, s, n, plan, aggregated):
    """Query K-vectors server n receives for query set s, from either the
    raw noise digits or their enumerated evaluations at n."""
    rows = []
    for l in range(plan.c[s]):
        x = (pts.fs[l] - pts.alphas[n]) % q
        if aggregated:
            inv = fe_inv(x, q)
            rows.append(tuple(
                (int(k == theta) + digit(("agg", s, l, n, k))) * inv % q
                for k in range(K)))
        else:
            noise = _noise_vectors(lambda j, k: digit(("qz", s, l, j, k)),
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
            insts = plan.instances

            def stream():
                # theta is the secret: the relayed view is a function of
                # (theta, query noise) only; messages never enter it, so
                # I(theta, W; view) = I(theta; view)
                for theta in range(K):
                    for idx in grid.chunks():
                        digit = grid.reader(idx)
                        rows = {(s, n): _relay_query_rows(digit, pts, q, K,
                                                          theta, s, n, plan,
                                                          aggregated)
                                for s in range(sets)
                                for n in set(up) | set(down)}
                        view = [v for n in up for s in range(sets)
                                for row in rows[s, n] for v in row]
                        # a relayed dit replaces the whole answer, so it is
                        # the strategy's deviation from an honest answer of
                        # zero; storage and masking never enter it
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
                                view.append(dit)
                        yield (partial(np.full, len(idx), theta,
                                       dtype=np.int64),
                               _view_code(view, q, len(idx)))

            total += K * grid.states
            res = _decide(stream, BlockStream(grid.states), q)
            if not res.zero:
                failures.append((kind, "relay", round(res.bits, 4)))
            details_parts.append("%s relay:%s" % (kind, "ok" if res.zero else "LEAK"))
            continue

        # downlink dits are taken before the transfer box, so they carry
        # every masking coefficient, the dropped ones included
        names, _ = round_digit_names(cfg, plan, scheme, strategy=strategy,
                                     byzantine=byzantine, mutation=mutation,
                                     drop_masked=False)
        secret = [("w", k, d) for k in range(K)
                  for d in range(plan.L1 + plan.L2)]
        grid = StateGrid(q, names, budget, secret=secret)
        sets = plan.query_sets
        formulas = [RoundFormulas(scheme, theta, byzantine=byzantine,
                                  strategy=strategy, mutation=mutation)
                    for theta in range(K)]

        def stream():
            # the secret is (theta, messages): theta-major, then one block
            # per message value
            for theta, fm in enumerate(formulas):
                for idx in grid.chunks():
                    fm.bind(grid, idx)
                    view = [v for n in up for i in range(sets)
                            for row in fm.query_rows(i, n) for v in row]
                    for n in down:
                        view.extend(fm.downlink_pair(n))
                    sec = [np.full(len(idx), theta, dtype=np.int64)]
                    sec += [fm.digit(nm) for nm in secret]
                    yield (partial(_pack, sec, q, len(idx)),
                           _view_code(view, q, len(idx)))

        total += K * grid.states
        res = _decide(stream, BlockStream(grid.block), q)
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
