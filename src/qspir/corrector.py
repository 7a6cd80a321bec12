"""Byzantine contamination location and cancellation.

A deviation vector Delta supported on at most B responsive servers perturbs
the interpolated coefficient vector by Cinv * Delta, where Cinv is the
inverse of the responsive interpolation matrix (payload Cauchy columns
followed by the masked-degree power columns). The honest coefficient vector
ends with 2B zeros, so the receiver sees, in those slots, two stacked B-row
snapshots of the contamination. For a candidate support J:

    Psi(J) = last B rows of Cinv, columns J       (estimation block)
    Phi(J) = preceding B rows of Cinv, columns J  (consistency block)

Delta is estimated from the Psi block and accepted iff the Phi block
agrees.

The liars are located, not searched for. The last 2B rows of Cinv are a
parity-check matrix of a generalized Reed-Solomon code, up to an
invertible 2B x 2B row transform R:

    last 2B rows of Cinv = R * [w_n a_n^j],  j = 0..2B-1,

with a_n the responsive alphas and w_n the dual column multipliers (see
syndromes). So R^-1 maps the contaminated slots to the power sums
S_j = sum_n w_n a_n^j Delta_n, and Berlekamp-Massey plus a root search over
the alphas returns the support of the unique deviation of weight at most B
behind them (the code has minimum distance 2B+1). The supports consistent
in an instance are exactly the size-B supersets of that support, so the
lexicographically first support consistent in every instance is the union
of the located supports padded with the lowest unused indices; it is still
checked with estimate_and_check before it is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecodeFailure, DimensionMismatch, Singular
from .field import FqMatrix


@dataclass(frozen=True)
class CorrectionViews:
    """Responsive interpolation matrix and its inverse for one instance."""

    csa: FqMatrix
    cinv: FqMatrix
    payload: int
    mask: int
    B: int

    @property
    def nv(self) -> int:
        return self.cinv.rows


@dataclass(frozen=True)
class DeviationEstimate:
    """Candidate support J with its estimated per-server deviations."""

    J: tuple[int, ...]
    delta: tuple[int, ...]
    consistent: bool


def build_views(csa: FqMatrix, payload_len: int, mask_len: int,
                byz_count: int) -> CorrectionViews:
    """Precompute Cinv for a responsive interpolation matrix whose columns
    are payload_len Cauchy + (mask_len + 3*byz_count) power columns."""
    if payload_len + mask_len + 3 * byz_count != csa.rows:
        raise DimensionMismatch(
            f"payload {payload_len} + mask {mask_len} + 3B "
            f"{3 * byz_count} != matrix size {csa.rows}"
        )
    return CorrectionViews(csa=csa, cinv=csa.inv(), payload=payload_len,
                           mask=mask_len, B=byz_count)


def phi(views: CorrectionViews, J) -> FqMatrix:
    nv, B = views.nv, views.B
    return views.cinv.take_rows(range(nv - 2 * B, nv - B)).take_cols(J)


def psi(views: CorrectionViews, J) -> FqMatrix:
    nv, B = views.nv, views.B
    return views.cinv.take_rows(range(nv - B, nv)).take_cols(J)


def estimate_and_check(views: CorrectionViews, contaminated, J) -> DeviationEstimate:
    """Estimate deviations on support J from the last-B contaminated slots
    and test consistency against the preceding B slots."""
    B = views.B
    J = tuple(J)
    if len(contaminated) != 2 * B:
        raise DimensionMismatch("contaminated block must have 2B entries")
    try:
        delta = psi(views, J).solve(contaminated[B:])
    except Singular:
        # the invertibility lemma says this cannot happen for true layouts;
        # treat defensively as an inconsistent candidate
        return DeviationEstimate(J=J, delta=(0,) * B, consistent=False)
    check = phi(views, J).matvec(delta)
    ok = tuple(check) == tuple(x % views.cinv.q for x in contaminated[:B])
    return DeviationEstimate(J=J, delta=tuple(delta), consistent=ok)


def correction_vector(views: CorrectionViews, J, delta) -> tuple[int, ...]:
    """Full nv-length contamination vector Cinv[:, J] * delta."""
    if not J:
        return (0,) * views.nv
    return views.cinv.take_cols(J).matvec(delta)


def syndromes(views: CorrectionViews, z) -> list[int]:
    """Power sums S_j = sum_n w_n a_n^j Delta_n (j < 2B) of the deviation
    behind the contaminated slots z, a_n the responsive alphas (column
    payload + 1 of csa) and w_n = 1 / (prod_l csa[n, l] *
    prod_{m != n} (a_n - a_m)) the dual column multipliers.

    S = R^-1 z, and R^-1 = [w_n a_n^j] * (last 2B columns of csa) since the
    rows [w_n a_n^j] vanish on the other columns. Those columns are the
    powers off .. off+2B-1 of the alphas (off = nv - payload - 2B), so R^-1
    is the Hankel matrix of h_e = sum_n w_n a_n^(off+e). As
    1 / prod_l csa[n, l] = prod_l (f_l - a_n) and
    sum_n a_n^k / prod_{m != n} (a_n - a_m) is the complete homogeneous
    symmetric polynomial of degree k - nv + 1 in the alphas (0 in negative
    degree), h_e is 0 for e < 2B - 1 and h_(2B-1+d) is the x^d coefficient
    of prod_l (f_l x - 1) / prod_n (1 - a_n x). The f points are read back
    as f_l = a_0 + 1 / csa[0, l]."""
    csa, L, q = views.csa, views.payload, views.csa.q
    B2 = 2 * views.B
    alphas = csa.col(L + 1)
    g = [1] + [0] * (B2 - 1)  # the series above, truncated after x^(2B-1)
    for c in csa.row(0)[:L]:
        f = alphas[0] + pow(c, -1, q)
        for d in range(B2 - 1, 0, -1):
            g[d] = (f * g[d - 1] - g[d]) % q
        g[0] = -g[0] % q
    for a in alphas:
        for d in range(1, B2):
            g[d] = (g[d] + a * g[d - 1]) % q
    return [sum(g[j + k - B2 + 1] * z[k] for k in range(B2 - 1 - j, B2)) % q
            for j in range(B2)]


def _berlekamp_massey(seq, q: int) -> tuple[int, list[int]]:
    """Shortest linear recurrence of seq over F_q: (L, [c_0 = 1, ..., c_L])
    with sum_i c_i seq[n - i] = 0 for L <= n < len(seq)."""
    conn, prev = [1], [1]
    length, shift, last = 0, 1, 1
    for n, s in enumerate(seq):
        d = s
        for i in range(1, length + 1):
            d += conn[i] * seq[n - i]
        d %= q
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last, -1, q) % q
        old = list(conn)
        conn += [0] * (len(prev) + shift - len(conn))
        for i, b in enumerate(prev):
            conn[i + shift] = (conn[i + shift] - coef * b) % q
        if 2 * length <= n:
            length, prev, last, shift = n + 1 - length, old, d, 1
        else:
            shift += 1
    return length, (conn + [0] * length)[: length + 1]


def locate(views: CorrectionViews, z) -> tuple[int, ...] | None:
    """Support of the unique deviation of weight at most B whose
    contamination is z, or None when no such deviation exists."""
    B, q = views.B, views.csa.q
    if len(z) != 2 * B:
        raise DimensionMismatch("contaminated block must have 2B entries")
    if not any(x % q for x in z):
        return ()
    length, conn = _berlekamp_massey(syndromes(views, z), q)
    if length > B:
        return None
    roots = []
    for n, a in enumerate(views.csa.col(views.payload + 1)):
        # the locator polynomial sum_i c_i x^(L-i) vanishes at the liars
        acc = 0
        for c in conn:
            acc = (acc * a + c) % q
        if acc == 0:
            roots.append(n)
    return tuple(roots) if len(roots) == length else None


def search_joint(views_list, zblocks):
    """Lexicographically first support consistent in every instance.

    views_list / zblocks hold one entry per instance; the support candidate
    is shared across instances (the lying servers are the same). Returns
    (accepted J, per-instance estimated deltas); DecodeFailure when no
    candidate of size B explains all contaminated blocks. J is the union of
    the supports locate finds, padded with the lowest unused indices.
    """
    if not views_list:
        raise DimensionMismatch("need at least one instance")
    B = views_list[0].B
    nv = views_list[0].nv
    located = [locate(views, z) for views, z in zip(views_list, zblocks)]
    if None not in located:
        liars = set().union(*located)
        if len(liars) <= B:
            pad = [n for n in range(nv) if n not in liars][: B - len(liars)]
            J = tuple(sorted(liars.union(pad)))
            estimates = [estimate_and_check(views, z, J)
                         for views, z in zip(views_list, zblocks)]
            if all(est.consistent for est in estimates):
                return J, [est.delta for est in estimates]
    raise DecodeFailure(
        f"no Byzantine candidate set of size {B} is consistent with the "
        f"received correction data"
    )


def search_and_correct(views_list, zblocks):
    """search_joint plus the full per-instance correction vectors."""
    accepted, deltas = search_joint(views_list, zblocks)
    corrections = [
        correction_vector(views, accepted, delta)
        for views, delta in zip(views_list, deltas)
    ]
    return accepted, corrections
