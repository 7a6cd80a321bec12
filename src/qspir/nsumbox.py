"""Transfer-matrix abstraction of the two-instance quantum channel.

A box is described by a 2N x 2N generator stack [G H]: G holds the N
column directions whose input coefficients are lost over the air, H the N
directions the receiver recovers. Feasibility requires G to be strongly
self-orthogonal under the symplectic form J = [[0, I], [-I, 0]] and the
stack to be invertible; the receiver map is then Gprime = [0 I][G H]^{-1}.

The dual construction pairs two row-scaled hybrid matrices whose scalings
(u, v) satisfy sum_n u_n v_n a_n^k = 0 for k <= N-2, which makes any split
of the power columns across the two instances self-orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import Points, build_qcsa, dual_scaling
from .errors import DimensionMismatch, NotInvertible, NotSSO, Singular
from .field import FqMatrix


def check_sso(G: FqMatrix) -> bool:
    """True iff G (shape 2N x m) satisfies G^t J G = 0."""
    if G.rows % 2 != 0:
        raise DimensionMismatch("SSO check needs an even number of rows")
    N = G.rows // 2
    top = G.take_rows(range(N))
    bot = G.take_rows(range(N, 2 * N))
    # G^t J G = top^t * bot - bot^t * top
    prod = top.transpose().mul(bot)
    return prod.add(prod.transpose().neg()).is_zero()


@dataclass(frozen=True)
class TransferBox:
    """Feasible N x 2N receiver map plus the generator stack it came from."""

    N: int
    q: int
    gprime: FqMatrix
    g: FqMatrix
    h: FqMatrix

    def apply(self, x) -> tuple[int, ...]:
        """Receiver output for the 2N-dit input vector x."""
        return self.gprime.matvec(x)

    @property
    def generator(self) -> FqMatrix:
        return self.g.hstack(self.h)


def make_transfer(G: FqMatrix, H: FqMatrix) -> TransferBox:
    """Build the box for generator pair (G, H); NotSSO / NotInvertible on
    infeasible input."""
    if G.q != H.q:
        raise DimensionMismatch("mixed fields")
    if G.rows != H.rows or G.rows % 2 != 0:
        raise DimensionMismatch("G and H must both be 2N x N")
    N = G.rows // 2
    if G.cols != N or H.cols != N:
        raise DimensionMismatch("G and H must both be 2N x N")
    if not check_sso(G):
        raise NotSSO("dropped-direction block is not self-orthogonal")
    stack = G.hstack(H)
    try:
        inv = stack.inv()
    except Singular as exc:
        raise NotInvertible("generator stack [G H] is singular") from exc
    gprime = inv.take_rows(range(N, 2 * N))
    return TransferBox(N=N, q=G.q, gprime=gprime, g=G, h=H)


def precode(box: TransferBox, V1: FqMatrix, V2: FqMatrix) -> TransferBox:
    """Box with per-side precoders: generator pair (G V1, H V2).

    Self-orthogonality survives any invertible V1 (V1^t G^t J G V1 = 0) and
    the stack stays invertible, so the result is again feasible; its receiver
    map is [0 I] blkdiag(V1, V2)^{-1} [G H]^{-1}.
    """
    V1.inv()  # raises Singular if not invertible
    V2.inv()
    return make_transfer(box.g.mul(V1), box.h.mul(V2))


def make_transfer_dual_qcsa(pts: Points, u, L: int) -> TransferBox:
    """Dual-pair box: instance generators diag(u)*hybrid and diag(v)*hybrid.

    Column split: instance 1 keeps its L Cauchy coordinates and its top
    mu - L power coordinates (degrees nu..N-L-1), instance 2 keeps its L
    Cauchy coordinates and top nu - L powers; the bottom nu (resp. mu)
    power coordinates are dropped, nu = ceil(N/2), mu = floor(N/2).
    """
    N = len(pts.alphas)
    q = pts.q
    mu, nu = N // 2, (N + 1) // 2
    if L > mu:
        raise DimensionMismatch(f"L = {L} exceeds floor(N/2) = {mu}")
    hu = build_qcsa(N, L, pts, u)
    v = dual_scaling(u, pts)
    hv = build_qcsa(N, L, pts, v)
    zero = FqMatrix.zeros(N, N, q)
    top = hu.hstack(zero)   # instance-1 columns, upper half active
    bot = zero.hstack(hv)   # instance-2 columns, lower half active
    cols = top.vstack(bot)  # 2N x 2N, columns 0..N-1 inst-1, N..2N-1 inst-2
    drop_idx = [L + j for j in range(nu)] + [N + L + j for j in range(mu)]
    keep_idx = (
        list(range(L))
        + [L + nu + j for j in range(mu - L)]
        + [N + j for j in range(L)]
        + [N + L + mu + j for j in range(nu - L)]
    )
    return make_transfer(cols.take_cols(drop_idx), cols.take_cols(keep_idx))
