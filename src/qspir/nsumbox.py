"""Transfer-matrix abstraction of the two-instance quantum channel.

A box is described by a 2N x 2N generator stack [G H]: G holds the N
column directions whose input coefficients are lost over the air, H the N
directions the receiver recovers. Feasibility requires G to be strongly
self-orthogonal under the symplectic form J = [[0, I], [-I, 0]] and the
stack to be invertible; the receiver map is then Gprime = [0 I][G H]^{-1},
which hands the receiver the coefficients of the H directions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
