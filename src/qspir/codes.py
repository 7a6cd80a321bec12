"""Structured code matrices: Cauchy/Vandermonde hybrids and their scalings.

The central object is the square hybrid matrix whose row for evaluation
point a_i is

    [ 1/(f_1-a_i) ... 1/(f_L-a_i) | 1  a_i  a_i^2 ... a_i^{n-L-1} ]

(L Cauchy columns followed by n-L Vandermonde columns). Its inverse drives
interference alignment and decoding throughout the protocol. Row-scaled
by u (instance 1) or by the dual scaling v (instance 2), its columns are
the generator columns of the two-instance transfer box; the dual scaling
makes the power columns of the two instances self-orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPoints, DimensionMismatch, FieldTooSmall
from .field import FqMatrix, fe_inv, is_prime


@dataclass(frozen=True)
class Points:
    """Evaluation data: server points alphas and alignment points fs, all
    reduced mod the prime q."""

    q: int
    alphas: tuple[int, ...]
    fs: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.q):
            raise BadPoints(f"{self.q} is not prime")
        object.__setattr__(self, "alphas", tuple(a % self.q for a in self.alphas))
        object.__setattr__(self, "fs", tuple(f % self.q for f in self.fs))
        if len(set(self.alphas)) != len(self.alphas):
            raise BadPoints("alpha points not pairwise distinct")
        if len(set(self.fs)) != len(self.fs):
            raise BadPoints("f points not pairwise distinct")
        if set(self.alphas) & set(self.fs):
            raise BadPoints("alpha and f points collide")

    def restrict(self, indices) -> "Points":
        """Sub-family keeping only the alpha points at the given 0-based indices."""
        alphas = tuple(self.alphas[i] for i in indices)
        return Points(self.q, alphas, self.fs)


def canonical_points(N: int, num_f: int, q: int) -> Points:
    """Default placement: alphas 1..N, fs following them (wrapping mod q).
    FieldTooSmall when q cannot host all distinct values."""
    if N + num_f > q:
        raise FieldTooSmall(
            f"need {N}+{num_f} distinct points but q={q}"
        )
    alphas = tuple(range(1, N + 1))
    fs = tuple((N + j) % q for j in range(1, num_f + 1))
    return Points(q, alphas, fs)


def build_csa(n_rows: int, L: int, pts: Points) -> FqMatrix:
    """Square n_rows x n_rows hybrid matrix over the first n_rows alphas:
    L Cauchy columns (points fs[:L]) then n_rows-L power columns."""
    return _hybrid(n_rows, L, pts, None)


def build_qcsa(N: int, L: int, pts: Points, u) -> FqMatrix:
    """Row-scaled hybrid matrix diag(u) * CSA(N, L)."""
    return _hybrid(N, L, pts, u)


def _hybrid(n_rows: int, L: int, pts: Points, scale) -> FqMatrix:
    """CSA(n_rows, L), each row multiplied by its scale entry as it is
    built (no scaling when scale is None)."""
    q = pts.q
    if n_rows > len(pts.alphas):
        raise DimensionMismatch(
            f"need {n_rows} alpha points, have {len(pts.alphas)}"
        )
    if L > len(pts.fs):
        raise DimensionMismatch(f"need {L} f points, have {len(pts.fs)}")
    if L > n_rows:
        raise DimensionMismatch("more Cauchy columns than rows")
    scale = (1,) * n_rows if scale is None else _check_scaling(n_rows, scale, q)
    data = []
    for a, s in zip(pts.alphas[:n_rows], scale):
        data.extend(s * fe_inv(pts.fs[j] - a, q) % q for j in range(L))
        p = s
        for _ in range(n_rows - L):
            data.append(p)
            p = p * a % q
    return FqMatrix(n_rows, n_rows, q, tuple(data))


def dual_scaling(u, pts: Points) -> tuple[int, ...]:
    """Second-instance scaling: v_j = u_j^{-1} * prod_{i != j} (a_j - a_i)^{-1}.

    With this choice sum_n u_n v_n a_n^k = 0 for every 0 <= k <= N-2, the
    identity behind self-orthogonality of the paired instance generators.
    """
    q = pts.q
    N = len(pts.alphas)
    u = _check_scaling(N, u, q)
    v = []
    for j in range(N):
        prod = 1
        for i in range(N):
            if i != j:
                prod = prod * ((pts.alphas[j] - pts.alphas[i]) % q) % q
        v.append(fe_inv(u[j], q) * fe_inv(prod, q) % q)
    return tuple(v)


def _check_scaling(N: int, u, q: int) -> tuple[int, ...]:
    u = tuple(int(x) % q for x in u)
    if len(u) != N:
        raise DimensionMismatch(f"scaling vector length {len(u)} != {N}")
    if any(x == 0 for x in u):
        raise BadPoints("scaling vector has a zero entry")
    return u
