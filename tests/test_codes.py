import pytest

from qspir.codes import (
    Points,
    build_csa,
    build_qcsa,
    canonical_points,
    dual_scaling,
)
from qspir.errors import BadPoints, DimensionMismatch, FieldTooSmall
from qspir.field import fe_inv


# ---------------------------------------------------------
# point families
# ---------------------------------------------------------

def test_canonical_points_distinct():
    pts = canonical_points(6, 2, 13)
    assert len(set(pts.alphas)) == 6
    assert len(set(pts.fs)) == 2
    assert not set(pts.alphas) & set(pts.fs)


def test_canonical_points_field_too_small():
    with pytest.raises(FieldTooSmall):
        canonical_points(5, 1, 5)


def test_canonical_points_no_f_points():
    pts = canonical_points(5, 0, 5)
    assert pts.fs == ()
    # values normalize mod q yet stay pairwise distinct
    assert pts.alphas == (1, 2, 3, 4, 0)


def test_points_reject_collisions():
    with pytest.raises(BadPoints):
        Points(7, (1, 1, 2), (3,))
    with pytest.raises(BadPoints):
        Points(7, (1, 2), (2,))


def test_restrict_keeps_selected_alphas():
    pts = canonical_points(5, 1, 11)
    sub = pts.restrict((0, 2, 4))
    assert sub.alphas == (1, 3, 5)
    assert sub.fs == pts.fs


# ---------------------------------------------------------
# generator matrices
# ---------------------------------------------------------

def test_csa_is_invertible_across_sizes():
    """Cauchy part + Vandermonde tail stays nonsingular for distinct points."""
    for q in (11, 13, 257):
        for n in range(2, 7):
            for L in range(0, n + 1):
                if n + max(L, 1) > q:
                    continue
                pts = canonical_points(n, max(L, 1), q)
                m = build_csa(n, L, pts)
                assert m.rank() == n


def test_csa_entries_formula():
    q = 13
    pts = canonical_points(3, 2, q)
    m = build_csa(3, 2, pts)
    for n in range(3):
        a = pts.alphas[n]
        assert m[(n, 0)] == fe_inv((pts.fs[0] - a) % q, q)
        assert m[(n, 1)] == fe_inv((pts.fs[1] - a) % q, q)
        assert m[(n, 2)] == 1  # degree-0 power column


def test_qcsa_is_scaled_csa():
    q = 13
    pts = canonical_points(4, 1, q)
    u = (1, 2, 3, 4)
    base = build_csa(4, 1, pts)
    scaled = build_qcsa(4, 1, pts, u)
    for n in range(4):
        assert scaled.row(n) == tuple(u[n] * x % q for x in base.row(n))


def test_scaling_must_be_nonzero():
    pts = canonical_points(3, 1, 7)
    with pytest.raises(BadPoints):
        build_qcsa(3, 1, pts, (1, 0, 2))


# ---------------------------------------------------------
# dual scaling identity
# ---------------------------------------------------------

def test_dual_scaling_moment_identity():
    """sum_n u_n v_n a_n^k = 0 for k = 0..N-2, the pairing that makes the
    two-instance generators self-orthogonal."""
    for q in (13, 257):
        for N in range(2, 8):
            pts = canonical_points(N, 0, q)
            u = tuple(range(1, N + 1))
            v = dual_scaling(u, pts)
            for k in range(N - 1):
                s = sum(u[n] * v[n] * pow(pts.alphas[n], k, q) for n in range(N))
                assert s % q == 0
            # degree N-1 moment must NOT vanish (otherwise v would be zero)
            s = sum(u[n] * v[n] * pow(pts.alphas[n], N - 1, q) for n in range(N))
            assert s % q != 0


def test_build_size_guards():
    pts = canonical_points(3, 1, 11)
    with pytest.raises(DimensionMismatch):
        build_csa(4, 1, pts)
    with pytest.raises(DimensionMismatch):
        build_csa(3, 2, pts)
