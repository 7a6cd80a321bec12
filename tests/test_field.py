import numpy as np
import pytest

from qspir.errors import DimensionMismatch, Singular, ZeroInverse
from qspir.field import FqMatrix, fe_inv
from qspir.kernel import KERNEL_NAME


# ---------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------

def test_fe_inv_exhaustive_small_primes():
    for q in (2, 3, 5, 7, 11, 13):
        for a in range(1, q):
            assert a * fe_inv(a, q) % q == 1


def test_fe_inv_rejects_zero():
    with pytest.raises(ZeroInverse):
        fe_inv(0, 7)


# ---------------------------------------------------------
# matrix operations against naive oracles
# ---------------------------------------------------------

def naive_mul(a, b, q):
    n, m = len(a), len(b[0])
    inner = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            out[i][j] = sum(a[i][k] * b[k][j] for k in range(inner)) % q
    return out


def random_rows(rng, n, m, q):
    return [[int(rng.integers(0, q)) for _ in range(m)] for _ in range(n)]


# primes just above 2**31 and 2**32: field elements outgrow a signed, then an
# unsigned 32-bit int
LARGE_PRIMES = (2147483659, 4294967311)


def test_mul_matches_naive():
    rng = np.random.default_rng(5)
    for q in (5, 13, 257) + LARGE_PRIMES:
        for _ in range(5):
            a = random_rows(rng, 4, 3, q)
            b = random_rows(rng, 3, 6, q)
            got = FqMatrix.from_rows(a, q).mul(FqMatrix.from_rows(b, q))
            assert got.to_rows() == naive_mul(a, b, q)


def test_inverse_roundtrip():
    rng = np.random.default_rng(6)
    for q in (7, 257) + LARGE_PRIMES:
        for _ in range(10):
            rows = random_rows(rng, 5, 5, q)
            m = FqMatrix.from_rows(rows, q)
            try:
                inv = m.inv()
            except Singular:
                assert m.rank() < 5
                continue
            eye = m.mul(inv).to_rows()
            assert eye == [[1 if i == j else 0 for j in range(5)]
                           for i in range(5)]


def test_rank_of_constructed_deficiency():
    q = 11
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 0]]  # row 2 = 2 * row 1
    assert FqMatrix.from_rows(rows, q).rank() == 2


def test_solve_matches_matvec():
    rng = np.random.default_rng(7)
    for q in (13,) + LARGE_PRIMES:
        for _ in range(10):
            rows = random_rows(rng, 4, 4, q)
            m = FqMatrix.from_rows(rows, q)
            if m.rank() < 4:
                continue
            x = [int(rng.integers(0, q)) for _ in range(4)]
            y = m.matvec(x)
            assert list(m.solve(y)) == x


def test_dimension_mismatch_raises():
    a = FqMatrix.from_rows([[1, 2]], 5)
    b = FqMatrix.from_rows([[1, 2]], 5)
    with pytest.raises(DimensionMismatch):
        a.mul(b)


def test_mixed_moduli_rejected():
    a = FqMatrix.from_rows([[1]], 5)
    b = FqMatrix.from_rows([[1]], 7)
    with pytest.raises(DimensionMismatch):
        a.mul(b)


def test_nonsquare_inverse_rejected():
    with pytest.raises(DimensionMismatch):
        FqMatrix.from_rows([[1, 2]], 5).inv()


def test_kernel_name_is_reported():
    assert KERNEL_NAME == "pure"
