import pytest

from conftest import box_defects, scheme_boxes

from qspir.codes import build_qcsa, canonical_points, dual_scaling
from qspir.errors import NotInvertible, NotSSO
from qspir.field import FqMatrix
from qspir.nsumbox import check_sso, make_transfer


# ---------------------------------------------------------
# self-orthogonality oracle
# ---------------------------------------------------------

def naive_sso(G):
    """Direct G^t J G computation with J = [[0, I], [-I, 0]]."""
    q = G.q
    N = G.rows // 2
    m = G.cols
    for a in range(m):
        for b in range(m):
            s = 0
            for r in range(N):
                s += G[(r, a)] * G[(N + r, b)] - G[(N + r, a)] * G[(r, b)]
            if s % q != 0:
                return False
    return True


def test_check_sso_matches_naive():
    import numpy as np
    rng = np.random.default_rng(3)
    q = 7
    for _ in range(10):
        rows = [[int(rng.integers(0, q)) for _ in range(3)] for _ in range(6)]
        G = FqMatrix.from_rows(rows, q)
        assert check_sso(G) == naive_sso(G)


def test_check_sso_accepts_planted_isotropic():
    # columns (e_i, 0) pair to zero under the symplectic form
    q = 11
    rows = [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0], [0, 0]]
    assert check_sso(FqMatrix.from_rows(rows, q))


# ---------------------------------------------------------
# box construction and the selector identity
# ---------------------------------------------------------

def test_make_transfer_rejects_non_sso():
    q = 5
    G = FqMatrix.from_rows([[1, 0], [0, 0], [0, 1], [0, 0]], q)
    H = FqMatrix.identity(4, q).take_cols([0, 1])
    assert not check_sso(G)
    with pytest.raises(NotSSO):
        make_transfer(G, H)


def test_make_transfer_rejects_singular_stack():
    q = 5
    G = FqMatrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]], q)
    H = G  # duplicated columns cannot span
    with pytest.raises(NotInvertible):
        make_transfer(G, H)


def test_dual_box_first_block_is_sso_and_stack_invertible():
    """The dual pair diag(u)*QCSA, diag(v)*QCSA with v = dual_scaling(u),
    one Cauchy column each: dropping the lowest ceil(N/2) powers of
    instance 1 and floor(N/2) of instance 2 leaves a self-orthogonal G,
    and the kept columns complete it to a rank-2N stack."""
    q = 13
    for N in range(2, 9):
        pts = canonical_points(N, 1, q)
        u = tuple(range(1, N + 1))
        zero = FqMatrix.zeros(N, N, q)
        cols = (build_qcsa(N, 1, pts, u).hstack(zero)
                .vstack(zero.hstack(build_qcsa(N, 1, pts, dual_scaling(u, pts)))))
        mu, nu = N // 2, (N + 1) // 2
        drop = [1 + j for j in range(nu)] + [N + 1 + j for j in range(mu)]
        keep = [j for j in range(2 * N) if j not in drop]
        box = make_transfer(cols.take_cols(drop), cols.take_cols(keep))
        assert check_sso(box.g)
        assert box.generator.rank() == 2 * N


def test_selector_identity_sweep():
    """The box build_scheme runs, for every feasible quantum config with
    N <= 8 at q = 13: self-orthogonal dropped block, rank-2N stack, and
    box(generator(e_j)) is the unit selector of the second column block."""
    boxes = 0
    for cfg, box in scheme_boxes(8, 13):
        assert box_defects(box) == [], cfg
        boxes += 1
    assert boxes > 100
