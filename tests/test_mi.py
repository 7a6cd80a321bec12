import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspir.errors import BudgetExceeded, DimensionMismatch, NotAffine
from qspir.field import FqMatrix
from qspir.mi import (AuditBudget, BlockStream, blocks_agree, budget_limit,
                      mi_exact, rank_certificate)


# ---------------------------------------------------------
# brute-force oracle: dict counting + Fraction arithmetic
# ---------------------------------------------------------

def oracle(rows, a_idx, b_idx, base=2.0):
    """(zero, bits) for the empirical joint over ``rows`` by exhaustive
    rational factorisation checking."""
    total = len(rows)
    ja, jb, jab = {}, {}, {}
    for r in rows:
        ka = tuple(r[i] for i in a_idx)
        kb = tuple(r[i] for i in b_idx)
        ja[ka] = ja.get(ka, 0) + 1
        jb[kb] = jb.get(kb, 0) + 1
        jab[ka, kb] = jab.get((ka, kb), 0) + 1
    zero = True
    for ka, ca in ja.items():
        for kb, cb in jb.items():
            joint = Fraction(jab.get((ka, kb), 0), total)
            if joint != Fraction(ca, total) * Fraction(cb, total):
                zero = False
    if zero:
        return True, 0.0
    ent = lambda counts: -sum(
        (c / total) * math.log(c / total, base) for c in counts if c
    )
    bits = ent(ja.values()) + ent(jb.values()) - ent(jab.values())
    return False, max(0.0, bits)


def pack(rows, idx):
    """One int64 code per row for the tuple of columns ``idx``: a single
    column as it is, several by the rank of their tuple, none as zeros."""
    if not idx:
        return np.zeros(len(rows), dtype=np.int64)
    cols = np.array([[r[i] for i in idx] for r in rows], dtype=np.int64)
    if len(idx) == 1:
        return cols[:, 0]
    return np.unique(cols, axis=0, return_inverse=True)[1].reshape(-1)


def run_both(rows, a_idx, b_idx):
    res = mi_exact(pack(rows, a_idx), pack(rows, b_idx))
    want_zero, want_bits = oracle(rows, a_idx, b_idx)
    assert res.zero == want_zero, (rows, a_idx, b_idx)
    assert abs(res.bits - want_bits) < 1e-9, (rows, a_idx, b_idx)
    return res


# ---------------------------------------------------------
# agreement with the oracle
# ---------------------------------------------------------

def test_independent_pair_is_zero():
    rows = [(a, b) for a in range(3) for b in range(5)]
    assert run_both(rows, (0,), (1,)).zero


def test_copied_variable_is_nonzero():
    rows = [(a, a) for a in range(4)]
    res = run_both(rows, (0,), (1,))
    assert not res.zero and res.bits == pytest.approx(2.0)


def test_nonuniform_product_is_still_zero():
    # independence of empirical counts, not uniformity: counts multiply
    left = [0, 0, 1]
    right = [5, 6, 6, 6]
    rows = [(a, b) for a in left for b in right]
    assert run_both(rows, (0,), (1,)).zero


def test_missing_joint_cell_is_detected():
    rows = [(0, 0), (0, 1), (1, 0)]  # (1,1) absent, both marginals positive
    assert not run_both(rows, (0,), (1,)).zero


def test_xor_triple_pairwise_independent():
    rows = [(a, b, (a + b) % 2) for a in range(2) for b in range(2)]
    assert run_both(rows, (0,), (2,)).zero
    assert run_both(rows, (1,), (2,)).zero
    assert not run_both(rows, (0, 1), (2,)).zero


def test_random_joints_match_oracle():
    rng = np.random.default_rng(12345)
    for rep in range(300):
        nvars = int(rng.integers(2, 5))
        states = int(rng.integers(2, 40))
        card = int(rng.integers(2, 4))
        rows = [tuple(int(x) for x in rng.integers(0, card, nvars))
                for _ in range(states)]
        names = list(range(nvars))
        rng.shuffle(names)
        cut = int(rng.integers(1, nvars))
        run_both(rows, tuple(names[:cut]), tuple(names[cut:]))


def test_wide_and_negative_codes_match_oracle():
    """Codes are used as they are; codes whose pair would overflow int64
    are paired by rank instead."""
    big = 1 << 62
    rows = [(a, b) for a in (0, big, -big) for b in (-3, big)]
    assert run_both(rows, (0,), (1,)).zero
    rows = [(a, a) for a in (0, big, -big)] + [(big, 0)]
    assert not run_both(rows, (0,), (1,)).zero


def test_group_order_and_partition_symmetry():
    rows = [(a, b, (2 * a + b) % 3) for a in range(3) for b in range(3)]
    r1 = mi_exact(pack(rows, (0, 1)), pack(rows, (2,)))
    r2 = mi_exact(pack(rows, (2,)), pack(rows, (1, 0)))
    assert r1.zero == r2.zero
    assert r1.bits == pytest.approx(r2.bits)


def test_empty_group_always_independent():
    rows = [(a, a) for a in range(3)]
    assert mi_exact(pack(rows, ()), pack(rows, (0,))).zero


def test_log_base_controls_units():
    a = np.arange(3)
    assert mi_exact(a, a, base=3.0).bits == pytest.approx(1.0)
    assert mi_exact(a, a, base=2.0).bits == pytest.approx(math.log2(3))


# ---------------------------------------------------------
# validation and budget
# ---------------------------------------------------------

def test_joint_construction_guards():
    with pytest.raises(DimensionMismatch):
        mi_exact([0, 1], [1])
    with pytest.raises(DimensionMismatch):
        mi_exact([], [])
    with pytest.raises(DimensionMismatch):
        mi_exact([[0, 1]], [[1, 0]])


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("QSPIR_BUDGET", "123")
    assert budget_limit() == 123
    monkeypatch.setenv("QSPIR_BUDGET", "not-a-number")
    assert budget_limit() == 10_000_000
    monkeypatch.delenv("QSPIR_BUDGET")
    assert budget_limit() == 10_000_000


def test_budget_admission():
    b = AuditBudget(max_states=10)
    b.admit(10)
    with pytest.raises(BudgetExceeded):
        b.admit(11)
    with pytest.raises(DimensionMismatch):
        AuditBudget(max_states=0)


def test_mi_respects_budget_env(monkeypatch):
    monkeypatch.setenv("QSPIR_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        mi_exact(np.arange(4), np.arange(4) % 2)


# ---------------------------------------------------------
# one-time-pad rank certificate
# ---------------------------------------------------------

def enumerate_affine_view(F, secret_cols, q):
    """Enumerate view = F @ x over all x, tagging secret coordinates."""
    n = F.cols
    rows = []
    for x in itertools.product(range(q), repeat=n):
        view = tuple(F.matvec(list(x)))
        secret = tuple(x[c] for c in secret_cols)
        rows.append(secret + view)
    return rows


def test_certificate_matches_enumeration_when_full_rank():
    q = 3
    # view = [secret + noise0, noise1]: noise block is the identity
    F = FqMatrix.from_rows([[1, 1, 0], [0, 0, 1]], q)
    assert rank_certificate(F, (1, 2))
    rows = enumerate_affine_view(F, (0,), q)
    assert mi_exact(pack(rows, (0,)), pack(rows, (1, 2))).zero


def test_certificate_refuses_rank_deficiency_and_leak_exists():
    q = 3
    # two view rows but only one effective noise direction
    F = FqMatrix.from_rows([[1, 1, 0], [0, 2, 0]], q)
    assert not rank_certificate(F, (1, 2))
    rows = enumerate_affine_view(F, (0,), q)
    assert not mi_exact(pack(rows, (0,)), pack(rows, (1, 2))).zero


def test_certificate_is_sufficient_not_necessary():
    q = 3
    # rank-deficient noise block, yet the view ignores the secret entirely:
    # enumeration says independent, the certificate conservatively refuses
    F = FqMatrix.from_rows([[0, 0, 0], [0, 1, 1]], q)
    assert not rank_certificate(F, (1, 2))
    rows = enumerate_affine_view(F, (0,), q)
    assert mi_exact(pack(rows, (0,)), pack(rows, (1, 2))).zero


def test_certificate_rank_sweep_agrees_with_enumeration():
    rng = np.random.default_rng(777)
    q = 3
    for rep in range(60):
        rows_n = int(rng.integers(1, 3))
        cols_n = int(rng.integers(rows_n, 4))
        F = FqMatrix.from_rows(
            [[int(x) for x in rng.integers(0, q, cols_n + 1)]
             for _ in range(rows_n)], q)
        noise = tuple(range(1, cols_n + 1))
        cert = rank_certificate(F, noise)
        rows = enumerate_affine_view(F, (0,), q)
        enum_zero = mi_exact(pack(rows, (0,)),
                             pack(rows, tuple(range(1, rows_n + 1)))).zero
        if cert:
            assert enum_zero  # certificate is sound
        if not enum_zero:
            assert not cert  # leak implies no certificate


def test_certificate_input_validation():
    F = FqMatrix.from_rows([[1, 0], [0, 1]], 5)
    with pytest.raises(NotAffine):
        rank_certificate(F, (0, 0))
    with pytest.raises(NotAffine):
        rank_certificate(F, (0, 5))


def test_certificate_empty_view_is_trivially_private():
    F = FqMatrix.from_rows([[1, 2]], 5).take_rows(())
    assert rank_certificate(F, (0,))


# ---------------------------------------------------------
# block test: agreement with mi_exact
# ---------------------------------------------------------

def block_verdict(view, block, chunk):
    """The streamed block test over ``view`` fed ``chunk`` states at a time."""
    stream = BlockStream(block)
    return all(stream.feed(view[i:i + chunk])
               for i in range(0, len(view), chunk)) and stream.complete


def mi_verdict(view, block):
    secret = np.repeat(np.arange(len(view) // block), block)
    return mi_exact(secret, view).zero


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_block_test_agrees_with_mi_exact(data):
    """Uniform secret of q^s values, each owning a block of q^r states."""
    q = data.draw(st.integers(2, 3), "q")
    s = data.draw(st.integers(0, 3), "secret digits")
    r = data.draw(st.integers(0, 3), "other digits")
    block, count = q ** r, q ** s
    alphabet = data.draw(st.integers(1, 4), "alphabet")
    values = st.integers(0, alphabet - 1)
    mode = data.draw(st.sampled_from(("independent", "perturbed", "random")))
    if mode == "random":
        rows = [data.draw(st.lists(values, min_size=block, max_size=block))
                for _ in range(count)]
    else:
        base = data.draw(st.lists(values, min_size=block, max_size=block))
        rows = [[base[i] for i in data.draw(st.permutations(range(block)))]
                for _ in range(count)]
        if mode == "perturbed":
            # one copied entry: the support cannot grow, the counts may move
            b = data.draw(st.integers(0, count - 1))
            i = data.draw(st.integers(0, block - 1))
            j = data.draw(st.integers(0, block - 1))
            rows[b][i] = rows[b][j]
    view = np.array([v for row in rows for v in row], dtype=np.int64)
    chunk = data.draw(st.integers(1, len(view)), "chunk")
    assert block_verdict(view, block, chunk) == mi_verdict(view, block)


@pytest.mark.parametrize("rows,chunk,zero", [
    # empty secret: one block, always independent
    ([[3, 1, 4, 1, 5, 9, 2, 6, 5]], 3, True),
    # a single block per chunk
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], 3, True),
    # many blocks per chunk (more secret values than states per block)
    ([[0, 1]] * 4 + [[1, 0]] * 4, 16, True),
    ([[0, 1]] * 7 + [[1, 1]], 16, False),
    # one block spanning several chunks
    ([[0, 1, 1, 2, 0, 1, 1, 2], [2, 1, 0, 1, 2, 1, 1, 0]], 3, True),
    ([[0, 1, 1, 2, 0, 1, 1, 2], [2, 1, 0, 1, 2, 1, 2, 0]], 3, False),
    # same support in every block, different counts
    ([[0, 0, 1, 1], [0, 1, 1, 1]], 8, False),
    ([[0, 0, 1, 1], [0, 1, 1, 1]], 1, False),
])
def test_block_test_shapes(rows, chunk, zero):
    view = np.array([v for row in rows for v in row], dtype=np.int64)
    block = len(rows[0])
    assert block_verdict(view, block, chunk) is zero
    assert mi_verdict(view, block) is zero


def test_blocks_agree_keeps_a_sorted_copy_as_reference():
    codes = np.array([3, 1, 2, 2, 3, 1], dtype=np.int64)
    same, ref = blocks_agree(codes, 3)
    assert same and ref.tolist() == [1, 2, 3]
    codes[:] = 0
    assert ref.tolist() == [1, 2, 3]
    assert not blocks_agree(np.array([1, 2, 2]), 3, ref)[0]
