"""Pure-Python mod-q linear algebra kernel, re-exported by `kernel.py`.

Flat row-major lists of ints in [0, q). Pivoting is deterministic: for each
pivot column the first row (top to bottom) with a nonzero entry is used.
"""

from __future__ import annotations

KERNEL_NAME = "pure"


def k_mul(a: list[int], ar: int, ac: int, b: list[int], br: int, bc: int, q: int) -> list[int]:
    """(ar x ac) @ (br x bc) mod q; caller guarantees ac == br."""
    out = [0] * (ar * bc)
    for i in range(ar):
        arow = a[i * ac : (i + 1) * ac]
        orow = i * bc
        for k in range(ac):
            av = arow[k]
            if av == 0:
                continue
            brow = k * bc
            for j in range(bc):
                out[orow + j] = (out[orow + j] + av * b[brow + j]) % q
    return out


def k_rank(a: list[int], r: int, c: int, q: int) -> int:
    m = list(a)
    rank = 0
    for col in range(c):
        piv = -1
        for row in range(rank, r):
            if m[row * c + col] % q != 0:
                piv = row
                break
        if piv < 0:
            continue
        if piv != rank:
            pr, rr = piv * c, rank * c
            for j in range(c):
                m[pr + j], m[rr + j] = m[rr + j], m[pr + j]
        inv = pow(m[rank * c + col], -1, q)
        rr = rank * c
        for j in range(col, c):
            m[rr + j] = m[rr + j] * inv % q
        for row in range(r):
            if row == rank:
                continue
            factor = m[row * c + col]
            if factor:
                tr = row * c
                for j in range(col, c):
                    m[tr + j] = (m[tr + j] - factor * m[rr + j]) % q
        rank += 1
        if rank == r:
            break
    return rank


def _gauss_jordan(m: list[int], n: int, w: int, q: int) -> bool:
    """Reduce the n x w augmented matrix m in place to [I | *].

    Returns False, leaving m partly reduced, if the left n x n block is
    singular.
    """
    for col in range(n):
        piv = -1
        for row in range(col, n):
            if m[row * w + col] % q != 0:
                piv = row
                break
        if piv < 0:
            return False
        if piv != col:
            pr, cr = piv * w, col * w
            for j in range(w):
                m[pr + j], m[cr + j] = m[cr + j], m[pr + j]
        inv = pow(m[col * w + col], -1, q)
        cr = col * w
        for j in range(w):
            m[cr + j] = m[cr + j] * inv % q
        for row in range(n):
            if row == col:
                continue
            factor = m[row * w + col]
            if factor:
                tr = row * w
                for j in range(w):
                    m[tr + j] = (m[tr + j] - factor * m[cr + j]) % q
    return True


def k_inv(a: list[int], n: int, q: int) -> list[int] | None:
    """Inverse of an n x n matrix, or None if singular."""
    w = 2 * n
    m = [0] * (n * w)
    for i in range(n):
        m[i * w : i * w + n] = a[i * n : (i + 1) * n]
        m[i * w + n + i] = 1
    if not _gauss_jordan(m, n, w, q):
        return None
    out = [0] * (n * n)
    for i in range(n):
        out[i * n : (i + 1) * n] = m[i * w + n : i * w + w]
    return out


def k_solve(a: list[int], n: int, b: list[int], q: int) -> list[int] | None:
    """Solve A x = b for square invertible A, or None if singular."""
    w = n + 1
    m = [0] * (n * w)
    for i in range(n):
        m[i * w : i * w + n] = a[i * n : (i + 1) * n]
        m[i * w + n] = b[i] % q
    if not _gauss_jordan(m, n, w, q):
        return None
    return [m[i * w + n] for i in range(n)]
