"""Prime-field scalars, vectors and immutable matrices.

Scalars are plain ints in [0, q). FqMatrix stores entries as a flat tuple,
is hashable, and dispatches the heavy operations (multiply, rank, inverse,
solve) to the mod-q kernel in `kernel`. Field elements of different primes
never mix: every binary operation checks q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kernel
from .errors import DimensionMismatch, Singular, ZeroInverse


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def fe_inv(a: int, q: int) -> int:
    """Multiplicative inverse of a mod q; ZeroInverse on a == 0."""
    a %= q
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {q}")
    return pow(a, -1, q)


@dataclass(frozen=True)
class FqMatrix:
    """Immutable matrix over F_q, entries row-major in [0, q)."""

    rows: int
    cols: int
    q: int
    data: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.data) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.data)}"
            )

    # ---------- constructors ----------

    @staticmethod
    def from_rows(rows, q: int) -> "FqMatrix":
        rows = [list(r) for r in rows]
        r = len(rows)
        c = len(rows[0]) if r else 0
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
        data = tuple(int(x) % q for row in rows for x in row)
        return FqMatrix(r, c, q, data)

    @staticmethod
    def identity(n: int, q: int) -> "FqMatrix":
        data = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        return FqMatrix(n, n, q, data)

    @staticmethod
    def zeros(r: int, c: int, q: int) -> "FqMatrix":
        return FqMatrix(r, c, q, (0,) * (r * c))

    # ---------- accessors ----------

    def __getitem__(self, rc: tuple[int, int]) -> int:
        i, j = rc
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.data[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # ---------- shape surgery ----------

    def transpose(self) -> "FqMatrix":
        data = tuple(
            self.data[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return FqMatrix(self.cols, self.rows, self.q, data)

    def take_rows(self, idx) -> "FqMatrix":
        data = []
        for i in idx:
            data.extend(self.row(i))
        return FqMatrix(len(list(idx)), self.cols, self.q, tuple(data))

    def take_cols(self, idx) -> "FqMatrix":
        idx = list(idx)
        data = []
        for i in range(self.rows):
            r = self.row(i)
            data.extend(r[j] for j in idx)
        return FqMatrix(self.rows, len(idx), self.q, tuple(data))

    def hstack(self, other: "FqMatrix") -> "FqMatrix":
        self._check_q(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack: row counts differ")
        data = []
        for i in range(self.rows):
            data.extend(self.row(i))
            data.extend(other.row(i))
        return FqMatrix(self.rows, self.cols + other.cols, self.q, tuple(data))

    def vstack(self, other: "FqMatrix") -> "FqMatrix":
        self._check_q(other)
        if self.cols != other.cols:
            raise DimensionMismatch("vstack: column counts differ")
        return FqMatrix(
            self.rows + other.rows, self.cols, self.q, self.data + other.data
        )

    # ---------- arithmetic ----------

    def _check_q(self, other: "FqMatrix") -> None:
        if self.q != other.q:
            raise DimensionMismatch(f"mixed fields F_{self.q} and F_{other.q}")

    def mul(self, other: "FqMatrix") -> "FqMatrix":
        self._check_q(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = kernel.k_mul(
            list(self.data), self.rows, self.cols,
            list(other.data), other.rows, other.cols, self.q,
        )
        return FqMatrix(self.rows, other.cols, self.q, tuple(out))

    def matvec(self, vec) -> tuple[int, ...]:
        vec = [int(x) % self.q for x in vec]
        if len(vec) != self.cols:
            raise DimensionMismatch(
                f"matvec: {self.rows}x{self.cols} with vector of length {len(vec)}"
            )
        out = kernel.k_mul(list(self.data), self.rows, self.cols, vec, len(vec), 1, self.q)
        return tuple(out)

    def add(self, other: "FqMatrix") -> "FqMatrix":
        self._check_q(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shapes differ")
        data = tuple((a + b) % self.q for a, b in zip(self.data, other.data))
        return FqMatrix(self.rows, self.cols, self.q, data)

    def neg(self) -> "FqMatrix":
        return FqMatrix(
            self.rows, self.cols, self.q, tuple((-a) % self.q for a in self.data)
        )

    def rank(self) -> int:
        return kernel.k_rank(list(self.data), self.rows, self.cols, self.q)

    def inv(self) -> "FqMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        out = kernel.k_inv(list(self.data), self.rows, self.q)
        if out is None:
            raise Singular(f"{self.rows}x{self.cols} matrix is singular mod {self.q}")
        return FqMatrix(self.rows, self.cols, self.q, tuple(out))

    def solve(self, b) -> tuple[int, ...]:
        if self.rows != self.cols:
            raise DimensionMismatch("solve needs a square matrix")
        b = [int(x) % self.q for x in b]
        if len(b) != self.rows:
            raise DimensionMismatch("solve: rhs length mismatch")
        out = kernel.k_solve(list(self.data), self.rows, b, self.q)
        if out is None:
            raise Singular(f"{self.rows}x{self.cols} matrix is singular mod {self.q}")
        return tuple(out)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.data)
