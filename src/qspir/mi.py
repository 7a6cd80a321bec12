"""Exact independence testing for enumerated protocol distributions.

Every audit in this package reduces a security claim to "these two groups of
variables are independent under the uniform distribution over all protocol
randomness".  States are enumerated exhaustively, so the verdict is exact and
no floating point is involved in it.

The block test decides the audits.  When the secret is uniform and each of
its values owns a block of states that runs through all other randomness
uniformly, P(view | secret = s) is the multiset of view codes in block s
divided by the block size.  The view is therefore independent of the secret
iff every block holds the same multiset: ``blocks_agree`` sorts each block
once and compares it with the first, and ``BlockStream`` does so over a
stream of chunks, holding only the reference block and the current one.

``mi_exact`` is the general test, the oracle of the block test, and the one
the audits fall back to when a block differs, to size the leak.  Each joint
outcome has an integer count over a known denominator, so "zero mutual
information" is a decidable equality checked by integer cross-multiplication.
A float entropy estimate is reported alongside for context only.

For state spaces beyond the enumeration budget, a one-time-pad rank
certificate is available: if the view is affine in independent uniform noise
whose coefficient matrix has full row rank, the view is exactly uniform and
independent of everything else.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NotAffine
from .field import FqMatrix

DEFAULT_BUDGET = 10_000_000


def budget_limit() -> int:
    """Maximum number of enumerated states, overridable via QSPIR_BUDGET."""
    raw = os.environ.get("QSPIR_BUDGET", "").strip()
    if not raw:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_BUDGET
    return value if value > 0 else DEFAULT_BUDGET


@dataclass(frozen=True)
class AuditBudget:
    """Enumeration limit of the exact audits."""

    max_states: int = field(default_factory=budget_limit)

    def __post_init__(self):
        if self.max_states < 1:
            raise DimensionMismatch("budget must admit at least one state")

    def admit(self, states: int) -> None:
        if states > self.max_states:
            raise BudgetExceeded(
                "enumeration needs %d states, budget is %d"
                % (states, self.max_states)
            )


@dataclass(frozen=True)
class MIResult:
    """Outcome of an exact mutual-information check."""

    zero: bool
    bits: float


def _entropy(counts: np.ndarray, total: int, base: float) -> float:
    positive = counts[counts > 0].astype(np.float64)
    nats = math.log(total) - float((positive * np.log(positive)).sum()) / total
    return nats / math.log(base)


def mi_exact(code_a: np.ndarray, code_b: np.ndarray,
             base: float = 2.0) -> MIResult:
    """Exact mutual information between two code columns.

    ``code_a`` and ``code_b`` hold one int64 code per enumerated state, each
    state of weight 1/total; a group of variables enters as one column of
    codes that is injective on the group's tuples.  The ``zero`` flag is
    decided by integer arithmetic alone: the joint factorises iff its
    support is the full product of the marginal supports and every joint
    count satisfies ``total * joint == marginal_a * marginal_b``.  ``bits``
    is a float estimate in log-``base`` units, reported for context.
    """
    code_a = np.asarray(code_a, dtype=np.int64)
    code_b = np.asarray(code_b, dtype=np.int64)
    if code_a.ndim != 1 or code_a.shape != code_b.shape:
        raise DimensionMismatch("need two code columns of equal length, got "
                                "shapes %s and %s" % (code_a.shape,
                                                      code_b.shape))
    total = int(code_a.shape[0])
    if total == 0:
        raise DimensionMismatch("empty outcome space")
    AuditBudget().admit(total)
    values_a, margin_a = np.unique(code_a, return_counts=True)
    values_b, margin_b = np.unique(code_b, return_counts=True)
    lo_a, lo_b = int(values_a[0]), int(values_b[0])
    radix = int(values_b[-1]) - lo_b + 1
    if (int(values_a[-1]) - lo_a + 1) * radix >= 1 << 63:
        # the pair of raw codes does not fit int64: pair their ranks
        code_a = np.searchsorted(values_a, code_a)
        code_b = np.searchsorted(values_b, code_b)
        values_a = np.arange(len(values_a))
        values_b = np.arange(len(values_b))
        lo_a = lo_b = 0
        radix = len(values_b)
    pair = code_a - lo_a
    pair *= radix
    pair += code_b - lo_b if lo_b else code_b
    pair_values, pair_counts = np.unique(pair, return_counts=True)
    del pair

    if len(values_a) * len(values_b) != pair_values.shape[0]:
        # A missing joint cell with both marginals positive breaks factorisation.
        zero = False
    else:
        left = pair_counts.astype(np.int64) * total
        rank_a = np.searchsorted(values_a, pair_values // radix + lo_a)
        rank_b = np.searchsorted(values_b, pair_values % radix + lo_b)
        right = margin_a[rank_a] * margin_b[rank_b]
        zero = bool(np.array_equal(left, right))

    if zero:
        bits = 0.0
    else:
        joint_entropy = _entropy(pair_counts, total, base)
        bits = max(
            0.0,
            _entropy(margin_a, total, base)
            + _entropy(margin_b, total, base)
            - joint_entropy,
        )
    return MIResult(zero=zero, bits=bits)


def blocks_agree(codes: np.ndarray, block: int, ref=None) -> tuple:
    """Sort every run of ``block`` consecutive states of ``codes`` and
    compare it with the sorted reference block ``ref``.

    ``codes`` holds one int64 view code per state, in whole blocks.
    ``ref`` defaults to the first block.  Returns (every block equals
    ``ref``, ``ref``); the reference is a copy, so holding it keeps no chunk
    alive.
    """
    rows = np.sort(codes.reshape(-1, block), axis=1)
    if ref is None:
        ref = rows[0].copy()
    return bool((rows == ref).all()), ref


class BlockStream:
    """The block test over a stream of view codes in state order.

    The secret is uniform and each of its values owns ``block`` consecutive
    states, which enumerate everything else uniformly.  The view is then
    independent of the secret iff every block holds the same multiset of
    view codes.  ``feed`` takes codes chunk by chunk, a block may span
    several chunks, and only the sorted reference block and the unfinished
    block are held.  ``feed`` returns False at the first block that differs
    from the first one; ``complete`` says whether the stream ended on a
    block boundary.
    """

    def __init__(self, block: int):
        self.block = block
        self.ref = None
        self._held = []
        self._count = 0

    def feed(self, codes: np.ndarray) -> bool:
        self._held.append(codes)
        self._count += codes.shape[0]
        if self._count < self.block:
            return True
        data = np.concatenate(self._held) if len(self._held) > 1 else codes
        whole = self._count - self._count % self.block
        same, self.ref = blocks_agree(data[:whole], self.block, self.ref)
        self._held = [data[whole:]] if whole < self._count else []
        self._count -= whole
        return same

    @property
    def complete(self) -> bool:
        return self._count == 0 and self.ref is not None


def rank_certificate(view_map: FqMatrix, noise_coords) -> bool:
    """One-time-pad certificate for a view that is affine in uniform noise.

    The caller asserts ``view = F @ noise + g(secrets)`` with the noise
    coordinates independent of the secrets; ``noise_coords`` names the
    columns of ``view_map`` multiplying the noise.  If that submatrix has
    full row rank the view is exactly uniform for every fixed secret, hence
    independent of the secrets.  This is sufficient, not necessary.
    """
    coords = [int(c) for c in noise_coords]
    if len(coords) != len(set(coords)):
        raise NotAffine("noise coordinates repeat: not an affine decomposition")
    for c in coords:
        if c < 0 or c >= view_map.cols:
            raise NotAffine("noise coordinate %d outside the view map" % c)
    if view_map.rows == 0:
        return True
    noise_part = view_map.take_cols(coords)
    return noise_part.rank() == view_map.rows
