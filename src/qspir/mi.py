"""Exact independence testing for enumerated protocol distributions.

Every audit in this package reduces a security claim to "these two groups of
variables are independent under the uniform distribution over all protocol
randomness".  States are enumerated exhaustively, so each joint outcome has an
integer count over a known denominator and "zero mutual information" becomes a
decidable equality checked by integer cross-multiplication — no floating
point is involved in the pass/fail verdict.  A float entropy estimate is
reported alongside for context only.

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


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Uniform-weight empirical joint distribution over labelled variables.

    One outcome per enumerated state, each with weight 1/total.  ``columns``
    holds per-variable value arrays running in parallel over states; counts
    of repeated outcomes are implicit and exact by construction, so the
    probability table always sums to exactly one.
    """

    labels: tuple
    columns: tuple

    def __post_init__(self):
        if len(self.labels) != len(set(self.labels)):
            raise DimensionMismatch("duplicate variable labels")
        if len(self.labels) != len(self.columns):
            raise DimensionMismatch(
                "%d labels for %d columns" % (len(self.labels), len(self.columns))
            )
        if not self.columns:
            raise DimensionMismatch("a joint distribution needs at least one variable")
        sizes = {int(col.shape[0]) for col in self.columns}
        if len(sizes) != 1:
            raise DimensionMismatch("columns differ in length: %s" % sorted(sizes))
        if 0 in sizes:
            raise DimensionMismatch("empty outcome space")

    @classmethod
    def from_columns(cls, labels, columns) -> "JointDistribution":
        cols = tuple(np.ascontiguousarray(np.asarray(c, dtype=np.int64)) for c in columns)
        return cls(labels=tuple(labels), columns=cols)

    @property
    def total(self) -> int:
        return int(self.columns[0].shape[0])

    def column(self, label) -> np.ndarray:
        try:
            return self.columns[self.labels.index(label)]
        except ValueError:
            raise DimensionMismatch("unknown variable label %r" % (label,))

    def table(self) -> dict:
        """Explicit outcome -> count map (small distributions only)."""
        counts: dict = {}
        stacked = np.stack(self.columns, axis=1)
        for row in stacked:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
        return counts


@dataclass(frozen=True)
class MIResult:
    """Outcome of an exact mutual-information check."""

    zero: bool
    bits: float
    states: int


def _group_code(joint: JointDistribution, group) -> tuple:
    """Compact integer code for the tuple of variables in ``group``."""
    if not group:
        return np.zeros(joint.total, dtype=np.int64), 1
    code = None
    for label in group:
        col = joint.column(label)
        _, inv = np.unique(col, return_inverse=True)
        inv = inv.astype(np.int64)
        if code is None:
            code = inv  # np.unique's inverse is already compact: 0..k-1
        else:
            # Cardinalities stay <= total after each compaction, so the
            # mixed-radix combination cannot overflow int64.
            code = code * (int(inv.max()) + 1) + inv
            _, code = np.unique(code, return_inverse=True)
            code = code.astype(np.int64)
    return code, int(code.max()) + 1


def _entropy(counts: np.ndarray, total: int, base: float) -> float:
    positive = counts[counts > 0].astype(np.float64)
    nats = math.log(total) - float((positive * np.log(positive)).sum()) / total
    return nats / math.log(base)


def mi_exact(joint: JointDistribution, partition, base: float = 2.0) -> MIResult:
    """Exact mutual information between two groups of variables.

    ``partition`` is a pair of disjoint label groups; labels outside both
    groups are marginalised.  The ``zero`` flag is decided by integer
    arithmetic alone: the joint factorises iff its support is the full
    product of the marginal supports and every joint count satisfies
    ``total * joint == marginal_a * marginal_b``.  ``bits`` is a float
    estimate in log-``base`` units, reported for context.
    """
    group_a, group_b = partition
    overlap = set(group_a) & set(group_b)
    if overlap:
        raise DimensionMismatch("partition groups overlap: %s" % sorted(overlap))
    total = joint.total
    AuditBudget().admit(total)
    code_a, size_a = _group_code(joint, tuple(group_a))
    code_b, size_b = _group_code(joint, tuple(group_b))
    margin_a = np.bincount(code_a, minlength=size_a)
    margin_b = np.bincount(code_b, minlength=size_b)

    pair = code_a * size_b + code_b
    pair_values, pair_counts = np.unique(pair, return_counts=True)

    if size_a * size_b != pair_values.shape[0]:
        # A missing joint cell with both marginals positive breaks factorisation.
        zero = False
    else:
        left = pair_counts.astype(np.int64) * total
        right = margin_a[pair_values // size_b] * margin_b[pair_values % size_b]
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
    return MIResult(zero=zero, bits=bits, states=total)


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
