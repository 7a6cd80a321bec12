"""The mod-q linear-algebra kernel every `F_q` operation runs on.

A re-export of the pure-Python `_purekernel` under the names that callers
and the perfbench tracer use.
"""

from ._purekernel import KERNEL_NAME, k_inv, k_mul, k_rank, k_solve
