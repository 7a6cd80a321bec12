"""Deterministic, platform-stable randomness.

All protocol draws come from SHA-256 running in counter mode over
(seed, label, counter). Identical seeds therefore produce byte-identical
transcripts and CSV output on every platform and Python version, which the
reproducibility contract of the CLI depends on. Uniformity mod q uses
rejection sampling on single bytes (exact, no modulo bias).
"""

from __future__ import annotations

import hashlib


class Stream:
    """One labeled deterministic byte stream.

    Bytes are produced as SHA256(seed_bytes | label_bytes | counter) blocks.
    Distinct labels give computationally independent streams from one seed.
    """

    def __init__(self, seed: int | str, label: str):
        if isinstance(seed, int):
            seed_bytes = str(seed).encode()
        else:
            seed_bytes = seed.encode()
        self._prefix = hashlib.sha256(seed_bytes + b"\x00" + label.encode()).digest()
        self._counter = 0
        self._buf = b""

    def _refill(self) -> None:
        block = hashlib.sha256(
            self._prefix + self._counter.to_bytes(8, "big")
        ).digest()
        self._counter += 1
        self._buf += block

    def _take(self, width: int) -> bytes:
        while len(self._buf) < width:
            self._refill()
        out = self._buf[:width]
        self._buf = self._buf[width:]
        return out

    def next_byte(self) -> int:
        return self._take(1)[0]

    def randint(self, q: int) -> int:
        """Uniform integer in [0, q); single-byte rejection for small q,
        multi-byte rejection beyond."""
        if q < 1:
            raise ValueError(f"randint needs q >= 1, got {q}")
        if q == 1:
            return 0
        if q <= 256:
            limit = 256 - (256 % q)
            while True:
                b = self.next_byte()
                if b < limit:
                    return b % q
        return self._randbelow(q)

    def randvec(self, n: int, q: int) -> tuple[int, ...]:
        return tuple(self.randint(q) for _ in range(n))

    def sample(self, population: int, k: int) -> tuple[int, ...]:
        """Sorted k-subset of range(population), uniform, deterministic."""
        if k > population:
            raise ValueError("sample size exceeds population")
        chosen: list[int] = []
        remaining = list(range(population))
        for _ in range(k):
            idx = self._randbelow(len(remaining))
            chosen.append(remaining.pop(idx))
        return tuple(sorted(chosen))

    def _randbelow(self, n: int) -> int:
        """Uniform in [0, n) by rejection on big-endian words of
        max(4, ceil(bits(n - 1) / 8)) bytes, so every n gets a nonzero
        acceptance range."""
        if n <= 0:
            raise ValueError("empty range")
        width = max(4, -(-(n - 1).bit_length() // 8))
        span = 1 << (8 * width)
        limit = span - (span % n)
        while True:
            word = int.from_bytes(self._take(width), "big")
            if word < limit:
                return word % n
