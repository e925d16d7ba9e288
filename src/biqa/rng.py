"""Portable deterministic random numbers (splitmix64).

Every stochastic operation in this package draws from a SplitMix64 stream
seeded explicitly, so experiments are bit-reproducible across runs and
machines. The generator is counter-based: output i is

    mix64((seed + (i + 1) * GAMMA) mod 2**64)

which lets the scalar and the vectorized paths produce the identical
stream. Derived values consume a documented number of raw outputs:

    uniform()      1 output, (x >> 11) * 2**-53, in [0, 1)
    normal()       2 outputs, Box-Muller: sqrt(-2 ln(1-u1)) * cos(2 pi u2)
    randbelow(n)   1 output, x mod n
    shuffle(seq)   Fisher-Yates from the top, n-1 randbelow calls
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix64_block(z: np.ndarray) -> np.ndarray:
    """mix64 on every word of a uint64 array (arithmetic mod 2**64)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *labels: str | int) -> int:
    """Derive an independent stream seed from a master seed and labels.

    sha256 over the decimal seed and the labels, truncated to 64 bits.
    Stable across platforms and Python versions.
    """
    h = hashlib.sha256()
    h.update(str(int(seed) & MASK64).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


class SplitMix64:
    """Counter-based splitmix64 stream with scalar and block interfaces."""

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * GAMMA) & MASK64)

    def next_u64_block(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return mix64_block(np.uint64(self.seed) + idx * np.uint64(GAMMA))

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_block(self, n: int) -> np.ndarray:
        return (self.next_u64_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return float(np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2))

    def normal_block(self, n: int) -> np.ndarray:
        u = self.uniform_block(2 * n)
        return np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self.next_u64() % n

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def spawn(seed: int, *labels: str | int) -> SplitMix64:
    """Stream seeded by derive_seed(seed, *labels)."""
    return SplitMix64(derive_seed(seed, *labels))
