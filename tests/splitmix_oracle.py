"""Scalar splitmix64 on Python ints, one output at a time.

The reference the block generator in biqa.rng is checked against: every
draw here takes one word, in the order the block sites document, and
the constants are restated rather than imported so the two
implementations share no code.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class ScalarSplitMix64:
    """The stream of biqa.rng.SplitMix64(seed), drawn word by word."""

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * GAMMA) & MASK64)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return float(np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2))

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self.next_u64() % n

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
