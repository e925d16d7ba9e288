"""Portable deterministic random numbers (splitmix64).

Every stochastic operation in this package draws from a SplitMix64 stream
seeded explicitly, so experiments are bit-reproducible across runs and
machines. The generator is counter-based: output i is the splitmix64
finalizer of (seed + (i + 1) * GAMMA) mod 2**64, and every draw takes a
block of consecutive outputs as a uint64 array. Derived values consume
a documented number of raw outputs:

    next_u64_block(n)   n outputs
    unit(words)         no draw: (x >> 11) * 2**-53 per word, in [0, 1)
    uniform_block(n)    n outputs, unit() of each
    normal_block(n)     2n outputs, Box-Muller on consecutive pairs (u1, u2):
                        sqrt(-2 ln(1-u1)) * cos(2 pi u2)
    shuffle(seq)        n-1 outputs, Fisher-Yates from the top: the k-th
                        word w swaps seq[n-1-k] with seq[w mod (n-k)]
    SplitMix64(seeds)   k streams in lockstep over an array of k seeds, one
                        counter: each draw above but shuffle gives a
                        (k, ...) block whose row j is SplitMix64(seeds[j])'s
                        own draw, so each stream consumes what its row names
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64_block(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on every word of a uint64 array (mod 2**64)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def unit(words: np.ndarray) -> np.ndarray:
    """[0, 1) float64 of each uint64 word from its top 53 bits."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
    """Counter-based splitmix64 stream drawn in blocks; given an array of
    seeds, one stream per seed in lockstep, each draw one row per stream."""

    def __init__(self, seed: int | np.ndarray):
        if np.ndim(seed) == 0:
            self.seed = int(seed) & MASK64
            self._origin = np.uint64(self.seed)
        else:
            self.seed = np.asarray(seed, dtype=np.uint64)
            self._origin = self.seed[:, None]  # one row of counters per stream
        self.counter = 0

    def next_u64_block(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return mix64_block(self._origin + idx * np.uint64(GAMMA))

    def uniform_block(self, n: int) -> np.ndarray:
        return unit(self.next_u64_block(n))

    def normal_block(self, n: int) -> np.ndarray:
        u = self.uniform_block(2 * n)
        return np.sqrt(-2.0 * np.log1p(-u[..., 0::2])) * np.cos(2.0 * np.pi * u[..., 1::2])

    def shuffle(self, seq: list) -> None:
        n = len(seq)
        if n < 2:
            return
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), (self.next_u64_block(n - 1) % bounds).tolist()):
            seq[i], seq[j] = seq[j], seq[i]

