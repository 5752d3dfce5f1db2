"""Seedable RNG with a stable cross-platform stream.

Every randomised routine in this package draws from SplitMix64 so that a run
is reproducible from its seed alone, independent of Python version, platform,
and hash randomisation.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 generator: 64-bit state, one multiply-shift-xor per draw."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, *salts: int) -> int:
    """Fold salts into a seed, giving independent substreams per salt tuple."""
    x = seed & _MASK64
    for salt in salts:
        g = SplitMix64(x ^ ((salt & _MASK64) * _GOLDEN & _MASK64))
        x = g.next_u64()
    return x
