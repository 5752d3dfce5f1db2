"""Seedable RNG with a stable cross-platform stream.

Every randomised routine in this package draws from SplitMix64 so that a run
is reproducible from its seed alone, independent of Python version, platform,
and hash randomisation.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# coin_bits runs _LANES draws at a time, draw i+1 of a batch in bits
# 128i..128i+127 of one big int (a 128-bit lane holds any 64-bit product).
# _ONES has 1 in every lane; its square holds i+1 in lane i below lane
# _LANES, so _STEPS holds (i+1) * _GOLDEN, the state offset of draw i+1, and
# _ADVANCE moves every lane on by one batch of draws.
_LANES = 256
_ONES = ((1 << 128 * _LANES) - 1) // ((1 << 128) - 1)
_STEPS = (_ONES * _ONES & (1 << 128 * _LANES) - 1) * _GOLDEN
_ADVANCE = _ONES * (_LANES * _GOLDEN & _MASK64)
_LOW64 = _ONES * _MASK64
# A coin reads bits 0 and 31 of the second product, so only the low 32 bits
# of its input, so only bits 0..58 of the first product and of its input.
_LOW59 = _ONES * ((1 << 59) - 1)
_LOW32 = _ONES * ((1 << 32) - 1)
_MIX1_LOW59 = 0xBF58476D1CE4E5B9 & (1 << 59) - 1
_MIX2_LOW32 = 0x94D049BB133111EB & (1 << 32) - 1
_LOW_BIT_DIGIT = bytes(48 + (x & 1) for x in range(256))  # byte -> b"0" or b"1"


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

    def coin_bits(self, count: int) -> int:
        """``count`` coins as one int: bit i is the coin of draw i+1.

        Equal to ``count`` calls to coin(), the final state included.  Draw
        i+1 mixes s + (i+1)*golden mod 2^64, s being the state before the
        call, so the draws do not depend on each other: a batch of them is
        mixed at once, each in its own 128-bit lane of one big int, and a
        strided slice of the bytes cuts out each lane's low byte, whose bit
        0 is the coin.  The coin is bit 0 of ``z ^ z >> 31``, so each mix
        step keeps only the low bits the next one reads: 59 bits into the
        first multiply, by the first constant's low 59 bits, and 32 bits into
        the second, by the second constant's low 32 bits.
        """
        batches = []
        x = (self.state * _ONES + _STEPS) & _LOW64
        for _ in range(0, count, _LANES):
            z = (x ^ x >> 30) & _LOW59
            z *= _MIX1_LOW59  # under 2^118: stays in its lane
            z = (z ^ z >> 27) & _LOW32
            z *= _MIX2_LOW32
            z ^= z >> 31
            # big-endian, so the last draw's low byte comes first
            batches.append(z.to_bytes(16 * _LANES, "big")[15::16])
            x = (x + _ADVANCE) & _LOW64
        self.state = (self.state + count * _GOLDEN) & _MASK64
        digits = b"".join(reversed(batches)).translate(_LOW_BIT_DIGIT)
        # the last batch may run past draw count: drop those coins
        return int(b"0" + digits, 2) & ((1 << count) - 1)

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
