"""Seedable, portable random numbers for the sampling stage.

The generator is xoshiro256** with its state expanded from a 64-bit seed by
splitmix64, exactly as the reference implementations specify:

* splitmix64 step:  z = (state += 0x9E3779B97F4A7C15);
  z = (z ^ z>>30) * 0xBF58476D1CE4E5B9; z = (z ^ z>>27) * 0x94D049BB133111EB;
  output z ^ z>>31.  Four successive outputs form the xoshiro state.
* xoshiro256** output:  rotl64(s1 * 5, 7) * 9, followed by the linear
  state transition (t = s1<<17; s2^=s0; s3^=s1; s1^=s2; s0^=s3; s2^=t;
  s3 = rotl64(s3, 45)).
* uniform double in [0, 1):  top 53 bits of the output, (u64 >> 11) * 2⁻⁵³.

One private core steps the state on four Python ints, recording the s1 each
step reads, and then applies the ** scrambler to all of them on uint64
lanes, whose wrap-around is the recurrence's arithmetic mod 2⁶⁴.
``uniforms``, ``next_u64`` and ``random`` all read from it.  Everything is
integer arithmetic, so the stream is bit-identical on every platform and
Python build; a seed in a report is a complete record of the randomness used.
"""

from __future__ import annotations

from array import array

import numpy as np

_MASK = (1 << 64) - 1
_DOUBLE_SCALE = 2.0 ** -53


def splitmix64_stream(seed: int):
    """Infinite splitmix64 outputs from a 64-bit seed."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** seeded via splitmix64; see module docstring for the contract."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must be an integer in [0, 2^64)")
        self.seed = seed
        stream = splitmix64_stream(seed)
        # splitmix64 is a bijection of its counter and the four counters differ,
        # so at most one word is 0: never xoshiro's forbidden all-zero state.
        self._s = [next(stream) for _ in range(4)]

    def _outputs(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, in stream order."""
        s0, s1, s2, s3 = self._s
        seen = array("Q", bytes(8 * n))
        for i in range(n):
            seen[i] = s1
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK) | (s3 >> 19)
        self._s = [s0, s1, s2, s3]
        # The scrambler runs in place on the recorded s1 values.
        x = np.frombuffer(seen, dtype=np.uint64)
        x *= np.uint64(5)
        high = x >> np.uint64(57)
        x <<= np.uint64(7)
        x |= high
        x *= np.uint64(9)
        return x

    def next_u64(self) -> int:
        return int(self._outputs(1)[0])

    def random(self) -> float:
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n consecutive uniform doubles in [0, 1), in stream order."""
        x = self._outputs(n)
        x >>= np.uint64(11)
        return x * _DOUBLE_SCALE
