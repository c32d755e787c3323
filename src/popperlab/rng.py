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

One private core records the s1 each step reads and then applies the **
scrambler to all of them at once on uint64 arrays, whose wrap-around is the
recurrence's arithmetic mod 2⁶⁴; ``uniforms``, ``next_u64`` and ``random``
all read from it.  A short block steps the state on four Python ints.  A
long one (18,432 draws or more) steps L ≈ √(n/32) uint64 lanes together: the
transition T is linear over GF(2) (Blackman & Vigna, ACM TOMS 47(4), 2021),
so B = n // L steps are the polynomial x^B mod p applied to the state, p
being T's characteristic polynomial (Haramoto et al., INFORMS J. Comput.
20(3), 2008).  Lane j starts jB steps on and records steps jB to (j+1)B − 1,
so reading the lanes one after another gives the serial stream; the last
n − LB steps run on the Python ints.  p is found once, on the first long
block, by Berlekamp-Massey on one state bit.  The stream and the state after
it are bit-identical to stepping one at a time, on every platform and
Python build; a seed in a report is a complete record of the randomness used.
"""

from __future__ import annotations

import functools
import math
from array import array

import numpy as np

_MASK = (1 << 64) - 1
_DOUBLE_SCALE = 2.0 ** -53
# Values per slice of the in-place scrambler and conversion: 512 KiB.
_SLICE = 2 ** 16


def splitmix64_stream(seed: int):
    """Infinite splitmix64 outputs from a 64-bit seed."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _serial(s: list[int], n: int) -> tuple[array, list[int]]:
    """The s1 each of n steps from state s reads, and the state after them."""
    s0, s1, s2, s3 = s
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
    return seen, [s0, s1, s2, s3]


@functools.cache
def _charpoly() -> int:
    """T's characteristic polynomial p over GF(2); bit k holds x^k's coefficient.

    p is primitive (the period is 2²⁵⁶ − 1), so the shortest recurrence of
    any one state bit is p itself; Berlekamp-Massey finds it from 512 values.
    """
    seen, _ = _serial([1, 2, 3, 4], 512)
    c, b, m, deg, window = 1, 1, 1, 0, 0
    for i, word in enumerate(seen):
        window = (window << 1) | (word & 1)  # bit k: the value k steps back
        if (c & window).bit_count() & 1:
            c, prev = c ^ (b << m), c
            if 2 * deg <= i:
                deg, b, m = i + 1 - deg, prev, 1
                continue
        m += 1
    # c(x) = x^deg p(1/x): reverse its coefficients.
    return int(format(c, f"0{deg + 1}b")[::-1], 2)


def _x_pow_mod(e: int, p: int) -> int:
    """x^e mod p over GF(2), squaring and multiplying by x bit by bit of e."""
    top = p.bit_length() - 1
    r = 1
    for bit in bin(e)[2:]:
        # Squaring over GF(2) spreads the coefficients to even powers.
        r = int("0".join(bin(r)[2:]), 2) << (bit == "1")
        while (d := r.bit_length() - 1) >= top:
            r ^= p << (d - top)
    return r


def _jump(s: list[int], poly: int) -> list[int]:
    """poly(T) applied to state s: with poly = x^B mod p, the state B steps on."""
    s0, s1, s2, s3 = s
    a0 = a1 = a2 = a3 = 0
    while poly:
        if poly & 1:
            a0, a1, a2, a3 = a0 ^ s0, a1 ^ s1, a2 ^ s2, a3 ^ s3
        poly >>= 1
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & _MASK) | (s3 >> 19)
    return [a0, a1, a2, a3]


def _laned(s: list[int], record: np.ndarray) -> list[int]:
    """Fill the (L, B) ``record`` with the s1 of L·B steps from state s, lane
    by lane, and return the state after them."""
    lanes, steps = record.shape
    poly = _x_pow_mod(steps, _charpoly())
    starts = [s]
    for _ in range(lanes - 1):
        starts.append(_jump(starts[-1], poly))
    state = np.array(starts, dtype=np.uint64).T.copy()  # rows s0, s1, s2, s3
    s1, s2, s3 = state[1:]
    low, high, crossed = state[:2], state[2:], state[:1:-1]
    t, u = np.empty(lanes, np.uint64), np.empty(lanes, np.uint64)
    k17, k45, k19 = np.uint64(17), np.uint64(45), np.uint64(19)
    # Rows fill a small block that is then written into the lanes in one
    # copy, so no step writes across the whole record.
    block = np.empty((min(steps, 256), lanes), np.uint64)
    for first in range(0, steps, len(block)):
        rows = block[:steps - first]
        for row in rows:
            row[...] = s1
            np.left_shift(s1, k17, out=t)
            high ^= low  # s2 ^= s0; s3 ^= s1
            low ^= crossed  # s0 ^= s3; s1 ^= s2
            s2 ^= t
            np.left_shift(s3, k45, out=u)
            s3 >>= k19
            s3 |= u
        record[:, first:first + len(rows)] = rows.T
    return [int(w) for w in state[:, -1]]


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
        # A lane costs a 256-step jump on Python ints (~170 µs) and a row of
        # lanes a few µs of numpy calls, so about √(n/32) lanes balance the
        # two; below 24 lanes (18,432 draws) the serial loop is as fast.
        lanes = math.isqrt(n // 32)
        laned = n - n % lanes if lanes >= 24 else 0
        x = np.empty(n, dtype=np.uint64)
        s = _laned(self._s, x[:laned].reshape(lanes, -1)) if laned else self._s
        seen, self._s = _serial(s, n - laned)
        x[laned:] = np.frombuffer(seen, dtype=np.uint64)
        # The scrambler runs in place on the recorded s1 values, a slice at a time.
        for start in range(0, n, _SLICE):
            part = x[start:start + _SLICE]
            part *= np.uint64(5)
            high = part >> np.uint64(57)
            part <<= np.uint64(7)
            part |= high
            part *= np.uint64(9)
        return x

    def next_u64(self) -> int:
        return int(self._outputs(1)[0])

    def random(self) -> float:
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n consecutive uniform doubles in [0, 1), in stream order."""
        x = self._outputs(n)
        # Converted into the record's own memory, a slice at a time.
        out = x.view(np.float64)
        for start in range(0, n, _SLICE):
            np.multiply(x[start:start + _SLICE] >> np.uint64(11), _DOUBLE_SCALE,
                        out=out[start:start + _SLICE])
        return out
