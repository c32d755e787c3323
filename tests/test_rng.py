"""Generator correctness against reference implementations and known outputs."""

import hashlib
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from popperlab import Xoshiro256StarStar, rng, splitmix64_stream

import oracles


class TestSplitmix64:
    def test_known_seed0_outputs(self):
        stream = splitmix64_stream(0)
        got = [next(stream) for _ in range(5)]
        assert got == oracles.SPLITMIX64_SEED0
        # the classic check constant, spelled out
        assert got[0] == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 64 - 1, 0xDEADBEEF])
    def test_matches_reference(self, seed):
        stream = splitmix64_stream(seed)
        got = [next(stream) for _ in range(50)]
        assert got == oracles.ref_splitmix64(seed, 50)

    def test_outputs_are_u64(self):
        stream = splitmix64_stream(9999)
        for _ in range(100):
            v = next(stream)
            assert 0 <= v < 2 ** 64


class TestXoshiro256StarStar:
    def test_hand_computed_vector(self):
        # from state [1,2,3,4]; first three verified with pencil and paper
        got = oracles.ref_xoshiro256ss([1, 2, 3, 4], 6)
        assert got == oracles.XOSHIRO_STATE1234

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 63, 0xFFFFFFFFFFFFFFFF])
    def test_matches_reference_after_seeding(self, seed):
        gen = Xoshiro256StarStar(seed)
        got = [gen.next_u64() for _ in range(2000)]
        state = oracles.ref_splitmix64(seed, 4)
        assert got == oracles.ref_xoshiro256ss(state, 2000)

    def test_determinism(self):
        a = Xoshiro256StarStar(777).uniforms(1000)
        b = Xoshiro256StarStar(777).uniforms(1000)
        assert np.array_equal(a, b)

    def test_seeds_decorrelate(self):
        a = Xoshiro256StarStar(1).uniforms(100)
        b = Xoshiro256StarStar(2).uniforms(100)
        assert not np.array_equal(a, b)

    def test_double_construction_rule(self):
        # random() must equal (u64 >> 11) * 2^-53 draw for draw
        g1 = Xoshiro256StarStar(31337)
        g2 = Xoshiro256StarStar(31337)
        for _ in range(200):
            assert g1.random() == (g2.next_u64() >> 11) * 2.0 ** -53

    def test_uniform_range_and_moments(self):
        u = Xoshiro256StarStar(2026).uniforms(200000)
        assert u.dtype == np.float64
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_uniforms_continue_the_stream(self):
        g = Xoshiro256StarStar(5)
        first = g.uniforms(10)
        second = g.uniforms(10)
        both = Xoshiro256StarStar(5).uniforms(20)
        assert np.array_equal(np.concatenate([first, second]), both)

    @pytest.mark.parametrize("k", [0, 1, 1000])
    def test_serial_draws_continue_after_uniforms(self, k):
        # a block of uniforms must leave the state where k single draws would
        block = Xoshiro256StarStar(4242)
        serial = Xoshiro256StarStar(4242)
        u = block.uniforms(k)
        assert u.dtype == np.float64
        assert np.array_equal(u, np.array([serial.random() for _ in range(k)]))
        for _ in range(3):
            assert block.next_u64() == serial.next_u64()
            assert block.random() == serial.random()

    def test_state_never_all_zero(self):
        # seeding must leave at least one nonzero word
        for seed in range(64):
            gen = Xoshiro256StarStar(seed)
            outs = {gen.next_u64() for _ in range(8)}
            assert outs != {0}


def scrambled(seen) -> np.ndarray:
    """The ** scrambler, rotl(s1 * 5, 7) * 9, of recorded s1 values."""
    x = np.array(seen, dtype=np.uint64) * np.uint64(5)
    x = (x << np.uint64(7)) | (x >> np.uint64(57))
    return x * np.uint64(9)


# The lane count and lane length a 200,000-draw block takes.
LANES = math.isqrt(200_000 // 32)
STEPS = 200_000 // LANES


class TestLanes:
    """Long blocks step numpy lanes started by GF(2) jumps; nothing may differ."""

    @pytest.mark.parametrize("n", [0, 1, LANES - 1, LANES, LANES * STEPS - 1, LANES * STEPS,
                                   LANES * STEPS + 1, 200_000])
    def test_outputs_match_the_reference(self, n):
        # and single draws continue the stream after the block
        gen = Xoshiro256StarStar(99)
        expected = oracles.ref_xoshiro256ss(oracles.ref_splitmix64(99, 4), n + 2)
        assert np.array_equal(gen._outputs(n), np.array(expected[:n], dtype=np.uint64))
        assert gen.next_u64() == expected[n]
        assert gen.random() == (expected[n + 1] >> 11) * 2.0 ** -53

    @pytest.mark.parametrize("seed", [5, 2 ** 64 - 1])
    def test_two_million_outputs_and_state_match_the_serial_loop(self, seed):
        gen = Xoshiro256StarStar(seed)
        seen, state = rng._serial(gen._s, 2_000_000)
        assert np.array_equal(gen._outputs(2_000_000), scrambled(seen))
        assert gen._s == state

    @pytest.mark.parametrize("lanes,steps", [(2, 1), (3, 5), (7, 300), (32, 257)])
    def test_laned_core_matches_the_serial_loop(self, lanes, steps):
        # below the size where _outputs uses lanes, and across a block edge
        start = oracles.ref_splitmix64(31, 4)
        record = np.empty((lanes, steps), dtype=np.uint64)
        state = rng._laned(start, record)
        seen, expected_state = rng._serial(start, lanes * steps)
        assert np.array_equal(record.ravel(), np.array(seen, dtype=np.uint64))
        assert state == expected_state

    def test_jump_by_2_128_is_the_published_jump(self):
        # An independent check of the Berlekamp-Massey polynomial: the
        # reference jump() constants are x^(2^128) mod p, word by word.
        poly = rng._x_pow_mod(2 ** 128, rng._charpoly())
        assert poly == sum(w << (64 * i) for i, w in enumerate(oracles.XOSHIRO256_JUMP))
        for seed in (0, 77):
            start = oracles.ref_splitmix64(seed, 4)
            assert rng._jump(start, poly) == oracles.ref_jump(start)

    @pytest.mark.parametrize("steps", [1, 255, 256, 1000])
    def test_jump_by_b_is_b_steps(self, steps):
        start = oracles.ref_splitmix64(8, 4)
        jumped = rng._jump(start, rng._x_pow_mod(steps, rng._charpoly()))
        assert jumped == rng._serial(start, steps)[1]


class TestGolden:
    # SHA-256 of the little-endian doubles of 400,000 uniforms, as the
    # one-step-at-a-time loop produced them; every Python and platform the
    # suite runs on must reproduce them through the lanes.
    @pytest.mark.parametrize("seed,digest", [
        (5, "714ced3d71f3881a205b31e915d002a30a56cfb0a474b124a99d708746881558"),
        (0x5EED5EED5EED5EED, "ef3995b269fb20c64f4e457118a477d767778cd223650f3dee5d17bfe820b061"),
    ])
    def test_uniform_digest(self, seed, digest):
        u = Xoshiro256StarStar(seed).uniforms(400_000)
        assert hashlib.sha256(u.astype("<f8").tobytes()).hexdigest() == digest

    def test_import_finds_no_polynomial(self, child_env):
        # The characteristic polynomial is found on the first long block, not
        # at import, and short blocks never need it.
        code = ("import popperlab, popperlab.cli\n"
                "from popperlab import rng\n"
                "sizes = [rng._charpoly.cache_info().currsize]\n"
                "rng.Xoshiro256StarStar(1).uniforms(24 ** 2 * 32 - 1)\n"
                "sizes.append(rng._charpoly.cache_info().currsize)\n"
                "rng.Xoshiro256StarStar(1).uniforms(24 ** 2 * 32)\n"
                "sizes.append(rng._charpoly.cache_info().currsize)\n"
                "print(sizes)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 1]"


class TestMemory:
    def test_uniforms_convert_in_place(self):
        # The doubles are written over the uint64 record a slice at a time:
        # the peak is the 8 MB output and one slice's temporaries.
        gen = Xoshiro256StarStar(7)
        gen.uniforms(2 ** 15)  # finds the characteristic polynomial first
        tracemalloc.start()
        try:
            u = gen.uniforms(10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.dtype == np.float64 and u.nbytes == 8 * 10 ** 6
        assert peak < 1.2 * u.nbytes
