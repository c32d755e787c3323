"""Generator correctness against reference implementations and known outputs."""

import numpy as np
import pytest

from popperlab import Xoshiro256StarStar, splitmix64_stream

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
