"""Closed-form spreads against the adaptive-quadrature oracle, plus the
inequalities that hold for every parameter choice."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from popperlab import (
    PhysicalParams,
    approx_dp2_strong_correlation,
    initial_spreads,
    is_disentangled,
    limit_dp2_eps_to_zero,
    position_correlation,
    reduced_spreads,
)
from popperlab.analytic import _pair_spectrum
from popperlab.wavefunction import SCHMIDT_TRUNCATION

import oracles

positive = st.floats(0.05, 20.0)


def params(sigma, omega0, hbar=1.0):
    return PhysicalParams(sigma=sigma, omega0=omega0, hbar=hbar)


class TestInitialSpreads:
    @pytest.mark.parametrize("key", sorted(oracles.INITIAL_ORACLE))
    def test_matches_quadrature_oracle(self, key):
        dy2_ref, dp2_ref = oracles.INITIAL_ORACLE[key]
        got = initial_spreads(params(*key))
        assert got.dy2 == pytest.approx(dy2_ref, rel=1e-12)
        assert got.dp2y == pytest.approx(dp2_ref, rel=1e-12)

    def test_symmetric_between_particles(self):
        got = initial_spreads(params(0.9, 1.7))
        assert got.dy1 == got.dy2
        assert got.dp1y == got.dp2y

    def test_known_radicals(self):
        # sigma=1, omega0=2: dy = sqrt(65)/4, dp = sqrt(65)/8
        got = initial_spreads(params(1.0, 2.0))
        assert got.dy2 == pytest.approx(math.sqrt(65.0) / 4.0, rel=1e-15)
        assert got.dp2y == pytest.approx(math.sqrt(65.0) / 8.0, rel=1e-15)

    @given(sigma=positive, omega0=positive)
    @settings(max_examples=200, deadline=None)
    def test_product_exceeds_heisenberg(self, sigma, omega0):
        got = initial_spreads(params(sigma, omega0))
        assert got.dy2 * got.dp2y >= 0.5 * (1 - 1e-12)

    @given(sigma=positive, omega0=positive, scale=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_length_rescaling(self, sigma, omega0, scale):
        # y -> scale*y maps (sigma, omega0) -> (sigma/scale, scale*omega0)
        # and divides every momentum spread by scale
        a = initial_spreads(params(sigma, omega0))
        b = initial_spreads(params(sigma / scale, omega0 * scale))
        assert b.dy2 == pytest.approx(scale * a.dy2, rel=1e-12)
        assert b.dp2y == pytest.approx(a.dp2y / scale, rel=1e-12)


class TestReducedSpreads:
    @pytest.mark.parametrize("key", sorted(oracles.REDUCED_ORACLE))
    def test_matches_quadrature_oracle(self, key):
        dy2_ref, dp2_ref = oracles.REDUCED_ORACLE[key]
        got = reduced_spreads(params(key[0], key[1]), key[2])
        assert got.dy2 == pytest.approx(dy2_ref, rel=1e-12)
        assert got.dp2y == pytest.approx(dp2_ref, rel=1e-12)

    def test_live_oracle_once(self):
        # one fresh quadrature run to guard the frozen table itself
        dy2_ref, dp2_ref = oracles.oracle_reduced_spreads(1.0, 2.0, 0.5)
        got = reduced_spreads(params(1.0, 2.0), 0.5)
        assert got.dy2 == pytest.approx(dy2_ref, rel=1e-10)
        assert got.dp2y == pytest.approx(dp2_ref, rel=1e-10)

    def test_pointer_momentum_kick(self):
        got = reduced_spreads(params(1.0, 2.0), 0.5)
        assert got.dp1y == pytest.approx(1.0 / (2 * 0.5), rel=1e-15)

    @given(sigma=positive, omega0=positive, eps=positive)
    @settings(max_examples=300, deadline=None)
    def test_minimum_uncertainty_exact(self, sigma, omega0, eps):
        got = reduced_spreads(params(sigma, omega0), eps)
        assert got.dy2 * got.dp2y == pytest.approx(0.5, rel=1e-12)

    @given(sigma=positive, omega0=positive, eps=positive)
    @settings(max_examples=300, deadline=None)
    def test_no_extra_spread(self, sigma, omega0, eps):
        # localizing particle 1 never widens particle 2's momentum
        post = reduced_spreads(params(sigma, omega0), eps).dp2y
        pre = initial_spreads(params(sigma, omega0)).dp2y
        assert post <= pre * (1 + 1e-12)

    @given(sigma=positive, omega0=positive,
           eps=positive, shrink=st.floats(0.2, 0.9))
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_slit_width(self, sigma, omega0, eps, shrink):
        p = params(sigma, omega0)
        wide = reduced_spreads(p, eps).dp2y
        narrow = reduced_spreads(p, eps * shrink).dp2y
        assert narrow >= wide * (1 - 1e-12)

    @given(sigma=positive, eps=positive)
    @settings(max_examples=200, deadline=None)
    def test_equality_on_product_line(self, sigma, eps):
        # omega0 = hbar/(4 sigma) factorizes the state: reduction is free
        p = params(sigma, 1.0 / (4.0 * sigma))
        post = reduced_spreads(p, eps).dp2y
        pre = initial_spreads(p).dp2y
        assert post == pytest.approx(pre, rel=1e-12)

    @given(sigma=positive, omega0=positive, eps=positive)
    @settings(max_examples=200, deadline=None)
    def test_reduced_width_below_initial(self, sigma, omega0, eps):
        got = reduced_spreads(params(sigma, omega0), eps)
        assert got.dy2 <= initial_spreads(params(sigma, omega0)).dy2 * (1 + 1e-12)

    def test_strictly_narrower_off_the_line(self):
        for sigma, omega0, eps in [(1.0, 2.0, 0.5), (0.3, 3.0, 1.0), (5.0, 0.1, 0.2)]:
            post = reduced_spreads(params(sigma, omega0), eps).dp2y
            pre = initial_spreads(params(sigma, omega0)).dp2y
            assert post < pre


class TestLimitsAndApproximations:
    def test_eps_to_zero_is_initial_spread(self):
        p = params(1.3, 0.8)
        assert limit_dp2_eps_to_zero(p) == initial_spreads(p).dp2y

    def test_small_eps_approaches_limit(self):
        p = params(1.0, 2.0)
        limit = limit_dp2_eps_to_zero(p)
        prev = abs(reduced_spreads(p, 1e-2).dp2y - limit)
        for eps in (1e-3, 1e-4):
            cur = abs(reduced_spreads(p, eps).dp2y - limit)
            assert cur < prev
            prev = cur
        assert abs(reduced_spreads(p, 1e-3).dp2y - limit) / limit < 1e-5

    def test_strong_correlation_value(self):
        # sigma=omega0=10, eps=0.1: hbar/sqrt(hbar^2/sigma^2 + 4 eps^2)
        approx = approx_dp2_strong_correlation(params(10.0, 10.0), 0.1)
        assert approx.regime_ok
        assert approx.value == pytest.approx(4.472136, abs=5e-7)
        exact = reduced_spreads(params(10.0, 10.0), 0.1).dp2y
        assert approx.value == pytest.approx(exact, rel=1e-3)

    def test_regime_flag_off_outside(self):
        assert not approx_dp2_strong_correlation(params(1.0, 2.0), 0.5).regime_ok


class TestCorrelationAndDisentanglement:
    def test_reference_correlation(self):
        assert position_correlation(params(1.0, 2.0)) == pytest.approx(63.0 / 65.0,
                                                                       rel=1e-15)

    @given(sigma=positive, omega0=positive)
    @settings(max_examples=200, deadline=None)
    def test_correlation_bounds(self, sigma, omega0):
        c = position_correlation(params(sigma, omega0))
        assert -1.0 < c < 1.0

    def test_zero_exactly_on_product_line(self):
        assert position_correlation(params(1.0, 0.25)) == 0.0

    def test_disentangled_detection(self):
        assert is_disentangled(params(1.0, 0.25))
        assert is_disentangled(params(2.0, 0.125))
        assert not is_disentangled(params(1.0, 2.0))
        assert not is_disentangled(params(1.0, 0.2501))

    @given(sigma=positive)
    @settings(max_examples=100, deadline=None)
    def test_product_line_parametrization(self, sigma):
        assert is_disentangled(params(sigma, 1.0 / (4.0 * sigma)))


class TestSchmidtSpectrum:
    @pytest.mark.parametrize("key", sorted(oracles.SCHMIDT_ENTROPY_ORACLE))
    def test_entropy_matches_frozen_oracle(self, key):
        assert _pair_spectrum(params(*key)).entropy == pytest.approx(
            oracles.SCHMIDT_ENTROPY_ORACLE[key], rel=1e-14)

    @given(positive, positive, st.floats(0.5, 2.0))
    def test_entropy_matches_live_oracle(self, sigma, omega0, hbar):
        ref = oracles.oracle_schmidt_entropy(sigma, omega0, hbar)
        assert _pair_spectrum(params(sigma, omega0, hbar)).entropy == pytest.approx(
            ref, rel=1e-12, abs=1e-300)

    @given(positive, positive)
    def test_mode_count_is_the_truncation_rule(self, sigma, omega0):
        ex = _pair_spectrum(params(sigma, omega0))
        m = ex.modes
        if ex.mu == 0.0:
            assert m == 1
            return
        # coefficient ratios are mu^(n/2); modes 0..m-1 are kept, mode m is not
        assert ex.mu ** ((m - 1) / 2) >= SCHMIDT_TRUNCATION * (1 - 1e-12)
        assert ex.mu ** (m / 2) < SCHMIDT_TRUNCATION * (1 + 1e-12)

    def test_readme_source(self):
        ex = _pair_spectrum(params(1.0, 2.0))
        assert (ex.a, ex.b) == (1.0, 1.0 / 64.0)
        assert ex.mu == pytest.approx(49.0 / 81.0, rel=1e-15)
        assert ex.modes == 110

    def test_product_state_has_one_mode(self):
        ex = _pair_spectrum(params(1.0, 0.25))
        assert (ex.mu, ex.entropy, ex.modes) == (0.0, 0.0, 1)

    def test_unresolvable_source_reads_infinite(self):
        # mu rounds to 1: no finite entropy or mode count
        ex = _pair_spectrum(params(1e100, 1e100))
        assert ex.mu == 1.0
        assert ex.entropy == math.inf and ex.modes == math.inf
