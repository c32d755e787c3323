"""Conditional reduction at station A and the aperture contrast."""

import math
import tracemalloc

import numpy as np
import pytest

from popperlab import (
    ApertureProfile,
    GridMismatchError,
    WaveFunction1D,
    GridSpec,
    JointStateRecipe,
    MeasurementSpec,
    PhysicalParams,
    ZeroNormError,
    aperture_postselect,
    auto_grid,
    build_joint_state,
    build_pointer_state,
    conditional_reduce,
    initial_spreads,
    momentum_std_spectral,
    position_stats,
    reduced_density_momentum_std,
    reduced_spreads,
)
from popperlab.measurement import reduce_pair
from popperlab.wavefunction import grid_points, norm

import oracles


def setup_reduction(sigma, omega0, eps, n=2048, half=None):
    p = PhysicalParams(sigma=sigma, omega0=omega0)
    if half is None:
        half = 8.5 * max(initial_spreads(p).dy2, eps)
    g = GridSpec(n_points=n, y_min=-half, y_max=half)
    psi = build_joint_state(JointStateRecipe(p, g, g))
    phi1 = build_pointer_state(MeasurementSpec(epsilon=eps), g)
    return p, psi, phi1


class TestConditionalReduce:
    @pytest.mark.parametrize("key", sorted(oracles.REDUCED_ORACLE))
    def test_numeric_matches_quadrature_oracle(self, key):
        sigma, omega0, eps = key
        p, psi, phi1 = setup_reduction(sigma, omega0, eps)
        red = conditional_reduce(psi, phi1, p, eps)
        dy2_ref, dp2_ref = oracles.REDUCED_ORACLE[key]
        assert red.dy2_numeric == pytest.approx(dy2_ref, rel=1e-8)
        assert red.dp2_numeric == pytest.approx(dp2_ref, rel=1e-8)
        # the closed-form fields carry the matching prediction
        assert red.dy2_closed == pytest.approx(dy2_ref, rel=1e-12)
        assert red.dp2_closed == pytest.approx(dp2_ref, rel=1e-12)

    def test_output_is_normalized(self):
        p, psi, phi1 = setup_reduction(1.0, 2.0, 0.5)
        red = conditional_reduce(psi, phi1, p, 0.5)
        assert norm(red.phi2) == pytest.approx(1.0, rel=1e-12)
        assert red.phi2.amps.dtype == np.float64

    def test_gaussian_shape_residual(self):
        p, psi, phi1 = setup_reduction(1.0, 2.0, 0.5)
        red = conditional_reduce(psi, phi1, p, 0.5)
        assert red.residual < 1e-10

    def test_grid_mismatch(self):
        p, psi, _ = setup_reduction(1.0, 2.0, 0.5)
        other = GridSpec(n_points=1024, y_min=-4.0, y_max=4.0)
        phi_other = build_pointer_state(MeasurementSpec(epsilon=0.5), other)
        with pytest.raises(GridMismatchError):
            conditional_reduce(psi, phi_other, p, 0.5)

    def test_off_center_slit_shifts_remote_mean(self):
        # positional correlation drags particle 2 toward the slit side
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = GridSpec(n_points=2048, y_min=-20.0, y_max=20.0)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        phi1 = build_pointer_state(MeasurementSpec(epsilon=0.5, center=1.0), g)
        red = conditional_reduce(psi, phi1, p, 0.5)
        mean2 = position_stats(red.phi2).mean
        assert mean2 > 0.5  # strongly correlated source
        # spreads are translation invariant
        assert red.dp2_numeric == pytest.approx(red.dp2_closed, rel=1e-8)

    def test_unnormalized_inputs_accepted(self):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = GridSpec(n_points=2048, y_min=-18.0, y_max=18.0)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        phi1 = build_pointer_state(MeasurementSpec(epsilon=0.5), g)
        from popperlab import WaveFunction1D, WaveFunction2D
        psi_raw = WaveFunction2D(grid1=g, grid2=g, amps=psi.amps * 3.0)
        phi_raw = WaveFunction1D(grid=g, amps=phi1.amps * 0.1)
        a = conditional_reduce(psi, phi1, p, 0.5)
        b = conditional_reduce(psi_raw, phi_raw, p, 0.5)
        assert b.dp2_numeric == pytest.approx(a.dp2_numeric, rel=1e-13)

    @pytest.mark.parametrize("theta", [0.7, math.pi / 2, -2.5])
    def test_complex_pointer_global_phase(self, theta):
        # φ₁·e^{iθ} enters conjugated, so φ₂ turns by e^{−iθ} and nothing
        # measurable moves
        p, psi, phi1 = setup_reduction(1.0, 2.0, 0.5)
        real = conditional_reduce(psi, phi1, p, 0.5)
        turned = conditional_reduce(
            psi, WaveFunction1D(grid=phi1.grid, amps=phi1.amps * np.exp(1j * theta)), p, 0.5)
        assert np.iscomplexobj(turned.phi2.amps)
        peak = np.max(np.abs(real.phi2.amps))
        assert np.max(np.abs(turned.phi2.amps - np.exp(-1j * theta) * real.phi2.amps)) \
            <= 1e-13 * peak
        assert turned.dy2_numeric == pytest.approx(real.dy2_numeric, rel=1e-13)
        assert turned.dp2_numeric == pytest.approx(real.dp2_numeric, rel=1e-13)
        assert abs(turned.residual - real.residual) <= 1e-13

    def test_vanishing_slit_width_on_strip_grid(self):
        # eps = 1e-3 is far below what a square grid can afford, but the
        # pointer only lives on a narrow y1 strip; the reduced state must
        # then carry the full initial momentum spread
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        eps = 1e-3
        g1 = GridSpec(n_points=512, y_min=-0.02, y_max=0.02)
        g2 = GridSpec(n_points=2048, y_min=-16.2, y_max=16.2)
        psi = build_joint_state(JointStateRecipe(p, g1, g2))
        phi1 = build_pointer_state(MeasurementSpec(epsilon=eps), g1)
        red = conditional_reduce(psi, phi1, p, eps)
        assert red.dp2_numeric == pytest.approx(red.dp2_closed, rel=1e-9)
        init = initial_spreads(p).dp2y
        assert red.dp2_numeric == pytest.approx(init, rel=1e-5)


# (sigma, omega0, eps, center, y_min, y_max); every grid resolves the
# pointer at 64 points, so each case also runs at 512 and 4096.
CONVOLUTION_CASES = {
    "toeplitz": (1.0, 2.0, 1.0, 0.0, -17.0, 17.0),
    "hankel": (0.1, 0.5, 1.2, 0.0, -22.0, 22.0),
    "factorization line": (0.3, 1.0 / 1.2, 0.5, 0.0, -10.0, 10.0),
    "off-centre pointer": (1.0, 2.0, 1.0, 3.0, -20.0, 20.0),
    "asymmetric grid, toeplitz": (1.0, 2.0, 1.0, 1.5, -15.0, 21.0),
    "asymmetric grid, hankel": (0.1, 0.5, 1.2, -1.0, -18.0, 26.0),
}
# The two routes sum the same quadrature in different orders; at float64
# the measured gap is at most about 5e-14 of the peak amplitude.
CONVOLUTION_TOL = 1e-13


def assert_routes_agree(conv, dense):
    peak = np.max(np.abs(dense.phi2.amps))
    assert np.max(np.abs(conv.phi2.amps - dense.phi2.amps)) <= CONVOLUTION_TOL * peak
    assert conv.dy2_numeric == pytest.approx(dense.dy2_numeric, rel=CONVOLUTION_TOL)
    assert conv.dp2_numeric == pytest.approx(dense.dp2_numeric, rel=CONVOLUTION_TOL)
    # the residual is already relative to the peak
    assert abs(conv.residual - dense.residual) <= CONVOLUTION_TOL
    assert (conv.dy2_closed, conv.dp2_closed) == (dense.dy2_closed, dense.dp2_closed)


class TestReducePairByConvolution:
    """``reduce_pair`` against the dense matvec of ``conditional_reduce``."""

    @pytest.mark.parametrize("n", [64, 512, 4096])
    @pytest.mark.parametrize("case", sorted(CONVOLUTION_CASES))
    def test_matches_dense_route(self, case, n):
        sigma, omega0, eps, center, lo, hi = CONVOLUTION_CASES[case]
        p = PhysicalParams(sigma=sigma, omega0=omega0)
        g = GridSpec(n_points=n, y_min=lo, y_max=hi)
        phi1 = build_pointer_state(MeasurementSpec(epsilon=eps, center=center), g)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        assert_routes_agree(reduce_pair(phi1, p, eps), conditional_reduce(psi, phi1, p, eps))

    @pytest.mark.parametrize("center", [-30.0, 12.0, 30.0])
    def test_far_off_centre_pointer(self, center):
        # 15 pair widths out: an uncentred split loses 2e-2 of dy2 here
        p = PhysicalParams(sigma=5.0, omega0=2.65)
        g = auto_grid(p, MeasurementSpec(epsilon=0.25, center=center), max_points=2048)
        phi1 = build_pointer_state(MeasurementSpec(epsilon=0.25, center=center), g)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        assert_routes_agree(reduce_pair(phi1, p, 0.25), conditional_reduce(psi, phi1, p, 0.25))

    def test_complex_pointer_is_refused(self):
        # the route takes the real pointer build_pointer_state makes; a
        # complex one fails loudly rather than losing its phase
        g = GridSpec(n_points=512, y_min=-17.0, y_max=17.0)
        real = build_pointer_state(MeasurementSpec(epsilon=1.0), g)
        phi1 = WaveFunction1D(grid=g, amps=real.amps * np.exp(0.7j * grid_points(g)))
        with pytest.raises(TypeError):
            reduce_pair(phi1, PhysicalParams(sigma=1.0, omega0=2.0), 1.0)

    def test_matches_closed_form(self):
        p = PhysicalParams(sigma=10.0, omega0=10.0)
        ms = MeasurementSpec(epsilon=0.1)
        g = auto_grid(p, ms, max_points=8192)
        red = reduce_pair(build_pointer_state(ms, g), p, 0.1)
        assert red.dy2_numeric == pytest.approx(red.dy2_closed, rel=1e-9)
        assert red.dp2_numeric == pytest.approx(red.dp2_closed, rel=1e-9)
        assert red.residual < 1e-9

    def test_pointer_outside_the_pair_has_zero_norm(self):
        # the overlap underflows far below the norm floor on both routes
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = GridSpec(n_points=1024, y_min=-100.0, y_max=100.0)
        phi1 = build_pointer_state(MeasurementSpec(epsilon=0.5, center=90.0), g)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        with pytest.raises(ZeroNormError):
            conditional_reduce(psi, phi1, p, 0.5)
        with pytest.raises(ZeroNormError):
            reduce_pair(phi1, p, 0.5)

    def test_peak_memory_is_a_few_vectors(self):
        # the dense route holds a 4096² float64 state: 128 MiB, 256 MiB at peak
        p = PhysicalParams(sigma=10.0, omega0=10.0)
        ms = MeasurementSpec(epsilon=0.1)
        g = auto_grid(p, ms, max_points=4096)
        assert g.n_points == 4096
        phi1 = build_pointer_state(ms, g)
        reduce_pair(phi1, p, 0.1)  # fills the grid caches
        tracemalloc.start()
        try:
            reduce_pair(phi1, p, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestAperture:
    def setup_method(self):
        self.p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = GridSpec(n_points=1024, y_min=-17.0, y_max=17.0)
        self.psi = build_joint_state(JointStateRecipe(self.p, g, g))

    def test_identity_aperture(self):
        wide = ApertureProfile(kind="tophat", width=1e6)
        res = aperture_postselect(self.psi, wide)
        assert res.pass_probability == pytest.approx(1.0, rel=1e-13)
        assert np.allclose(res.psi_after.amps, self.psi.amps, atol=1e-15)

    def test_pass_probability_decreases_with_width(self):
        probs = [aperture_postselect(self.psi,
                                     ApertureProfile(kind="tophat", width=w)
                                     ).pass_probability
                 for w in (4.0, 2.0, 1.0, 0.5)]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert all(0.0 < q <= 1.0 for q in probs)

    def test_slit_presence_alone_leaves_remote_momentum_alone(self):
        # without a detection event the surviving ensemble is a mixture
        # over passage points; every conditional slice carries the same
        # momentum density, so the remote spread cannot move at all
        before = reduced_density_momentum_std(self.psi, particle=2)
        for profile in (ApertureProfile(kind="tophat", width=1.0),
                        ApertureProfile(kind="gaussian", width=0.5),
                        ApertureProfile(kind="tophat", width=0.3, center=0.8)):
            res = aperture_postselect(self.psi, profile)
            after = reduced_density_momentum_std(res.psi_after, particle=2)
            assert after == pytest.approx(before, rel=1e-9), profile

    def test_contrast_with_detection(self):
        # an actual pointer measurement narrows the remote momentum; the
        # aperture alone does not -- the two cases must differ
        g = self.psi.grid1
        phi1 = build_pointer_state(MeasurementSpec(epsilon=0.5), g)
        red = conditional_reduce(self.psi, phi1, self.p, 0.5)
        res = aperture_postselect(self.psi,
                                  ApertureProfile(kind="gaussian", width=0.5))
        dp_aperture = reduced_density_momentum_std(res.psi_after, particle=2)
        assert red.dp2_numeric < 0.99 * dp_aperture

    @pytest.mark.parametrize("profile", [
        ApertureProfile(kind="tophat", width=1e6),
        *[ApertureProfile(kind="tophat", width=w) for w in (4.0, 2.0, 1.0, 0.5)],
        ApertureProfile(kind="gaussian", width=0.5),
        ApertureProfile(kind="tophat", width=0.3, center=0.8),
    ])
    def test_matches_the_two_norm_formula(self, profile):
        res = aperture_postselect(self.psi, profile)
        amps, pass_probability = oracles.ref_aperture_postselect(self.psi, profile)
        assert np.array_equal(res.psi_after.amps, amps)
        assert res.pass_probability == pass_probability

    def test_transmission_bounds_enforced(self):
        class Bad(ApertureProfile):
            def transmission(self, y):
                return np.full_like(y, 1.5)

        with pytest.raises(ValueError):
            aperture_postselect(self.psi, Bad(kind="tophat", width=1.0))

    def test_blocking_everything(self):
        # slit far outside the support kills the whole ensemble
        far = ApertureProfile(kind="tophat", width=0.1, center=1e4)
        with pytest.raises(ZeroNormError):
            aperture_postselect(self.psi, far)

    def test_tophat_profile_values(self):
        prof = ApertureProfile(kind="tophat", width=2.0, center=1.0)
        y = np.array([-0.1, 0.0, 1.0, 2.0, 2.1])
        assert np.array_equal(prof.transmission(y), [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_gaussian_profile_values(self):
        prof = ApertureProfile(kind="gaussian", width=0.7)
        assert prof.transmission(np.array(0.0)) == 1.0
        assert prof.transmission(np.array(1.4)) == pytest.approx(math.exp(-1.0))

    def test_unknown_kind(self):
        prof = ApertureProfile(kind="bessel", width=1.0)
        with pytest.raises(ValueError):
            aperture_postselect(self.psi, prof)


class TestNoExtraSpreadOnGrid:
    @pytest.mark.parametrize("sigma,omega0,eps", [
        (1.0, 2.0, 0.5),
        (0.5, 0.5, 0.2),
        (2.0, 0.125, 0.4),   # on the product line: equality
        (3.0, 0.5, 1.2),
    ])
    def test_post_never_exceeds_initial(self, sigma, omega0, eps):
        p, psi, phi1 = setup_reduction(sigma, omega0, eps)
        red = conditional_reduce(psi, phi1, p, eps)
        dp_init = momentum_std_spectral(psi, particle=2)
        assert red.dp2_numeric <= dp_init + 1e-8

    def test_equality_on_product_line(self):
        p, psi, phi1 = setup_reduction(2.0, 0.125, 0.4)
        red = conditional_reduce(psi, phi1, p, 0.4)
        dp_init = momentum_std_spectral(psi, particle=2)
        assert red.dp2_numeric == pytest.approx(dp_init, rel=1e-9)
        closed = reduced_spreads(p, 0.4)
        assert closed.dp2y == pytest.approx(initial_spreads(p).dp2y, rel=1e-12)
