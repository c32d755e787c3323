"""Pair-state and pointer builders."""

import math

import numpy as np
import pytest

from popperlab import (
    GridSpec,
    JointStateRecipe,
    MeasurementSpec,
    PhysicalParams,
    UnderResolvedError,
    WaveFunction2D,
    ZeroNormError,
    auto_grid,
    build_joint_state,
    build_pointer_state,
    joint_amplitude,
    normalize,
    pointer_width_for_slit,
    position_stats,
    schmidt,
)
from popperlab import states
from popperlab.analytic import _pair_spectrum
from popperlab.states import (
    FACTORED_MAX_MODE_SHARE,
    SCHMIDT_MAX_POINTS,
    pair_entropy,
    pair_schmidt,
)
from popperlab.wavefunction import grid_points, norm

import oracles


class TestJointAmplitude:
    def test_formula_at_points(self):
        p = PhysicalParams(sigma=1.5, omega0=0.8)
        val = joint_amplitude(np.array(0.3), np.array(-0.2), p)
        rel = (0.5 ** 2) * 1.5 ** 2
        com = (0.1 ** 2) / (16 * 0.8 ** 2)
        assert val == pytest.approx(math.exp(-rel - com), rel=1e-14)

    def test_peak_on_diagonal_at_origin(self):
        p = PhysicalParams(sigma=1.0, omega0=1.0)
        assert joint_amplitude(np.array(0.0), np.array(0.0), p) == 1.0
        assert joint_amplitude(np.array(1.0), np.array(1.0), p) < 1.0

    def test_symmetry_under_exchange(self):
        p = PhysicalParams(sigma=0.6, omega0=1.9)
        y1 = np.linspace(-2, 2, 7)[:, None]
        y2 = np.linspace(-2, 2, 7)[None, :]
        a = joint_amplitude(y1, y2, p)
        # exact: (y1-y2)^2 == (y2-y1)^2 in IEEE arithmetic, and the Schmidt
        # eigensolver route relies on it
        assert np.array_equal(a, a.T)

    def test_in_place_steps_match_out_of_place_formula(self):
        p = PhysicalParams(sigma=0.6, omega0=1.9, hbar=0.7)
        y1 = np.linspace(-3, 3, 33)[:, None]
        y2 = np.linspace(-2, 4, 17)[None, :]
        cases = [(y1, y2), (np.array(0.3), np.array(-0.2)), (0.3, -0.2),
                 (np.array(0.3), y2), (y1[:5], np.float64(1.25))]
        for a, b in cases:
            got = joint_amplitude(a, b, p)
            want = oracles.ref_joint_amplitude(a, b, p.sigma, p.omega0, p.hbar)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    def test_hbar_enters_relative_term(self):
        p1 = PhysicalParams(sigma=1.0, omega0=1.0, hbar=1.0)
        p2 = PhysicalParams(sigma=2.0, omega0=1.0, hbar=2.0)
        y1, y2 = np.array(0.7), np.array(-0.1)
        assert joint_amplitude(y1, y2, p1) == pytest.approx(
            joint_amplitude(y1, y2, p2), rel=1e-14)


class TestBuildJointState:
    def test_normalized_and_real(self):
        g = GridSpec(n_points=256, y_min=-10.0, y_max=10.0)
        psi = build_joint_state(JointStateRecipe(PhysicalParams(1.0, 1.0), g, g))
        assert norm(psi) == pytest.approx(1.0, rel=1e-12)
        assert psi.amps.dtype == np.float64
        assert np.all(psi.amps.imag == 0.0)
        assert np.all(psi.amps.real >= 0.0)

    def test_amplitudes_match_out_of_place_formula(self):
        g1 = GridSpec(n_points=256, y_min=-10.0, y_max=10.0)
        g2 = GridSpec(n_points=128, y_min=-6.0, y_max=8.0)
        p = PhysicalParams(1.3, 0.8, hbar=1.1)
        for ga, gb in ((g1, g1), (g1, g2)):
            psi = build_joint_state(JointStateRecipe(p, ga, gb))
            raw = oracles.ref_joint_amplitude(grid_points(ga)[:, None], grid_points(gb)[None, :],
                                              p.sigma, p.omega0, p.hbar)
            ref = normalize(WaveFunction2D(grid1=ga, grid2=gb, amps=raw))
            assert np.array_equal(psi.amps, ref.amps)

    def test_mixed_grids_allowed(self):
        # narrow strip in y1, wide span in y2
        g1 = GridSpec(n_points=128, y_min=-0.5, y_max=0.5)
        g2 = GridSpec(n_points=256, y_min=-10.0, y_max=10.0)
        psi = build_joint_state(JointStateRecipe(PhysicalParams(1.0, 1.0), g1, g2))
        assert psi.amps.shape == (128, 256)


class TestPointer:
    def test_width_is_epsilon(self):
        g = GridSpec(n_points=1024, y_min=-8.0, y_max=8.0)
        phi = build_pointer_state(MeasurementSpec(epsilon=0.5), g)
        assert phi.amps.dtype == np.float64
        st = position_stats(phi)
        assert st.std == pytest.approx(0.5, rel=1e-12)
        assert st.mean == pytest.approx(0.0, abs=1e-13)

    def test_center_offset(self):
        g = GridSpec(n_points=1024, y_min=-8.0, y_max=8.0)
        phi = build_pointer_state(MeasurementSpec(epsilon=0.4, center=1.25), g)
        assert position_stats(phi).mean == pytest.approx(1.25, rel=1e-12)

    def test_under_resolved_raises(self):
        g = GridSpec(n_points=64, y_min=-8.0, y_max=8.0)  # dy ~ 0.25
        with pytest.raises(UnderResolvedError):
            build_pointer_state(MeasurementSpec(epsilon=0.1), g)

    def test_threshold_is_inclusive(self):
        g = GridSpec(n_points=65, y_min=-8.0, y_max=8.0)  # dy = 0.25
        phi = build_pointer_state(MeasurementSpec(epsilon=0.375), g)  # dy = eps/1.5
        assert norm(phi) == pytest.approx(1.0, rel=1e-12)


class TestSlitConventions:
    def test_moment_matching_default(self):
        w = 1.2
        assert pointer_width_for_slit(w) == pytest.approx(w / math.sqrt(12))
        assert pointer_width_for_slit(w, "moment") == pointer_width_for_slit(w)

    def test_half_width(self):
        assert pointer_width_for_slit(3.0, "half") == 1.5

    def test_moment_matches_tophat_second_moment(self):
        # uniform density on [-w/2, w/2] has std w/sqrt(12); check by grid
        w = 2.0
        g = GridSpec(n_points=4096, y_min=-2.0, y_max=2.0)
        y = grid_points(g)
        dens = ((y >= -w / 2) & (y <= w / 2)).astype(float)
        dens /= np.trapezoid(dens, y)
        std = math.sqrt(np.trapezoid(y ** 2 * dens, y))
        assert pointer_width_for_slit(w) == pytest.approx(std, rel=1e-3)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            pointer_width_for_slit(1.0, "rms")


def pair_recipe(sigma, omega0, n=1024, y_min=-14.0, y_max=14.0):
    g = GridSpec(n_points=n, y_min=y_min, y_max=y_max)
    return JointStateRecipe(PhysicalParams(sigma, omega0), g, g)


def refuse(monkeypatch, owner, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} must not be called")
    monkeypatch.setattr(owner, name, refused)


class TestPairSchmidt:
    """The factored route against the dense one and the geometric closed form."""

    @pytest.mark.parametrize("key", sorted(oracles.SCHMIDT_ENTROPY_ORACLE))
    def test_entropy_against_dense_and_closed_form(self, key):
        params = PhysicalParams(*key)
        grid = auto_grid(params)
        factored = pair_schmidt(params, grid).entropy
        dense = schmidt(build_joint_state(JointStateRecipe(params, grid, grid))).entropy
        assert abs(factored - dense) <= 1e-13 * dense
        closed = oracles.oracle_schmidt_entropy(*key)
        assert abs(factored - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("sigma,omega0,half", [
        (1.0, 2.0, 16.2), (0.7, 0.4, 8.0), (0.1, 0.5, 20.4), (2.0, 2.0, 17.0),
    ])
    def test_coefficients_against_dense(self, sigma, omega0, half):
        recipe = pair_recipe(sigma, omega0, y_min=-half, y_max=half)
        lam = pair_schmidt(recipe.params, recipe.grid1).coefficients
        ref = schmidt(build_joint_state(recipe)).coefficients
        assert abs(len(lam) - len(ref)) <= 1
        m = min(len(lam), len(ref))
        # normalized as the built pair's: the leading ones agree closely, and
        # every shared one to a small share of the largest
        big = ref >= 1e-6 * ref[0]
        np.testing.assert_allclose(lam[big], ref[big], rtol=1e-10)
        assert np.max(np.abs(lam[:m] - ref[:m])) <= 1e-12 * ref[0]

    def test_anti_correlated_pair_flips_its_columns(self, monkeypatch):
        # a = 0.01 < b = 0.25 on a symmetric grid: the columns at -y2 make the
        # kernel PSD, and run's route never calls the dense eigensolver
        recipe = pair_recipe(0.1, 0.5, y_min=-20.4, y_max=20.4)
        psi = build_joint_state(recipe)
        refuse(monkeypatch, states, "schmidt")
        refuse(monkeypatch, np.linalg, "eigvalsh")
        entropy = pair_entropy(psi, recipe.params)
        assert entropy == pair_schmidt(recipe.params, recipe.grid1).entropy
        assert entropy == pytest.approx(oracles.oracle_schmidt_entropy(0.1, 0.5), rel=1e-12)

    @pytest.mark.parametrize("sigma,omega0,y_min,y_max", [
        # a < b on a grid that is not symmetric: no PSD kernel is known
        (0.1, 0.5, -20.4, 21.0),
        # 1382 closed-form modes on 512 points: the dense route is cheaper
        (5.0, 5.0, -41.0, 41.0),
    ])
    def test_dense_route_elsewhere(self, monkeypatch, sigma, omega0, y_min, y_max):
        recipe = pair_recipe(sigma, omega0, n=512, y_min=y_min, y_max=y_max)
        psi = build_joint_state(recipe)
        refuse(monkeypatch, states, "pair_schmidt")
        assert pair_entropy(psi, recipe.params) == schmidt(psi).entropy

    @pytest.mark.parametrize("y_min,y_max", [(100.0, 200.0), (1000.0, 2000.0)])
    def test_vanishing_kernel_raises_on_both_routes(self, y_min, y_max):
        # the README source far off its centre: on [100, 200] the largest
        # amplitude is e^{-625}, whose square underflows; on [1000, 2000]
        # every amplitude does
        params = PhysicalParams(1.0, 2.0)
        g = GridSpec(n_points=512, y_min=y_min, y_max=y_max)
        y = grid_points(g)
        raw = WaveFunction2D(grid1=g, grid2=g,
                             amps=joint_amplitude(y[:, None], y[None, :], params))
        with pytest.raises(ZeroNormError):
            pair_schmidt(params, g)
        with pytest.raises(ZeroNormError):
            schmidt(raw)

    def test_product_state_has_single_coefficient(self):
        recipe = pair_recipe(1.0, 0.25, y_min=-10.0, y_max=10.0)
        ss = pair_schmidt(recipe.params, recipe.grid1)
        assert len(ss.coefficients) == 1
        assert ss.entropy == 0.0 and math.copysign(1.0, ss.entropy) == 1.0


def sigma_with_modes(modes, omega0):
    """The smallest σ, to bisection precision, whose pair has ``modes``
    closed-form modes at ``omega0``; the count grows with σ above a = b."""
    lo, hi = 0.25 / omega0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _pair_spectrum(PhysicalParams(mid, omega0)).modes >= modes:
            hi = mid
        else:
            lo = mid
    assert _pair_spectrum(PhysicalParams(hi, omega0)).modes == modes
    return hi


class TestPairEntropyRoute:
    """``pair_entropy`` at the edges of its route rule."""

    N = 512

    def edge_pair(self, extra_modes):
        omega0 = 1.5
        sigma = sigma_with_modes(int(FACTORED_MAX_MODE_SHARE * self.N) + extra_modes, omega0)
        g = GridSpec(n_points=self.N, y_min=-12.0, y_max=12.0)
        params = PhysicalParams(sigma, omega0)
        return build_joint_state(JointStateRecipe(params, g, g)), params

    def test_mode_share_at_the_cap_is_factored(self, monkeypatch):
        psi, params = self.edge_pair(0)
        refuse(monkeypatch, states, "schmidt")
        assert pair_entropy(psi, params) == pair_schmidt(params, psi.grid1).entropy

    def test_one_mode_past_the_share_is_dense(self, monkeypatch):
        psi, params = self.edge_pair(1)
        refuse(monkeypatch, states, "pair_schmidt")
        assert pair_entropy(psi, params) == schmidt(psi).entropy

    def test_grid_cap(self, monkeypatch):
        # the README source: 110 modes, factored at the cap itself
        params = PhysicalParams(1.0, 2.0)
        g = GridSpec(n_points=SCHMIDT_MAX_POINTS, y_min=-16.2, y_max=16.2)
        at_cap = pair_entropy(build_joint_state(JointStateRecipe(params, g, g)), params)
        assert at_cap == pytest.approx(oracles.oracle_schmidt_entropy(1.0, 2.0), rel=1e-12)
        refuse(monkeypatch, states, "schmidt")
        refuse(monkeypatch, states, "pair_schmidt")
        g = GridSpec(n_points=SCHMIDT_MAX_POINTS + 1, y_min=-16.2, y_max=16.2)
        assert pair_entropy(build_joint_state(JointStateRecipe(params, g, g)), params) is None
