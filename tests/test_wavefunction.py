"""Grid-state primitives: norms, moments, dual momentum routes, Schmidt
spectra, reduced density matrices and the binary container."""

import math
import struct

import numpy as np
import pytest

from popperlab import (
    ApertureProfile,
    EvolutionParams,
    GridSpec,
    JointStateRecipe,
    MemoryBoundError,
    PhysicalParams,
    TailLeakError,
    WaveFunction1D,
    WaveFunction2D,
    ZeroNormError,
    aperture_postselect,
    build_joint_state,
    free_propagate,
    load_wavefunction,
    marginal_density,
    momentum_stats_derivative,
    momentum_stats_spectral,
    momentum_std_derivative,
    momentum_std_spectral,
    normalize,
    position_stats,
    reduced_density_momentum_std,
    save_wavefunction,
    schmidt,
)
from popperlab.wavefunction import grid_points, tail_ratio, trap_weights

import oracles

GRID = GridSpec(n_points=1024, y_min=-12.0, y_max=12.0)


def gaussian_1d(grid, width, center=0.0, k0=0.0):
    y = grid_points(grid)
    amps = np.exp(-((y - center) ** 2) / (4.0 * width ** 2)) * np.exp(1j * k0 * y)
    return normalize(WaveFunction1D(grid=grid, amps=amps))


def epwf_header(n1, n2, bounds=(-3.0, 3.0, -3.0, 3.0)):
    return struct.pack("<4sIII4d", b"EPWF", 1, n1, n2, *bounds)


def pair_state(sigma, omega0, n=1024, half=16.2):
    g = GridSpec(n_points=n, y_min=-half, y_max=half)
    return build_joint_state(JointStateRecipe(PhysicalParams(sigma, omega0), g, g))


class TestNormalization:
    def test_unit_norm_and_tag(self):
        y = grid_points(GRID)
        raw = WaveFunction1D(grid=GRID, amps=3.7 * np.exp(-y ** 2))
        wf = normalize(raw)
        w = trap_weights(GRID)
        assert np.sum(w * np.abs(wf.amps) ** 2) == pytest.approx(1.0, rel=1e-13)
        assert wf.norm_tag == pytest.approx(3.7 * (math.pi / 2) ** 0.25, rel=1e-6)

    def test_zero_norm_raises(self):
        wf = WaveFunction1D(grid=GRID, amps=np.zeros(GRID.n_points))
        with pytest.raises(ZeroNormError):
            normalize(wf)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WaveFunction1D(grid=GRID, amps=np.zeros(12))
        with pytest.raises(ValueError):
            WaveFunction2D(grid1=GRID, grid2=GRID, amps=np.zeros((4, 4)))

    def test_amps_are_read_only(self):
        wf = gaussian_1d(GRID, 1.0)
        with pytest.raises(ValueError):
            wf.amps[0] = 1.0

    def test_real_amps_are_a_frozen_view(self):
        raw = np.exp(-grid_points(GRID) ** 2)
        wf = WaveFunction1D(grid=GRID, amps=raw)
        assert wf.amps.dtype == np.float64
        assert np.shares_memory(wf.amps, raw)
        assert not wf.amps.flags.writeable
        assert raw.flags.writeable


class TestZeroState:
    """A state without weight raises ``ZeroNormError`` where its moments are 0/0."""

    ZERO_1D = WaveFunction1D(grid=GRID, amps=np.zeros(GRID.n_points))
    ZERO_2D = WaveFunction2D(grid1=GridSpec(64, -12.0, 12.0), grid2=GridSpec(64, -12.0, 12.0),
                             amps=np.zeros((64, 64)))

    def test_position_stats(self):
        for wf, particle in ((self.ZERO_1D, None), (self.ZERO_2D, 2)):
            with pytest.raises(ZeroNormError):
                position_stats(wf, particle)

    def test_momentum_stats_spectral(self):
        for wf, particle in ((self.ZERO_1D, None), (self.ZERO_2D, 1)):
            with pytest.raises(ZeroNormError):
                momentum_stats_spectral(wf, particle)

    def test_momentum_stats_derivative(self):
        for wf, particle in ((self.ZERO_1D, None), (self.ZERO_2D, 1)):
            with pytest.raises(ZeroNormError):
                momentum_stats_derivative(wf, particle)

    def test_reduced_density_momentum_std(self):
        with pytest.raises(ZeroNormError):
            reduced_density_momentum_std(self.ZERO_2D, 2)

    def test_free_propagate(self):
        with pytest.raises(ZeroNormError):
            free_propagate(self.ZERO_1D, EvolutionParams(time=0.5))

    def test_schmidt(self):
        with pytest.raises(ZeroNormError):
            schmidt(self.ZERO_2D)


class TestPositionStats:
    def test_gaussian_moments(self):
        wf = gaussian_1d(GRID, width=0.8, center=0.7)
        st = position_stats(wf)
        assert st.mean == pytest.approx(0.7, abs=1e-12)
        assert st.std == pytest.approx(0.8, rel=1e-12)

    def test_marginal_of_pair(self):
        psi = pair_state(1.0, 2.0)
        ref = oracles.INITIAL_ORACLE[(1.0, 2.0)][0]
        assert position_stats(psi, particle=1).std == pytest.approx(ref, rel=1e-9)
        assert position_stats(psi, particle=2).std == pytest.approx(ref, rel=1e-9)

    def test_marginal_density_normalized(self):
        psi = pair_state(0.7, 0.4, half=8.0)
        dens = marginal_density(psi, 2)
        assert np.sum(trap_weights(psi.grid2) * dens) == pytest.approx(1.0, rel=1e-12)


class TestMomentumRoutes:
    def test_gaussian_spread_spectral(self):
        wf = gaussian_1d(GRID, width=0.8)
        assert momentum_std_spectral(wf) == pytest.approx(0.5 / 0.8, rel=1e-10)

    def test_gaussian_spread_derivative(self):
        wf = gaussian_1d(GRID, width=0.8)
        assert momentum_std_derivative(wf) == pytest.approx(0.5 / 0.8, rel=1e-7)

    def test_boost_shifts_mean_both_routes(self):
        wf = gaussian_1d(GRID, width=0.9, k0=2.5)
        sp = momentum_stats_spectral(wf)
        fd = momentum_stats_derivative(wf)
        assert sp.mean == pytest.approx(2.5, rel=1e-10)
        # stencil phase error ~ (k0*dy)^4/30 ~ 4e-7 at this spacing
        assert fd.mean == pytest.approx(2.5, rel=1e-5)
        assert sp.std == pytest.approx(0.5 / 0.9, rel=1e-10)

    def test_routes_agree_on_pair_state(self):
        psi = pair_state(1.0, 2.0)
        for particle in (1, 2):
            sp = momentum_std_spectral(psi, particle=particle)
            fd = momentum_std_derivative(psi, particle=particle)
            assert fd == pytest.approx(sp, rel=1e-4)

    def test_spectral_matches_oracle_on_pair(self):
        psi = pair_state(3.0, 0.5, half=6.2)
        ref = oracles.INITIAL_ORACLE[(3.0, 0.5)][1]
        assert momentum_std_spectral(psi, particle=2) == pytest.approx(ref, rel=1e-8)

    def test_hbar_scaling(self):
        wf = gaussian_1d(GRID, width=0.8)
        assert momentum_std_spectral(wf, hbar=2.0) == pytest.approx(
            2.0 * momentum_std_spectral(wf), rel=1e-12)

    def test_tail_leak_raises(self):
        tight = GridSpec(n_points=256, y_min=-2.0, y_max=2.0)
        wf = gaussian_1d(tight, width=1.0)
        assert tail_ratio(wf) > 1e-6
        with pytest.raises(TailLeakError):
            momentum_std_spectral(wf)
        with pytest.raises(TailLeakError):
            momentum_std_derivative(wf)


class TestSchmidt:
    def test_entropy_against_geometric_oracle(self):
        for (sigma, omega0), ref in oracles.SCHMIDT_ENTROPY_ORACLE.items():
            psi = pair_state(sigma, omega0, half=14.0)
            assert schmidt(psi).entropy == pytest.approx(ref, rel=1e-8), (sigma, omega0)

    def test_coefficients_descend_and_normalize(self):
        ss = schmidt(pair_state(1.0, 2.0))
        lam = ss.coefficients
        assert np.all(np.diff(lam) <= 0)
        assert np.sum(lam ** 2) == pytest.approx(1.0, rel=1e-10)

    def test_geometric_ratio(self):
        # lambda_{i+1}^2 / lambda_i^2 = mu for the Gaussian pair
        ss = schmidt(pair_state(1.0, 2.0))
        lam2 = ss.coefficients ** 2
        mu = 49.0 / 81.0
        ratios = lam2[1:8] / lam2[:7]
        assert np.allclose(ratios, mu, rtol=1e-6)

    @staticmethod
    def svd_values(psi):
        """Singular values of the weighted kernel from the general SVD."""
        sw1 = np.sqrt(trap_weights(psi.grid1))
        sw2 = np.sqrt(trap_weights(psi.grid2))
        return np.linalg.svd(sw1[:, None] * psi.amps * sw2[None, :], compute_uv=False)

    @staticmethod
    def forbid(monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} must not be called")
        monkeypatch.setattr(np.linalg, name, refuse)

    @pytest.mark.parametrize("sigma,omega0,n,half", [
        (1.0, 2.0, 1024, 16.2), (0.7, 0.4, 512, 8.0), (3.0, 0.5, 1024, 8.0),
        (0.1, 0.5, 1024, 20.4),
    ])
    def test_symmetric_route_matches_svd(self, monkeypatch, sigma, omega0, n, half):
        psi = pair_state(sigma, omega0, n=n, half=half)
        ref = self.svd_values(psi)
        self.forbid(monkeypatch, "svd")
        lam = schmidt(psi).coefficients
        assert len(lam) == np.sum(ref >= 1e-12 * ref[0])
        # Relative to the leading coefficient: the smallest retained values
        # sit near 1e-12 of it, where either solver has only a few digits.
        assert np.max(np.abs(lam - ref[:len(lam)])) <= 1e-12 * ref[0]

    def test_anti_correlated_pair_against_oracle(self, monkeypatch):
        # sigma^2/hbar^2 = 0.01 < 1/(16 omega0^2) = 0.25: the cross term of
        # the kernel is negative and its eigenvalues alternate in sign.
        sigma, omega0 = 0.1, 0.5
        psi = pair_state(sigma, omega0, half=20.4)
        sw = np.sqrt(trap_weights(psi.grid1))
        eig = np.linalg.eigvalsh(sw[:, None] * psi.amps * sw[None, :])
        assert np.sum(eig < -1e-6 * np.abs(eig).max()) >= 5
        self.forbid(monkeypatch, "svd")
        ref = oracles.oracle_schmidt_entropy(sigma, omega0)
        assert schmidt(psi).entropy == pytest.approx(ref, rel=1e-8)

    def test_non_symmetric_states_take_the_svd(self, monkeypatch):
        psi = pair_state(1.0, 2.0, n=256, half=16.2)
        cut = aperture_postselect(psi, ApertureProfile("gaussian", width=1.5, center=0.4))
        g2 = GridSpec(n_points=128, y_min=-16.2, y_max=16.2)
        uneven = build_joint_state(JointStateRecipe(PhysicalParams(1.0, 2.0), psi.grid1, g2))
        # complex and still equal to its transpose, but not Hermitian
        phased = WaveFunction2D(grid1=psi.grid1, grid2=psi.grid2, amps=psi.amps * np.exp(0.3j))
        self.forbid(monkeypatch, "eigvalsh")
        for wf in (cut.psi_after, uneven, phased):
            ref = self.svd_values(wf)
            lam = schmidt(wf).coefficients
            assert np.array_equal(lam, ref[ref >= 1e-12 * ref[0]])

    def test_product_state_has_single_coefficient(self):
        psi = pair_state(1.0, 0.25, half=10.0)
        ss = schmidt(psi)
        assert ss.entropy < 1e-6
        assert math.copysign(1.0, ss.entropy) == 1.0
        lam2 = ss.coefficients ** 2 / np.sum(ss.coefficients ** 2)
        assert lam2[0] > 1.0 - 1e-9


class TestReducedDensity:
    def test_matches_spectral_route(self):
        psi = pair_state(1.0, 2.0)
        for particle in (1, 2):
            rho_route = reduced_density_momentum_std(psi, particle)
            marg_route = momentum_std_spectral(psi, particle=particle)
            assert rho_route == pytest.approx(marg_route, rel=1e-9)

    def test_leaking_state_raises(self):
        # on ±3 the σ = 1, Ω₀ = 2 pair keeps 0.57 of its peak at the edge;
        # read off the wrapped transform its spread would be 2.49, not 1.008
        psi = pair_state(1.0, 2.0, n=256, half=3.0)
        assert tail_ratio(psi) > 0.5
        with pytest.raises(TailLeakError):
            reduced_density_momentum_std(psi, particle=2)

    def test_memory_bound(self):
        g_big = GridSpec(n_points=8192, y_min=-16.0, y_max=16.0)
        g_small = GridSpec(n_points=64, y_min=-16.0, y_max=16.0)
        y1 = grid_points(g_big)[:, None]
        y2 = grid_points(g_small)[None, :]
        amps = np.exp(-y1 ** 2 - y2 ** 2)
        wf = WaveFunction2D(grid1=g_big, grid2=g_small, amps=amps)
        with pytest.raises(MemoryBoundError):
            reduced_density_momentum_std(wf, particle=1)
        # tracing out the big axis instead is fine
        assert reduced_density_momentum_std(wf, particle=2) > 0


def moment_state(name):
    """The states the moments are held to their continuum formulas on."""
    y = grid_points(GRID)
    real_1d = normalize(WaveFunction1D(grid=GRID, amps=np.exp(-y ** 2 / (4.0 * 0.8 ** 2))))
    if name == "1d-real":
        return real_1d
    if name == "1d-complex":
        return free_propagate(real_1d, EvolutionParams(time=0.8))
    psi = pair_state(1.0, 2.0, n=512)
    if name == "2d-real":
        return psi
    if name == "2d-unequal":
        g2 = GridSpec(n_points=384, y_min=-18.0, y_max=18.0)
        return build_joint_state(JointStateRecipe(PhysicalParams(1.0, 2.0), psi.grid1, g2))
    y1 = grid_points(psi.grid1)[:, None]
    y2 = grid_points(psi.grid2)[None, :]
    phase = np.exp(1j * (0.7 * y1 - 0.3 * y2 + 0.05 * y1 * y2))
    return WaveFunction2D(grid1=psi.grid1, grid2=psi.grid2, amps=psi.amps * phase)


TWO_D_STATES = ("2d-real", "2d-unequal", "2d-complex")
MOMENT_CASES = [("1d-real", None), ("1d-complex", None),
                *[(name, p) for name in TWO_D_STATES for p in (1, 2)]]


class TestMomentsMatchContinuumFormulas:
    """The momentum routes drop normalization constants that cancel; with
    them written out (``oracles``) the spreads differ only by rounding."""

    @pytest.mark.parametrize("name,particle", MOMENT_CASES)
    def test_spectral_route(self, name, particle):
        wf = moment_state(name)
        ref = oracles.ref_momentum_std_spectral(wf, particle)
        assert momentum_std_spectral(wf, particle) == pytest.approx(ref, rel=1e-15, abs=0)

    @pytest.mark.parametrize("name", TWO_D_STATES)
    @pytest.mark.parametrize("particle", [1, 2])
    def test_density_matrix_route(self, name, particle):
        wf = moment_state(name)
        ref = oracles.ref_reduced_density_momentum_std(wf, particle)
        assert reduced_density_momentum_std(wf, particle) == pytest.approx(ref, rel=1e-15, abs=0)

    @pytest.mark.parametrize("name,particle", MOMENT_CASES)
    def test_position_stats_unchanged(self, name, particle):
        wf = moment_state(name)
        assert tuple(position_stats(wf, particle)) == oracles.ref_position_stats(wf, particle)


class TestContainerFormat:
    def test_roundtrip_1d(self, tmp_path):
        wf = gaussian_1d(GRID, width=1.1, k0=0.3)
        path = tmp_path / "state.wf"
        save_wavefunction(wf, path)
        back = load_wavefunction(path)
        assert isinstance(back, WaveFunction1D)
        assert back.grid == wf.grid
        assert np.array_equal(back.amps, wf.amps)

    def test_roundtrip_2d(self, tmp_path):
        psi = pair_state(0.7, 0.4, n=128, half=8.0)
        path = tmp_path / "pair.wf"
        save_wavefunction(psi, path)
        back = load_wavefunction(path)
        assert isinstance(back, WaveFunction2D)
        assert back.grid1 == psi.grid1 and back.grid2 == psi.grid2
        # a real state is written, and read back, as complex128
        assert psi.amps.dtype == np.float64
        assert back.amps.dtype == np.complex128
        assert np.array_equal(back.amps, psi.amps)

    def test_payload_spans_write_blocks(self, tmp_path):
        # More amplitudes than one write block, from real, complex and
        # non-contiguous (transposed) arrays: the payload must be the
        # whole array widened to little-endian complex128 in row-major order.
        g1 = GridSpec(n_points=512, y_min=-8.0, y_max=8.0)
        g2 = GridSpec(n_points=300, y_min=-6.0, y_max=6.0)
        y1, y2 = grid_points(g1)[:, None], grid_points(g2)[None, :]
        real = np.exp(-y1 ** 2 - 0.5 * (y1 - y2) ** 2)
        states = [
            WaveFunction2D(grid1=g1, grid2=g2, amps=real),
            WaveFunction2D(grid1=g1, grid2=g2, amps=real * np.exp(0.2j * y2)),
            WaveFunction2D(grid1=g2, grid2=g1, amps=real.T),
            WaveFunction1D(grid=GridSpec(n_points=70000, y_min=-5.0, y_max=5.0),
                           amps=np.linspace(-1.0, 1.0, 70000)),
        ]
        for i, wf in enumerate(states):
            path = tmp_path / f"s{i}.wf"
            save_wavefunction(wf, path)
            blob = path.read_bytes()
            assert blob[48:] == np.ascontiguousarray(wf.amps, dtype="<c16").tobytes()

    def test_header_layout(self, tmp_path):
        # magic, version, n1, n2, then four float64 bounds, little-endian
        wf = gaussian_1d(GridSpec(n_points=64, y_min=-3.0, y_max=3.0), width=0.7)
        path = tmp_path / "h.wf"
        save_wavefunction(wf, path)
        blob = path.read_bytes()
        assert blob[:4] == b"EPWF"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 64
        assert int.from_bytes(blob[12:16], "little") == 0
        assert len(blob) == 16 + 32 + 64 * 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.wf"
        path.write_bytes(b"JUNK" + bytes(60))
        with pytest.raises(ValueError, match="magic"):
            load_wavefunction(path)

    def test_bad_version_rejected(self, tmp_path):
        wf = gaussian_1d(GridSpec(n_points=64, y_min=-3.0, y_max=3.0), width=0.7)
        path = tmp_path / "v.wf"
        save_wavefunction(wf, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_wavefunction(path)

    def test_truncated_payload_rejected(self, tmp_path):
        wf = gaussian_1d(GridSpec(n_points=64, y_min=-3.0, y_max=3.0), width=0.7)
        path = tmp_path / "t.wf"
        save_wavefunction(wf, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-32])  # drop whole elements
        with pytest.raises(ValueError, match="truncated"):
            load_wavefunction(path)
        path.write_bytes(blob[:-24])  # ragged tail
        with pytest.raises(ValueError):
            load_wavefunction(path)
        path.write_bytes(blob[:40])  # shorter than the 48-byte header
        with pytest.raises(ValueError, match="truncated EPWF header"):
            load_wavefunction(path)
        # 2³¹ x 2³¹ amplitudes claimed: refused before anything is read
        path.write_bytes(epwf_header(2 ** 31, 2 ** 31) + blob[48:])
        with pytest.raises(ValueError, match="truncated"):
            load_wavefunction(path)

    @pytest.mark.parametrize("n2,bounds", [
        (0, (3.0, -3.0, 0.0, 0.0)),
        (0, (math.nan, 3.0, 0.0, 0.0)),
        (8, (-3.0, 3.0, -math.inf, math.inf)),
        (8, (-3.0, 3.0, 2.0, 2.0)),
    ], ids=["reversed", "nan", "infinite-y2", "empty-y2"])
    def test_bad_grid_bounds_rejected(self, tmp_path, n2, bounds):
        path = tmp_path / "b.wf"
        path.write_bytes(epwf_header(64, n2, bounds) + bytes(16 * 64 * max(n2, 1)))
        with pytest.raises(ValueError, match="bounds"):
            load_wavefunction(path)

    @pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (0, 64), (64, 1)])
    def test_axis_without_two_points_rejected(self, tmp_path, n1, n2):
        path = tmp_path / "n.wf"
        path.write_bytes(epwf_header(n1, n2) + bytes(16 * 64))
        with pytest.raises(ValueError, match="at least 2"):
            load_wavefunction(path)


class TestGridCaches:
    def test_cached_arrays_are_shared_and_frozen(self):
        g = GridSpec(n_points=128, y_min=-1.0, y_max=1.0)
        assert grid_points(g) is grid_points(GridSpec(128, -1.0, 1.0))
        with pytest.raises(ValueError):
            grid_points(g)[0] = 5.0

    def test_trap_weights_sum_to_span(self):
        g = GridSpec(n_points=129, y_min=-2.0, y_max=2.0)
        assert np.sum(trap_weights(g)) == pytest.approx(4.0, rel=1e-14)
