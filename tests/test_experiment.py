"""Detector statistics and the end-to-end scenario pipeline."""

import inspect
import json
import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from popperlab import (
    DetectorGeometry,
    EvolutionParams,
    GridSpec,
    JointStateRecipe,
    MeasurementSpec,
    PhysicalParams,
    ScenarioConfig,
    ScenarioFailure,
    ScenarioReport,
    UserParameterError,
    WaveFunction1D,
    WaveFunction2D,
    ZeroNormError,
    auto_grid,
    build_joint_state,
    build_pointer_state,
    chi_square_against_density,
    gaussian_width_at,
    histogram,
    is_disentangled,
    ks_against_density,
    momentum_std_spectral,
    position_correlation,
    position_stats,
    run_scenario,
    sample_joint,
    sample_positions,
    schmidt,
)
from popperlab import experiment, states, wavefunction
from popperlab.experiment import cumulative_distribution
from popperlab.params import ValidationReport
from popperlab.analytic import _pair_spectrum
from popperlab.states import FACTORED_MAX_MODE_SHARE, pair_entropy, pair_schmidt, pair_source
from popperlab.wavefunction import _block_lines, grid_points, marginal_density, trap_weights

import oracles


def reduced_state(sigma=1.0, omega0=2.0, eps=0.5):
    from popperlab import conditional_reduce
    p = PhysicalParams(sigma=sigma, omega0=omega0)
    g = auto_grid(p, MeasurementSpec(epsilon=eps))
    psi = build_joint_state(JointStateRecipe(p, g, g))
    phi1 = build_pointer_state(MeasurementSpec(epsilon=eps), g)
    return psi, conditional_reduce(psi, phi1, p, eps).phi2


class TestSampling:
    def test_deterministic_per_seed(self):
        _, phi2 = reduced_state()
        a = sample_positions(phi2, 1000, seed=11)
        b = sample_positions(phi2, 1000, seed=11)
        c = sample_positions(phi2, 1000, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_std_tracks_grid_density(self):
        from popperlab import position_stats
        _, phi2 = reduced_state()
        s = sample_positions(phi2, 100_000, seed=2026)
        grid_std = position_stats(phi2).std
        assert abs(float(np.std(s)) - grid_std) / grid_std < 0.01

    def test_samples_stay_on_grid_support(self):
        _, phi2 = reduced_state()
        s = sample_positions(phi2, 5000, seed=1)
        assert np.all(s >= phi2.grid.y_min) and np.all(s <= phi2.grid.y_max)

    def test_zero_samples(self):
        _, phi2 = reduced_state()
        assert sample_positions(phi2, 0, seed=1).size == 0

    def test_chi_square_accepts_true_density(self):
        _, phi2 = reduced_state()
        s = sample_positions(phi2, 100_000, seed=4)
        geom = DetectorGeometry(n_bins=64, y_range=(-3.0, 3.0))
        hist = histogram(s, geom)
        stat, dof, p = chi_square_against_density(
            hist, phi2.grid, np.abs(phi2.amps) ** 2)
        assert dof > 10
        assert p >= 0.001

    def test_chi_square_rejects_wrong_density(self):
        _, phi2 = reduced_state()
        s = sample_positions(phi2, 100_000, seed=5)
        geom = DetectorGeometry(n_bins=64, y_range=(-3.0, 3.0))
        hist = histogram(s, geom)
        y = grid_points(phi2.grid)
        wrong = np.exp(-y ** 2 / (2 * 4.0))  # twice the true width
        _, _, p = chi_square_against_density(hist, phi2.grid, wrong)
        assert p < 1e-10

    def test_ks_sane(self):
        _, phi2 = reduced_state()
        s = sample_positions(phi2, 20_000, seed=6)
        stat, p = ks_against_density(s, phi2.grid, np.abs(phi2.amps) ** 2)
        assert 0.0 <= stat < 0.02
        assert p > 1e-4

    def test_cdf_rejects_null_density(self):
        g = GridSpec(n_points=64, y_min=-1.0, y_max=1.0)
        with pytest.raises(ZeroNormError):
            cumulative_distribution(g, np.zeros(64))


def ks_branch(n, x):
    """The branch of scipy's kstwo.sf dispatch that (n, x) takes."""
    t, nxx = n * x, n * x * x
    if x >= 1.0:
        return "x>=1"
    if t <= 0.5:
        return "t<=0.5"
    if t <= 1.0:
        return "0.5<t<=1, n<=140" if n <= 140 else "0.5<t<=1, n>140"
    if t >= n - 1:
        return "t>=n-1"
    if x >= 0.5:
        return "x>=0.5"
    if n <= 140:
        return "durbin" if nxx <= 0.754693 else "pomeranz" if nxx <= 4 else "tail"
    if nxx >= 370:
        return "nD2>=370"
    if nxx >= 2.2:
        return "tail"
    return "durbin" if n <= 100000 and n * x ** 1.5 <= 1.4 else "pelz-good"


# Where scipy runs Pomeranz (n <= 140, 0.754693 < nD² <= 4) the port runs
# the Durbin matrix.  Over 3,250 points of that band (n = 2..140, 25 values
# of nD² each) the largest absolute difference was 1.35e-14.
POMERANZ_ABS = 2e-14

KS_POINTS = [
    (10, 1.0), (2 * 10 ** 5, 1.0),                         # x >= 1
    (10, 0.03), (10 ** 4, 4e-5),                           # t <= 0.5
    (10, 0.08), (140, 0.006),                              # 0.5 < t <= 1, n <= 140
    (141, 0.006), (10 ** 6, 8e-7),                         # 0.5 < t <= 1, n > 140
    (10, 0.92), (141, 0.995),                              # t >= n - 1
    (5, 0.6), (141, 0.5), (2000, 0.55),                    # x >= 0.5
    (100, 0.25), (1000, 0.05), (2 * 10 ** 5, 0.004),       # tail: nD² > 4, >= 2.2
    (10 ** 4, 0.2), (10 ** 7, 0.01),                       # nD² >= 370
    (3, 0.45), (100, 0.08), (1000, 0.01), (10 ** 5, 5e-4),  # Durbin
    (2 * 10 ** 4, 0.005), (2 * 10 ** 5, 0.002),            # Pelz-Good ...
    (2 * 10 ** 5, 5e-4), (10 ** 7, 3e-4), (10 ** 7, 1e-5),  # ... and its z < 0.042 cut
    (4, 0.45), (10, 0.35), (50, 0.2), (140, 0.15),         # the Pomeranz band
] + [(n, float(z / math.sqrt(n))) for n in (141, 1000, 2 * 10 ** 4, 2 * 10 ** 5, 10 ** 7)
     for z in np.linspace(0.05, 2.5, 12)]


class TestKolmogorovPValue:
    """The numpy port of kstwo.sf against scipy.stats.kstwo.sf, the oracle."""

    def test_grid_reaches_every_branch(self):
        assert {ks_branch(n, x) for n, x in KS_POINTS} == {
            "x>=1", "t<=0.5", "0.5<t<=1, n<=140", "0.5<t<=1, n>140", "t>=n-1", "x>=0.5",
            "tail", "nD2>=370", "durbin", "pelz-good", "pomeranz"}

    @pytest.mark.parametrize("n,x", KS_POINTS)
    def test_matches_kstwo_sf(self, n, x):
        p, ref = experiment._kolmogorov_sf(n, x), float(stats.kstwo.sf(x, n))
        if ks_branch(n, x) == "pomeranz":
            assert p == pytest.approx(ref, rel=0, abs=POMERANZ_ABS)
        else:
            assert p == ref

    # scipy's Durbin matrix overflows at both points and kstwo.sf returns 0,
    # while P(D_n >= D) is about 1: the first overflows in the squared H, the
    # second in the accumulated power.
    @pytest.mark.parametrize("n,x", [(68050, 2.7716724294036745e-05),
                                     (65016, 0.00028956296578442107)])
    def test_durbin_powers_do_not_overflow(self, n, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = experiment._kolmogorov_sf(n, x)
        assert p > 0.999999


class TestKolmogorovStatistic:
    """ks_against_density against scipy.stats.ks_1samp on the same grid CDF."""

    @staticmethod
    def check(samples, grid, density):
        d, p = ks_against_density(samples, grid, density)
        y, c = cumulative_distribution(grid, density)
        ref = stats.ks_1samp(samples, lambda x: np.interp(x, y, c, left=0.0, right=1.0))
        assert d == float(ref.statistic)
        if ks_branch(len(samples), d) == "pomeranz":
            assert p == pytest.approx(float(ref.pvalue), rel=0, abs=POMERANZ_ABS)
        else:
            assert p == float(ref.pvalue)

    @pytest.mark.parametrize("n", [1, 2, 140, 141, 20_000])
    def test_slit_samples(self, n):
        _, phi2 = reduced_state()
        self.check(sample_positions(phi2, n, seed=n), phi2.grid, np.abs(phi2.amps) ** 2)

    @pytest.mark.parametrize("n", [1, 2, 140, 141, 20_000])
    @pytest.mark.parametrize("particle", [1, 2])
    def test_coincidence_marginals(self, n, particle):
        psi = source_pair(256)
        pairs = sample_joint(psi, n, seed=n)
        grid = psi.grid1 if particle == 1 else psi.grid2
        self.check(pairs[:, particle - 1], grid, marginal_density(psi, particle))

    def test_samples_outside_the_grid(self):
        # np.interp clamps to 0 left of the grid and to 1 right of it.
        _, phi2 = reduced_state()
        g = phi2.grid
        s = np.concatenate([sample_positions(phi2, 300, seed=3),
                            [g.y_min - 1.0, g.y_max + 1.0, -1e9, 1e9, g.y_min, g.y_max]])
        self.check(s, g, np.abs(phi2.amps) ** 2)

    @pytest.mark.parametrize("n", [2, 140, 141])
    def test_tied_samples(self, n):
        _, phi2 = reduced_state()
        s = np.repeat(sample_positions(phi2, n, seed=5), 3)[:n]
        self.check(s, phi2.grid, np.abs(phi2.amps) ** 2)

    def test_empty_sample_gives_nan(self):
        _, phi2 = reduced_state()
        d, p = ks_against_density(np.empty(0), phi2.grid, np.abs(phi2.amps) ** 2)
        assert math.isnan(d) and math.isnan(p)


class TestJointSampling:
    def test_correlation_matches_closed_form(self):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = auto_grid(p)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        pairs = sample_joint(psi, 100_000, seed=7)
        corr = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
        assert abs(corr - position_correlation(p)) < 0.01

    def test_marginals_recover_single_particle_spreads(self):
        from popperlab import initial_spreads
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = auto_grid(p)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        pairs = sample_joint(psi, 100_000, seed=8)
        ref = initial_spreads(p).dy2
        assert float(np.std(pairs[:, 0])) == pytest.approx(ref, rel=0.01)
        assert float(np.std(pairs[:, 1])) == pytest.approx(ref, rel=0.01)

    def test_deterministic(self):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = auto_grid(p)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        assert np.array_equal(sample_joint(psi, 500, seed=9),
                              sample_joint(psi, 500, seed=9))

    def test_zero_pairs(self):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = GridSpec(n_points=128, y_min=-16.2, y_max=16.2)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        assert sample_joint(psi, 0, seed=1).shape == (0, 2)

    def test_anticorrelated_source(self):
        # omega0 below the product line flips the correlation sign
        p = PhysicalParams(sigma=1.0, omega0=0.1)
        g = auto_grid(p)
        psi = build_joint_state(JointStateRecipe(p, g, g))
        pairs = sample_joint(psi, 50_000, seed=10)
        corr = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
        assert corr < -0.5
        assert abs(corr - position_correlation(p)) < 0.02


@lru_cache(maxsize=None)
def source_pair(n_points):
    p = PhysicalParams(sigma=1.0, omega0=2.0)
    g = GridSpec(n_points=n_points, y_min=-16.2, y_max=16.2)
    return build_joint_state(JointStateRecipe(p, g, g))


def reference_pairs(psi, n, seed):
    u = oracles.ref_uniforms(seed, 2 * n)
    return oracles.ref_sample_joint(psi, u[:n], u[n:])


def hand_built(amps):
    amps = np.asarray(amps, dtype=float)
    g1 = GridSpec(n_points=amps.shape[0], y_min=-2.0, y_max=3.0)
    g2 = GridSpec(n_points=amps.shape[1], y_min=-1.0, y_max=1.0)
    return WaveFunction2D(g1, g2, amps)


# Rows 0, 3, 4 and 8 vanish, so whole y1 cells carry no probability.
ZERO_ROWS = np.outer(np.sin(np.arange(1, 10)), np.linspace(1.0, 2.0, 13)) ** 2
ZERO_ROWS[[0, 3, 4, 8]] = 0.0
# Every conditional row has zero-density cells, so its CDF has flat runs
# (leading, interior and trailing), some shared by both neighbouring rows.
FLAT_RUNS = np.abs(np.cos(np.add.outer(np.arange(7), np.arange(16)))) + 0.5
FLAT_RUNS[:, :3] = 0.0
FLAT_RUNS[:, 6:9] = 0.0
FLAT_RUNS[::2, 11:] = 0.0
FLAT_RUNS[3, 9:] = 0.0


# With 8 x 13 block values the 43 y1 cells fall into the blocks [0, 8),
# [8, 16), [16, 24), [24, 32) and [32, 43), the rest of 3 joined to the
# last.  Rows 8-16 are the whole of block [8, 16); row 24 closes block
# [16, 24) and opens block [24, 32); rows 31-33 straddle the edge at 32; row
# 40 lies inside the joined last block.
BLOCK_EDGES = np.outer(2.0 + np.sin(np.arange(44)), np.linspace(1.0, 2.0, 13)) ** 2
BLOCK_EDGES[[8, 9, 10, 11, 12, 13, 14, 15, 16, 24, 31, 32, 33, 40]] = 0.0


class PresetGenerator:
    """Stands in for the generator and hands out chosen uniforms in order."""

    def __init__(self, stream):
        self._stream = np.asarray(stream, dtype=float)

    def uniforms(self, n):
        out, self._stream = self._stream[:n], self._stream[n:]
        return out


class TestJointSamplerAgainstReference:
    @pytest.mark.parametrize("n_points", [64, 1024])
    @pytest.mark.parametrize("n", [1, 4097, 100_000])
    @pytest.mark.parametrize("seed", [3, 20260815, 2 ** 64 - 1])
    def test_bit_identical_on_the_source(self, n_points, n, seed):
        psi = source_pair(n_points)
        assert np.array_equal(sample_joint(psi, n, seed), reference_pairs(psi, n, seed))

    @pytest.mark.parametrize("amps", [ZERO_ROWS, FLAT_RUNS], ids=["zero_rows", "flat_runs"])
    @pytest.mark.parametrize("seed", [0, 1, 77])
    def test_bit_identical_on_hand_built_states(self, amps, seed):
        psi = hand_built(amps)
        assert np.array_equal(sample_joint(psi, 5000, seed), reference_pairs(psi, 5000, seed))

    @pytest.mark.parametrize("amps", [ZERO_ROWS, FLAT_RUNS], ids=["zero_rows", "flat_runs"])
    def test_uniforms_on_cell_edges(self, amps, monkeypatch):
        # u1 on every y1 CDF knot gives a zero in-cell fraction; on a zero row
        # the blended conditional CDF then vanishes, which takes the
        # denom == 0 branch.  u2 spans [0, 1).
        psi = hand_built(amps)
        _, c1 = cumulative_distribution(psi.grid1, np.abs(psi.amps) ** 2 @ trap_weights(psi.grid2))
        top = 1.0 - 2.0 ** -53
        u1 = np.repeat(np.concatenate(([0.0], c1[:-1], [top])), 3)
        u2 = np.tile([0.0, 0.5, top], len(u1) // 3)
        stream = np.concatenate((u1, u2))
        monkeypatch.setattr(experiment, "Xoshiro256StarStar", lambda seed: PresetGenerator(stream))
        pairs = sample_joint(psi, len(u1), seed=0)
        assert np.array_equal(pairs, oracles.ref_sample_joint(psi, u1, u2))

    def test_uniforms_on_table_block_edges(self, monkeypatch):
        # u1 on every y1 CDF knot, the knots that bound a block of cells among
        # them, with a whole block of zero rows: a draw on a block's lower
        # knot belongs to that block, and a flat run of knots sends it past
        # the zero block, as the whole-table inverse does.
        psi = hand_built(BLOCK_EDGES)
        monkeypatch.setattr(wavefunction, "_BLOCK_AMPLITUDES", 8 * 13)
        _, c1 = cumulative_distribution(psi.grid1, np.abs(psi.amps) ** 2 @ trap_weights(psi.grid2))
        top = 1.0 - 2.0 ** -53
        u1 = np.repeat(np.concatenate(([0.0], c1[:-1], [top])), 3)
        u2 = np.tile([0.0, 0.5, top], len(u1) // 3)
        stream = np.concatenate((u1, u2))
        monkeypatch.setattr(experiment, "Xoshiro256StarStar", lambda seed: PresetGenerator(stream))
        pairs = sample_joint(psi, len(u1), seed=0)
        assert np.array_equal(pairs, oracles.ref_sample_joint(psi, u1, u2))

    @pytest.mark.parametrize("block", [None, 20 * 257, 2 * 257],
                             ids=["248-cell blocks, the last of 134",
                                  "16-cell blocks, the last of 14",
                                  "8-cell blocks, the last of 14"])
    def test_bit_identical_in_table_blocks(self, block, monkeypatch):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g1 = GridSpec(n_points=383, y_min=-16.2, y_max=16.2)
        g2 = GridSpec(n_points=257, y_min=-16.2, y_max=16.2)
        psi = build_joint_state(JointStateRecipe(p, g1, g2))
        if block is not None:
            monkeypatch.setattr(wavefunction, "_BLOCK_AMPLITUDES", block)
        assert np.array_equal(sample_joint(psi, 20_000, 5), reference_pairs(psi, 20_000, 5))

    def test_bit_identical_on_a_pair_of_uneven_rows(self):
        # 565 × 2978: a whole-array |ψ|² @ w2 gives y1's marginal different
        # last bits at 1 and 2 BLAS threads; the row blocks give one.
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g1 = GridSpec(n_points=565, y_min=-16.2, y_max=16.2)
        g2 = GridSpec(n_points=2978, y_min=-16.2, y_max=16.2)
        psi = build_joint_state(JointStateRecipe(p, g1, g2))
        assert np.array_equal(sample_joint(psi, 20_000, 6), reference_pairs(psi, 20_000, 6))

    def test_vanishing_conditional_row_takes_last_interior_column(self, monkeypatch):
        # Row 1 is zero between two live rows, so u1 on the CDF knot at row 1
        # lands on that row with weight 1: the conditional CDF is all zero,
        # and the draw takes the last interior grid column.
        psi = hand_built([[1.0, 2.0, 1.0, 0.5], [0.0] * 4, [0.5, 1.0, 2.0, 1.0]])
        _, c1 = cumulative_distribution(psi.grid1, np.abs(psi.amps) ** 2 @ trap_weights(psi.grid2))
        u1 = np.array([c1[1]] * 3)
        u2 = np.array([0.0, 0.5, 1.0 - 2.0 ** -53])
        monkeypatch.setattr(experiment, "Xoshiro256StarStar",
                            lambda seed: PresetGenerator(np.concatenate((u1, u2))))
        pairs = sample_joint(psi, 3, seed=0)
        assert np.array_equal(pairs, oracles.ref_sample_joint(psi, u1, u2))
        assert np.all(pairs[:, 0] == grid_points(psi.grid1)[1])
        assert np.all(pairs[:, 1] == grid_points(psi.grid2)[-2])

    @pytest.mark.parametrize("n_points,n,seed", [(383, 20_000, 4), (1024, 50_000, 5)])
    def test_a_source_draws_as_its_built_pair(self, n_points, n, seed):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        g = GridSpec(n_points=n_points, y_min=-16.2, y_max=16.2)
        source = pair_source(p, g)
        assert np.array_equal(sample_joint(source, n, seed),
                              sample_joint(build_joint_state(source.recipe), n, seed))

    def test_draws_in_one_cell_fill_one_block_of_rows(self, monkeypatch):
        # Every y1 uniform lands in cell 500, inside the block [448, 512) of
        # the 1023 cells: the sampler fills rows 448..512 and skips the
        # blocks that no draw lands in.
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        source = pair_source(p, GridSpec(n_points=1024, y_min=-16.2, y_max=16.2))
        _, c1 = cumulative_distribution(source.grid1, source.readout.marginal1)
        u1 = c1[500] + (c1[501] - c1[500]) * np.linspace(0.0, 1.0, 3000, endpoint=False)
        u2 = np.random.default_rng(8).random(len(u1))
        monkeypatch.setattr(experiment, "Xoshiro256StarStar",
                            lambda seed: PresetGenerator(np.concatenate((u1, u2))))
        filled = []
        rows = states.PairSource.rows

        def counted(self, lo, hi, out):
            filled.append(hi - lo)
            return rows(self, lo, hi, out)
        monkeypatch.setattr(states.PairSource, "rows", counted)
        pairs = sample_joint(source, len(u1), seed=0)
        assert filled == [65]
        assert np.array_equal(pairs, oracles.ref_sample_joint(build_joint_state(source.recipe), u1, u2))

    def test_zero_density_raises(self):
        with pytest.raises(ZeroNormError):
            sample_joint(hand_built(np.zeros((5, 6))), 10, seed=1)


def hand_built_1d(amps):
    amps = np.asarray(amps, dtype=float)
    return WaveFunction1D(GridSpec(n_points=len(amps), y_min=-2.0, y_max=3.0), amps)


# Zero cells at both ends and in the interior, so the CDF has flat runs.
ZERO_CELLS = np.abs(np.sin(np.arange(40) / 3.0)) + 0.1
ZERO_CELLS[:4] = 0.0
ZERO_CELLS[15:22] = 0.0
ZERO_CELLS[33:] = 0.0


@st.composite
def cdf_and_targets(draw):
    """A nondecreasing CDF with ties and flat runs (all zero at times), and
    targets on its knots, between them and past both ends."""
    n = draw(st.integers(2, 300))
    level = st.sampled_from([0.0, 0.0, 1.0, 0.25, 1e-300, 3.0])
    density = np.array(draw(st.lists(st.one_of(level, st.floats(0.0, 5.0)),
                                     min_size=n, max_size=n)))
    c = experiment._cumulative_trapezoid(density, draw(st.sampled_from([1.0, 0.37, 1e-3])))
    u = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40)))
    targets = np.concatenate((c, u * c[-1], [-1.0, c[-1] * 2 + 1.0]))
    return GridSpec(n_points=n, y_min=-1.0, y_max=2.0), c, targets


class TestInverse:
    """``_invert`` counts a shared CDF array's prefix with ``np.searchsorted``
    and a per-draw CDF's by bisection; the counts must agree on any
    nondecreasing CDF, so sampling keeps its bits whichever it takes."""

    @given(case=cdf_and_targets())
    # A subnormal total: the target past the end, divided by it, overflows.
    @example(case=(GridSpec(n_points=2, y_min=-1.0, y_max=2.0), np.array([0.0, 5.56e-309]),
                   np.array([0.0, 5.56e-309, -1.0, 5.56e-309 * 2 + 1.0])))
    @settings(max_examples=300, deadline=None)
    def test_searchsorted_counts_as_bisection_does(self, case):
        grid, c, targets = case
        assert np.array_equal(np.searchsorted(c, targets, side="right"),
                              experiment._bisect(c.__getitem__, targets, grid.n_points))
        # Targets past either end are clipped first, so the quotient stays finite.
        u = np.clip(np.clip(targets, 0.0, c[-1]) / c[-1] if c[-1] > 0 else targets,
                    0.0, 1.0 - 2.0 ** -53)
        for got, want in zip(experiment._invert(c, u, grid),
                             experiment._invert(c.__getitem__, u, grid)):
            assert np.array_equal(got, want)


class TestPositionSamplerAgainstReference:
    @pytest.mark.parametrize("n", [1, 100_000])
    @pytest.mark.parametrize("seed", [3, 20260815, 2 ** 64 - 1])
    def test_bit_identical_on_the_reduced_state(self, n, seed):
        _, phi2 = reduced_state()
        ref = oracles.ref_sample_positions(phi2, oracles.ref_uniforms(seed, n))
        assert np.array_equal(sample_positions(phi2, n, seed), ref)

    @pytest.mark.parametrize("seed", [0, 1, 77])
    def test_bit_identical_with_zero_cells(self, seed):
        wf = hand_built_1d(ZERO_CELLS)
        ref = oracles.ref_sample_positions(wf, oracles.ref_uniforms(seed, 5000))
        assert np.array_equal(sample_positions(wf, 5000, seed), ref)

    def test_uniforms_on_cdf_knots(self, monkeypatch):
        # u on every knot lands on a cell edge, and on a flat run several
        # knots are equal; the largest double below 1 takes the last cell.
        wf = hand_built_1d(ZERO_CELLS)
        _, c = cumulative_distribution(wf.grid, np.abs(wf.amps) ** 2)
        u = np.concatenate((c[:-1], [1.0 - 2.0 ** -53]))
        monkeypatch.setattr(experiment, "Xoshiro256StarStar", lambda seed: PresetGenerator(u))
        assert np.array_equal(sample_positions(wf, len(u), seed=0),
                              oracles.ref_sample_positions(wf, u))


class TestSamplerMemory:
    """Draws are inverted in fixed-size slices, so past the uniforms, the
    output and, for pairs, one index of the y₁ order per draw, a sampler's
    working set does not grow with the number of draws."""

    @staticmethod
    def traced_peak(sample, state, n, monkeypatch):
        # Preset uniforms are views of a stream allocated before tracing.
        stream = np.random.default_rng(0).random(2 * n)
        monkeypatch.setattr(experiment, "Xoshiro256StarStar",
                            lambda seed: PresetGenerator(stream))
        tracemalloc.start()
        try:
            sample(state, n, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", ["joint", "positions"])
    def test_extra_draws_cost_only_their_output(self, mode, monkeypatch):
        psi = source_pair(64)
        if mode == "joint":
            # The (y₁, y₂) output and its draw's place in the y₁ order.
            sample, state, out_bytes = sample_joint, psi, 24
        else:
            sample, state, out_bytes = sample_positions, WaveFunction1D(psi.grid2, psi.amps[32]), 8
        small, large = 1 << 17, 1 << 20
        grow = (self.traced_peak(sample, state, large, monkeypatch)
                - self.traced_peak(sample, state, small, monkeypatch))
        assert grow <= 1.1 * out_bytes * (large - small)

    def test_working_set_does_not_grow_with_the_grid(self, monkeypatch):
        # The conditional-CDF table is filled a block of rows at a time into
        # about 2**16 values.  With the whole table held, the peaks were
        # 10.6 MiB at 512 points and 96.0 MiB at 2048.
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        peaks = []
        for n_points in (512, 2048):
            g = GridSpec(n_points=n_points, y_min=-16.2, y_max=16.2)
            psi = build_joint_state(JointStateRecipe(p, g, g))
            peaks.append(self.traced_peak(sample_joint, psi, 100_000, monkeypatch))
        assert peaks[1] <= peaks[0] + 2 ** 20


class TestScenarioMemory:
    """``run_scenario`` holds no N×N array: past the coincidence sampler's
    conditional-CDF table, whose bounded growth ``TestSamplerMemory`` pins,
    its working set does not grow with the grid."""

    @staticmethod
    def table_bytes(n_points):
        # sample_joint's buffer: a block of cells plus one row of float64
        return 8 * (_block_lines(n_points - 1, n_points) + 1) * n_points

    @pytest.mark.parametrize("measurement,n_samples", [
        (MeasurementSpec(epsilon=0.5), 20_000), (None, 200_000)],
        ids=["slit", "coincidence"])
    def test_working_set_does_not_grow_with_the_grid(self, measurement, n_samples):
        # The draw counts are the slit-run and coincidence-run workloads'.
        # σ = Ω₀ = 1 has 55 closed-form modes, so the entropy takes the
        # factored route at 256 points too.  With the pair built, the peaks
        # were 2.1 and 9.6 MiB (slit) and 9.5 and 18.4 MiB (coincidence).
        p = PhysicalParams(sigma=1.0, omega0=1.0)
        assert _pair_spectrum(p).modes <= FACTORED_MAX_MODE_SHARE * 256
        extent = auto_grid(p, MeasurementSpec(epsilon=0.5), 0.8).y_max
        peaks = []
        for n_points in (256, 1024):
            config = ScenarioConfig(
                params=p, grid=GridSpec(n_points=n_points, y_min=-extent, y_max=extent),
                detector=DetectorGeometry(n_bins=48, y_range=(-5.0, 5.0)),
                measurement=measurement, evolution_time=0.8 if measurement else 0.0,
                n_samples=n_samples, seed=1)
            run_scenario(config)  # fills the grid caches
            tracemalloc.start()
            try:
                run_scenario(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        table = 0 if measurement else self.table_bytes(1024) - self.table_bytes(256)
        assert peaks[1] <= peaks[0] + 2 ** 20 + table


class TestHistogram:
    def test_counts_and_flows(self):
        geom = DetectorGeometry(n_bins=10, y_range=(0.0, 1.0))
        samples = np.array([-0.5, 0.05, 0.15, 0.15, 0.999, 1.0, 2.0])
        h = histogram(samples, geom)
        assert h.total == 7
        assert h.underflow == 1 and h.overflow == 1
        assert h.counts[0] == 1 and h.counts[1] == 2
        # exact upper edge lands in the last bin, not overflow
        assert h.counts[-1] == 2
        assert h.counts.sum() == 5

    def test_edges(self):
        geom = DetectorGeometry(n_bins=4, y_range=(-1.0, 1.0))
        h = histogram(np.array([0.0]), geom)
        assert np.allclose(h.edges, [-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize("n_bins,y_range", [
        (48, (-5.0, 5.0)),  # the workloads' detector: 2 of its 47 edges went astray
        (30, (0.1, 0.7)),
    ])
    def test_a_sample_on_an_edge_counts_in_the_row_it_opens(self, n_bins, y_range):
        # histogram.csv's bin_lo column is DetectorHistogram.edges[:-1]
        geom = DetectorGeometry(n_bins=n_bins, y_range=y_range)
        edges = histogram(np.empty(0), geom).edges
        for row, bin_lo in enumerate(edges[1:-1], start=1):
            h = histogram(np.array([bin_lo]), geom)
            assert h.counts[row] == 1 and h.counts.sum() == 1, (row, bin_lo)


class TestRunScenario:
    def base_config(self, **kw):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        ms = MeasurementSpec(epsilon=0.5)
        defaults = dict(
            params=p,
            grid=auto_grid(p, ms),
            detector=DetectorGeometry(n_bins=48, y_range=(-5.0, 5.0), side="B"),
            measurement=ms,
            evolution_time=0.0,
            n_samples=20_000,
            seed=123,
        )
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_narrow_slit_never_widens_remote_momentum(self):
        report = run_scenario(self.base_config())
        ratios = report.numeric["ratios"]
        assert ratios["dp2_post_over_initial_closed"] <= 1.0 + 1e-12
        assert ratios["dp2_post_over_initial_numeric"] <= 1.0 + 1e-8

    def test_disentangled_source_unaffected(self):
        p = PhysicalParams(sigma=1.0, omega0=0.25)
        ms = MeasurementSpec(epsilon=0.3)
        cfg = self.base_config(params=p, measurement=ms, grid=auto_grid(p, ms))
        report = run_scenario(cfg)
        assert report.analytic["disentangled"] is True
        ratios = report.numeric["ratios"]
        assert ratios["dp2_post_over_initial_numeric"] == pytest.approx(1.0, abs=1e-6)
        assert report.numeric["schmidt_entropy"] < 1e-6

    def test_tight_correlation_regime_monotone_in_eps(self):
        # narrowing the slit in the tightly correlated regime kicks the
        # remote particle harder; epsilon = 0.05 needs an 8192-point grid
        # to keep 1.5 samples across the pointer
        p = PhysicalParams(sigma=10.0, omega0=10.0)
        grids = {
            0.2: auto_grid(p, MeasurementSpec(epsilon=0.2), max_points=4096),
            0.1: auto_grid(p, MeasurementSpec(epsilon=0.1), max_points=4096),
            0.05: GridSpec(n_points=8192, y_min=-75.0, y_max=75.0),
        }
        closed, numeric = [], []
        for eps in (0.2, 0.1, 0.05):
            ms = MeasurementSpec(epsilon=eps)
            cfg = self.base_config(params=p, measurement=ms,
                                   grid=grids[eps], n_samples=0)
            report = run_scenario(cfg)
            closed.append(report.analytic["reduced"]["dp2y"])
            numeric.append(report.numeric["reduced"]["dp2y"])
            assert report.analytic["reduced"]["strong_correlation"]["regime_ok"]
        assert closed[0] < closed[1] < closed[2]
        assert numeric[0] < numeric[1] < numeric[2]

    def test_report_layout_and_sampling_block(self):
        report = run_scenario(self.base_config(evolution_time=1.0))
        doc = report.to_json_dict()
        json.dumps(doc)  # must be serializable
        assert doc["sampled"]["n"] == 20_000
        assert doc["sampled"]["side"] == "B"
        assert doc["sampled"]["ks"]["pvalue"] > 1e-6
        hist = doc["sampled"]["histogram"]
        assert hist["total"] == 20_000
        assert sum(hist["counts"]) + hist["underflow"] + hist["overflow"] == 20_000
        predicted = doc["sampled"]["predicted_detector_width"]
        assert doc["sampled"]["std"] == pytest.approx(predicted, rel=0.02)
        assert set(report.states) == {"joint", "pointer", "reduced", "detector"}

    @staticmethod
    def untimed_doc(config):
        doc = run_scenario(config).to_json_dict()
        del doc["timings"]
        return doc

    def test_reports_identical_up_to_timings(self):
        a = self.untimed_doc(self.base_config())
        b = self.untimed_doc(self.base_config())
        assert a == b

    def test_seed_changes_samples_not_numerics(self):
        a = self.untimed_doc(self.base_config(seed=1))
        b = self.untimed_doc(self.base_config(seed=2))
        assert a["numeric"] == b["numeric"]
        assert a["analytic"] == b["analytic"]
        assert a["sampled"]["histogram"]["counts"] != b["sampled"]["histogram"]["counts"]

    def test_coincidence_mode_without_measurement(self):
        cfg = self.base_config(measurement=None, n_samples=30_000)
        report = run_scenario(cfg)
        assert report.analytic["reduced"] is None
        assert report.numeric["reduced"] is None
        corr = report.sampled["correlation"]
        assert abs(corr - position_correlation(cfg.params)) < 0.02
        assert report.sampled["predicted_detector_width"] is None

    def test_detector_side_a_samples_pointer_plane(self):
        # station A sees the pointer, far narrower than side B: width ε at
        # t = 0, spreading freely from ε after
        for t in (0.0, 0.8):
            cfg = self.base_config(
                evolution_time=t,
                detector=DetectorGeometry(n_bins=48, y_range=(-3.0, 3.0), side="A"))
            sampled = run_scenario(cfg).sampled
            predicted = gaussian_width_at(0.5, EvolutionParams(time=t))
            assert sampled["predicted_detector_width"] == predicted
            assert sampled["std"] == pytest.approx(predicted, rel=0.02)

    def test_invalid_config_raises_user_error(self):
        cfg = self.base_config(measurement=MeasurementSpec(epsilon=0.0))
        with pytest.raises(UserParameterError, match="epsilon must be > 0"):
            run_scenario(cfg)

    def test_grid_inside_the_tail_contract_extent_is_refused(self):
        # ±6.5 holds 6 spreads of Δy = 1.03 but not the 7.43 the 1e-6 tail
        # contract needs, so validate refuses it before anything is built
        cfg = self.base_config(
            params=PhysicalParams(sigma=1.0, omega0=1.0), measurement=None, n_samples=0,
            grid=GridSpec(n_points=1024, y_min=-6.5, y_max=6.5))
        with pytest.raises(UserParameterError, match="initial position spread"):
            run_scenario(cfg)

    def side_a_failure(self, eps, center, t, n_samples, y_max=16.2):
        cfg = self.base_config(
            measurement=MeasurementSpec(epsilon=eps, center=center), evolution_time=t,
            n_samples=n_samples, grid=GridSpec(n_points=1024, y_min=-16.2, y_max=y_max),
            detector=DetectorGeometry(n_bins=48, y_range=(-5.0, 5.0), side="A"))
        with pytest.raises(ScenarioFailure) as err:
            run_scenario(cfg)
        from popperlab import TailLeakError
        assert isinstance(err.value.cause, TailLeakError)
        return err.value.stage

    # validate holds 7.43 widths of the side-A pointer, where a Gaussian meets
    # the tail contract only just.  In the two configs below that band ends
    # 1e-6 inside the grid edge and the pointer's centre sits half a spacing
    # off the grid, so its sampled peak is below its true one and the
    # boundary reads just over 1e-6 of it: the config validates, and the run
    # fails where it meets the pointer.

    def test_stage_failures_are_labelled(self):
        # the pointer flies to width 0.943, so the failure carries the stage name
        assert self.side_a_failure(0.5, 9.176885875705576, 0.8, 0,
                                   y_max=16.189961635491958) == "propagate"

    def test_side_a_pointer_is_tail_checked_where_sampled(self):
        # unflown, the pointer keeps its width 1 and is checked where sampled
        assert self.side_a_failure(1.0, 8.79610695230787, 0.0, 2000,
                                   y_max=16.229952330007546) == "sample"

    @pytest.mark.parametrize("eps,center,t,n_samples,stage", [
        # the pointer flies to width 0.943, and 7.43 of that reaches 19.0
        (0.5, 12.0, 0.8, 0, "propagate"),
        # unflown, the pointer sits at 0.344 of peak on the boundary; sampled
        # unchecked, its std read 2.84 against the predicted 3.0
        (3.0, 10.0, 0.0, 2000, "sample"),
    ])
    def test_refused_side_a_pointer_fails_in_its_stage_past_validate(
            self, monkeypatch, eps, center, t, n_samples, stage):
        # validate refuses both configs (TestExitCodeFuzz in test_cli.py); let
        # past it, the run still fails where it meets the pointer at the edge
        monkeypatch.setattr(experiment, "validate", lambda config: ValidationReport())
        assert self.side_a_failure(eps, center, t, n_samples) == stage

    def test_interrupt_is_not_a_stage_failure(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(experiment, "pair_source", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(self.base_config())

    @pytest.mark.parametrize("grid,stage,fails", [
        # ±8 holds under 4 spreads of the README pair: Δp₂ meets its tails
        (GridSpec(n_points=256, y_min=-8.0, y_max=8.0), "numeric_initial",
         lambda psi: momentum_std_spectral(psi, particle=2)),
        # σ = 1e100, Ω₀ = 1e-100: every amplitude underflows
        (GridSpec(n_points=64, y_min=-10.0, y_max=10.0), "build", None),
    ], ids=["tail-leak", "zero-norm"])
    def test_failures_keep_their_stage_and_message(self, monkeypatch, grid, stage, fails):
        # validate refuses both grids; let past it, the pair fails where and
        # as the built pair's readers fail
        params = PhysicalParams(1e100, 1e-100) if stage == "build" else PhysicalParams(1.0, 2.0)
        monkeypatch.setattr(experiment, "validate", lambda config: ValidationReport())
        with pytest.raises(Exception) as want:
            psi = build_joint_state(JointStateRecipe(params, grid, grid))
            position_stats(psi, particle=1)
            position_stats(psi, particle=2)
            fails(psi)
        with pytest.raises(ScenarioFailure) as err:
            run_scenario(self.base_config(params=params, grid=grid, measurement=None,
                                          n_samples=0))
        assert err.value.stage == stage
        assert type(err.value.cause) is type(want.value)
        assert str(err.value.cause) == str(want.value)

    def test_joint_state_is_the_source(self):
        config = self.base_config(n_samples=0)
        source = run_scenario(config).states["joint"]
        assert isinstance(source, states.PairSource)
        built = build_joint_state(source.recipe)
        assert built.grid1 == built.grid2 == config.grid
        assert built.norm_tag == source.norm_tag
        n = config.grid.n_points
        assert np.array_equal(source.rows(0, n, np.empty((n, n))), built.amps)

    def test_schmidt_skipped_on_large_grids(self):
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        ms = MeasurementSpec(epsilon=0.5)
        g = auto_grid(p, ms)
        big = GridSpec(n_points=4096, y_min=g.y_min, y_max=g.y_max)
        report = run_scenario(self.base_config(grid=big, n_samples=0))
        assert report.numeric["schmidt_entropy"] is None

    def test_schmidt_takes_the_factored_route(self, monkeypatch):
        # the README source at 1024 points: 110 closed-form modes <= N/4
        def refused(*args, **kwargs):
            raise AssertionError("the dense route must not run")
        monkeypatch.setattr(states, "schmidt", refused)
        config = self.base_config(n_samples=0)
        report = run_scenario(config)
        factored = pair_schmidt(config.params, config.grid).entropy
        assert report.numeric["schmidt_entropy"] == factored
        assert "schmidt" in report.timings

    def test_timings_cover_stages(self):
        report = run_scenario(self.base_config(evolution_time=0.5))
        for stage in ("build", "numeric_initial", "reduce", "propagate", "sample"):
            assert stage in report.timings
            assert report.timings[stage] >= 0.0


@pytest.mark.parametrize("func,names", [
    (schmidt, ["wf"]),
    (chi_square_against_density, ["hist", "grid", "density"]),
    (is_disentangled, ["params"]),
    (pair_schmidt, ["params", "grid"]),
    (pair_entropy, ["params", "grid"]),
    (ScenarioReport.to_json_dict, ["self"]),
])
def test_fixed_constants_take_no_argument(func, names):
    # SCHMIDT_TRUNCATION, 5 expected counts a bin, 1e-12 relative, timings always
    assert list(inspect.signature(func).parameters) == names
