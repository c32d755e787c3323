"""Pair-state and pointer builders."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popperlab import (
    GridSpec,
    TailLeakError,
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
    marginal_density,
    momentum_std_spectral,
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
    pair_source,
    pair_spreads,
)
from popperlab.wavefunction import _blocks, grid_points, norm, save_wavefunction, tail_ratio

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
        # Two grids take the formula's steps; one shared grid takes the T·H
        # product, whose largest relative gap to the formula here is 3.3e-13
        # (its smallest amplitude is 1.6e-243, so no gap is a subnormal's).
        g1 = GridSpec(n_points=256, y_min=-10.0, y_max=10.0)
        g2 = GridSpec(n_points=128, y_min=-6.0, y_max=8.0)
        p = PhysicalParams(1.3, 0.8, hbar=1.1)
        for ga, gb in ((g1, g1), (g1, g2)):
            psi = build_joint_state(JointStateRecipe(p, ga, gb))
            raw = oracles.ref_joint_amplitude(grid_points(ga)[:, None], grid_points(gb)[None, :],
                                              p.sigma, p.omega0, p.hbar)
            ref = normalize(WaveFunction2D(grid1=ga, grid2=gb, amps=raw))
            if ga == gb:
                assert np.max(np.abs(psi.amps - ref.amps) / ref.amps) < 1e-12
            else:
                assert np.array_equal(psi.amps, ref.amps)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is double on this platform")
    @pytest.mark.parametrize("sigma,omega0,hbar", [(1.0, 2.0, 1.0), (1.3, 0.8, 1.1),
                                                   (0.3, 4.0, 1.0)])
    def test_shared_grid_rows_match_a_long_double_evaluation(self, sigma, omega0, hbar):
        # The formula in long double on the same float64 nodes, wherever it
        # exceeds 1e-290.  Largest relative gaps at 1024 points: 3.2e-13,
        # 4.3e-13 and 5.0e-14 for the T·H product, against 2.0e-13, 2.9e-13
        # and 3.6e-14 for the float64 formula.
        g = GridSpec(n_points=1024, y_min=-16.2, y_max=16.2)
        recipe = JointStateRecipe(PhysicalParams(sigma, omega0, hbar=hbar), g, g)
        rows = np.concatenate([a.copy() for _, a in states._row_blocks(recipe)])
        y = grid_points(g).astype(np.longdouble)
        diff, com = y[:, None] - y[None, :], y[:, None] + y[None, :]
        s, o, h = (np.longdouble(v) for v in (sigma, omega0, hbar))
        ref = np.exp(-(diff * diff * s * s / (h * h)) - com * com / (16 * o * o))
        kept = ref > 1e-290
        assert kept.mean() > 0.8
        assert np.max(np.abs(rows[kept] - ref[kept]) / ref[kept]) < 1e-12

    def test_peak_is_the_state_and_a_few_blocks(self):
        # Rows are evaluated into one array and divided in place: at 1024
        # points the build holds the 8 MiB state and at most 2 MiB besides.
        g = GridSpec(n_points=1024, y_min=-16.2, y_max=16.2)
        recipe = JointStateRecipe(PhysicalParams(1.0, 2.0), g, g)
        build_joint_state(recipe)  # fills the grid caches
        tracemalloc.start()
        try:
            psi = build_joint_state(recipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= psi.amps.nbytes + 2 * 2 ** 20

    @pytest.mark.parametrize("n1,n2", [(383, 257), (257, 383), (48, 66000)])
    def test_blocks_match_the_whole_array_formula(self, n1, n2):
        # Row counts that are not a multiple of the rows per block, and rows
        # longer than a whole block; the norm is the oracle's whole-array one.
        g1, g2 = GridSpec(n1, -10.0, 10.0), GridSpec(n2, -6.0, 8.0)
        p = PhysicalParams(1.3, 0.8, hbar=1.1)
        psi = build_joint_state(JointStateRecipe(p, g1, g2))
        raw = oracles.ref_joint_amplitude(grid_points(g1)[:, None], grid_points(g2)[None, :],
                                          p.sigma, p.omega0, p.hbar)
        n = oracles._ref_norm(raw, g1, g2)
        assert psi.norm_tag == n
        assert np.array_equal(psi.amps, raw / n)

    @pytest.mark.parametrize("n1,n2,shared", [(383, 257, False), (1000, 1000, False),
                                              (1000, 1000, True)],
                             ids=["383-257", "1000-1000", "1000-shared"])
    def test_each_amplitude_is_evaluated_once(self, monkeypatch, n1, n2, shared):
        # One kernel pass whose blocks do not divide the rows evenly: each
        # row reaches the kernel once, in order, across all n2 columns.  Two
        # grids reach it through joint_amplitude; a shared grid's T·H
        # product does not call joint_amplitude.
        g1, g2 = GridSpec(n1, -10.0, 10.0), GridSpec(n2, -6.0, 8.0)
        if shared:
            g2 = g1
        real_fill, real_amplitude, filled, rows = states._fill_rows, joint_amplitude, [], []

        def counted_fill(recipe, lo, hi, out, norm=None):
            assert out.shape == (hi - lo, n2)
            filled.append(np.arange(lo, hi))
            return real_fill(recipe, lo, hi, out, norm)

        def counted(y1, y2, params):
            assert np.broadcast_shapes(y1.shape, y2.shape) == (len(y1), n2)
            rows.append(y1.ravel().copy())
            return real_amplitude(y1, y2, params)

        monkeypatch.setattr(states, "_fill_rows", counted_fill)
        monkeypatch.setattr(states, "joint_amplitude", counted)
        build_joint_state(JointStateRecipe(PhysicalParams(1.3, 0.8, hbar=1.1), g1, g2))
        assert len(filled) > 1
        assert np.array_equal(np.concatenate(filled), np.arange(n1))
        if shared:
            assert rows == []
        else:
            assert np.array_equal(np.concatenate(rows), grid_points(g1))

    @pytest.mark.parametrize("n1,n2", [(383, 257), (257, 383), (48, 66000)])
    def test_row_blocks_tile_the_built_rows(self, n1, n2):
        g1, g2 = GridSpec(n1, -10.0, 10.0), GridSpec(n2, -6.0, 8.0)
        recipe = JointStateRecipe(PhysicalParams(1.3, 0.8, hbar=1.1), g1, g2)
        psi = build_joint_state(recipe)
        raw = joint_amplitude(grid_points(g1)[:, None], grid_points(g2)[None, :], recipe.params)
        for norm, want in ((None, raw), (psi.norm_tag, psi.amps)):
            # The blocks share one buffer, so each is copied as it comes.
            blocks = [(b, a.copy()) for b, a in states._row_blocks(recipe, norm)]
            assert [b for b, _ in blocks] == list(_blocks(n1, n2))
            for b, a in blocks:
                assert np.array_equal(a, want[b]), b

    def test_zero_pair_raises(self):
        # Off the diagonal σ, on it Ω₀ puts every amplitude below the least float.
        g = GridSpec(n_points=64, y_min=-10.0, y_max=10.0)
        with pytest.raises(ZeroNormError):
            build_joint_state(JointStateRecipe(PhysicalParams(1e100, 1e-100), g, g))

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


def assert_factored_matches_dense(recipe):
    """``pair_schmidt``'s spectrum against the dense one of the built pair."""
    factored = pair_schmidt(recipe.params, recipe.grid1)
    dense = schmidt(build_joint_state(recipe))
    assert abs(factored.entropy - dense.entropy) <= 1e-13 * dense.entropy
    lam, ref = factored.coefficients, dense.coefficients
    assert abs(len(lam) - len(ref)) <= 1
    m = min(len(lam), len(ref))
    # normalized as the built pair's: the leading ones agree closely, and
    # every shared one to a small share of the largest
    big = ref >= 1e-6 * ref[0]
    np.testing.assert_allclose(lam[big], ref[big], rtol=1e-10)
    assert np.max(np.abs(lam[:m] - ref[:m])) <= 1e-12 * ref[0]


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
        assert_factored_matches_dense(pair_recipe(sigma, omega0, y_min=-half, y_max=half))

    @pytest.mark.parametrize("sigma,omega0,y_min,y_max", [
        # a ≥ b on a shared grid that is not symmetric
        (1.0, 2.0, -15.0, 17.4),
        # a < b on a symmetric grid, whose kernel reverses the columns
        (0.1, 0.5, -20.4, 20.4),
    ])
    def test_factored_route_reads_the_pairs_rows(self, monkeypatch, sigma, omega0,
                                                 y_min, y_max):
        recipe = pair_recipe(sigma, omega0, y_min=y_min, y_max=y_max)
        assert states._entropy_route(recipe.params, recipe.grid1) == "factored"
        dense = schmidt(build_joint_state(recipe)).entropy
        refuse(monkeypatch, states, "joint_amplitude")
        factored = pair_entropy(recipe.params, recipe.grid1)
        assert abs(factored - dense) <= 1e-13 * dense

    def test_reversed_columns_are_the_built_pairs_nodes(self):
        # a = 0.09 < b = 0.25 on ±8: some nodes are not the negatives of
        # their mirror nodes, and the kernel's columns are the mirror
        # nodes', a permutation of the built pair's columns.
        recipe = pair_recipe(0.3, 0.5, y_min=-8.0, y_max=8.0)
        a, b = _pair_spectrum(recipe.params)
        y = grid_points(recipe.grid1)
        assert a < b and np.any(-y != y[::-1])
        assert_factored_matches_dense(recipe)

    def test_anti_correlated_pair_flips_its_columns(self, monkeypatch):
        # a = 0.01 < b = 0.25 on a symmetric grid: the columns at -y2 make the
        # kernel PSD, and run's route never calls the dense eigensolver
        recipe = pair_recipe(0.1, 0.5, y_min=-20.4, y_max=20.4)
        refuse(monkeypatch, states, "schmidt")
        refuse(monkeypatch, np.linalg, "eigvalsh")
        entropy = pair_entropy(recipe.params, recipe.grid1)
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
        assert pair_entropy(recipe.params, recipe.grid1) == schmidt(psi).entropy

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
        assert pair_entropy(params, psi.grid1) == pair_schmidt(params, psi.grid1).entropy

    def test_one_mode_past_the_share_is_dense(self, monkeypatch):
        psi, params = self.edge_pair(1)
        refuse(monkeypatch, states, "pair_schmidt")
        assert pair_entropy(params, psi.grid1) == schmidt(psi).entropy

    def test_grid_cap(self, monkeypatch):
        # the README source: 110 modes, factored at the cap itself
        params = PhysicalParams(1.0, 2.0)
        g = GridSpec(n_points=SCHMIDT_MAX_POINTS, y_min=-16.2, y_max=16.2)
        at_cap = pair_entropy(params, g)
        assert at_cap == pytest.approx(oracles.oracle_schmidt_entropy(1.0, 2.0), rel=1e-12)
        refuse(monkeypatch, states, "schmidt")
        refuse(monkeypatch, states, "pair_schmidt")
        g = GridSpec(n_points=SCHMIDT_MAX_POINTS + 1, y_min=-16.2, y_max=16.2)
        assert pair_entropy(params, g) is None


@given(sigma=st.floats(0.05, 20.0), omega0=st.floats(0.05, 20.0), hbar=st.floats(0.1, 10.0),
       n=st.integers(2, 200), y_min=st.floats(-50.0, 50.0), span=st.floats(1e-3, 100.0))
@settings(max_examples=200, deadline=None)
def test_joint_amplitude_is_bitwise_symmetric_on_shared_grids(sigma, omega0, hbar, n,
                                                              y_min, span):
    # pair_schmidt and the readout's edge columns rely on this symmetry.
    params = PhysicalParams(sigma, omega0, hbar=hbar)
    y = grid_points(GridSpec(n_points=n, y_min=y_min, y_max=y_min + span))
    a = joint_amplitude(y[:, None], y[None, :], params)
    assert np.array_equal(a, a.T)


@given(sigma=st.floats(0.05, 20.0), omega0=st.floats(0.05, 20.0), hbar=st.floats(0.1, 10.0),
       n=st.integers(2, 200), y_min=st.floats(-50.0, 50.0), span=st.floats(1e-3, 100.0))
@settings(max_examples=200, deadline=None)
def test_pair_rows_are_bitwise_symmetric_on_shared_grids(sigma, omega0, hbar, n, y_min, span):
    # T is even and H depends on i+j only, so the T·H rows are symmetric
    # whether or not the grid is centred; the built pair is where it builds.
    g = GridSpec(n_points=n, y_min=y_min, y_max=y_min + span)
    recipe = JointStateRecipe(PhysicalParams(sigma, omega0, hbar=hbar), g, g)
    rows = np.concatenate([a.copy() for _, a in states._row_blocks(recipe)])
    assert np.array_equal(rows, rows.T)
    try:
        psi = build_joint_state(recipe)
    except ZeroNormError:
        assert not np.any(rows > 1e-15)
        return
    assert np.array_equal(psi.amps, psi.amps.T)
    assert np.array_equal(psi.amps, rows / psi.norm_tag)


def readme_pair(n, params=PhysicalParams(1.0, 2.0), extent=16.2):
    """The built pair and the rows route's source of it."""
    g = GridSpec(n_points=n, y_min=-extent, y_max=extent)
    recipe = JointStateRecipe(params, g, g)
    return build_joint_state(recipe), states._rows_source(recipe)


def source_rows(source, lo, hi):
    """Rows lo..hi-1 of a source, into a fresh buffer."""
    return source.rows(lo, hi, np.empty((hi - lo, source.grid2.n_points)))


class TestPairSource:
    """A ``PairSource`` on the rows route gives the built pair's bits
    without holding it."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_of_any_range_are_the_built_rows(self, data):
        psi, source = readme_pair(383)
        lo = data.draw(st.integers(0, 382))
        hi = data.draw(st.integers(lo + 1, 383))
        out = np.empty((hi - lo, 383))
        assert source.rows(lo, hi, out) is out
        assert np.array_equal(out, psi.amps[lo:hi])

    @pytest.mark.parametrize("n", [383, 1000])
    def test_the_samplers_overlapping_table_rows(self, n):
        # sample_joint's blocks of y1 cells share their edge rows: rows
        # b.start..b.stop, inclusive, of each _blocks(n - 1, n) block
        psi, source = readme_pair(n)
        for b in _blocks(n - 1, n):
            lo, hi = b.start, b.stop + 1
            assert np.array_equal(source_rows(source, lo, hi), psi.amps[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("n", [383, 1000, 2978])
    @pytest.mark.parametrize("params", [PhysicalParams(1.0, 2.0), PhysicalParams(1.3, 0.8, hbar=1.1)],
                             ids=["readme", "hbar"])
    def test_readout_equals_the_readers(self, n, params):
        psi, source = readme_pair(n, params)
        assert source.norm_tag == psi.norm_tag
        st, dp2 = pair_spreads(source)
        assert st == position_stats(psi, particle=1)
        assert dp2 == momentum_std_spectral(psi, particle=2, hbar=params.hbar)
        r = source.readout
        assert np.array_equal(r.marginal, marginal_density(psi, 1))
        assert r.tail == tail_ratio(psi)
        # Particle 2's readers sum the same |ψ|² in another order.  On these
        # six cases the marginals differed by up to 1.5e-15 of the peak, the
        # spreads by up to 1.4e-16 relative and the means by up to 1.1e-16.
        assert np.max(np.abs(marginal_density(psi, 2) - r.marginal)) <= 4e-15 * r.marginal.max()
        st2 = position_stats(psi, particle=2)
        assert abs(st2.std - st.std) <= 1e-15 * st.std
        assert abs(st2.mean - st.mean) <= 1e-15 * st.std

    def test_a_leaking_pair_fails_its_tail_check_as_the_readers_do(self):
        # ±8 holds under 4 spreads of the README pair; its moments still read
        psi, source = readme_pair(256, extent=8.0)
        assert source.readout.tail == tail_ratio(psi) > 1e-6
        with pytest.raises(TailLeakError) as want:
            momentum_std_spectral(psi, particle=2)
        with pytest.raises(TailLeakError) as got:
            pair_spreads(source)
        assert str(got.value) == str(want.value)

    def test_a_vanishing_pair_fails_its_norm_as_the_build_does(self):
        g = GridSpec(n_points=64, y_min=-10.0, y_max=10.0)
        params = PhysicalParams(1e100, 1e-100)
        with pytest.raises(ZeroNormError) as want:
            build_joint_state(JointStateRecipe(params, g, g))
        with pytest.raises(ZeroNormError) as got:
            pair_source(params, g)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("y_min,y_max", [(-16.2, 16.2), (-11.3, 19.4)],
                             ids=["symmetric", "asymmetric"])
    def test_a_saved_source_is_the_saved_built_pair(self, tmp_path, y_min, y_max):
        g = GridSpec(n_points=383, y_min=y_min, y_max=y_max)
        source = pair_source(PhysicalParams(1.0, 2.0), g)
        save_wavefunction(source, tmp_path / "source.wf")
        save_wavefunction(build_joint_state(source.recipe), tmp_path / "built.wf")
        assert (tmp_path / "source.wf").read_bytes() == (tmp_path / "built.wf").read_bytes()

    def test_saving_a_source_holds_no_pair(self, tmp_path):
        # the built pair would be 8 MiB at 1024 points
        g = GridSpec(n_points=1024, y_min=-16.2, y_max=16.2)
        source = pair_source(PhysicalParams(1.0, 2.0), g)
        tracemalloc.start()
        try:
            save_wavefunction(source, tmp_path / "joint.wf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 21
        assert (tmp_path / "joint.wf").stat().st_size == 48 + 16 * 1024 ** 2

    def test_dense_entropy_builds_the_pair(self, monkeypatch):
        # the README source has 110 modes, more than a quarter of 256 points
        psi, source = readme_pair(256)
        refuse(monkeypatch, states, "pair_schmidt")
        assert pair_entropy(source.recipe.params, source.grid1) == schmidt(psi).entropy

    def test_factored_entropy_builds_nothing(self, monkeypatch):
        params, g = PhysicalParams(1.0, 2.0), GridSpec(n_points=1024, y_min=-16.2, y_max=16.2)
        refuse(monkeypatch, states, "build_joint_state")
        assert pair_entropy(params, g) == pair_schmidt(params, g).entropy

    def test_memory_does_not_grow_with_the_grid(self):
        # Each pass holds a few buffers of about 2**16 amplitudes; the built
        # pair is 0.5 MiB at 256 points and 8 MiB at 1024.
        peaks = []
        for n in (256, 1024):
            g = GridSpec(n_points=n, y_min=-16.2, y_max=16.2)
            recipe = JointStateRecipe(PhysicalParams(1.0, 2.0), g, g)
            states._rows_source(recipe).readout  # fills the grid caches
            tracemalloc.start()
            try:
                source = states._rows_source(recipe)
                source.readout
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 ** 19


def factored_source(recipe):
    """The source that reads ``recipe``'s factor, whatever the route rule."""
    states._factored.cache_clear()
    f = states._factored(recipe)
    return states.PairSource(recipe, f.norm, f.readout)


def assert_readouts_agree(factor, rows, bound=1e-13):
    """The factor route's readout, spreads and norm against the rows route's."""
    a, b = factor.readout, rows.readout
    for x, y in ((a.marginal, b.marginal), (a.spectrum2, b.spectrum2)):
        assert np.max(np.abs(x - y)) <= bound * np.max(y)
    (st, dp2), (ref_st, ref_dp2) = pair_spreads(factor), pair_spreads(rows)
    assert abs(st.std - ref_st.std) <= bound * ref_st.std
    assert abs(st.mean - ref_st.mean) <= bound * ref_st.std
    assert abs(dp2 - ref_dp2) <= bound * ref_dp2
    assert abs(a.tail - b.tail) <= bound * b.tail
    assert abs(factor.norm_tag - rows.norm_tag) <= 1e-15 * rows.norm_tag


class TestFactorReadout:
    """The factor route (``pair_source`` where ``_readout_route`` takes it)
    against the rows route, its oracle, and its route rule."""

    @pytest.mark.parametrize("n", [383, 1000, 2978])
    @pytest.mark.parametrize("params", [PhysicalParams(1.0, 2.0), PhysicalParams(1.3, 0.8, hbar=1.1)],
                             ids=["readme", "hbar"])
    def test_factor_and_rows_readouts_agree(self, n, params):
        # The readout test's six cases.  Here the readouts differed by up to
        # 2.8e-15 of the peak, and the spreads, tails and norms by one ulp.
        _, rows = readme_pair(n, params)
        assert_readouts_agree(factored_source(rows.recipe), rows)

    @pytest.mark.parametrize("sigma,omega0,y_min,y_max", [
        # a ≥ b on a shared grid that is not symmetric
        (1.0, 2.0, -15.0, 17.4),
        # a < b on a symmetric grid, whose kernel reverses the columns
        (2.0, 0.05, -2.0, 2.0),
    ])
    def test_reversed_and_asymmetric_grids(self, sigma, omega0, y_min, y_max):
        recipe = pair_recipe(sigma, omega0, n=2048, y_min=y_min, y_max=y_max)
        source = pair_source(recipe.params, recipe.grid1)
        assert source.factored is not None
        assert_readouts_agree(source, states._rows_source(recipe))

    def test_tail_is_the_built_pairs(self):
        # σ = Ω₀ = 1 on ±8 leaks, and ±12 does not; the readouts' tails agree
        # with the built pair's to rounding, and both fail the tail check
        for extent in (8.0, 12.0):
            recipe = pair_recipe(1.0, 1.0, n=1024, y_min=-extent, y_max=extent)
            source = pair_source(recipe.params, recipe.grid1)
            assert source.factored is not None
            ref = tail_ratio(build_joint_state(recipe))
            assert source.readout.tail == pytest.approx(ref, rel=1e-15, abs=0.0)
            if ref > 1e-6:
                with pytest.raises(TailLeakError):
                    pair_spreads(source)

    def edge_grid(self, extra_modes):
        # 4·√1024 = 128 modes at 1024 points
        omega0 = 1.5
        modes = int(states.READOUT_MAX_MODES_PER_ROOT * math.sqrt(1024)) + extra_modes
        params = PhysicalParams(sigma_with_modes(modes, omega0), omega0)
        return params, GridSpec(n_points=1024, y_min=-14.0, y_max=14.0)

    def test_modes_at_the_bound_read_the_factor(self, monkeypatch):
        params, g = self.edge_grid(0)
        refuse(monkeypatch, states, "_row_blocks")
        source = pair_source(params, g)
        assert source.factored is not None and source.readout is source.factored

    def test_one_mode_past_the_bound_reads_the_rows(self, monkeypatch):
        params, g = self.edge_grid(1)
        refuse(monkeypatch, states, "_cholesky")
        source = pair_source(params, g)
        assert source.factored is None
        source.readout

    def test_anti_correlated_pair_on_an_asymmetric_grid_reads_the_rows(self, monkeypatch):
        # a = 0.01 < b = 0.25 has 19 modes, but no PSD kernel is known off a
        # symmetric grid
        recipe = pair_recipe(0.1, 0.5, n=1024, y_min=-20.4, y_max=21.0)
        assert _pair_spectrum(recipe.params).modes <= 128
        refuse(monkeypatch, states, "_cholesky")
        assert pair_source(recipe.params, recipe.grid1).factored is None
        symmetric = pair_recipe(0.1, 0.5, n=1024, y_min=-20.4, y_max=20.4)
        monkeypatch.undo()
        assert pair_source(symmetric.params, symmetric.grid1).factored is not None

    @pytest.mark.parametrize("y_min,y_max", [(23.5, 40.0), (1000.0, 2000.0)])
    def test_a_vanishing_pair_fails_its_norm_as_the_build_does(self, y_min, y_max):
        # σ = Ω₀ = 1 far off its centre: a norm near 1e-60, and one of 0
        g = GridSpec(n_points=512, y_min=y_min, y_max=y_max)
        params = PhysicalParams(1.0, 1.0)
        assert states._readout_route(params, g)
        states._factored.cache_clear()
        with pytest.raises(ZeroNormError) as want:
            build_joint_state(JointStateRecipe(params, g, g))
        with pytest.raises(ZeroNormError) as got:
            pair_source(params, g)
        assert str(got.value) == str(want.value)

    def test_the_cholesky_runs_once_per_run(self, monkeypatch):
        # the README slit run at 1024 points: the source and the entropy read
        # one factor, k pivot rows and two edge rows, and the stages before
        # the save make no pass over the pair
        from popperlab import experiment
        from popperlab.params import DetectorGeometry, ScenarioConfig
        calls, rows = [], []
        real_cholesky, real_fill = states._cholesky, states._fill_rows

        def counted(recipe):
            out = real_cholesky(recipe)
            calls.append(len(out[1]))
            return out

        def counted_fill(recipe, lo, hi, out, norm=None):
            rows.append(hi - lo)
            return real_fill(recipe, lo, hi, out, norm)

        states._factored.cache_clear()
        monkeypatch.setattr(states, "_cholesky", counted)
        monkeypatch.setattr(states, "_fill_rows", counted_fill)
        g = GridSpec(n_points=1024, y_min=-16.2, y_max=16.2)
        config = ScenarioConfig(params=PhysicalParams(1.0, 2.0), grid=g,
                                detector=DetectorGeometry(n_bins=48, y_range=(-5.0, 5.0)),
                                measurement=MeasurementSpec(epsilon=0.5), n_samples=1000)
        report = experiment.run_scenario(config)
        assert len(calls) == 1
        assert rows == [1] * (calls[0] + 2)
        assert report.numeric["schmidt_entropy"] == pair_entropy(config.params, g)

    def test_the_factor_is_held_once(self):
        # The k×N factor is the largest array; the readout forms the rows of
        # L R _BLOCK_LINES at a time and holds no second k×N array.
        g = GridSpec(n_points=2048, y_min=-16.2, y_max=16.2)
        params = PhysicalParams(1.0, 2.0)
        factored_source(JointStateRecipe(params, g, g))  # fills the grid caches
        states._factored.cache_clear()
        tracemalloc.start()
        try:
            pair_source(params, g)
            pair_entropy(params, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = len(states._cholesky(JointStateRecipe(params, g, g))[1])
        assert peak <= 8 * k * g.n_points + 2 ** 20
