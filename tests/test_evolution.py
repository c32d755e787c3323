"""Free flight: exact spectral propagation against the Gaussian width law."""

import numpy as np
import pytest

from popperlab import (
    EvolutionParams,
    GridSpec,
    MeasurementSpec,
    TailLeakError,
    build_pointer_state,
    free_propagate,
    gaussian_width_at,
    momentum_std_spectral,
    position_stats,
)
from popperlab.wavefunction import norm

import oracles

GRID = GridSpec(n_points=1024, y_min=-24.0, y_max=24.0)


def packet(width=oracles.SPREADING_W0, grid=GRID):
    return build_pointer_state(MeasurementSpec(epsilon=width), grid)


class TestWidthLaw:
    @pytest.mark.parametrize("t", sorted(oracles.SPREADING_WIDTHS))
    def test_frozen_values(self, t):
        got = gaussian_width_at(oracles.SPREADING_W0, EvolutionParams(time=t))
        assert got == pytest.approx(oracles.SPREADING_WIDTHS[t], rel=1e-9)

    def test_t_zero_identity(self):
        assert gaussian_width_at(0.7, EvolutionParams(time=0.0)) == 0.7

    def test_hbar_mass_scaling(self):
        # doubling mass at fixed t equals halving t
        a = gaussian_width_at(0.5, EvolutionParams(time=1.0, mass=2.0))
        b = gaussian_width_at(0.5, EvolutionParams(time=0.5, mass=1.0))
        assert a == pytest.approx(b, rel=1e-15)

    def test_long_time_asymptote(self):
        # w -> hbar*t/(2*m*w0) for t >> 2*m*w0^2/hbar
        w0, t = 0.3, 500.0
        got = gaussian_width_at(w0, EvolutionParams(time=t))
        assert got == pytest.approx(t / (2 * w0), rel=1e-5)


class TestFreePropagation:
    @pytest.mark.parametrize("t", sorted(oracles.SPREADING_WIDTHS))
    def test_grid_width_matches_law(self, t):
        moved = free_propagate(packet(), EvolutionParams(time=t))
        assert position_stats(moved).std == pytest.approx(
            oracles.SPREADING_WIDTHS[t], rel=1e-4)

    def test_momentum_distribution_invariant(self):
        wf = packet()
        p0 = momentum_std_spectral(wf)
        for t in (0.5, 1.0, 2.0):
            moved = free_propagate(wf, EvolutionParams(time=t))
            assert momentum_std_spectral(moved) == pytest.approx(p0, rel=1e-10)

    def test_unitary(self):
        moved = free_propagate(packet(), EvolutionParams(time=1.5))
        assert norm(moved) == pytest.approx(1.0, rel=1e-12)
        assert moved.amps.dtype == np.complex128

    def test_t_zero_is_identity(self):
        wf = packet()
        moved = free_propagate(wf, EvolutionParams(time=0.0))
        assert np.allclose(moved.amps, wf.amps, atol=1e-14)

    def test_mean_is_preserved_without_boost(self):
        wf = packet()
        moved = free_propagate(wf, EvolutionParams(time=2.0))
        assert position_stats(moved).mean == pytest.approx(0.0, abs=1e-10)

    def test_composition(self):
        # evolving t then s equals evolving t+s
        wf = packet()
        one = free_propagate(free_propagate(wf, EvolutionParams(time=0.7)),
                             EvolutionParams(time=0.8))
        two = free_propagate(wf, EvolutionParams(time=1.5))
        assert np.allclose(one.amps, two.amps, atol=1e-12)

    def test_narrower_packet_spreads_faster(self):
        t = EvolutionParams(time=1.0)
        narrow = free_propagate(packet(width=0.25), t)
        wide = free_propagate(packet(width=1.0), t)
        assert position_stats(narrow).std > position_stats(wide).std

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            free_propagate(packet(), EvolutionParams(time=-1.0))

    def test_predicted_overflow_raises_up_front(self):
        with pytest.raises(TailLeakError, match="predicted"):
            free_propagate(packet(), EvolutionParams(time=50.0))

    def test_boundary_reached_in_flight_raises_after(self):
        # the width law fits the grid, but the boosted packet drifts to its edge
        wf = packet()
        y = np.linspace(GRID.y_min, GRID.y_max, GRID.n_points)
        boosted = type(wf)(grid=GRID, amps=wf.amps * np.exp(10j * y))
        with pytest.raises(TailLeakError, match="boundary amplitude is .* of peak"):
            free_propagate(boosted, EvolutionParams(time=2.0))

    def test_mass_slows_spreading(self):
        heavy = free_propagate(packet(), EvolutionParams(time=2.0, mass=10.0))
        light = free_propagate(packet(), EvolutionParams(time=2.0, mass=1.0))
        assert position_stats(heavy).std < position_stats(light).std
