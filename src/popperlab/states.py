"""Builders for the entangled pair state and the Gaussian pointer.

The pair leaves the source in

    ψ(y₁, y₂) ∝ exp(−(y₁−y₂)² σ²/ħ²) · exp(−(y₁+y₂)²/16Ω₀²),

already integrated over the transverse momenta it was emitted with, so the
builder evaluates this amplitude directly on the tensor grid and normalizes.
The pointer that stands in for slit + detector at station A is
φ₁(y₁) ∝ exp(−(y₁−c)²/4ε²), whose position spread is exactly ε.

A physical top-hat slit of full width w maps onto an effective Gaussian ε
either by second-moment matching (w/√12, the default) or by the half-width
convention (w/2); the choice is a modelling convention, exposed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnderResolvedError
from .params import (
    POINTER_MIN_POINTS_PER_WIDTH,
    GridSpec,
    MeasurementSpec,
    PhysicalParams,
)
from .wavefunction import WaveFunction1D, WaveFunction2D, grid_points, normalize


@dataclass(frozen=True, slots=True)
class JointStateRecipe:
    """Everything needed to materialize the pair state on a tensor grid."""

    params: PhysicalParams
    grid1: GridSpec
    grid2: GridSpec


def joint_amplitude(y1: np.ndarray, y2: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Unnormalized pair amplitude on broadcastable coordinate arrays."""
    sigma, omega0, hbar = params.sigma, params.omega0, params.hbar
    # The steps of exp(-(y1-y2)²σ²/ħ² - (y1+y2)²/16Ω₀²) in the same order,
    # written into two temporaries; -a - b == -(a + b) exactly in IEEE
    # arithmetic.  asarray keeps 0-d inputs writable (a numpy scalar is not).
    rel = np.asarray(y1 - y2, dtype=np.float64)
    rel **= 2
    rel *= sigma ** 2
    rel /= hbar ** 2
    com = np.asarray(y1 + y2, dtype=np.float64)
    com **= 2
    com /= 16.0 * omega0 ** 2
    rel += com
    np.negative(rel, out=rel)
    return np.exp(rel, out=rel)


def build_joint_state(recipe: JointStateRecipe) -> WaveFunction2D:
    """Materialize and normalize the pair state; real and non-negative."""
    y1 = grid_points(recipe.grid1)[:, None]
    y2 = grid_points(recipe.grid2)[None, :]
    amps = joint_amplitude(y1, y2, recipe.params)
    return normalize(WaveFunction2D(grid1=recipe.grid1, grid2=recipe.grid2, amps=amps))


def build_pointer_state(measurement: MeasurementSpec, grid: GridSpec) -> WaveFunction1D:
    """Normalized Gaussian pointer φ₁ with position spread ε."""
    eps, center = measurement.epsilon, measurement.center
    if grid.dy > eps / POINTER_MIN_POINTS_PER_WIDTH:
        raise UnderResolvedError(
            f"grid spacing {grid.dy:.3g} cannot resolve pointer width {eps:.3g} "
            f"(need dy <= eps/{POINTER_MIN_POINTS_PER_WIDTH:g})"
        )
    y = grid_points(grid)
    amps = np.exp(-((y - center) ** 2) / (4.0 * eps ** 2))
    return normalize(WaveFunction1D(grid=grid, amps=amps))


def pointer_width_for_slit(slit_width: float, convention: str = "moment") -> float:
    """Effective pointer ε for a top-hat slit of full width ``slit_width``."""
    if convention == "moment":
        return slit_width / math.sqrt(12.0)
    if convention == "half":
        return slit_width / 2.0
    raise ValueError("convention must be 'moment' or 'half'")
