"""Measurement-induced reduction at station A and aperture post-selection.

Registering particle 1 on the pointer φ₁ projects the pair; the remote
particle is left in the conditional amplitude

    φ₂(y₂) ∝ ∫ ψ(y₁, y₂) φ₁*(y₁) dy₁,

a pure Gaussian whose width is the closed-form Ω of the analytic module.
``conditional_reduce`` computes the overlap integral numerically, normalizes,
and records numeric and closed-form spreads side by side together with the
worst pointwise deviation from the predicted Gaussian shape.
``reduce_pair`` is the whole chain on one grid: build the pair, build the
pointer, reduce.

``aperture_postselect`` models "slit but no detection": a transmission
profile multiplies the y₁ dependence of the joint amplitude, the pass
probability is recorded, and the surviving (still entangled, still pure)
pair state is renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import reduced_spreads
from .errors import GridMismatchError, ZeroNormError
from .params import GridSpec, MeasurementSpec, PhysicalParams
from .states import JointStateRecipe, build_joint_state, build_pointer_state
from .wavefunction import (
    NORM_FLOOR,
    WaveFunction1D,
    WaveFunction2D,
    grid_points,
    momentum_std_spectral,
    norm,
    normalize,
    position_stats,
    trap_weights,
)


@dataclass(frozen=True)
class ReductionResult:
    """Reduced remote state plus numeric/closed-form spread bookkeeping."""

    phi2: WaveFunction1D
    dy2_numeric: float
    dy2_closed: float
    dp2_numeric: float
    dp2_closed: float
    residual: float


@dataclass(frozen=True, slots=True)
class ApertureProfile:
    """Transmission amplitude profile on y₁: 'gaussian' or 'tophat'."""

    kind: str
    width: float
    center: float = 0.0

    def transmission(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "gaussian":
            return np.exp(-((y - self.center) ** 2) / (4.0 * self.width ** 2))
        if self.kind == "tophat":
            half = 0.5 * self.width
            return ((y >= self.center - half) & (y <= self.center + half)).astype(float)
        raise ValueError("kind must be 'gaussian' or 'tophat'")


@dataclass(frozen=True)
class PostSelectionResult:
    psi_after: WaveFunction2D
    pass_probability: float


def conditional_reduce(psi: WaveFunction2D, phi1: WaveFunction1D,
                       params: PhysicalParams, eps: float) -> ReductionResult:
    """Collapse particle 2 by the pointer overlap along y₁.

    Inputs need not be pre-normalized; the output state always is.  ``params``
    and ``eps`` identify the source and pointer so the closed-form prediction
    can be recorded next to the numbers the grid actually produced.
    """
    if psi.grid1 != phi1.grid:
        raise GridMismatchError(
            f"joint state y1 grid {psi.grid1} != pointer grid {phi1.grid}"
        )
    w1 = trap_weights(psi.grid1)
    raw = (w1 * np.conj(phi1.amps)) @ psi.amps
    phi2 = normalize(WaveFunction1D(grid=psi.grid2, amps=raw))

    closed = reduced_spreads(params, eps)
    stats = position_stats(phi2)
    dp2_numeric = momentum_std_spectral(phi2, hbar=params.hbar)

    y = grid_points(psi.grid2)
    gauss = np.exp(-((y - stats.mean) ** 2) / (4.0 * closed.omega ** 2))
    gauss_wf = normalize(WaveFunction1D(grid=psi.grid2, amps=gauss))
    # Global phase is physically irrelevant; align before comparing shapes.
    overlap = np.sum(trap_weights(psi.grid2) * np.conj(gauss_wf.amps) * phi2.amps)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    residual = float(
        np.max(np.abs(phi2.amps / phase - gauss_wf.amps)) / np.max(np.abs(gauss_wf.amps))
    )
    return ReductionResult(
        phi2=phi2,
        dy2_numeric=stats.std,
        dy2_closed=closed.dy2,
        dp2_numeric=dp2_numeric,
        dp2_closed=closed.dp2y,
        residual=residual,
    )


def reduce_pair(params: PhysicalParams, measurement: MeasurementSpec,
                grid: GridSpec) -> tuple[WaveFunction2D, ReductionResult]:
    """Build the pair and the pointer on ``grid`` and reduce behind the pointer."""
    psi = build_joint_state(JointStateRecipe(params, grid, grid))
    phi1 = build_pointer_state(measurement, grid)
    return psi, conditional_reduce(psi, phi1, params, measurement.epsilon)


def aperture_postselect(psi: WaveFunction2D, profile: ApertureProfile) -> PostSelectionResult:
    """Apply a y₁ transmission profile and renormalize the surviving pair."""
    t = profile.transmission(grid_points(psi.grid1))
    if np.any(t < 0) or np.any(t > 1):
        raise ValueError("transmission values must lie in [0, 1]")
    cut = WaveFunction2D(grid1=psi.grid1, grid2=psi.grid2, amps=t[:, None] * psi.amps)
    n_before = norm(psi)
    n_after = norm(cut)
    if n_after < NORM_FLOOR:
        raise ZeroNormError(
            f"aperture blocks essentially everything (norm {n_after:.3g})"
        )
    pass_probability = float((n_after / n_before) ** 2)
    return PostSelectionResult(psi_after=normalize(cut), pass_probability=pass_probability)
