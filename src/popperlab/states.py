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

The pair's Schmidt entropy has one owner, ``pair_entropy``, which picks its
route before any work is done.  With a = σ²/ħ² and b = 1/16Ω₀²,

    ψ(y₁, y₂) = e^{−(a+b)(y₁²+y₂²)} · e^{2(a−b)y₁y₂}.

For a ≥ b the last factor is an entrywise exponential of the positive
semidefinite matrix 2(a−b)y yᵀ, so the weighted kernel K = √w₁ ψ √w₂ is
positive semidefinite on any shared grid (Schur product theorem).  For a < b
the same holds once the columns are taken at −y₂; on a symmetric grid
(y_min = −y_max) that permutes the columns, which leaves the singular values
alone.  There ``pair_schmidt`` runs greedy pivoted Cholesky (Harbrecht,
Peters & Schneider, Appl. Numer. Math. 62(4), 2012): it builds one kernel
column per step until the remaining diagonal reaches rounding level, and the
Schmidt coefficients are the squared singular values of the N×k factor,
O(N·k²) work and N·k floats for a numerical rank k.

``pair_entropy`` takes the built pair on one grid shared by both axes, as
every caller builds it, and returns ``None`` above ``SCHMIDT_MAX_POINTS``.
Below it takes ``pair_schmidt`` where the pair has at most
``FACTORED_MAX_MODE_SHARE``·N closed-form modes and a ≥ b or a symmetric
grid, else the dense O(N³) ``wavefunction.schmidt``, the factored route's
oracle.  Both routes raise ``ZeroNormError`` for a vanishing kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _pair_spectrum
from .errors import UnderResolvedError
from .params import (
    POINTER_MIN_POINTS_PER_WIDTH,
    GridSpec,
    MeasurementSpec,
    PhysicalParams,
)
from .wavefunction import (
    SchmidtSpectrum,
    WaveFunction1D,
    WaveFunction2D,
    _blocks,
    _norm_above_floor,
    _positive_total,
    _schmidt_tail,
    grid_points,
    normalize,
    schmidt,
    trap_weights,
)

SCHMIDT_MAX_POINTS = 2048
# The factored Schmidt route is taken up to this many closed-form modes per
# grid point.  Both routes cost the same near 0.33-0.43 at 2048 points and
# near 0.3 at 512 and 1024 (2-core host, OpenBLAS); the README source at
# 2048 points, 110 modes, took 0.03 s factored against 0.6 s dense.
FACTORED_MAX_MODE_SHARE = 0.25

# Pivoting stops once no remaining diagonal entry exceeds this share, times
# N, of the largest initial one: the level of the rounding in the updates.
_PIVOT_FLOOR = 1e-17
# Factor rows allocated at first; the buffer doubles when they run out.
_FIRST_ROWS = 128


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
    """Materialize and normalize the pair state; real and non-negative.  Rows
    are filled a block at a time and divided in place: one N×N array."""
    g1, g2 = recipe.grid1, recipe.grid2
    y1 = grid_points(g1)[:, None]
    y2 = grid_points(g2)[None, :]
    amps = np.empty((g1.n_points, g2.n_points))
    for rows in _blocks(g1.n_points, g2.n_points):
        amps[rows] = joint_amplitude(y1[rows], y2, recipe.params)
    n = _norm_above_floor(WaveFunction2D(grid1=g1, grid2=g2, amps=amps))
    amps /= n
    return WaveFunction2D(grid1=g1, grid2=g2, amps=amps, norm_tag=n)


def pair_schmidt(params: PhysicalParams, grid: GridSpec) -> SchmidtSpectrum:
    """Schmidt spectrum of the source pair on ``grid`` × ``grid`` by pivoted
    Cholesky of its kernel.

    Columns are built on demand from ``joint_amplitude``; see the module
    docstring.  The coefficients are normalized as those of the built,
    normalized pair.  The kernel must be positive semidefinite with its
    columns at ±y₂, so a ≥ b or a symmetric grid, as ``pair_entropy``
    ensures; elsewhere the result is not the pair's spectrum.
    """
    ex = _pair_spectrum(params)
    sign = 1.0 if ex.a >= ex.b else -1.0
    y = grid_points(grid)
    sw = np.sqrt(trap_weights(grid))
    n = len(y)
    diag = sw * joint_amplitude(y, sign * y, params) * sw
    stop = _PIVOT_FLOOR * n * diag.max()
    rows = np.empty((min(n, _FIRST_ROWS), n))
    k = 0
    while k < n:
        p = int(np.argmax(diag))
        if diag[p] <= stop:
            break
        if k == len(rows):
            rows = np.concatenate([rows, np.empty((min(k, n - k), n))])
        col = joint_amplitude(y, sign * y[p], params)
        col *= sw
        col *= sw[p]
        col -= rows[:k, p] @ rows[:k]
        col /= math.sqrt(diag[p])
        rows[k] = col
        diag -= col ** 2
        diag[p] = 0.0
        k += 1
    s = np.linalg.svd(rows[:k], compute_uv=False) ** 2
    return _schmidt_tail(s / math.sqrt(_positive_total(np.sum(s ** 2))))


def pair_entropy(psi: WaveFunction2D, params: PhysicalParams) -> float | None:
    """Schmidt entropy of the built source pair ``psi`` by the route the
    module docstring describes; ``None`` above ``SCHMIDT_MAX_POINTS``."""
    g = psi.grid1
    if g.n_points > SCHMIDT_MAX_POINTS:
        return None
    ex = _pair_spectrum(params)
    if ex.modes <= FACTORED_MAX_MODE_SHARE * g.n_points and (ex.a >= ex.b or g.y_min == -g.y_max):
        return pair_schmidt(params, g).entropy
    return schmidt(psi).entropy


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
