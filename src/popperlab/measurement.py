"""Measurement-induced reduction at station A and aperture post-selection.

Registering particle 1 on the pointer φ₁ projects the pair; the remote
particle is left in the conditional amplitude

    φ₂(y₂) ∝ ∫ ψ(y₁, y₂) φ₁*(y₁) dy₁,

a pure Gaussian whose width is the closed-form Ω of the analytic module.
Both routes below take the trapezoid quadrature of this integral on one
grid, normalize, and record numeric and closed-form spreads side by side
together with the worst pointwise deviation from the predicted Gaussian
shape.

``conditional_reduce`` reduces any dense pair state behind any pointer,
real or complex, by vector-matrix products over column blocks of the pair,
which give the same bits at every BLAS thread count.  ``reduce_pair`` reduces
the source pair without forming it, behind the real, non-negative pointer
of ``states.build_pointer_state``; a complex one fails in its FFT.  Let
a = σ²/ħ², b = 1/16Ω₀², κ = 4ab/(a+b) = 1/4Δy², and pick c₁ with c₂ =
c₁(a−b)/(a+b), s = y₁ − c₁, t = y₂ − c₂.  For every such centre

    ψ = e^{−κc₁(2y₁−c₁)} · e^{−2b(s²+t²)} · e^{−(a−b)(s−t)²}   (Toeplitz),
    ψ = e^{−κc₁(2y₁−c₁)} · e^{−2a(s²+t²)} · e^{−(b−a)(s+t)²}   (Hankel),

exactly.  On a uniform grid s − t depends only on i − j and s + t only on
i + j, so the quadrature sum is a diagonal scaling of one 1D convolution,
which a zero-padded FFT of length 2N evaluates (circulant embedding; Golub
& Van Loan, *Matrix Computations*, §4.7).  The Toeplitz form is taken when
a ≥ b and the Hankel form when a < b, so the kernel and the y₂ factor are
at most 1.  c₁ is where φ₁(y₁)·e^{−κy₁²} peaks, which puts the y₂
factor's peak on φ₂'s: the convolution's rounding is relative to its
largest value, and with c₁ = 0 a pointer 15 pair widths off-centre lost
2e-2 of Δy₂ to it.  The sum is the same as the dense one; only its
rounding differs.  A vanishing overlap raises ``ZeroNormError`` on both.

``aperture_postselect`` models "slit but no detection": a transmission
profile multiplies the y₁ dependence of the joint amplitude, the pass
probability is recorded, and the surviving (still entangled, still pure)
pair state is renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _pair_spectrum, reduced_spreads
from .errors import GridMismatchError
from .params import GridSpec, PhysicalParams
from .wavefunction import (
    WaveFunction1D,
    WaveFunction2D,
    grid_points,
    momentum_std_spectral,
    norm,
    normalize,
    position_stats,
    trap_weights,
    _blocks,
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


def _reduction_result(raw: np.ndarray, grid: GridSpec, params: PhysicalParams,
                      eps: float) -> ReductionResult:
    """Normalize the overlap ``raw`` on ``grid`` and measure it against Ω."""
    phi2 = normalize(WaveFunction1D(grid=grid, amps=raw))

    closed = reduced_spreads(params, eps)
    stats = position_stats(phi2)
    dp2_numeric = momentum_std_spectral(phi2, hbar=params.hbar)

    y = grid_points(grid)
    gauss = np.exp(-((y - stats.mean) ** 2) / (4.0 * closed.omega ** 2))
    gauss_wf = normalize(WaveFunction1D(grid=grid, amps=gauss))
    # Global phase is physically irrelevant; align before comparing shapes.
    overlap = np.sum(trap_weights(grid) * np.conj(gauss_wf.amps) * phi2.amps)
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
    # Column blocks, as the block reader takes particle 2: a whole-array
    # product's bits depend on the BLAS thread count.
    v = trap_weights(psi.grid1) * np.conj(phi1.amps)
    n1, n2 = psi.amps.shape
    raw = np.concatenate([v @ psi.amps[:, cols] for cols in _blocks(n2, n1)])
    return _reduction_result(raw, psi.grid2, params, eps)


def reduce_pair(phi1: WaveFunction1D, params: PhysicalParams, eps: float) -> ReductionResult:
    """Reduce the source pair on the pointer's grid behind the real pointer ``phi1``.

    The same quadrature as ``conditional_reduce`` on the built pair, summed
    as one convolution (see the module docstring), so no N×N array exists.
    """
    grid = phi1.grid
    n = grid.n_points
    y = grid_points(grid)
    a, b = _pair_spectrum(params)
    kappa = 4.0 * a * b / (a + b)
    diag = 2.0 * min(a, b)
    with np.errstate(divide="ignore"):
        log_amps = np.log(phi1.amps)
    c1 = y[np.argmax(log_amps - kappa * y ** 2)]
    c2 = (a - b) / (a + b) * c1
    # The y₁ factor times φ₁, taken in logs: alone the factor can exceed
    # the float range where the pointer has long underflowed.
    level = log_amps - kappa * c1 * (2.0 * y - c1) - diag * (y - c1) ** 2
    weighted = trap_weights(grid) * np.exp(level)
    if a >= b:
        # s − t over lags 0..N-1, then -(N-1)..-1 wrapped to the end; no
        # output row reads the lag-N entry.
        lag = np.exp(-(a - b) * (np.arange(1 - n, n) * grid.dy + c1 - c2) ** 2)
        kernel = np.concatenate([lag[n - 1:], [0.0], lag[:n - 1]])
        rows = slice(0, n)
    else:
        # s + t = 2 y_min + (i + j) dy − c₁ − c₂; reversing the input turns
        # the sum over i + j into a convolution, read at rows N-1..2N-2.
        sums = 2.0 * grid.y_min + np.arange(2 * n - 1) * grid.dy
        kernel = np.exp(-(b - a) * (sums - c1 - c2) ** 2)
        weighted, rows = weighted[::-1], slice(n - 1, -1)
    conv = np.fft.irfft(np.fft.rfft(weighted, 2 * n) * np.fft.rfft(kernel, 2 * n), 2 * n)[rows]
    # The dense route overlaps the normalized pair; dividing by its norm,
    # (π/4√(ab))^½, leaves ZeroNormError's floor where it was.
    pair_norm = math.sqrt(math.pi / (4.0 * math.sqrt(a * b)))
    raw = np.exp(-diag * (y - c2) ** 2) * conv / pair_norm
    return _reduction_result(raw, grid, params, eps)


def aperture_postselect(psi: WaveFunction2D, profile: ApertureProfile) -> PostSelectionResult:
    """Apply a y₁ transmission profile and renormalize the surviving pair."""
    t = profile.transmission(grid_points(psi.grid1))
    if np.any(t < 0) or np.any(t > 1):
        raise ValueError("transmission values must lie in [0, 1]")
    after = normalize(WaveFunction2D(grid1=psi.grid1, grid2=psi.grid2,
                                     amps=t[:, None] * psi.amps))
    return PostSelectionResult(psi_after=after,
                               pass_probability=float((after.norm_tag / norm(psi)) ** 2))
