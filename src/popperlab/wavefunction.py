"""Discretized wavefunctions and the numeric machinery that interrogates them.

All integrals are trapezoid-rule quadratures on uniform grids; for the
Gaussian-type states of this laboratory the quadrature error decays like
exp(−2π²(s/dy)²) in the narrowest feature width s, so compliant grids put
results far below the 1e-6 contract.  Momentum observables are available
through two genuinely independent routes that must agree on compliant grids:

* spectral: FFT to the momentum representation, then moments of |ψ̃(k)|²,
* derivative: quadrature of ψ*(−iħ∂)ψ and ψ*(−ħ²∂²)ψ with 4th-order
  central finite differences.

Keeping both honest is the point; neither is ever defined in terms of the
other.  Spectral results are trustworthy only while the state vanishes at
the grid boundary (periodic wrap), so every momentum routine first checks
tail containment and raises ``TailLeakError`` above 1e-6 of the peak.
Every moment routine raises ``ZeroNormError`` on a zero state.

The binary container for states is little-endian throughout:
magic ``EPWF``, version u32, n₁ u32, n₂ u32 (0 for 1D), four f64 grid
bounds, then interleaved (re, im) f64 amplitudes in row-major order.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import MemoryBoundError, TailLeakError, ZeroNormError
from .params import TAIL_RATIO_MAX, GridSpec

NORM_FLOOR = 1e-30
DENSITY_MATRIX_MAX_POINTS = 4096
SCHMIDT_TRUNCATION = 1e-12

_MAGIC = b"EPWF"
_VERSION = 1
_HEADER = struct.Struct("<4sIII4d")
# Amplitudes widened to complex128 per write: 1 MiB.
_WRITE_BLOCK_AMPLITUDES = 2 ** 16


@lru_cache(maxsize=128)
def grid_points(grid: GridSpec) -> np.ndarray:
    y = np.linspace(grid.y_min, grid.y_max, grid.n_points)
    y.flags.writeable = False
    return y


@lru_cache(maxsize=128)
def trap_weights(grid: GridSpec) -> np.ndarray:
    w = np.full(grid.n_points, grid.dy)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


@lru_cache(maxsize=128)
def wavenumbers(grid: GridSpec) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dy)
    k.flags.writeable = False
    return k


def _frozen_amps(amps, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only view of ``amps``: float64 if real, complex128 if complex.

    Arrays already of that dtype are not copied; the caller's own array
    keeps its flags, only the view held by the state is frozen, so a caller
    that writes to its array afterwards changes the state too.
    """
    a = np.asarray(amps)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False).view()
    if a.shape != shape:
        raise ValueError(f"amps shape {a.shape} != {shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WaveFunction1D:
    """Real or complex amplitudes on a 1D grid.  Treat as immutable."""

    grid: GridSpec
    amps: np.ndarray
    norm_tag: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "amps", _frozen_amps(self.amps, (self.grid.n_points,)))


@dataclass(frozen=True)
class WaveFunction2D:
    """Real or complex amplitudes on the tensor grid (y₁ rows, y₂ columns)."""

    grid1: GridSpec
    grid2: GridSpec
    amps: np.ndarray
    norm_tag: float | None = None

    def __post_init__(self):
        shape = (self.grid1.n_points, self.grid2.n_points)
        object.__setattr__(self, "amps", _frozen_amps(self.amps, shape))


class Moments(NamedTuple):
    mean: float
    std: float


class _AxisView(NamedTuple):
    """One particle's coordinate axis within a 1D or 2D state."""

    grids: tuple[GridSpec, ...]
    axis: int

    @property
    def grid(self) -> GridSpec:
        return self.grids[self.axis]

    def marginal(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid-integrate ``values`` over every axis except this one."""
        if len(self.grids) == 1:
            return values
        other_w = trap_weights(self.grids[1 - self.axis])
        return values @ other_w if self.axis == 0 else other_w @ values

    def integral(self, values: np.ndarray):
        """Trapezoid-integrate ``values`` over every axis."""
        return np.sum(trap_weights(self.grid) * self.marginal(values))


def _axis_view(wf: WaveFunction1D | WaveFunction2D,
               particle: int | None = None) -> _AxisView:
    """The axis of ``particle``; a 1D state has one axis and ignores it."""
    if isinstance(wf, WaveFunction1D):
        return _AxisView((wf.grid,), 0)
    if particle is None:
        raise ValueError("particle required for a 2D state")
    if particle not in (1, 2):
        raise ValueError("particle must be 1 or 2")
    return _AxisView((wf.grid1, wf.grid2), particle - 1)


def norm(wf: WaveFunction1D | WaveFunction2D) -> float:
    """L² norm under trapezoid quadrature."""
    # The full integral does not depend on which axis the view is taken on.
    return float(np.sqrt(_axis_view(wf, 1).integral(np.abs(wf.amps) ** 2)))


def normalize(wf: WaveFunction1D | WaveFunction2D):
    """Rescale to unit L² norm; the divided-out norm is kept in norm_tag."""
    n = norm(wf)
    if n < NORM_FLOOR:
        raise ZeroNormError(f"norm {n:.3g} below {NORM_FLOOR:g}")
    return dataclasses.replace(wf, amps=wf.amps / n, norm_tag=n)


def marginal_density(wf: WaveFunction2D, particle: int) -> np.ndarray:
    """|ψ|² integrated over the other particle's coordinate."""
    return _axis_view(wf, particle).marginal(np.abs(wf.amps) ** 2)


def _positive_total(total):
    """The integral ``total`` of a density; ``ZeroNormError`` unless positive."""
    if not total > 0:
        raise ZeroNormError(f"the state vanishes: its density integrates to {total:.3g}")
    return total


def _moments(x: np.ndarray, density: np.ndarray, weights: np.ndarray | float) -> Moments:
    """Mean and spread of ``x`` under ``weights * density``, whose scale cancels."""
    total = _positive_total(np.sum(weights * density))
    mean = float(np.sum(weights * x * density) / total)
    var = float(np.sum(weights * (x - mean) ** 2 * density) / total)
    return Moments(mean=mean, std=math.sqrt(max(var, 0.0)))


def position_stats(wf: WaveFunction1D | WaveFunction2D,
                   particle: int | None = None) -> Moments:
    """Mean and standard deviation of position under |ψ|² quadrature."""
    view = _axis_view(wf, particle)
    dens = view.marginal(np.abs(wf.amps) ** 2)
    return _moments(grid_points(view.grid), dens, trap_weights(view.grid))


def tail_ratio(wf: WaveFunction1D | WaveFunction2D) -> float:
    """Largest boundary amplitude relative to the peak amplitude."""
    a = np.abs(wf.amps)
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    edge = max(float(np.take(a, (0, -1), axis=axis).max()) for axis in range(a.ndim))
    return edge / peak


def require_tails(wf: WaveFunction1D | WaveFunction2D) -> None:
    """Raise ``TailLeakError`` unless the boundary stays below 1e-6 of the peak."""
    r = tail_ratio(wf)
    if r > TAIL_RATIO_MAX:
        raise TailLeakError(
            f"boundary amplitude is {r:.3g} of peak (limit {TAIL_RATIO_MAX:g}); "
            "enlarge the grid extent"
        )


def momentum_stats_spectral(wf: WaveFunction1D | WaveFunction2D,
                            particle: int | None = None,
                            hbar: float = 1.0) -> Moments:
    """Momentum mean and spread from the FFT momentum distribution.

    k is uniform, so |FFT|² needs no weights; its scale cancels in the moments.
    """
    require_tails(wf)
    view = _axis_view(wf, particle)
    pk = view.marginal(np.abs(np.fft.fft(wf.amps, axis=view.axis)) ** 2)
    return _moments(hbar * wavenumbers(view.grid), pk, 1.0)


def momentum_std_spectral(wf: WaveFunction1D | WaveFunction2D,
                          particle: int | None = None,
                          hbar: float = 1.0) -> float:
    return momentum_stats_spectral(wf, particle, hbar).std


def _fd_first(a: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    # 4th-order central stencil; periodic wrap is harmless once tails vanish.
    return (
        -np.roll(a, -2, axis=axis) + 8.0 * np.roll(a, -1, axis=axis)
        - 8.0 * np.roll(a, 1, axis=axis) + np.roll(a, 2, axis=axis)
    ) / (12.0 * h)


def _fd_second(a: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    return (
        -np.roll(a, -2, axis=axis) + 16.0 * np.roll(a, -1, axis=axis)
        - 30.0 * a
        + 16.0 * np.roll(a, 1, axis=axis) - np.roll(a, 2, axis=axis)
    ) / (12.0 * h * h)


def momentum_stats_derivative(wf: WaveFunction1D | WaveFunction2D,
                              particle: int | None = None,
                              hbar: float = 1.0) -> Moments:
    """Momentum mean and spread from ψ*(−iħ∂)ψ and ψ*(−ħ²∂²)ψ quadrature.

    Entirely finite-difference based; shares nothing with the spectral route
    beyond the input state.
    """
    require_tails(wf)
    view = _axis_view(wf, particle)
    a = wf.amps
    h = view.grid.dy
    d1 = _fd_first(a, h, axis=view.axis)
    d2 = _fd_second(a, h, axis=view.axis)
    total = _positive_total(float(view.integral(np.abs(a) ** 2)))
    p1 = float(np.real(view.integral(np.conj(a) * (-1j * hbar) * d1)) / total)
    p2 = float(np.real(view.integral(np.conj(a) * (-(hbar ** 2)) * d2)) / total)
    return Moments(mean=p1, std=math.sqrt(max(p2 - p1 ** 2, 0.0)))


def momentum_std_derivative(wf: WaveFunction1D | WaveFunction2D,
                            particle: int | None = None,
                            hbar: float = 1.0) -> float:
    return momentum_stats_derivative(wf, particle, hbar).std


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Descending Schmidt coefficients λᵢ (Σλᵢ² = 1 for a normalized state)."""

    coefficients: np.ndarray
    entropy: float

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)


def _schmidt_tail(s: np.ndarray) -> SchmidtSpectrum:
    """The spectrum of descending singular values ``s``: the values at or above
    SCHMIDT_TRUNCATION of the largest, and −Σ λ̂ᵢ² ln λ̂ᵢ² over them renormalized."""
    keep = s >= SCHMIDT_TRUNCATION * s[0]
    coeff = s[keep]
    lam2 = coeff ** 2 / _positive_total(np.sum(coeff ** 2))
    terms = lam2 * np.log(lam2, where=lam2 > 0, out=np.zeros_like(lam2))
    # + 0.0 turns the −0.0 of a lone retained coefficient into +0.0
    entropy = float(-np.sum(terms)) + 0.0
    return SchmidtSpectrum(coefficients=coeff, entropy=entropy)


def schmidt(wf: WaveFunction2D) -> SchmidtSpectrum:
    """Schmidt decomposition from the singular values of the weighted kernel.

    The amplitude matrix is scaled by √w₁ ⊗ √w₂ so the singular values carry
    the continuum normalization; entanglement entropy is −Σ λ̂ᵢ² ln λ̂ᵢ² over
    the retained, renormalized coefficients.  A real amplitude matrix that
    equals its transpose on one shared grid gives a real symmetric kernel,
    whose singular values are the absolute values of its eigenvalues; the
    symmetric eigensolver finds them several times faster than an SVD.
    Every other state goes through the SVD.

    This dense route takes any state and is the oracle of the factored one,
    ``states.pair_schmidt``; ``states.pair_entropy`` picks between them.
    Both raise ``ZeroNormError`` where Σλᵢ² is 0, or underflows to 0.
    """
    sw1 = np.sqrt(trap_weights(wf.grid1))
    sw2 = np.sqrt(trap_weights(wf.grid2))
    kernel = sw1[:, None] * wf.amps * sw2[None, :]
    a = wf.amps
    if wf.grid1 == wf.grid2 and not np.iscomplexobj(a) and np.array_equal(a, a.T):
        # eigvalsh reads one triangle, so rounding asymmetry in the
        # weighting above cannot matter.
        s = np.sort(np.abs(np.linalg.eigvalsh(kernel)))[::-1]
    else:
        s = np.linalg.svd(kernel, compute_uv=False)
    return _schmidt_tail(s)


def reduced_density_momentum_std(wf: WaveFunction2D, particle: int,
                                 hbar: float = 1.0) -> float:
    """Momentum spread of one particle through its reduced density matrix.

    Builds ρ(y, y′) by tracing out the partner with quadrature weights, then
    reads the momentum distribution off the transformed diagonal.  A third
    route to the same observable, deliberately independent of the marginal
    shortcuts above; it also covers genuinely mixed reductions.
    """
    view = _axis_view(wf, particle)
    n = view.grid.n_points
    if n > DENSITY_MATRIX_MAX_POINTS:
        raise MemoryBoundError(
            f"density matrix would be {n}x{n}; cap is "
            f"{DENSITY_MATRIX_MAX_POINTS} points per axis"
        )
    require_tails(wf)
    # Rows of b run along this particle's axis, columns along the partner's.
    b = wf.amps if view.axis == 0 else wf.amps.T
    rho = (b * trap_weights(view.grids[1 - view.axis])) @ b.conj().T
    s1 = np.fft.fft(rho, axis=0)
    s2 = np.fft.ifft(s1, axis=1)
    return _moments(hbar * wavenumbers(view.grid), np.real(np.diagonal(s2)), 1.0).std


def save_wavefunction(wf: WaveFunction1D | WaveFunction2D, path) -> None:
    """Write the little-endian EPWF container (see module docstring).

    Real states are widened to complex128 on the way out.
    """
    # A 1D state pads the second axis with n₂ = 0 and zero bounds.
    grids = _axis_view(wf, 1).grids
    sizes = [g.n_points for g in grids] + [0]
    bounds = [b for g in grids for b in (g.y_min, g.y_max)] + [0.0, 0.0]
    # Widen and write a block of rows at a time, so no full-size complex
    # copy of the payload is ever held.
    rows = np.atleast_2d(wf.amps)
    step = max(1, _WRITE_BLOCK_AMPLITUDES // max(1, rows.shape[1]))
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, *sizes[:2], *bounds[:4]))
        for start in range(0, rows.shape[0], step):
            f.write(np.ascontiguousarray(rows[start:start + step], dtype=np.dtype("<c16")))


def load_wavefunction(path) -> WaveFunction1D | WaveFunction2D:
    """Read an EPWF container back into a wavefunction; malformed files raise ValueError."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"truncated EPWF header ({len(head)} of {_HEADER.size} bytes)")
        magic, version, n1, n2, y1_min, y1_max, y2_min, y2_max = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"not an EPWF file (magic {magic!r})")
        if version != _VERSION:
            raise ValueError(f"unsupported EPWF version {version}")
        if n1 < 2 or n2 == 1:
            raise ValueError(f"EPWF grid of {n1} x {n2} points; each axis needs at least 2")
        for lo, hi in ((y1_min, y1_max), (y2_min, y2_max))[:2 if n2 else 1]:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"EPWF grid bounds [{lo}, {hi}]; each axis needs finite "
                                 f"y_min < y_max")
        count = n1 * (n2 if n2 > 0 else 1)
        if 16 * count > os.fstat(f.fileno()).st_size - _HEADER.size:
            raise ValueError("truncated EPWF payload")
        data = np.frombuffer(f.read(16 * count), dtype=np.dtype("<c16"))
    if n2 == 0:
        return WaveFunction1D(grid=GridSpec(n1, y1_min, y1_max), amps=data)
    return WaveFunction2D(
        grid1=GridSpec(n1, y1_min, y1_max),
        grid2=GridSpec(n2, y2_min, y2_max),
        amps=data.reshape(n1, n2),
    )
