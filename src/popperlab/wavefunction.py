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
Every moment routine raises ``ZeroNormError`` on a state whose density
integrates to 0 or to a subnormal float.

One block reader, ``_marginal``, reads a 2D state about 2¹⁶ amplitudes at a
time, so no reader holds a second N×N array.  These readers are also the
oracles of ``states.PairSource``, which computes the pair's blocks instead
of holding them.  Pointwise densities take blocks along the particle's axis,
and each marginal entry keeps the bits of the whole-array product;
transforms along the axis (FFT, stencils) take blocks across it and sum
their marginals.  A real 2D state goes through ``rfft``, mirrored for −k:
|ψ̃(−k)| = |ψ̃(k)|.

The binary container for states is little-endian throughout:
magic ``EPWF``, version u32, n₁ u32, n₂ u32 (0 for 1D), four f64 grid
bounds, then interleaved (re, im) f64 amplitudes in row-major order.
``EPWFWriter`` writes it whole or removes it; ``save_wavefunction`` writes a
state, or a ``states.PairSource`` a row block at a time, through it, and
``load_wavefunction`` reads it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import MemoryBoundError, TailLeakError, ZeroNormError
from .params import NORM_FLOOR, TAIL_RATIO_MAX, GridSpec

if TYPE_CHECKING:  # states imports this module
    from .states import PairSource

DENSITY_MATRIX_MAX_POINTS = 4096
SCHMIDT_TRUNCATION = 1e-12

_MAGIC = b"EPWF"
_VERSION = 1
_HEADER = struct.Struct("<4sIII4d")
_WIDE = np.dtype("<c16")
# Amplitudes per block read or written: 512 KiB of float64, 1 MiB of complex128.
_BLOCK_AMPLITUDES = 2 ** 16
# A block holds a multiple of this many lines, so BLAS groups its rows as it
# groups the whole array's and each product keeps its bits.
_BLOCK_LINES = 8


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


def _blocks(n: int, width: int) -> list[slice]:
    """Slices of ``n`` lines of ``width`` values, about _BLOCK_AMPLITUDES each.

    A rest under _BLOCK_LINES lines joins the last block: numpy hands a
    one-line product to ``dot``, and OpenBLAS has its own loops for two or
    three contiguous lines, neither with the matrix-vector product's bits.
    """
    step = max(_BLOCK_LINES, _BLOCK_AMPLITUDES // max(width, 1) // _BLOCK_LINES * _BLOCK_LINES)
    edges = [*range(0, max(n - _BLOCK_LINES, 0) + 1, step), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _block_lines(n: int, width: int) -> int:
    """The most lines a block of ``_blocks(n, width)`` holds: the size of a
    buffer that each of them fits."""
    return max(b.stop - b.start for b in _blocks(n, width))


def _density(a: np.ndarray) -> np.ndarray:
    return np.abs(a) ** 2


def _marginal(wf: WaveFunction1D | WaveFunction2D, view: _AxisView, fn=_density,
              across: bool = False) -> np.ndarray:
    """``fn`` of the amplitudes trapezoid-integrated over the partner's axis,
    read in blocks (module docstring); ``across`` marks ``fn`` as a transform
    along the view's axis.  A 1D state has no partner: fn(amps) itself."""
    a, axis = wf.amps, view.axis
    if a.ndim == 1:
        return fn(a)
    w = trap_weights(view.grids[1 - axis])
    cut = 1 - axis if across else axis

    def part(sl: slice) -> np.ndarray:
        v, wb = fn(a[sl] if cut == 0 else a[:, sl]), w[sl] if across else w
        return v @ wb if axis == 0 else wb @ v

    parts = map(part, _blocks(a.shape[cut], a.shape[1 - cut]))
    return sum(parts) if across else np.concatenate(list(parts))


def _integral(wf: WaveFunction1D | WaveFunction2D, view: _AxisView, fn=_density,
              across: bool = False):
    """``fn`` of the amplitudes, trapezoid-integrated over every axis."""
    return np.sum(trap_weights(view.grid) * _marginal(wf, view, fn, across))


def norm(wf: WaveFunction1D | WaveFunction2D) -> float:
    """L² norm under trapezoid quadrature."""
    # The full integral does not depend on which axis the view is taken on.
    return float(np.sqrt(_integral(wf, _axis_view(wf, 1))))


def _above_floor(n: float) -> float:
    """The norm ``n``; ``ZeroNormError`` below NORM_FLOOR."""
    if n < NORM_FLOOR:
        raise ZeroNormError(f"norm {n:.3g} below {NORM_FLOOR:g}")
    return n


def normalize(wf: WaveFunction1D | WaveFunction2D):
    """Rescale to unit L² norm; the divided-out norm is kept in norm_tag."""
    n = _above_floor(norm(wf))
    return dataclasses.replace(wf, amps=wf.amps / n, norm_tag=n)


def marginal_density(wf: WaveFunction2D, particle: int) -> np.ndarray:
    """|ψ|² integrated over the other particle's coordinate."""
    return _marginal(wf, _axis_view(wf, particle))


def _positive_total(total):
    """The integral ``total`` of a density; ``ZeroNormError`` unless it is a
    positive normal float (a subnormal total has lost significant bits)."""
    if not total >= np.finfo(float).tiny:
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
    dens = _marginal(wf, view)
    return _moments(grid_points(view.grid), dens, trap_weights(view.grid))


def tail_ratio(wf: WaveFunction1D | WaveFunction2D) -> float:
    """Largest boundary amplitude relative to the peak amplitude."""
    a = wf.amps
    rows = np.atleast_2d(a)
    peak = max(float(np.abs(rows[block]).max()) for block in _blocks(*rows.shape))
    if peak == 0.0:
        return 0.0
    edge = max(float(np.abs(np.take(a, (0, -1), axis=axis)).max()) for axis in range(a.ndim))
    return edge / peak


def require_tails(wf: WaveFunction1D | WaveFunction2D) -> None:
    """Raise ``TailLeakError`` unless the boundary stays below 1e-6 of the peak."""
    _check_tail_ratio(tail_ratio(wf))


def _check_tail_ratio(r: float) -> None:
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
    A real 2D state is transformed by ``rfft`` and its distribution mirrored,
    |ψ̃(−k)| = |ψ̃(k)|.
    """
    require_tails(wf)
    view = _axis_view(wf, particle)
    real_2d = isinstance(wf, WaveFunction2D) and not np.iscomplexobj(wf.amps)
    transform = np.fft.rfft if real_2d else np.fft.fft
    pk = _marginal(wf, view, lambda a: np.abs(transform(a, axis=view.axis)) ** 2, across=True)
    if real_2d:
        return _half_spectrum_moments(pk, view.grid, hbar)
    return _moments(hbar * wavenumbers(view.grid), pk, 1.0)


def _half_spectrum_moments(pk: np.ndarray, grid: GridSpec, hbar: float) -> Moments:
    """Momentum moments from the rfft half ``pk`` of a real state's
    distribution on ``grid``, mirrored for −k."""
    pk = np.concatenate([pk, pk[(grid.n_points - 1) // 2:0:-1]])
    return _moments(hbar * wavenumbers(grid), pk, 1.0)


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
    h, axis = view.grid.dy, view.axis
    total = _positive_total(float(_integral(wf, view)))
    p1 = _integral(wf, view, lambda a: np.conj(a) * (-1j * hbar) * _fd_first(a, h, axis), True)
    p2 = _integral(wf, view, lambda a: np.conj(a) * (-(hbar ** 2)) * _fd_second(a, h, axis), True)
    p1, p2 = float(np.real(p1) / total), float(np.real(p2) / total)
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
    Both raise ``ZeroNormError`` where Σλᵢ² is 0 or subnormal.
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


class EPWFWriter:
    """The one writer of an EPWF container: the header on opening, then rows
    widened to ``<c16`` through a buffer of at most _BLOCK_LINES rows that
    each ``write`` allocates.  As a context manager it closes the file, and
    removes it if the body raised or the close failed, reporting the error
    in flight; a header it cannot write removes it too.  So a file is whole
    or absent."""

    def __init__(self, path, grids: tuple[GridSpec, ...]):
        # A 1D state pads the second axis with n₂ = 0 and zero bounds.
        sizes = [g.n_points for g in grids] + [0]
        bounds = [b for g in grids for b in (g.y_min, g.y_max)] + [0.0, 0.0]
        header = _HEADER.pack(_MAGIC, _VERSION, *sizes[:2], *bounds[:4])
        self._path = Path(path)
        self._file = open(path, "wb")
        try:
            self._file.write(header)
        except BaseException as e:
            self.__exit__(type(e), e, e.__traceback__)
            raise

    def write(self, rows: np.ndarray) -> None:
        wide = np.empty((min(_BLOCK_LINES, len(rows)), rows.shape[1]), dtype=_WIDE)
        for lo in range(0, len(rows), _BLOCK_LINES):
            part = rows[lo:lo + _BLOCK_LINES]
            out = wide[:len(part)]
            out[...] = part
            self._file.write(out)

    def __enter__(self) -> "EPWFWriter":
        return self

    def __exit__(self, kind, *_) -> None:
        try:
            self._file.close()
        except OSError:
            self._path.unlink(missing_ok=True)
            if kind is None:  # else the error in flight is the one reported
                raise
        if kind is not None:
            self._path.unlink(missing_ok=True)


def save_wavefunction(wf: WaveFunction1D | WaveFunction2D | PairSource, path) -> None:
    """Write the EPWF container of a 1D or 2D state, or of a ``PairSource`` a
    block of its rows at a time with the built pair's bits, through one
    ``EPWFWriter``: whole, or, if the save fails, no file."""
    if isinstance(wf, (WaveFunction1D, WaveFunction2D)):
        grids, blocks = _axis_view(wf, 1).grids, [np.atleast_2d(wf.amps)]
    else:
        from .states import _row_blocks
        grids = (wf.grid1, wf.grid2)
        blocks = (a for _, a in _row_blocks(wf.recipe, wf.norm_tag))
    with EPWFWriter(path, grids) as writer:
        for rows in blocks:
            writer.write(rows)


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
        data = np.frombuffer(f.read(16 * count), dtype=_WIDE)
    if n2 == 0:
        return WaveFunction1D(grid=GridSpec(n1, y1_min, y1_max), amps=data)
    return WaveFunction2D(
        grid1=GridSpec(n1, y1_min, y1_max),
        grid2=GridSpec(n2, y2_min, y2_max),
        amps=data.reshape(n1, n2),
    )
