"""Builders for the entangled pair state and the Gaussian pointer.

The pair leaves the source in

    ψ(y₁, y₂) ∝ exp(−(y₁−y₂)² σ²/ħ²) · exp(−(y₁+y₂)²/16Ω₀²),

already integrated over the transverse momenta it was emitted with, so the
builder evaluates this amplitude directly on the tensor grid and normalizes.
``_fill_rows`` is the one producer of the pair's rows: it writes rows
lo..hi-1 into a buffer of the caller's.  On one grid shared by both axes,
y₁−y₂ depends only on i−j and y₁+y₂ only on i+j, so the pair factors as

    ψ(i, j) = T[i−j] · H[i+j],  T[m] = exp(−(m·dy)²σ²/ħ²),
                                H[s] = exp(−(2y_min + s·dy)²/16Ω₀²):

two tables of 2N−1 exponentials, which ``_factors`` builds once per recipe,
and a row block is one product of their sliding windows, N² multiplies
where the formula takes N² exponentials.  It differs from
``joint_amplitude``, which takes the nodes' own differences and sums, in
the last bits (5.1e-13 relative at most on the README source).  A recipe on
two grids does not factor: there the rows are ``joint_amplitude``'s own.
Either kernel is elementwise, so it gives any rows the bits of the whole
array.  ``_row_blocks`` yields its ``_blocks`` row blocks of about 2¹⁶
amplitudes into one reused buffer, and ``_pair_norm`` reads the norm from row
blocks as ``norm`` reads the built array, refusing one below NORM_FLOOR.
``build_joint_state`` hands it the blocks it fills into the N×N array, so the
build is one kernel pass.  ``run`` holds no such array: ``pair_source``
returns a ``PairSource``, whose norm and readout (particle 1's marginal,
particle 2's rfft momentum distribution and the tail ratio) come by the route
``_readout_route`` picks:

* the factor route reads them from the pair's pivoted-Cholesky factor (see
  below), in ``pair_source``, and makes no pass over the pair: it evaluates
  one row for each of the factor's k pivots and the two edge rows;
* the rows route, the factor route's oracle, takes the norm in one pass over
  the ``_row_blocks`` and the readout in a second, on first use, from the
  normalized blocks.  Past the row buffer it keeps a block for |ψ̃|² and one
  for the rfft; the rows become |ψ|² in place.  It keeps the bits of the
  ``WaveFunction2D`` readers on the built pair.

On one grid shared by both axes the pair is bitwise symmetric: T is even,
(−m·dy)² = (m·dy)² in IEEE arithmetic, and H depends on i+j alone; the
factor and both readouts' edge rows rely on it.  Particle 2's marginal is
particle 1's, by exchange symmetry, so the readout takes one;
``marginal_density(ψ, 2)`` agrees with it to rounding.  ``pair_spreads``
turns the readout into one Δy, for both particles, and Δp₂ as
``position_stats(ψ, 1)`` and ``momentum_std_spectral`` read them on the built
pair, raising as they do, in the order ``run`` called them.  The later
passes read the rows divided by the source's one norm:

* in coincidence mode, ``experiment.sample_joint`` fills its
  conditional-CDF table with ``PairSource.rows``, the rows lo..hi-1 of the
  normalized pair into a buffer of the caller's: for each ``_blocks`` block
  of y₁ cells that a draw lands in, the rows from its lowest drawn cell to
  its highest plus one;
* ``wavefunction.save_wavefunction`` writes the normalized ``_row_blocks``
  of a ``PairSource`` as they come: ``run``'s one pass over the pair, up to
  its save bound.

The ``WaveFunction2D`` readers stay the oracles of both readouts.

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
(y_min = −y_max) that is column n−1−j for column j, which leaves the
singular values alone.  There greedy pivoted Cholesky (Harbrecht, Peters &
Schneider, Appl. Numer. Math. 62(4), 2012) takes one kernel column per step,
row j or n−1−j of the bitwise symmetric pair from ``_fill_rows``, until the
remaining diagonal reaches rounding level: a k×N factor R with K = RᵀR, in
O(N·k²) work and N·k floats for a numerical rank k.  K's singular values
λₙ are those of the k×k Gram matrix G = R Rᵀ, so norm² = ‖K‖²_F = Σ λₙ² and
the Schmidt coefficients are λₙ/norm.  With a factor L of G, G = LᵀL, from
pivoted Cholesky of G in turn, the rows Wₙ of W = L R have WᵀW = Rᵀ G R = K²,
so, with K = √w ψ √w,

    marginal = Σₙ Wₙ² / (w · norm²),
    particle 2's spectrum = Σₙ |rfft(Wₙ/√w)|² / norm²

(for a < b over the reversed columns, which leave |rfft| of a real row
alone): k rffts where the rows take N.  The tail ratio divides the largest
entry of rows 0 and N−1 by the peak, which lies on the diagonal or the first
off-diagonal: for each i+j, T is largest at the smallest |i−j|.
``_factored`` forms the rows of W ``_BLOCK_LINES`` at a time, frees the
factor once it is read, and keeps the last recipe's norm, readout and
spectrum, so a run's source and its entropy share one factorization.

``_readout_route`` takes the factor where the pair has at most
``READOUT_MAX_MODES_PER_ROOT``·√N closed-form modes and a ≥ b or a symmetric
grid.  ``pair_entropy`` takes the pair's parameters and the one grid shared
by both axes, and ``_entropy_route`` picks its route, the one rule ``verify``
reads too: none above ``SCHMIDT_MAX_POINTS``; below it ``pair_schmidt``, the
factor's spectrum, where the pair has at most ``FACTORED_MAX_MODE_SHARE``·N
closed-form modes and a ≥ b or a symmetric grid, else the dense O(N³)
``wavefunction.schmidt``, the factored route's oracle, on the pair it
builds.  Both routes raise ``ZeroNormError`` for a vanishing kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytic import _pair_spectrum
from .errors import UnderResolvedError
from .params import (
    POINTER_MIN_POINTS_PER_WIDTH,
    GridSpec,
    MeasurementSpec,
    PhysicalParams,
)
from .wavefunction import (
    Moments,
    SchmidtSpectrum,
    WaveFunction1D,
    WaveFunction2D,
    _BLOCK_LINES,
    _above_floor,
    _block_lines,
    _blocks,
    _check_tail_ratio,
    _half_spectrum_moments,
    _moments,
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
# 2048 points, 110 modes, took 8.9-9.2 ms factored, its tables built each
# time, against 0.70-0.76 s dense (same host).
FACTORED_MAX_MODE_SHARE = 0.25
# The readout reads the pair's factor up to this many closed-form modes times
# √N.  The factor and rows readouts cost the same near 4.2 at 1024 points,
# 4.5-4.9 at 2048 and 4096, and 5.5 at 8192 (σ = Ω₀ swept, 2-core host,
# OpenBLAS); the README source at 2048 points, 113 pivots, took 17-21 ms
# factored, its entropy included, against 60 ms by rows and pair_schmidt.
READOUT_MAX_MODES_PER_ROOT = 4.0

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
    y1, y2 = np.asarray(y1, dtype=np.float64), np.asarray(y2, dtype=np.float64)
    # exp(-(y1-y2)²σ²/ħ² - (y1+y2)²/16Ω₀²) in place, into an array even for
    # 0-d inputs; -a - b == -(a + b) exactly in IEEE arithmetic.
    out = np.subtract(y1, y2, out=np.empty(np.broadcast_shapes(y1.shape, y2.shape)))
    out **= 2
    out *= params.sigma ** 2
    out /= params.hbar ** 2
    second = np.add(y1, y2)
    second **= 2
    second /= 16.0 * params.omega0 ** 2
    out += second
    np.negative(out, out=out)
    return np.exp(out, out=out)


# Every pass of a run reads one recipe's tables; the bound keeps a process
# that visits many pairs, as verify does, from holding all of theirs.
@lru_cache(maxsize=16)
def _factors(recipe: JointStateRecipe) -> tuple[np.ndarray, np.ndarray]:
    """T[i−j] and H[i+j] (module docstring) on one grid shared by both axes,
    as read-only views whose row i runs over the columns j."""
    g, p = recipe.grid1, recipe.params
    n = g.n_points
    # T's exponent takes joint_amplitude's steps in its order, so extreme σ
    # and ħ overflow or underflow as they do there.
    t = np.arange(1 - n, n) * g.dy
    t **= 2
    t *= p.sigma ** 2
    t /= p.hbar ** 2
    h = np.arange(2 * n - 1) * g.dy
    h += 2.0 * g.y_min
    h **= 2
    h /= 16.0 * p.omega0 ** 2
    # T is indexed from m = 1−n: row i reads T[i+n−1−j], its window reversed.
    return sliding_window_view(np.exp(-t), n)[:, ::-1], sliding_window_view(np.exp(-h), n)


def _fill_rows(recipe: JointStateRecipe, lo: int, hi: int, out: np.ndarray,
               norm: float | None = None) -> np.ndarray:
    """Rows lo..hi-1 of the pair into ``out``, divided by ``norm`` if given:
    the product T·H on one grid shared by both axes, else ``joint_amplitude``."""
    if recipe.grid1 == recipe.grid2:
        t, h = _factors(recipe)
        np.multiply(t[lo:hi], h[lo:hi], out=out)
    else:
        out[...] = joint_amplitude(grid_points(recipe.grid1)[lo:hi, None],
                                   grid_points(recipe.grid2), recipe.params)
    if norm is not None:
        out /= norm
    return out


def _lines(buffer: np.ndarray, lines: int, width: int) -> np.ndarray:
    """The head of a flat ``buffer`` as C-contiguous ``lines`` × ``width``."""
    return buffer[:lines * width].reshape(lines, width)


def _row_blocks(recipe: JointStateRecipe,
                norm: float | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """(slice, rows) of the pair for each ``_blocks`` row block, divided by
    ``norm`` if given, into one buffer that the next block reuses."""
    n1, n2 = recipe.grid1.n_points, recipe.grid2.n_points
    buffer = np.empty(_block_lines(n1, n2) * n2)
    for b in _blocks(n1, n2):
        yield b, _fill_rows(recipe, b.start, b.stop, _lines(buffer, b.stop - b.start, n2), norm)


def _pair_norm(recipe: JointStateRecipe, blocks: Iterable[tuple[slice, np.ndarray]]) -> float:
    """Norm of the unnormalized pair from its ``_blocks`` row blocks, read as
    ``norm`` reads the built array: |ψ|² of each block times w₂, then w₁
    over y₁.  ``ZeroNormError`` below NORM_FLOOR."""
    g1, g2 = recipe.grid1, recipe.grid2
    n1, n2 = g1.n_points, g2.n_points
    w2 = trap_weights(g2)
    dens = np.empty(_block_lines(n1, n2) * n2)
    marginal = np.empty(n1)
    for b, a in blocks:
        # The amplitudes are non-negative, so |ψ|² is their square.
        d = np.square(a, out=_lines(dens, b.stop - b.start, n2))
        np.matmul(d, w2, out=marginal[b])
    return _above_floor(float(np.sqrt(np.sum(trap_weights(g1) * marginal))))


def build_joint_state(recipe: JointStateRecipe) -> WaveFunction2D:
    """Materialize and normalize the pair state; real and non-negative.  Rows
    are filled a block at a time, the norm is read from each block as it is
    filled, and the array is divided in place: one N×N array."""
    amps = np.empty((recipe.grid1.n_points, recipe.grid2.n_points))
    n = _pair_norm(recipe, ((b, _fill_rows(recipe, b.start, b.stop, amps[b]))
                            for b in _blocks(*amps.shape)))
    amps /= n
    return WaveFunction2D(grid1=recipe.grid1, grid2=recipe.grid2, amps=amps, norm_tag=n)


class PairReadout(NamedTuple):
    """What the readout reads from the normalized source pair.  The pair is
    exchange-symmetric, so ``marginal`` is either particle's."""

    marginal: np.ndarray  # marginal_density(ψ, 1)
    spectrum2: np.ndarray  # particle 2's rfft momentum distribution, unscaled
    tail: float  # tail_ratio(ψ)


@dataclass(frozen=True)
class PairSource:
    """The normalized pair on one grid shared by both axes, computed a block
    of rows at a time from its recipe; ``build_joint_state(source.recipe)``
    materializes it, and ``save_wavefunction(source, path)`` saves it.
    ``pair_source`` makes one, its norm and, where the route takes the
    pair's factor, its readout read from that factor (module docstring)."""

    recipe: JointStateRecipe
    norm_tag: float
    factored: PairReadout | None = field(default=None, compare=False, repr=False)

    @property
    def grid1(self) -> GridSpec:
        return self.recipe.grid1

    @property
    def grid2(self) -> GridSpec:
        return self.recipe.grid2

    def rows(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows lo..hi-1 of the normalized pair, into ``out``."""
        return _fill_rows(self.recipe, lo, hi, out, self.norm_tag)

    @cached_property
    def readout(self) -> PairReadout:
        """The marginal, particle 2's momentum distribution and the tail
        ratio, read from the factor or else in one pass over the row blocks
        on first use (module docstring); read-only."""
        if self.factored is not None:
            return self.factored
        return _rows_readout(self)


def _frozen(r: PairReadout) -> PairReadout:
    for v in (r.marginal, r.spectrum2):
        v.flags.writeable = False
    return r


def _rows_readout(source: PairSource) -> PairReadout:
    """The readout from one pass over the normalized row blocks, with the
    bits of the ``WaveFunction2D`` readers on the built pair."""
    n = source.grid1.n_points
    w = trap_weights(source.grid1)
    half = n // 2 + 1
    size = _block_lines(n, n)
    # Past the rows' own buffer: a block of |ψ̃|², and the rows' rfft.
    scratch = np.empty(size * half)
    spectra = np.empty((size, half), dtype=np.complex128)
    part = np.empty(half)
    marginal, spectrum = np.empty(n), np.zeros(half)
    peak = edge = 0.0
    for b, a in _row_blocks(source.recipe, source.norm_tag):
        k = b.stop - b.start
        # The amplitudes are non-negative: |ψ| is ψ, and |ψ|² its square.
        # ψ is symmetric, so the first and last columns hold the first
        # and last rows too.
        peak = max(peak, float(a.max()))
        edge = max(edge, float(a[:, 0].max()), float(a[:, -1].max()))
        p = np.abs(np.fft.rfft(a, axis=1, out=spectra[:k]), out=_lines(scratch, k, half))
        p **= 2
        spectrum += np.matmul(w[b], p, out=part)
        # The rows are spent: they become |ψ|² in place.
        np.matmul(np.square(a, out=a), w, out=marginal[b])
    return _frozen(PairReadout(marginal, spectrum, edge / peak if peak else 0.0))


def _factor_readout(recipe: JointStateRecipe, r: np.ndarray, root: np.ndarray,
                    norm: float) -> PairReadout:
    """The readout from the factor R and a factor L of its Gram matrix: the
    rows of L R / √w, _BLOCK_LINES at a time, and the tail from two rows and
    the two diagonals where the peak lies (module docstring)."""
    n = recipe.grid1.n_points
    half = n // 2 + 1
    sw = np.sqrt(trap_weights(recipe.grid1))
    lines = min(_BLOCK_LINES, len(root))
    # One buffer holds a block of rows and then their |rfft|².
    buffer = np.empty(lines * n)
    spectra = np.empty((lines, half), dtype=np.complex128)
    marginal, spectrum = np.zeros(n), np.zeros(half)
    part, half_part = np.empty(n), np.empty(half)
    for lo in range(0, len(root), _BLOCK_LINES):
        m = len(root[lo:lo + _BLOCK_LINES])
        f = np.matmul(root[lo:lo + m], r, out=_lines(buffer, m, n))
        f /= sw
        np.fft.rfft(f, axis=1, out=spectra[:m])
        marginal += np.sum(np.square(f, out=f), axis=0, out=part)
        p = np.abs(spectra[:m], out=_lines(buffer, m, half))
        p **= 2
        spectrum += np.sum(p, axis=0, out=half_part)
    marginal /= norm ** 2
    spectrum /= norm ** 2
    t, h = _factors(recipe)
    i = np.arange(n)
    peak = max(float(np.max(t[i, i] * h[i, i])),
               float(np.max(t[i[:-1], i[1:]] * h[i[:-1], i[1:]], initial=0.0)))
    row = np.empty((1, n))
    edge = max(float(_fill_rows(recipe, j, j + 1, row).max()) for j in (0, n - 1))
    return _frozen(PairReadout(marginal, spectrum, edge / peak if peak else 0.0))


def _rows_source(recipe: JointStateRecipe) -> PairSource:
    """The source with its norm from one pass over its row blocks, read by
    the rows readout; ``ZeroNormError`` as in ``build_joint_state``."""
    return PairSource(recipe, _pair_norm(recipe, _row_blocks(recipe)))


def pair_source(params: PhysicalParams, grid: GridSpec) -> PairSource:
    """The source pair on ``grid`` × ``grid`` (``PairSource``): from its
    factor where ``_readout_route`` takes it, else from its row blocks;
    ``ZeroNormError`` as in ``build_joint_state``."""
    recipe = JointStateRecipe(params, grid, grid)
    if not _readout_route(params, grid):
        return _rows_source(recipe)
    f = _factored(recipe)
    return PairSource(recipe, f.norm, f.readout)


def pair_spreads(source: PairSource) -> tuple[Moments, float]:
    """Position moments of either particle of the exchange-symmetric pair
    and particle 2's spectral momentum spread, as ``position_stats(ψ, 1)``
    and ``momentum_std_spectral`` read them on the built pair and raising as
    they do, in that order."""
    r, g = source.readout, source.grid1
    st = _moments(grid_points(g), r.marginal, trap_weights(g))
    _check_tail_ratio(r.tail)
    return st, _half_spectrum_moments(r.spectrum2, g, source.recipe.params.hbar).std


def _pivoted_cholesky(diag: np.ndarray, column) -> np.ndarray:
    """Greedy pivoted Cholesky of a positive semidefinite n×n matrix A from
    its diagonal ``diag``, which it uses up, and ``column(p, out)``, which
    writes column p into ``out`` and returns it: the k×n factor R with
    A ≈ RᵀR, taken until no remaining diagonal entry exceeds _PIVOT_FLOOR·n
    of the largest initial one, in a buffer cut to its k rows in place."""
    n = len(diag)
    stop = _PIVOT_FLOOR * n * diag.max(initial=0.0)
    rows = np.empty((min(n, _FIRST_ROWS), n))
    k = 0
    while k < n:
        p = int(np.argmax(diag))
        if diag[p] <= stop:
            break
        if k == len(rows):
            rows = np.concatenate([rows, np.empty((min(k, n - k), n))])
        col = column(p, rows[k])
        col -= rows[:k, p] @ rows[:k]
        col /= math.sqrt(diag[p])
        diag -= col ** 2
        diag[p] = 0.0
        k += 1
    # No view of the buffer is used past here.
    rows.resize((k, n), refcheck=False)
    return rows


def _cholesky(recipe: JointStateRecipe) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair's k×N factor R, K = RᵀR, by pivoted Cholesky of its kernel,
    the singular values of its Gram matrix G = R Rᵀ, and the factor L of G,
    G = LᵀL, by pivoted Cholesky again (module docstring).

    Column p of K is row p of the pair, or row n−1−p with the columns
    reversed, and the diagonal the T·H product there.  The kernel must be
    positive semidefinite, so a ≥ b or a symmetric grid, as both routes
    ensure; elsewhere the factor is not the pair's.  G has its lower
    triangle filled a row at a time by matrix-vector products and mirrored,
    so no product as large as it leaves BLAS's buffers resident.
    """
    a, b = _pair_spectrum(recipe.params)
    nodes = np.arange(recipe.grid1.n_points)
    row_of = nodes[::-1] if a < b else nodes
    t, h = _factors(recipe)
    sw = np.sqrt(trap_weights(recipe.grid1))

    def kernel_column(p: int, out: np.ndarray) -> np.ndarray:
        col = _fill_rows(recipe, row_of[p], row_of[p] + 1, out[None])[0]
        col *= sw
        col *= sw[p]
        return col

    r = _pivoted_cholesky(sw * (t[nodes, row_of] * h[nodes, row_of]) * sw, kernel_column)
    k = len(r)
    gram = np.empty((k, k))
    for i in range(k):
        np.matmul(r[:i + 1], r[i], out=gram[i, :i + 1])
    upper = np.triu_indices(k, 1)
    gram[upper] = gram.T[upper]

    def gram_column(p: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, gram[p])
        return out

    return (r, np.linalg.svd(gram, compute_uv=False),
            _pivoted_cholesky(gram.diagonal().copy(), gram_column))


class _Factored(NamedTuple):
    """What the pair's factor gives: its norm, its readout and its Schmidt
    spectrum (module docstring)."""

    norm: float
    readout: PairReadout
    schmidt: SchmidtSpectrum


# The last recipe's is kept, so a run's source and its entropy read one
# factorization; the factor itself is freed once it is read.
@lru_cache(maxsize=1)
def _factored(recipe: JointStateRecipe) -> _Factored:
    """The norm, readout and Schmidt spectrum from the pair's factor;
    ``ZeroNormError`` below NORM_FLOOR, as in ``build_joint_state``."""
    r, s, root = _cholesky(recipe)
    norm = _above_floor(float(np.sqrt(np.sum(s ** 2))))
    return _Factored(norm, _factor_readout(recipe, r, root, norm), _schmidt_tail(s / norm))


def pair_schmidt(params: PhysicalParams, grid: GridSpec) -> SchmidtSpectrum:
    """Schmidt spectrum of the source pair on ``grid`` × ``grid`` from its
    factor (module docstring), normalized as that of the built, normalized
    pair; ``ZeroNormError`` where the build raises it."""
    return _factored(JointStateRecipe(params, grid, grid)).schmidt


def _factorable(ex, grid: GridSpec) -> bool:
    """Whether the pair's kernel is positive semidefinite on ``grid``, as
    pivoted Cholesky needs: a ≥ b, or a symmetric grid."""
    return ex.a >= ex.b or grid.y_min == -grid.y_max


def _readout_route(params: PhysicalParams, grid: GridSpec) -> bool:
    """Whether ``pair_source`` reads the pair from its factor (module
    docstring): at most ``READOUT_MAX_MODES_PER_ROOT``·√N closed-form modes,
    on a kernel the factor holds."""
    ex = _pair_spectrum(params)
    return (ex.modes <= READOUT_MAX_MODES_PER_ROOT * math.sqrt(grid.n_points)
            and _factorable(ex, grid))


def _entropy_route(params: PhysicalParams, grid: GridSpec) -> str | None:
    """``pair_entropy``'s route (module docstring): "factored", "dense" or None."""
    if grid.n_points > SCHMIDT_MAX_POINTS:
        return None
    ex = _pair_spectrum(params)
    factored = ex.modes <= FACTORED_MAX_MODE_SHARE * grid.n_points and _factorable(ex, grid)
    return "factored" if factored else "dense"


def pair_entropy(params: PhysicalParams, grid: GridSpec) -> float | None:
    """Schmidt entropy of the source pair on ``grid`` × ``grid`` by the route
    the module docstring describes; ``None`` above ``SCHMIDT_MAX_POINTS``."""
    route = _entropy_route(params, grid)
    if route == "dense":
        return schmidt(build_joint_state(JointStateRecipe(params, grid, grid))).entropy
    return pair_schmidt(params, grid).entropy if route else None


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
