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
build is one kernel pass.  ``run`` holds no such array: ``pair_source`` takes
the norm from ``_row_blocks`` and returns a ``PairSource``, whose rows are the
built array's bits.  A run makes two passes, a coincidence run a third,
and ``run`` a last one to save ``joint.wf``, up to its save bound:

* the norm pass (``pair_source``);
* the readout pass (``PairSource.readout``) takes both marginals, particle
  2's rfft momentum distribution and the tail ratio from the normalized
  ``_row_blocks``.  Past the row buffer it keeps a block for |ψ̃|² and then
  the transposed |ψ|², and one for the rfft; the rows become |ψ|² in
  place.  On one grid shared by both axes the pair is bitwise symmetric:
  T is even, (−m·dy)² = (m·dy)² in IEEE arithmetic, and H depends on i+j
  alone.  So a row block's transpose, laid out C-contiguous, is the column
  block ``marginal_density(ψ, 2)`` reads, and the same matrix-vector product
  gives its bits.  ``pair_spreads`` turns the readout into Δy₁, Δy₂ and Δp₂
  with the bits of ``position_stats`` and ``momentum_std_spectral`` on the
  built pair, raising as they do, in the order ``run`` called them;
* in coincidence mode, ``experiment.sample_joint`` fills its
  conditional-CDF table with ``PairSource.rows``, the rows lo..hi-1 of the
  normalized pair into a buffer of the caller's: for each ``_blocks`` block
  of y₁ cells that a draw lands in, its rows and the next one;
* ``wavefunction.save_wavefunction`` writes the normalized ``_row_blocks``
  of a ``PairSource`` as they come.

The ``WaveFunction2D`` readers stay the oracles of the readout.

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
singular values alone.  There ``pair_schmidt`` runs greedy pivoted Cholesky
(Harbrecht, Peters & Schneider, Appl. Numer. Math. 62(4), 2012): it takes
one kernel column per step, row j or n−1−j of the bitwise symmetric pair
from ``_fill_rows``, until the remaining diagonal reaches rounding level,
and the Schmidt coefficients are the squared singular values of the k×N
factor R, which are the singular values of the k×k Gram matrix R Rᵀ:
O(N·k²) work and N·k floats for a numerical rank k.

``pair_entropy`` takes the pair's parameters and the one grid shared by both
axes, and ``_entropy_route`` picks its route, the one rule ``verify`` reads
too: none above ``SCHMIDT_MAX_POINTS``; below it ``pair_schmidt`` where the
pair has at most ``FACTORED_MAX_MODE_SHARE``·N closed-form modes and a ≥ b
or a symmetric grid, else the dense O(N³) ``wavefunction.schmidt``, the
factored route's oracle, on the pair it builds.  Both routes raise
``ZeroNormError`` for a vanishing kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
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
    _above_floor,
    _block_lines,
    _blocks,
    _check_tail_ratio,
    _half_spectrum_moments,
    _moments,
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
# 2048 points, 110 modes, took 8.9-9.2 ms factored, its tables built each
# time, against 0.70-0.76 s dense (same host).
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
    """What one pass over the normalized source pair reads, each with the
    bits of its ``WaveFunction2D`` reader on the built pair."""

    marginal1: np.ndarray  # marginal_density(ψ, 1)
    marginal2: np.ndarray  # marginal_density(ψ, 2)
    spectrum2: np.ndarray  # particle 2's rfft momentum distribution, unscaled
    tail: float  # tail_ratio(ψ)


@dataclass(frozen=True)
class PairSource:
    """The normalized pair on one grid shared by both axes, computed a block
    of rows at a time from its recipe with ``build_joint_state``'s bits;
    ``build_joint_state(source.recipe)`` materializes it, and
    ``save_wavefunction(source, path)`` saves it.  ``pair_source`` makes one."""

    recipe: JointStateRecipe
    norm_tag: float

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
        """The marginals, particle 2's momentum distribution and the tail
        ratio from one pass over the row blocks (module docstring), taken
        on first use and kept read-only."""
        n = self.grid1.n_points
        w = trap_weights(self.grid1)
        half = n // 2 + 1
        size = _block_lines(n, n)
        # Past the rows' own buffer, two blocks: |ψ̃|², then the transposed
        # |ψ|²; the rows' rfft.
        scratch = np.empty(size * n)
        spectra = np.empty((size, half), dtype=np.complex128)
        part = np.empty(half)
        marginal1, marginal2, spectrum = np.empty(n), np.empty(n), np.zeros(half)
        peak = edge = 0.0
        for b, a in _row_blocks(self.recipe, self.norm_tag):
            k = b.stop - b.start
            # The amplitudes are non-negative: |ψ| is ψ, and |ψ|² its square.
            # ψ is symmetric, so the first and last columns hold the first
            # and last rows too, and the rows' transpose, laid out
            # C-contiguous, is the column block marginal_density(ψ, 2) reads.
            peak = max(peak, float(a.max()))
            edge = max(edge, float(a[:, 0].max()), float(a[:, -1].max()))
            p = np.abs(np.fft.rfft(a, axis=1, out=spectra[:k]), out=_lines(scratch, k, half))
            p **= 2
            spectrum += np.matmul(w[b], p, out=part)
            # The rows are spent: they become |ψ|² in place.
            np.matmul(np.square(a, out=a), w, out=marginal1[b])
            t = _lines(scratch, n, k)
            t[...] = a.T
            np.matmul(w, t, out=marginal2[b])
        for v in (marginal1, marginal2, spectrum):
            v.flags.writeable = False
        return PairReadout(marginal1, marginal2, spectrum, edge / peak if peak else 0.0)


def pair_source(params: PhysicalParams, grid: GridSpec) -> PairSource:
    """The source pair on ``grid`` × ``grid`` (``PairSource``), its norm
    taken in one pass; ``ZeroNormError`` as in ``build_joint_state``."""
    recipe = JointStateRecipe(params, grid, grid)
    return PairSource(recipe, _pair_norm(recipe, _row_blocks(recipe)))


def pair_spreads(source: PairSource) -> tuple[Moments, Moments, float]:
    """Position moments of particles 1 and 2 and particle 2's spectral
    momentum spread, equal to ``position_stats`` and ``momentum_std_spectral``
    on the built pair and raising as they do, in that order."""
    r, g = source.readout, source.grid1
    y, w = grid_points(g), trap_weights(g)
    st1, st2 = _moments(y, r.marginal1, w), _moments(y, r.marginal2, w)
    _check_tail_ratio(r.tail)
    return st1, st2, _half_spectrum_moments(r.spectrum2, g, source.recipe.params.hbar).std


def pair_schmidt(params: PhysicalParams, grid: GridSpec) -> SchmidtSpectrum:
    """Schmidt spectrum of the source pair on ``grid`` × ``grid`` by pivoted
    Cholesky of its kernel.

    Column p is row p of the pair, or row n−1−p with the columns reversed,
    and the diagonal the T·H product there; see the module docstring.  The
    coefficients are the singular values of the k×k Gram matrix R Rᵀ of the
    k×N factor R, which are those of R squared; its lower triangle is filled
    a row at a time by matrix-vector products and mirrored, so no
    matrix-matrix product leaves BLAS's buffers resident.  They are
    normalized as those of the built, normalized pair.  The kernel must be
    positive semidefinite, so a ≥ b or a symmetric grid, as ``pair_entropy``
    ensures; elsewhere the result is not the pair's spectrum.
    """
    a, b = _pair_spectrum(params)
    recipe = JointStateRecipe(params, grid, grid)
    n = grid.n_points
    nodes = np.arange(n)
    row_of = nodes[::-1] if a < b else nodes
    t, h = _factors(recipe)
    sw = np.sqrt(trap_weights(grid))
    diag = sw * (t[nodes, row_of] * h[nodes, row_of]) * sw
    stop = _PIVOT_FLOOR * n * diag.max()
    rows = np.empty((min(n, _FIRST_ROWS), n))
    k = 0
    while k < n:
        p = int(np.argmax(diag))
        if diag[p] <= stop:
            break
        if k == len(rows):
            rows = np.concatenate([rows, np.empty((min(k, n - k), n))])
        col = _fill_rows(recipe, row_of[p], row_of[p] + 1, rows[k:k + 1])[0]
        col *= sw
        col *= sw[p]
        col -= rows[:k, p] @ rows[:k]
        col /= math.sqrt(diag[p])
        diag -= col ** 2
        diag[p] = 0.0
        k += 1
    r = rows[:k]
    gram = np.empty((k, k))
    for i in range(k):
        np.matmul(r[:i + 1], r[i], out=gram[i, :i + 1])
    upper = np.triu_indices(k, 1)
    gram[upper] = gram.T[upper]
    s = np.linalg.svd(gram, compute_uv=False)
    return _schmidt_tail(s / math.sqrt(_positive_total(np.sum(s ** 2))))


def _entropy_route(params: PhysicalParams, grid: GridSpec) -> str | None:
    """``pair_entropy``'s route (module docstring): "factored", "dense" or None."""
    if grid.n_points > SCHMIDT_MAX_POINTS:
        return None
    ex = _pair_spectrum(params)
    factored = (ex.modes <= FACTORED_MAX_MODE_SHARE * grid.n_points
                and (ex.a >= ex.b or grid.y_min == -grid.y_max))
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
