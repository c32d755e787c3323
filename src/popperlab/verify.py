"""Self-verification suite: every closed form against its grid oracle.

``run_checks`` is the one implementation of acceptance criteria 1-10; each
row names the criterion it belongs to, rows come back sorted by it, and the
acceptance gate (``tests/test_acceptance.py``) runs the ``full`` level and
asserts on its rows.  ``quick`` keeps grids at 512 points and a tame
parameter box so it finishes in seconds.  ``full`` takes the gate's inputs:
100 reduction triples and 20 initial-spread pairs drawn log-uniformly from
[0.1, 10] at ħ = 1, on grids up to 4096 points.  One pass over the triples
writes the sweep's rows of criteria 1, 3 and 7.  Every reduction is the dense
``conditional_reduce`` of the pair state its site builds; ``reduce_pair``, the
route ``run`` and ``sweep`` take, is checked against it at every sweep triple.
A site frees its pair before it builds the next.  Criterion 2 reads its spreads
as ``run`` does, from ``pair_spreads``; on the pairs where ``pair_source``
reads the pair's factor, it checks that readout and its spreads against the
rows route's, their oracle.  It checks the Schmidt entropy on the
pairs where ``states.pair_entropy``, the route ``run`` takes, reports one,
running each route once: the entropy of the route ``states._entropy_route``
names against the closed form, and the factored route against the dense one,
its oracle, and the paper's invariant on the factored route's coefficients: the
Schmidt number K = 1/Σλᵢ⁴ equals 2Δy₂Δp₂/ħ, so a slit that localizes particle 2
to Δy₂/K leaves it the initial Δp₂.  Where a bound could be read as absolute or
relative, the row takes the larger deviation.  Each row reports expectation,
observation and tolerance so a failure is directly actionable.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import (
    _pair_spectrum,
    approx_dp2_strong_correlation,
    initial_spreads,
    position_correlation,
    reduced_spreads,
)
from .evolution import EvolutionParams, free_propagate, gaussian_width_at
from .experiment import (
    chi_square_against_density,
    histogram,
    sample_joint,
    sample_positions,
)
from .measurement import ReductionResult, conditional_reduce, reduce_pair
from .params import (
    DetectorGeometry,
    GridSpec,
    MeasurementSpec,
    PhysicalParams,
    auto_grid,
)
from .rng import Xoshiro256StarStar
from .states import (
    JointStateRecipe,
    PairSource,
    _entropy_route,
    _rows_source,
    build_joint_state,
    build_pointer_state,
    pair_schmidt,
    pair_source,
    pair_spreads,
)
from .wavefunction import (
    marginal_density,
    momentum_std_derivative,
    momentum_std_spectral,
    normalize,
    position_stats,
    schmidt,
    WaveFunction1D,
    WaveFunction2D,
)

# streams of the reduction-sweep triples and of the initial-spread pairs
SWEEP_SEED = 0x5EED0F00
PAIR_SEED = 0x5EED0F02
N_SAMPLES = 100_000
# σ on the factorization line Ω₀ = ħ/4σ, where the pair is a product state
_LINE_SIGMAS = (0.3, 0.7, 1.0, 2.2, 5.0)


@dataclass(frozen=True, slots=True)
class CheckRow:
    criterion: int
    name: str
    expected: str
    actual: str
    tolerance: str
    passed: bool


@dataclass(frozen=True, slots=True)
class _Level:
    n_triples: int
    n_pairs: int
    box: tuple[float, float]
    max_points: int


_LEVELS = {
    "quick": _Level(n_triples=20, n_pairs=8, box=(0.3, 3.0), max_points=512),
    "full": _Level(n_triples=100, n_pairs=20, box=(0.1, 10.0), max_points=4096),
}


def _log_uniform(gen: Xoshiro256StarStar, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** gen.random()


def _bound_row(criterion: int, name: str, actual: float, tol: float,
               expected: str = "0") -> CheckRow:
    return CheckRow(criterion=criterion, name=name, expected=expected,
                    actual=f"{actual:.3e}", tolerance=f"{tol:g}", passed=actual < tol)


def _floor_row(criterion: int, name: str, actual: float, floor: float) -> CheckRow:
    return CheckRow(criterion=criterion, name=name, expected=f"> {floor:g}",
                    actual=f"{actual:.3e}", tolerance="strict", passed=actual > floor)


def _abs_rel(value: float, ref: float) -> float:
    """The larger of the absolute and the relative deviation of ``value``."""
    dev = abs(value - ref)
    return max(dev, dev / abs(ref))


def _reduce(params: PhysicalParams, ms: MeasurementSpec, grid: GridSpec,
            read: Callable) -> tuple[object, WaveFunction1D, ReductionResult]:
    """``read`` of the pair on ``grid``, freed on return, the pointer and the reduction."""
    psi = build_joint_state(JointStateRecipe(params, grid, grid))
    phi1 = build_pointer_state(ms, grid)
    return read(psi), phi1, conditional_reduce(psi, phi1, params, ms.epsilon)


def _check_sweep(level: _Level) -> list[CheckRow]:
    """Criteria 1, 3 and 7 over the seeded (σ, Ω₀, ε) triples, in one pass."""
    gen = Xoshiro256StarStar(SWEEP_SEED)
    lo, hi = level.box
    biggest = 0
    dev = route_dev = dev_closed = dev_grid = 0.0
    worst, gap = -math.inf, math.inf
    t0 = time.perf_counter()
    for _ in range(level.n_triples):
        params = PhysicalParams(sigma=_log_uniform(gen, lo, hi),
                                omega0=_log_uniform(gen, lo, hi))
        ms = MeasurementSpec(epsilon=_log_uniform(gen, lo, hi))
        grid = auto_grid(params, ms, max_points=level.max_points)
        dp2_init, phi1, red = _reduce(params, ms, grid, partial(momentum_std_spectral, particle=2))
        conv = reduce_pair(phi1, params, ms.epsilon)
        biggest = max(biggest, grid.n_points)
        dev = max(dev,
                  abs(red.dy2_numeric - red.dy2_closed) / red.dy2_closed,
                  abs(red.dp2_numeric - red.dp2_closed) / red.dp2_closed)
        route_dev = max(
            route_dev,
            float(np.max(np.abs(conv.phi2.amps - red.phi2.amps)))
            / float(np.max(np.abs(red.phi2.amps))),
            abs(conv.dy2_numeric - red.dy2_numeric) / red.dy2_numeric,
            abs(conv.dp2_numeric - red.dp2_numeric) / red.dp2_numeric)
        worst = max(worst, red.dp2_numeric - dp2_init)
        # Clearly off the line Ω₀ = ħ/4σ the remote spread must strictly narrow.
        if abs(params.omega0 - 0.25 / params.sigma) > 0.05 * params.omega0:
            gap = min(gap, dp2_init - red.dp2_numeric)
        half_hbar = 0.5 * params.hbar
        dev_closed = max(dev_closed,
                         abs(red.dy2_closed * red.dp2_closed - half_hbar) / half_hbar)
        dev_grid = max(dev_grid,
                       abs(red.dy2_numeric * red.dp2_numeric - half_hbar) / half_hbar)
    elapsed = time.perf_counter() - t0
    return [
        _bound_row(1, "reduced spreads: closed form vs grid (max rel dev)", dev, 1e-6),
        CheckRow(criterion=1, name="reduction sweep: largest grid, wall time",
                 expected=f"<= {level.max_points}, < 300 s",
                 actual=f"{biggest}, {elapsed:.1f} s", tolerance="-",
                 passed=biggest <= level.max_points and elapsed < 300.0),
        _bound_row(1, "reduce_pair route agreement with the dense reduction (max dev)",
                   route_dev, 1e-13),
        _bound_row(3, "remote momentum never exceeds initial (numeric)", worst, 1e-8,
                   expected="<= 0"),
        _floor_row(3, "off-line triples narrow strictly (min gap)", gap, 1e-9),
        _bound_row(7, "reduced state is minimum-uncertainty (closed)", dev_closed, 1e-9),
        _bound_row(7, "reduced state is minimum-uncertainty (grid)", dev_grid, 1e-6),
    ]


def _readout_dev(factor: PairSource, rows: PairSource) -> float:
    """The largest relative deviation of the factor route's readout and
    spreads from the rows route's: the arrays against their peaks."""
    (st, dp2), (ref_st, ref_dp2) = pair_spreads(factor), pair_spreads(rows)
    a, b = factor.readout, rows.readout
    return max(*(float(np.max(np.abs(x - y))) / float(np.max(y))
                 for x, y in ((a.marginal, b.marginal), (a.spectrum2, b.spectrum2))),
               abs(st.std - ref_st.std) / ref_st.std, abs(dp2 - ref_dp2) / ref_dp2,
               abs(a.tail - b.tail) / b.tail)


def _check_initial_closed_vs_grid(level: _Level) -> list[CheckRow]:
    """Criterion 2 over the seeded (σ, Ω₀) pairs: spreads, and the Schmidt
    entropy and number on the grids ``run`` takes the entropy on."""
    gen = Xoshiro256StarStar(PAIR_SEED)
    lo, hi = level.box
    dev = readout_dev = entropy_dev = route_dev = number_dev = 0.0
    for _ in range(level.n_pairs):
        params = PhysicalParams(sigma=_log_uniform(gen, lo, hi),
                                omega0=_log_uniform(gen, lo, hi))
        grid = auto_grid(params, max_points=level.max_points)
        source = pair_source(params, grid)
        st, dp2 = pair_spreads(source)
        ref = initial_spreads(params)
        dev = max(dev, abs(st.std - ref.dy2) / ref.dy2, abs(dp2 - ref.dp2y) / ref.dp2y)
        if source.factored is not None:
            readout_dev = max(readout_dev, _readout_dev(source, _rows_source(source.recipe)))
        route = _entropy_route(params, grid)
        if route is not None:
            closed = _pair_spectrum(params).entropy
            dense = schmidt(build_joint_state(JointStateRecipe(params, grid, grid))).entropy
            factored = pair_schmidt(params, grid)
            routed = factored.entropy if route == "factored" else dense
            entropy_dev = max(entropy_dev, abs(routed - closed) / closed)
            route_dev = max(route_dev, abs(factored.entropy - dense) / dense)
            number = 1.0 / float(np.sum(factored.coefficients ** 4))
            ratio = 2.0 * ref.dy2 * ref.dp2y / params.hbar
            number_dev = max(number_dev, abs(number - ratio) / ratio)
    return [
        _bound_row(2, "initial spreads: closed form vs grid (max rel dev)", dev, 1e-6),
        _bound_row(2, "Pair readout: factor vs rows route (max rel dev)", readout_dev, 1e-13),
        _bound_row(2, "Schmidt entropy: closed form vs grid (max rel dev)", entropy_dev, 1e-12),
        _bound_row(2, "Schmidt entropy: factored vs dense route (max rel dev)", route_dev, 1e-13),
        _bound_row(2, "Schmidt number: grid vs closed form 2 dy2 dp2 / hbar (max rel dev)",
                   number_dev, 1e-12),
    ]


def _check_factorization_line(level: _Level) -> list[CheckRow]:
    dev = 0.0
    for sigma in _LINE_SIGMAS:
        params = PhysicalParams(sigma=sigma, omega0=0.25 / sigma)
        ms = MeasurementSpec(epsilon=0.4)
        grid = auto_grid(params, ms, max_points=level.max_points)
        dp2_init, _, red = _reduce(params, ms, grid, partial(momentum_std_spectral, particle=2))
        dev = max(dev,
                  _abs_rel(red.dp2_numeric, dp2_init),
                  _abs_rel(red.dp2_closed, initial_spreads(params).dp2y))
    return [_bound_row(3, "equality on the factorization line (max abs/rel dev)", dev, 1e-9)]


def _check_fixed_point(level: _Level) -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=0.25)
    ms = MeasurementSpec(epsilon=0.3)
    grid = auto_grid(params, ms, max_points=level.max_points)
    (entropy, marginal), _, red = _reduce(
        params, ms, grid, lambda psi: (schmidt(psi).entropy, marginal_density(psi, 2)))
    closed = reduced_spreads(params, ms.epsilon)
    root2 = math.sqrt(2.0)
    dev = max(_abs_rel(initial_spreads(params).dp2y, root2),
              _abs_rel(closed.dp2y, root2),
              _abs_rel(closed.dy2, 0.5 / root2))
    rows = [_bound_row(4, "factorization point: initial and closed spreads vs sqrt(2), "
                          "1/2sqrt(2)", dev, 1e-9)]
    rows.append(_bound_row(4, "factorization point: entanglement entropy", entropy, 1e-6))
    marg = normalize(WaveFunction1D(grid=grid, amps=np.sqrt(marginal)))
    ref = np.abs(marg.amps)
    dev = float(np.max(np.abs(np.abs(red.phi2.amps) - ref)))
    rows.append(_bound_row(4, "factorization point: reduction leaves marginal unchanged",
                           max(dev, dev / float(np.max(ref))), 1e-8))
    return rows


def _check_eps_to_zero() -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    limit = initial_spreads(params).dp2y
    val = reduced_spreads(params, 1e-3).dp2y
    return [_bound_row(5, "vanishing slit width recovers initial momentum spread",
                       abs(val - limit) / limit, 1e-5)]


def _check_strong_correlation() -> list[CheckRow]:
    params = PhysicalParams(sigma=10.0, omega0=10.0)
    exact = reduced_spreads(params, 0.1).dp2y
    approx = approx_dp2_strong_correlation(params, 0.1).value
    seq = [reduced_spreads(params, e).dp2y for e in (0.2, 0.1, 0.05)]
    return [
        _bound_row(6, "strong-correlation approximation vs 4.472136 (abs dev)",
                   abs(approx - 4.472136), 5e-7, expected="4.472136"),
        _bound_row(6, "strong-correlation approximation vs exact (rel dev)",
                   abs(approx - exact) / exact, 1e-3),
        _floor_row(6, "remote spread grows as the slit narrows",
                   min(b - a for a, b in zip(seq, seq[1:])), 0.0),
    ]


def _check_evolution() -> list[CheckRow]:
    w0 = 0.5 / math.sqrt(2.0)
    # widest evolved packet is ~2.85, so +-24 keeps 8.4 widths of margin
    grid = GridSpec(n_points=1024, y_min=-24.0, y_max=24.0)
    packet = build_pointer_state(MeasurementSpec(epsilon=w0), grid)
    dev_w = 0.0
    dev_p = 0.0
    p0 = momentum_std_spectral(packet)
    for t in (0.5, 1.0, 2.0):
        ep = EvolutionParams(time=t)
        moved = free_propagate(packet, ep)
        predicted = gaussian_width_at(w0, ep)
        dev_w = max(dev_w, abs(position_stats(moved).std - predicted) / predicted)
        dev_p = max(dev_p, abs(momentum_std_spectral(moved) - p0) / p0)
    return [
        _bound_row(8, "free flight follows the Gaussian spreading law", dev_w, 1e-4),
        _bound_row(8, "free flight preserves the momentum spread", dev_p, 1e-10),
    ]


def _check_sampling(level: _Level) -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    ms = MeasurementSpec(epsilon=0.5)
    grid = auto_grid(params, ms, max_points=max(level.max_points, 1024))
    pairs, _, red = _reduce(params, ms, grid,
                            lambda psi: sample_joint(psi, N_SAMPLES, seed=20260815))
    samples = sample_positions(red.phi2, N_SAMPLES, seed=20260814)
    grid_std = position_stats(red.phi2).std
    rows = [_bound_row(9, "sampled detector spread vs grid spread (rel dev)",
                       abs(float(np.std(samples)) - grid_std) / grid_std, 0.01)]
    hist = histogram(samples, DetectorGeometry(n_bins=64, y_range=(-3.0, 3.0)))
    _, _, pvalue = chi_square_against_density(hist, grid, np.abs(red.phi2.amps) ** 2)
    rows.append(CheckRow(
        criterion=9, name="sampled histogram chi-square p-value",
        expected=">= 0.001", actual=f"{pvalue:.4f}", tolerance="0.001",
        passed=pvalue >= 0.001,
    ))
    corr = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
    expected = position_correlation(params)
    rows.append(_bound_row(9, "coincidence correlation vs closed form (abs dev)",
                           abs(corr - expected), 0.01, expected=f"{expected:.6f}"))
    return rows


def _check_convergence(level: _Level) -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    ms = MeasurementSpec(epsilon=0.5)
    base = auto_grid(params, ms, max_points=max(level.max_points, 512))
    fine = GridSpec(n_points=base.n_points * 2, y_min=base.y_min, y_max=base.y_max)

    def spreads(psi: WaveFunction2D) -> tuple[float, float]:
        return position_stats(psi, 2).std, momentum_std_spectral(psi, particle=2)

    ((dy2, dp2_spectral), dp2_derivative), _, red = _reduce(
        params, ms, base, lambda psi: (spreads(psi), momentum_std_derivative(psi, particle=2)))
    fine_spreads, _, fine_red = _reduce(params, ms, fine, spreads)
    drift = max(abs(a - b) / min(abs(a), abs(b)) for a, b in zip(
        (dy2, dp2_spectral, red.dy2_numeric, red.dp2_numeric),
        (*fine_spreads, fine_red.dy2_numeric, fine_red.dp2_numeric)))
    rows = [_bound_row(10, "doubling the resolution leaves spreads fixed (rel)",
                       drift, 1e-6)]
    dev = max(
        abs(dp2_derivative - dp2_spectral) / dp2_spectral,
        abs(momentum_std_derivative(red.phi2) - momentum_std_spectral(red.phi2))
        / momentum_std_spectral(red.phi2),
    )
    rows.append(_bound_row(10, "spectral and finite-difference momentum agree", dev, 1e-4))
    return rows


def run_checks(level: str = "quick") -> list[CheckRow]:
    """Run the verification battery; returns one row per check."""
    if level not in _LEVELS:
        raise ValueError("level must be 'quick' or 'full'")
    cfg = _LEVELS[level]
    rows = _check_sweep(cfg)
    rows += _check_initial_closed_vs_grid(cfg)
    rows += _check_factorization_line(cfg)
    rows += _check_fixed_point(cfg)
    rows += _check_eps_to_zero()
    rows += _check_strong_correlation()
    rows += _check_evolution()
    rows += _check_sampling(cfg)
    rows += _check_convergence(cfg)
    return sorted(rows, key=lambda r: r.criterion)


def format_table(rows: list[CheckRow]) -> str:
    name_w = max(len(r.name) for r in rows)
    exp_w = max(len("expected"), max(len(r.expected) for r in rows))
    act_w = max(len("actual"), max(len(r.actual) for r in rows))
    tol_w = max(len("tol"), max(len(r.tolerance) for r in rows))
    lines = [
        f"{'check':<{name_w}}  {'expected':>{exp_w}}  {'actual':>{act_w}}  "
        f"{'tol':>{tol_w}}  status"
    ]
    lines.append("-" * len(lines[0]))
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{name_w}}  {r.expected:>{exp_w}}  {r.actual:>{act_w}}  "
            f"{r.tolerance:>{tol_w}}  {status}"
        )
    return "\n".join(lines)
