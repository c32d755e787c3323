"""Self-verification suite: every closed form against its grid oracle.

``run_checks`` exercises the same cross-checks the test suite pins, at two
effort levels: ``quick`` keeps grids at 512 points and a tame parameter box
so it finishes in seconds; ``full`` sweeps the wide parameter box on grids up
to 4096 points.  Each check reports expectation, observation and tolerance so
a failure is directly actionable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    approx_dp2_strong_correlation,
    initial_spreads,
    reduced_spreads,
)
from .errors import CapExceededError
from .evolution import EvolutionParams, free_propagate, gaussian_width_at
from .experiment import (
    chi_square_against_density,
    histogram,
    sample_joint,
    sample_positions,
)
from .measurement import ReductionResult, reduce_pair
from .params import (
    DetectorGeometry,
    GridSpec,
    MeasurementSpec,
    PhysicalParams,
    auto_grid,
)
from .rng import Xoshiro256StarStar
from .states import JointStateRecipe, build_joint_state, build_pointer_state
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

# seed for the deterministic parameter sweeps below
_PARAM_SEED = 0x5EED0F00


@dataclass(frozen=True, slots=True)
class CheckRow:
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
    n_samples: int


_LEVELS = {
    "quick": _Level(n_triples=20, n_pairs=8, box=(0.3, 3.0), max_points=512,
                    n_samples=100_000),
    "full": _Level(n_triples=100, n_pairs=20, box=(0.1, 10.0), max_points=4096,
                   n_samples=100_000),
}


def _log_uniform(gen: Xoshiro256StarStar, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** gen.random()


def _bound_row(name: str, actual: float, tol: float, expected: str = "0") -> CheckRow:
    return CheckRow(name=name, expected=expected, actual=f"{actual:.3e}",
                    tolerance=f"{tol:g}", passed=actual <= tol)


def _pair_and_reduction(params: PhysicalParams, ms: MeasurementSpec,
                        grid: GridSpec) -> tuple[WaveFunction2D, ReductionResult]:
    """The dense pair on ``grid`` and, by convolution, its reduction behind ``ms``."""
    psi = build_joint_state(JointStateRecipe(params, grid, grid))
    return psi, reduce_pair(build_pointer_state(ms, grid), params, ms.epsilon)


def _reduction_sweep(level: _Level) -> list[dict]:
    gen = Xoshiro256StarStar(_PARAM_SEED)
    lo, hi = level.box
    rows = []
    for _ in range(level.n_triples):
        params = PhysicalParams(sigma=_log_uniform(gen, lo, hi),
                                omega0=_log_uniform(gen, lo, hi))
        eps = _log_uniform(gen, lo, hi)
        ms = MeasurementSpec(epsilon=eps)
        grid = auto_grid(params, ms, max_points=level.max_points)
        psi, red = _pair_and_reduction(params, ms, grid)
        rows.append({
            "params": params,
            "eps": eps,
            "red": red,
            "dp2_init_numeric": momentum_std_spectral(psi, particle=2),
            "dp2_init_closed": initial_spreads(params).dp2y,
        })
    return rows


def _check_reduction_closed_vs_grid(rows: list[dict]) -> list[CheckRow]:
    dev = 0.0
    for r in rows:
        red = r["red"]
        dev = max(dev,
                  abs(red.dy2_numeric - red.dy2_closed) / red.dy2_closed,
                  abs(red.dp2_numeric - red.dp2_closed) / red.dp2_closed)
    return [_bound_row("reduced spreads: closed form vs grid (max rel dev)", dev, 1e-6)]


def _check_initial_closed_vs_grid(level: _Level) -> list[CheckRow]:
    gen = Xoshiro256StarStar(_PARAM_SEED ^ 0xA5A5)
    lo, hi = level.box
    dev = 0.0
    for _ in range(level.n_pairs):
        params = PhysicalParams(sigma=_log_uniform(gen, lo, hi),
                                omega0=_log_uniform(gen, lo, hi))
        grid = auto_grid(params, max_points=level.max_points)
        psi = build_joint_state(JointStateRecipe(params, grid, grid))
        ref = initial_spreads(params)
        dev = max(dev,
                  abs(position_stats(psi, 2).std - ref.dy2) / ref.dy2,
                  abs(momentum_std_spectral(psi, particle=2) - ref.dp2y) / ref.dp2y)
    return [_bound_row("initial spreads: closed form vs grid (max rel dev)", dev, 1e-6)]


def _check_no_extra_spread(rows: list[dict], level: _Level) -> list[CheckRow]:
    worst = -math.inf
    for r in rows:
        worst = max(worst, r["red"].dp2_numeric - r["dp2_init_numeric"])
    out = [CheckRow(
        name="remote momentum never exceeds initial (numeric)",
        expected="<= 0", actual=f"{worst:.3e}", tolerance="1e-08",
        passed=worst <= 1e-8,
    )]
    gen = Xoshiro256StarStar(_PARAM_SEED ^ 0x11)
    lo, hi = level.box
    dev = 0.0
    for _ in range(5):
        sigma = _log_uniform(gen, lo, hi)
        params = PhysicalParams(sigma=sigma, omega0=1.0 / (4.0 * sigma))
        eps = _log_uniform(gen, lo, hi)
        ms = MeasurementSpec(epsilon=eps)
        grid = auto_grid(params, ms, max_points=level.max_points)
        psi, red = _pair_and_reduction(params, ms, grid)
        init_num = momentum_std_spectral(psi, particle=2)
        closed = reduced_spreads(params, eps)
        init_closed = initial_spreads(params).dp2y
        dev = max(dev,
                  abs(red.dp2_numeric - init_num) / init_num,
                  abs(closed.dp2y - init_closed) / init_closed)
    out.append(_bound_row("equality on the factorization line (max rel dev)", dev, 1e-9))
    return out


def _check_fixed_point(level: _Level) -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=0.25)
    ms = MeasurementSpec(epsilon=0.3)
    grid = auto_grid(params, ms, max_points=level.max_points)
    psi, red = _pair_and_reduction(params, ms, grid)
    closed = reduced_spreads(params, ms.epsilon)
    dev = max(abs(closed.dp2y - math.sqrt(2.0)) / math.sqrt(2.0),
              abs(closed.dy2 - 0.5 / math.sqrt(2.0)) / (0.5 / math.sqrt(2.0)))
    rows = [_bound_row("factorization point: closed spreads vs sqrt(2), 1/2sqrt(2)",
                       dev, 1e-9)]
    entropy = schmidt(psi).entropy
    rows.append(_bound_row("factorization point: entanglement entropy", entropy, 1e-6))
    marg = normalize(WaveFunction1D(grid=grid, amps=np.sqrt(marginal_density(psi, 2))))
    ref = np.abs(marg.amps)
    dev = float(np.max(np.abs(np.abs(red.phi2.amps) - ref)) / np.max(ref))
    rows.append(_bound_row("factorization point: reduction leaves marginal unchanged",
                           dev, 1e-8))
    return rows


def _check_eps_to_zero() -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    limit = initial_spreads(params).dp2y
    val = reduced_spreads(params, 1e-3).dp2y
    return [_bound_row("vanishing slit width recovers initial momentum spread",
                       abs(val - limit) / limit, 1e-5)]


def _check_strong_correlation() -> list[CheckRow]:
    params = PhysicalParams(sigma=10.0, omega0=10.0)
    exact = reduced_spreads(params, 0.1).dp2y
    approx = approx_dp2_strong_correlation(params, 0.1)
    rows = [_bound_row("strong-correlation approximation vs exact (rel dev)",
                       abs(approx.value - exact) / exact, 1e-3)]
    seq = [reduced_spreads(params, e).dp2y for e in (0.2, 0.1, 0.05)]
    min_gain = min(b - a for a, b in zip(seq, seq[1:]))
    rows.append(CheckRow(
        name="remote spread grows as the slit narrows",
        expected="> 0", actual=f"{min_gain:.3e}", tolerance="strict",
        passed=min_gain > 0,
    ))
    return rows


def _check_uncertainty_product(rows: list[dict]) -> list[CheckRow]:
    dev_closed = 0.0
    dev_grid = 0.0
    for r in rows:
        red, params = r["red"], r["params"]
        half_hbar = 0.5 * params.hbar
        dev_closed = max(dev_closed,
                         abs(red.dy2_closed * red.dp2_closed - half_hbar) / half_hbar)
        dev_grid = max(dev_grid,
                       abs(red.dy2_numeric * red.dp2_numeric - half_hbar) / half_hbar)
    return [
        _bound_row("reduced state is minimum-uncertainty (closed)", dev_closed, 1e-9),
        _bound_row("reduced state is minimum-uncertainty (grid)", dev_grid, 1e-6),
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
        _bound_row("free flight follows the Gaussian spreading law", dev_w, 1e-4),
        _bound_row("free flight preserves the momentum spread", dev_p, 1e-10),
    ]


def _check_sampling(level: _Level) -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    ms = MeasurementSpec(epsilon=0.5)
    grid = auto_grid(params, ms, max_points=max(level.max_points, 1024))
    psi, red = _pair_and_reduction(params, ms, grid)
    n = level.n_samples
    samples = sample_positions(red.phi2, n, seed=20260814)
    grid_std = position_stats(red.phi2).std
    rows = [_bound_row("sampled detector spread vs grid spread (rel dev)",
                       abs(float(np.std(samples)) - grid_std) / grid_std, 0.01)]
    geom = DetectorGeometry(n_bins=64, y_range=(-4.0, 4.0))
    hist = histogram(samples, geom)
    dens = np.abs(red.phi2.amps) ** 2
    _, _, pvalue = chi_square_against_density(hist, grid, dens)
    rows.append(CheckRow(
        name="sampled histogram chi-square p-value",
        expected=">= 0.001", actual=f"{pvalue:.4f}", tolerance="0.001",
        passed=pvalue >= 0.001,
    ))
    pairs = sample_joint(psi, n, seed=20260815)
    corr = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
    from .analytic import position_correlation

    expected = position_correlation(params)
    rows.append(_bound_row("coincidence correlation vs closed form (abs dev)",
                           abs(corr - expected), 0.01, expected=f"{expected:.6f}"))
    return rows


def _check_convergence(level: _Level) -> list[CheckRow]:
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    ms = MeasurementSpec(epsilon=0.5)
    base = auto_grid(params, ms, max_points=max(level.max_points, 512))
    fine = GridSpec(n_points=base.n_points * 2, y_min=base.y_min, y_max=base.y_max)
    runs = [_pair_and_reduction(params, ms, grid) for grid in (base, fine)]
    spreads = [(position_stats(psi, 2).std, momentum_std_spectral(psi, particle=2),
                red.dy2_numeric, red.dp2_numeric) for psi, red in runs]
    drift = max(abs(a - b) / abs(b) for a, b in zip(*spreads))
    rows = [_bound_row("doubling the resolution leaves spreads fixed (rel)",
                       drift, 1e-6)]
    psi, red = runs[0]
    dp2_spectral = spreads[0][1]
    dev = max(
        abs(momentum_std_derivative(psi, particle=2) - dp2_spectral) / dp2_spectral,
        abs(momentum_std_derivative(red.phi2) - momentum_std_spectral(red.phi2))
        / momentum_std_spectral(red.phi2),
    )
    rows.append(_bound_row("spectral and finite-difference momentum agree", dev, 1e-4))
    return rows


def run_checks(level: str = "quick") -> list[CheckRow]:
    """Run the verification battery; returns one row per check."""
    if level not in _LEVELS:
        raise ValueError("level must be 'quick' or 'full'")
    cfg = _LEVELS[level]
    try:
        sweep = _reduction_sweep(cfg)
    except CapExceededError as e:
        return [CheckRow(name="parameter sweep grid construction", expected="grids fit",
                         actual=str(e), tolerance="-", passed=False)]
    rows: list[CheckRow] = []
    rows += _check_reduction_closed_vs_grid(sweep)
    rows += _check_initial_closed_vs_grid(cfg)
    rows += _check_no_extra_spread(sweep, cfg)
    rows += _check_fixed_point(cfg)
    rows += _check_eps_to_zero()
    rows += _check_strong_correlation()
    rows += _check_uncertainty_product(sweep)
    rows += _check_evolution()
    rows += _check_sampling(cfg)
    rows += _check_convergence(cfg)
    return rows


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
