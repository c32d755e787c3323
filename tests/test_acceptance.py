"""Acceptance gate: the eleven delivery criteria, one pass/fail line each.

Each test prints a single summary line to the real stdout so the verdicts
survive pytest's capture, then asserts.  Criteria 1, 3 and 7 share one
100-triple reduction sweep (module-scoped fixture) over the log-uniform
box [0.1, 10]^3 at hbar = 1.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from popperlab import (
    DetectorGeometry,
    JointStateRecipe,
    MeasurementSpec,
    PhysicalParams,
    approx_dp2_strong_correlation,
    auto_grid,
    build_joint_state,
    build_pointer_state,
    chi_square_against_density,
    conditional_reduce,
    gaussian_width_at,
    free_propagate,
    histogram,
    initial_spreads,
    momentum_std_derivative,
    momentum_std_spectral,
    normalize,
    position_correlation,
    position_stats,
    reduced_spreads,
    sample_joint,
    sample_positions,
    schmidt,
)
from popperlab.evolution import EvolutionParams
from popperlab.params import GridSpec
from popperlab.rng import Xoshiro256StarStar
from popperlab.wavefunction import WaveFunction1D, marginal_density

# `verify --full` replays only the SWEEP_SEED stream, for its 100-triple
# reduction sweep.  It draws initial-spread pairs from 0x5EED0F00 ^ 0xA5A5
# instead of PAIR_SEED, and its factorization-line and sampling checks use
# other inputs.
SWEEP_SEED = 0x5EED0F00
PAIR_SEED = 0x5EED0F02
BOX = (0.1, 10.0)


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def log_uniform(gen, lo, hi):
    return lo * (hi / lo) ** gen.random()


def reduce_once(params, eps, max_points=4096):
    ms = MeasurementSpec(epsilon=eps)
    grid = auto_grid(params, ms, max_points=max_points)
    psi = build_joint_state(JointStateRecipe(params, grid, grid))
    phi1 = build_pointer_state(ms, grid)
    return psi, grid, conditional_reduce(psi, phi1, params, eps)


@pytest.fixture(scope="module")
def reduction_sweep():
    gen = Xoshiro256StarStar(SWEEP_SEED)
    rows = []
    t0 = time.perf_counter()
    for _ in range(100):
        params = PhysicalParams(sigma=log_uniform(gen, *BOX),
                                omega0=log_uniform(gen, *BOX))
        eps = log_uniform(gen, *BOX)
        psi, grid, red = reduce_once(params, eps)
        rows.append({
            "sigma": params.sigma, "omega0": params.omega0, "eps": eps,
            "n_points": grid.n_points,
            "dy2_closed": red.dy2_closed, "dy2_numeric": red.dy2_numeric,
            "dp2_closed": red.dp2_closed, "dp2_numeric": red.dp2_numeric,
            "dp2_init_closed": initial_spreads(params).dp2y,
            "dp2_init_numeric": momentum_std_spectral(psi, particle=2),
        })
    return rows, time.perf_counter() - t0


def test_criterion_01_reduction_closed_form_vs_grid(reduction_sweep, capsys):
    rows, elapsed = reduction_sweep
    dev = max(max(abs(r["dy2_numeric"] - r["dy2_closed"]) / r["dy2_closed"],
                  abs(r["dp2_numeric"] - r["dp2_closed"]) / r["dp2_closed"])
              for r in rows)
    biggest = max(r["n_points"] for r in rows)
    ok = dev <= 1e-6 and biggest <= 4096 and elapsed < 300.0
    announce(capsys, 1, "reduction closed form vs grid", ok,
             f"max rel dev {dev:.3e}, grids <= {biggest}, {elapsed:.1f}s")
    assert dev <= 1e-6
    assert biggest <= 4096
    assert elapsed < 300.0


def test_criterion_02_initial_spreads(capsys):
    gen = Xoshiro256StarStar(PAIR_SEED)
    dev = 0.0
    for _ in range(20):
        params = PhysicalParams(sigma=log_uniform(gen, *BOX),
                                omega0=log_uniform(gen, *BOX))
        grid = auto_grid(params, max_points=4096)
        psi = build_joint_state(JointStateRecipe(params, grid, grid))
        init = initial_spreads(params)
        dy = position_stats(psi, particle=2).std
        dp = momentum_std_spectral(psi, particle=2)
        dev = max(dev, abs(dy - init.dy2) / init.dy2,
                  abs(dp - init.dp2y) / init.dp2y)
    ok = dev <= 1e-6
    announce(capsys, 2, "initial spreads vs grid", ok, f"max rel dev {dev:.3e}")
    assert ok


def test_criterion_03_no_extra_spread(reduction_sweep, capsys):
    rows, _ = reduction_sweep
    worst = max(r["dp2_numeric"] - r["dp2_init_numeric"] for r in rows)
    # equality must hold exactly on the factorization line ...
    line_dev = 0.0
    for sigma in (0.3, 0.7, 1.0, 2.2, 5.0):
        params = PhysicalParams(sigma=sigma, omega0=0.25 / sigma)
        psi, _, red = reduce_once(params, eps=0.4)
        line_dev = max(
            line_dev,
            abs(red.dp2_numeric - momentum_std_spectral(psi, particle=2)),
            abs(red.dp2_closed - initial_spreads(params).dp2y))
    # ... and only there: clearly off-line triples must strictly narrow
    off_gap = min(r["dp2_init_numeric"] - r["dp2_numeric"] for r in rows
                  if abs(r["omega0"] - 0.25 / r["sigma"]) > 0.05 * r["omega0"])
    ok = worst <= 1e-8 and line_dev <= 1e-9 and off_gap > 1e-9
    announce(capsys, 3, "no extra remote spread", ok,
             f"worst excess {worst:.2e}, on-line dev {line_dev:.2e}")
    assert worst <= 1e-8
    assert line_dev <= 1e-9
    assert off_gap > 1e-9


def test_criterion_04_minimum_uncertainty_fixed_point(capsys):
    params = PhysicalParams(sigma=1.0, omega0=0.25)
    closed = reduced_spreads(params, 0.3)
    root2 = math.sqrt(2.0)
    dev_closed = max(
        abs(initial_spreads(params).dp2y - root2),
        abs(closed.dp2y - root2),
        abs(closed.dy2 - 1.0 / (2.0 * root2)))
    psi, grid, red = reduce_once(params, eps=0.3)
    entropy = schmidt(psi).entropy
    marg = normalize(WaveFunction1D(grid=grid,
                                    amps=np.sqrt(marginal_density(psi, 2))))
    pointwise = float(np.max(np.abs(np.abs(red.phi2.amps) - np.abs(marg.amps))))
    ok = dev_closed <= 1e-9 and entropy < 1e-6 and pointwise <= 1e-8
    announce(capsys, 4, "factorization fixed point", ok,
             f"spread dev {dev_closed:.1e}, entropy {entropy:.1e}, "
             f"pointwise {pointwise:.1e}")
    assert dev_closed <= 1e-9
    assert entropy < 1e-6
    assert pointwise <= 1e-8


def test_criterion_05_vanishing_slit_limit(capsys):
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    limit = math.sqrt(params.sigma ** 2 + 1.0 / (16.0 * params.omega0 ** 2))
    val = reduced_spreads(params, 1e-3).dp2y
    dev = abs(val - limit) / limit
    ok = dev <= 1e-5
    announce(capsys, 5, "vanishing slit recovers initial spread", ok,
             f"rel dev {dev:.3e}")
    assert ok


def test_criterion_06_strong_correlation_approximation(capsys):
    params = PhysicalParams(sigma=10.0, omega0=10.0)
    approx = approx_dp2_strong_correlation(params, 0.1)
    exact = reduced_spreads(params, 0.1).dp2y
    printed_dev = abs(approx.value - 4.472136)
    rel = abs(approx.value - exact) / exact
    seq = [reduced_spreads(params, e).dp2y for e in (0.2, 0.1, 0.05)]
    monotone = seq[0] < seq[1] < seq[2]
    ok = printed_dev <= 5e-7 and rel <= 1e-3 and monotone
    announce(capsys, 6, "strong-correlation approximation", ok,
             f"value dev {printed_dev:.1e}, rel {rel:.2e}, monotone {monotone}")
    assert printed_dev <= 5e-7
    assert rel <= 1e-3
    assert monotone


def test_criterion_07_uncertainty_product(reduction_sweep, capsys):
    rows, _ = reduction_sweep
    closed = max(abs(r["dy2_closed"] * r["dp2_closed"] - 0.5) for r in rows)
    grid = max(abs(r["dy2_numeric"] * r["dp2_numeric"] - 0.5) for r in rows)
    ok = closed <= 1e-9 and grid <= 1e-6
    announce(capsys, 7, "reduced state uncertainty product", ok,
             f"closed dev {closed:.1e}, grid dev {grid:.1e}")
    assert closed <= 1e-9
    assert grid <= 1e-6


def test_criterion_08_evolution_oracle(capsys):
    w0 = 0.5 / math.sqrt(2.0)
    grid = GridSpec(n_points=1024, y_min=-24.0, y_max=24.0)
    y = np.linspace(grid.y_min, grid.y_max, grid.n_points)
    packet = normalize(WaveFunction1D(
        grid=grid, amps=np.exp(-y ** 2 / (4.0 * w0 ** 2)).astype(complex)))
    dp0 = momentum_std_spectral(packet)
    width_dev, mom_dev = 0.0, 0.0
    for t in (0.5, 1.0, 2.0):
        ep = EvolutionParams(time=t)
        moved = free_propagate(packet, ep)
        law = gaussian_width_at(w0, ep)
        width_dev = max(width_dev,
                        abs(position_stats(moved).std - law) / law)
        mom_dev = max(mom_dev,
                      abs(momentum_std_spectral(moved) - dp0) / dp0)
    ok = width_dev <= 1e-4 and mom_dev <= 1e-10
    announce(capsys, 8, "free-flight spreading law", ok,
             f"width dev {width_dev:.2e}, momentum drift {mom_dev:.2e}")
    assert width_dev <= 1e-4
    assert mom_dev <= 1e-10


def test_criterion_09_sampling_statistics(capsys):
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    _, _, red = reduce_once(params, eps=0.5)
    samples = sample_positions(red.phi2, 100_000, seed=20260814)
    grid_std = position_stats(red.phi2).std
    std_dev = abs(float(np.std(samples)) - grid_std) / grid_std
    hist = histogram(samples, DetectorGeometry(n_bins=64, y_range=(-3.0, 3.0)))
    _, _, pvalue = chi_square_against_density(
        hist, red.phi2.grid, np.abs(red.phi2.amps) ** 2)
    grid = auto_grid(params)
    psi = build_joint_state(JointStateRecipe(params, grid, grid))
    pairs = sample_joint(psi, 100_000, seed=20260815)
    corr = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
    corr_dev = abs(corr - position_correlation(params))
    ok = std_dev < 0.01 and pvalue >= 0.001 and corr_dev < 0.01
    announce(capsys, 9, "detector statistics", ok,
             f"std dev {std_dev:.4f}, chi2 p {pvalue:.3f}, corr dev {corr_dev:.4f}")
    assert std_dev < 0.01
    assert pvalue >= 0.001
    assert corr_dev < 0.01


def test_criterion_10_convergence_and_cross_method(capsys):
    params = PhysicalParams(sigma=1.0, omega0=2.0)
    psi, grid, red = reduce_once(params, eps=0.5)
    doubled = GridSpec(n_points=grid.n_points * 2,
                       y_min=grid.y_min, y_max=grid.y_max)
    psi2 = build_joint_state(JointStateRecipe(params, doubled, doubled))
    phi1 = build_pointer_state(MeasurementSpec(epsilon=0.5), doubled)
    red2 = conditional_reduce(psi2, phi1, params, 0.5)
    res_dev = max(
        abs(red2.dy2_numeric - red.dy2_numeric) / red.dy2_numeric,
        abs(red2.dp2_numeric - red.dp2_numeric) / red.dp2_numeric,
        abs(momentum_std_spectral(psi2, particle=2)
            - momentum_std_spectral(psi, particle=2))
        / momentum_std_spectral(psi, particle=2))
    route_dev = max(
        abs(momentum_std_derivative(red.phi2) - momentum_std_spectral(red.phi2))
        / momentum_std_spectral(red.phi2),
        abs(momentum_std_derivative(psi, particle=2)
            - momentum_std_spectral(psi, particle=2))
        / momentum_std_spectral(psi, particle=2))
    ok = res_dev < 1e-6 and route_dev <= 1e-4
    announce(capsys, 10, "convergence and route agreement", ok,
             f"doubling dev {res_dev:.2e}, spectral vs stencil {route_dev:.2e}")
    assert res_dev < 1e-6
    assert route_dev <= 1e-4


def test_criterion_11_verification_suite_runtimes(capsys):
    t0 = time.perf_counter()
    quick = subprocess.run([sys.executable, "-m", "popperlab.cli", "verify"],
                           capture_output=True, text=True, timeout=120)
    quick_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    full = subprocess.run([sys.executable, "-m", "popperlab.cli", "verify",
                           "--full"], capture_output=True, text=True,
                          timeout=660)
    full_s = time.perf_counter() - t0
    ok = (quick.returncode == 0 and quick_s < 60.0
          and full.returncode == 0 and full_s < 600.0)
    announce(capsys, 11, "verification suite runtime", ok,
             f"quick {quick_s:.1f}s exit {quick.returncode}, "
             f"full {full_s:.1f}s exit {full.returncode}")
    assert quick.returncode == 0, quick.stdout + quick.stderr
    assert quick_s < 60.0
    assert full.returncode == 0, full.stdout + full.stderr
    assert full_s < 600.0
