"""Acceptance gate: the eleven delivery criteria, one pass/fail line each.

Criteria 1-10 are computed once, by ``popperlab.verify.run_checks`` at the
``full`` level (module-scoped fixture): a 100-triple reduction sweep from
``verify.SWEEP_SEED`` and 20 initial-spread pairs from ``verify.PAIR_SEED``
over the log-uniform box [0.1, 10] at hbar = 1, plus the fixed-input checks.
Each test prints a single summary line to the real stdout so the verdicts
survive pytest's capture, then asserts that every row of its criterion
passed.  Criterion 11 runs the ``verify`` command in a subprocess.
"""

import subprocess
import sys
import time

import pytest

from popperlab import format_table, run_checks


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="module")
def catalogue():
    return run_checks("full")


def assert_criterion(catalogue, capsys, num, label):
    rows = [r for r in catalogue if r.criterion == num]
    ok = bool(rows) and all(r.passed for r in rows)
    announce(capsys, num, label, ok, "; ".join(f"{r.name} {r.actual}" for r in rows))
    assert ok, format_table(rows or catalogue)


def test_criterion_01_reduction_closed_form_vs_grid(catalogue, capsys):
    assert_criterion(catalogue, capsys, 1, "reduction closed form vs grid")


def test_criterion_02_initial_spreads(catalogue, capsys):
    assert_criterion(catalogue, capsys, 2, "initial spreads vs grid")


def test_criterion_03_no_extra_spread(catalogue, capsys):
    assert_criterion(catalogue, capsys, 3, "no extra remote spread")


def test_criterion_04_minimum_uncertainty_fixed_point(catalogue, capsys):
    assert_criterion(catalogue, capsys, 4, "factorization fixed point")


def test_criterion_05_vanishing_slit_limit(catalogue, capsys):
    assert_criterion(catalogue, capsys, 5, "vanishing slit recovers initial spread")


def test_criterion_06_strong_correlation_approximation(catalogue, capsys):
    assert_criterion(catalogue, capsys, 6, "strong-correlation approximation")


def test_criterion_07_uncertainty_product(catalogue, capsys):
    assert_criterion(catalogue, capsys, 7, "reduced state uncertainty product")


def test_criterion_08_evolution_oracle(catalogue, capsys):
    assert_criterion(catalogue, capsys, 8, "free-flight spreading law")


def test_criterion_09_sampling_statistics(catalogue, capsys):
    assert_criterion(catalogue, capsys, 9, "detector statistics")


def test_criterion_10_convergence_and_cross_method(catalogue, capsys):
    assert_criterion(catalogue, capsys, 10, "convergence and route agreement")


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
