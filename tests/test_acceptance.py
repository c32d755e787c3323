"""Acceptance gate: the eleven delivery criteria, one pass/fail line each.

The module fixture runs ``popperlab verify --full`` once, in-process through
``popperlab.cli.main``, and records the rows ``run_checks("full")`` returned
(through a call-through spy on ``popperlab.cli.run_checks``), the exit code
and the wall time.  The ``full`` level holds a 100-triple reduction sweep
from ``verify.SWEEP_SEED`` and 20 initial-spread pairs from
``verify.PAIR_SEED`` over the log-uniform box [0.1, 10] at hbar = 1, plus
the fixed-input checks.  Each test prints a single summary line to the real
stdout so the verdicts survive pytest's capture.  Criteria 1-10 assert that
every row of their criterion passed.  Criterion 11 times ``verify --full``
from that same run, checks that it computed the catalogue exactly once, and
runs the quick ``verify`` in a fresh process.
"""

import contextlib
import io
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from popperlab import cli, format_table


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="module")
def full_run():
    calls = []  # (level, rows) per run_checks call
    real = cli.run_checks

    def spy(level):
        calls.append((level, real(level)))
        return calls[-1][1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "run_checks", spy)
        t0 = time.perf_counter()
        code = cli.main(["verify", "--full"])
        wall_s = time.perf_counter() - t0
    return SimpleNamespace(calls=calls, rows=calls[0][1] if calls else [],
                           exit_code=code, wall_s=wall_s, stdout=out.getvalue())


def assert_criterion(full_run, capsys, num, label):
    rows = [r for r in full_run.rows if r.criterion == num]
    ok = bool(rows) and all(r.passed for r in rows)
    announce(capsys, num, label, ok, "; ".join(f"{r.name} {r.actual}" for r in rows))
    assert ok, format_table(rows or full_run.rows)


def test_criterion_01_reduction_closed_form_vs_grid(full_run, capsys):
    assert_criterion(full_run, capsys, 1, "reduction closed form vs grid")


def test_criterion_02_initial_spreads(full_run, capsys):
    assert_criterion(full_run, capsys, 2, "initial spreads vs grid")


def test_criterion_03_no_extra_spread(full_run, capsys):
    assert_criterion(full_run, capsys, 3, "no extra remote spread")


def test_criterion_04_minimum_uncertainty_fixed_point(full_run, capsys):
    assert_criterion(full_run, capsys, 4, "factorization fixed point")


def test_criterion_05_vanishing_slit_limit(full_run, capsys):
    assert_criterion(full_run, capsys, 5, "vanishing slit recovers initial spread")


def test_criterion_06_strong_correlation_approximation(full_run, capsys):
    assert_criterion(full_run, capsys, 6, "strong-correlation approximation")


def test_criterion_07_uncertainty_product(full_run, capsys):
    assert_criterion(full_run, capsys, 7, "reduced state uncertainty product")


def test_criterion_08_evolution_oracle(full_run, capsys):
    assert_criterion(full_run, capsys, 8, "free-flight spreading law")


def test_criterion_09_sampling_statistics(full_run, capsys):
    assert_criterion(full_run, capsys, 9, "detector statistics")


def test_criterion_10_convergence_and_cross_method(full_run, capsys):
    assert_criterion(full_run, capsys, 10, "convergence and route agreement")


def test_criterion_11_verification_suite_runtimes(full_run, capsys, child_env):
    t0 = time.perf_counter()
    quick = subprocess.run([sys.executable, "-m", "popperlab.cli", "verify"],
                           capture_output=True, text=True, timeout=120, env=child_env)
    quick_s = time.perf_counter() - t0
    levels = [level for level, _ in full_run.calls]
    ok = (quick.returncode == 0 and quick_s < 60.0
          and "checks passed" in quick.stdout and "FAIL" not in quick.stdout
          and full_run.exit_code == 0 and full_run.wall_s < 600.0
          and levels == ["full"])
    announce(capsys, 11, "verification suite runtime", ok,
             f"quick {quick_s:.1f}s exit {quick.returncode}, "
             f"full {full_run.wall_s:.1f}s exit {full_run.exit_code}, "
             f"run_checks calls {levels}")
    assert quick.returncode == 0, quick.stdout + quick.stderr
    assert quick_s < 60.0
    assert "checks passed" in quick.stdout
    assert "FAIL" not in quick.stdout
    assert levels == ["full"]
    assert full_run.exit_code == 0, full_run.stdout
    assert full_run.wall_s < 600.0
