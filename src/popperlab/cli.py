"""Command-line interface: scenario runs, parameter sweeps and self-checks.

Exit codes form the scripting contract: 0 means success, 2 means the request
itself was unusable (bad config, impossible grid, invalid parameter,
unwritable output), and 3 means the computation ran but violated a numerical
guarantee (norm collapse, tail leakage, memory bound).  ``verify`` exits 0
only if every check passes, and 1 if a check fails.

Commands raise rather than print their failures.  One handler in ``main``
maps every ``PopperLabError`` or ``MemoryError`` of ``run``, ``sweep`` and
``verify`` to its exit code and its one-line ``error:`` (2) or ``numerical
failure:`` (3) message; an error with neither meaning is re-raised.

``run`` opens no file until the scenario has run; then it saves each state
of the report through ``save_wavefunction``, ``joint.wf`` up to
``SAVE_MAX_AMPLITUDES``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analytic import initial_spreads
from .errors import (
    CapExceededError,
    NumericalContractError,
    PopperLabError,
    ScenarioFailure,
    UserParameterError,
)
from .experiment import run_scenario
from .measurement import reduce_pair
from .params import (
    MeasurementSpec,
    PhysicalParams,
    ScenarioConfig,
    auto_grid,
    config_from_json,
)
from .states import build_pointer_state
from .verify import format_table, run_checks
from .wavefunction import save_wavefunction

# Sweep grids are chosen automatically per step.  A step reduces the pair
# by one convolution of length 2N and holds a few length-2N vectors (about
# 0.6 MiB at 4096 points), never the N×N state.  Steps whose scale ratio
# cannot fit the cap retry once at the escalated cap before giving up.
SWEEP_MAX_POINTS = 4096
SWEEP_MAX_POINTS_ESCALATED = 8192
# Steps take 1-3 ms each, so the largest sweep runs for a few minutes.
MAX_SWEEP_STEPS = 10 ** 5
# Joint states above this amplitude count (a 64 MiB joint.wf) are reported
# but not written out.
SAVE_MAX_AMPLITUDES = 2048 * 2048

_SWEEP_COLUMNS = ("param_value", "dy2_closed", "dp2_closed", "dp2_numeric",
                  "dp2_initial", "ratio")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _failure_code(exc: PopperLabError | MemoryError) -> int | None:
    cause = exc.cause if isinstance(exc, ScenarioFailure) else exc
    if isinstance(cause, UserParameterError):
        return 2
    if isinstance(cause, (NumericalContractError, MemoryError)):
        return 3
    return None


@contextlib.contextmanager
def _bad_input(prefix: str, *kinds: type[Exception]):
    """Re-raise ``kinds`` as ``UserParameterError``, so they exit 2 with ``prefix``."""
    try:
        yield
    except kinds as e:
        raise UserParameterError(f"{prefix}: {e}") from e


def _load_config(config_path: str) -> ScenarioConfig:
    with _bad_input("cannot read config", OSError, UnicodeDecodeError):
        text = Path(config_path).read_text()
    with _bad_input("bad config", KeyError, TypeError, ValueError, IndexError,
                    OverflowError, RecursionError):
        return config_from_json(text)


def _write_csv(path: Path, header, rows, written: list[Path]) -> None:
    """``rows`` under ``header`` to ``path``, entered in ``written`` once open."""
    with open(path, "w", newline="") as f:
        written.append(path)
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def _claim_out(out_dir: str) -> Path:
    """Create ``out_dir`` before any compute, so an unusable --out fails fast."""
    out = Path(out_dir)
    with _bad_input("cannot write output", OSError):
        out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(config_path: str, out_dir: str, seed_override: int | None = None) -> int:
    config = _load_config(config_path)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    out = _claim_out(out_dir)
    report = run_scenario(config)
    doc = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    # each file this run finished or opened, removed if the run fails
    written: list[Path] = []
    try:
        with _bad_input("cannot write output", OSError):
            with open(out / "report.json", "w") as f:
                written.append(out / "report.json")
                f.write(doc + "\n")
            if report.sampled is not None:
                hist = report.sampled["histogram"]
                edges = np.linspace(*hist["y_range"], hist["n_bins"] + 1)
                _write_csv(out / "histogram.csv", ("bin_lo", "bin_hi", "count"),
                           zip(edges, edges[1:], hist["counts"]), written)
            for name, wf in report.states.items():
                if name == "joint" and config.grid.n_points ** 2 > SAVE_MAX_AMPLITUDES:
                    print(f"note: joint.wf skipped, {config.grid.n_points ** 2} amplitudes "
                          f"exceeds the {SAVE_MAX_AMPLITUDES} save bound", file=sys.stderr)
                    continue
                save_wavefunction(wf, out / f"{name}.wf")
                written.append(out / f"{name}.wf")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print(f"wrote {', '.join(path.name for path in written)} to {out}")
    return 0


def _sweep_step(params: PhysicalParams, ms: MeasurementSpec, name: str,
                value: float) -> tuple:
    """One sweep row: ``name`` set to ``value``, reduced on the step's own auto grid."""
    if name == "epsilon":
        ms = dataclasses.replace(ms, epsilon=value)
    else:
        params = dataclasses.replace(params, **{name: value})
    try:
        grid = auto_grid(params, ms, max_points=SWEEP_MAX_POINTS)
    except CapExceededError:
        grid = auto_grid(params, ms, max_points=SWEEP_MAX_POINTS_ESCALATED)
    red = reduce_pair(build_pointer_state(ms, grid), params, ms.epsilon)
    dp2_initial = initial_spreads(params).dp2y
    return (value, red.dy2_closed, red.dp2_closed, red.dp2_numeric,
            dp2_initial, red.dp2_closed / dp2_initial)


def cmd_sweep(config_path: str, param: str, from_value: float, to_value: float,
              steps: int, log: bool, out_dir: str) -> int:
    config = _load_config(config_path)
    if steps < 2:
        raise UserParameterError("a sweep needs at least 2 steps")
    if steps > MAX_SWEEP_STEPS:
        raise UserParameterError(f"a sweep takes at most {MAX_SWEEP_STEPS} steps")
    if not (from_value > 0 and to_value > 0 and np.isfinite(from_value)
            and np.isfinite(to_value)):
        raise UserParameterError("sweep endpoints must be positive and finite")
    ms = config.measurement
    if ms is None and param != "epsilon":
        raise UserParameterError("sweeping sigma or omega0 needs a measurement block "
                                 "to fix epsilon")

    space = np.geomspace if log else np.linspace
    values = space(from_value, to_value, steps)
    # without a measurement block only ε is swept, so this ε is never used
    ms = ms if ms is not None else MeasurementSpec(epsilon=1.0)
    out = _claim_out(out_dir)
    rows = sorted((_sweep_step(config.params, ms, param, float(v)) for v in values),
                  key=lambda r: r[0])
    with _bad_input("cannot write output", OSError):
        _write_csv(out / "sweep.csv", _SWEEP_COLUMNS, rows, [])
    print(f"wrote sweep.csv ({len(rows)} rows) to {out}")
    return 0


def cmd_verify(level: str = "quick") -> int:
    rows = run_checks(level)
    print(format_table(rows))
    n_pass = sum(r.passed for r in rows)
    print(f"\n{n_pass}/{len(rows)} checks passed ({level} level)")
    return 0 if n_pass == len(rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popperlab",
        description="Entangled-pair slit laboratory: run scenarios, sweep "
                    "parameters, verify closed forms against grid numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario from a JSON config")
    run_p.add_argument("--config", required=True, help="scenario JSON path")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    sweep_p = sub.add_parser("sweep", help="vary one parameter, write sweep.csv")
    sweep_p.add_argument("--config", required=True, help="base scenario JSON path")
    sweep_p.add_argument("--param", required=True,
                         choices=("epsilon", "sigma", "omega0"))
    sweep_p.add_argument("--from", dest="from_value", type=float, required=True)
    sweep_p.add_argument("--to", dest="to_value", type=float, required=True)
    sweep_p.add_argument("--steps", type=int, required=True)
    sweep_p.add_argument("--log", action="store_true",
                         help="space steps geometrically")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; steps take "
                              "milliseconds and run serially")

    verify_p = sub.add_parser("verify", help="run the self-check battery")
    level = verify_p.add_mutually_exclusive_group()
    level.add_argument("--full", action="store_true",
                       help="wide parameter box on 4096-point grids")
    level.add_argument("--quick", action="store_true",
                       help="fast battery (default)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.param, args.from_value, args.to_value,
                             args.steps, args.log, args.out)
        return cmd_verify("full" if args.full else "quick")
    except (PopperLabError, MemoryError) as e:
        code = _failure_code(e)
        if code is None:
            raise
        label = "error" if code == 2 else "numerical failure"
        # a bare MemoryError() has no message of its own
        print(f"{label}: {str(e) or type(e).__name__}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
