"""Correctness gate for one popperlab command's artifacts.

The closed forms are recomputed here from the paper's Gaussian algebra, in a
form written apart from ``popperlab.analytic``: with a = σ²/ħ², b = 1/16Ω₀²
and c = 1/4ε²,

    Δy = √(Ω₀² + ħ²/16σ²),   Δp = √(σ² + ħ²/16Ω₀²),
    1/4Ω² = (4ab + (a+b)c)/(a+b+c),   Δp₂ after the slit = ħ/2Ω,
    ρ(y₁, y₂) = (Ω₀² − ħ²/16σ²)/(Ω₀² + ħ²/16σ²).

Every check returns a list of problems; an empty list means the artifacts
pass.  The bounds are the repository's own: grid spreads within 1e-6
relative of the closed forms, ratio ≤ 1, KS p-value ≥ 0.001 and sampled
correlation within 0.01 of ρ.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

GRID_REL_TOL = 1e-6
CLOSED_REL_TOL = 1e-9
KS_P_MIN = 1e-3
CORRELATION_TOL = 0.01
SWEEP_COLUMNS = ["param_value", "dy2_closed", "dp2_closed", "dp2_numeric",
                 "dp2_initial", "ratio"]


def closed_forms(params: dict, eps: float | None) -> dict:
    sigma, omega0, hbar = params["sigma"], params["omega0"], params["hbar"]
    q = hbar ** 2 / (16.0 * sigma ** 2)
    out = {
        "dy": math.sqrt(omega0 ** 2 + q),
        "dp": math.sqrt(sigma ** 2 + hbar ** 2 / (16.0 * omega0 ** 2)),
        "rho": (omega0 ** 2 - q) / (omega0 ** 2 + q),
    }
    if eps is not None:
        a, b, c = sigma ** 2 / hbar ** 2, 1.0 / (16.0 * omega0 ** 2), 1.0 / (4.0 * eps ** 2)
        inv_4omega2 = (4.0 * a * b + (a + b) * c) / (a + b + c)
        out["dy2"] = math.sqrt(1.0 / (4.0 * inv_4omega2))
        out["dp2"] = hbar * math.sqrt(inv_4omega2)
    return out


def _near(problems: list, label: str, got, want: float, tol: float) -> None:
    ok = isinstance(got, (int, float)) and abs(got - want) <= tol * abs(want)
    if not ok:
        problems.append(f"{label} = {got!r}, expected {want!r} within {tol:g} relative")


def check_report(doc: dict, config: dict) -> list[str]:
    """Problems in a ``popperlab run`` report.json for the given config."""
    problems: list[str] = []
    ms = config.get("measurement")
    cf = closed_forms(config["params"], ms["epsilon"] if ms else None)
    try:
        if doc["seed"] != config["seed"]:
            problems.append(f"seed {doc['seed']!r} != config seed {config['seed']!r}")
        if doc["numeric"]["grid"]["n_points"] != config["grid"]["n_points"]:
            problems.append("numeric grid is not the configured grid")
        a_init, n_init = doc["analytic"]["initial"], doc["numeric"]["initial"]
        for key, want in (("dy1", cf["dy"]), ("dy2", cf["dy"]), ("dp2y", cf["dp"])):
            _near(problems, f"analytic.initial.{key}", a_init[key], want, CLOSED_REL_TOL)
            _near(problems, f"numeric.initial.{key}", n_init[key], want, GRID_REL_TOL)
        _near(problems, "analytic.position_correlation",
              doc["analytic"]["position_correlation"], cf["rho"], CLOSED_REL_TOL)
        if ms:
            a_red, n_red = doc["analytic"]["reduced"], doc["numeric"]["reduced"]
            for key, want in (("dy2", cf["dy2"]), ("dp2y", cf["dp2"])):
                _near(problems, f"analytic.reduced.{key}", a_red[key], want, CLOSED_REL_TOL)
                _near(problems, f"numeric.reduced.{key}", n_red[key], want, GRID_REL_TOL)
            for key, ratio in doc["numeric"]["ratios"].items():
                if not ratio <= 1.0:
                    problems.append(f"numeric.ratios.{key} = {ratio!r} exceeds 1")
        sampled = doc["sampled"]
        if config["n_samples"] > 0:
            hist = sampled["histogram"]
            if sampled["n"] != config["n_samples"] or hist["total"] != config["n_samples"]:
                problems.append("sample count differs from the config")
            if sum(hist["counts"]) + hist["underflow"] + hist["overflow"] != hist["total"]:
                problems.append("histogram counts do not add up to the total")
            if not sampled["ks"]["pvalue"] >= KS_P_MIN:
                problems.append(f"KS p-value {sampled['ks']['pvalue']!r} < {KS_P_MIN:g}")
            if not ms and not abs(sampled["correlation"] - cf["rho"]) <= CORRELATION_TOL:
                problems.append(f"sampled correlation {sampled['correlation']!r} is not "
                                f"within {CORRELATION_TOL:g} of {cf['rho']!r}")
    except (KeyError, TypeError) as e:
        problems.append(f"report.json is missing or mistypes a field: {e!r}")
    return problems


def geomspace(lo: float, hi: float, steps: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (steps - 1)) for i in range(steps)]


def check_sweep(text: str, config: dict, lo: float, hi: float, steps: int) -> list[str]:
    """Problems in a log-spaced ``popperlab sweep --param epsilon`` sweep.csv."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return [f"sweep.csv header is {rows[:1]!r}"]
    if len(rows) - 1 != steps:
        return [f"sweep.csv has {len(rows) - 1} rows, expected {steps}"]
    problems: list[str] = []
    for i, (row, eps) in enumerate(zip(rows[1:], geomspace(lo, hi, steps))):
        try:
            value, dy2, dp2, dp2_num, dp2_init, ratio = (float(x) for x in row)
        except ValueError:
            problems.append(f"row {i} is not numeric: {row!r}")
            continue
        cf = closed_forms(config["params"], value)
        _near(problems, f"row {i} param_value", value, eps, 1e-12)
        _near(problems, f"row {i} dy2_closed", dy2, cf["dy2"], CLOSED_REL_TOL)
        _near(problems, f"row {i} dp2_closed", dp2, cf["dp2"], CLOSED_REL_TOL)
        _near(problems, f"row {i} dp2_initial", dp2_init, cf["dp"], CLOSED_REL_TOL)
        _near(problems, f"row {i} dp2_numeric", dp2_num, cf["dp2"], GRID_REL_TOL)
        _near(problems, f"row {i} ratio", ratio, dp2 / dp2_init, 1e-12)
        if not ratio <= 1.0:
            problems.append(f"row {i} ratio {ratio!r} exceeds 1")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(doc: dict) -> str:
    """Digest of report.json without its ``timings`` block."""
    kept = {k: v for k, v in doc.items() if k != "timings"}
    return sha256(json.dumps(kept, indent=2, sort_keys=True).encode())
