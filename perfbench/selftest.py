"""Self-test of the benchmark's own arithmetic and correctness gate.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic nested trace, the
``-X importtime`` parser on a synthetic log, that BENCHMARK.json names
exactly the metrics run.py reports, and that the gate passes a small real
run and sweep but rejects tampered copies of their artifacts.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys

import gate
import run

FAILURES: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def check_self_times() -> None:
    # run_scenario [0, 10] holds build [1, 4] (which holds a nested call to
    # position_stats [2, 3]) and sample_joint [5, 9]; then one auto_grid call
    # escalates and is retried.
    spans = [
        ["experiment.run_scenario", 0.0, 10.0, None, 100, {}, None],
        ["states.build_joint_state", 1.0, 4.0, 0, 60, {"amplitudes": 4}, None],
        ["wavefunction.position_stats", 2.0, 3.0, 1, 5, {}, None],
        ["experiment.sample_joint", 5.0, 9.0, 0, 30, {"pairs": 7}, None],
        ["params.auto_grid", 10.0, 10.5, None, 0, {}, "CapExceededError"],
        ["params.auto_grid", 10.5, 11.0, None, 0, {}, None],
    ]
    expect("self times subtract direct children only",
           run.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 0.5, 0.5])
    overlapping = [["experiment.run_scenario", 0.0, 10.0, None, 0, {}, None],
                   ["experiment.histogram", 2.0, 6.0, 0, 0, {}, None],
                   ["experiment.histogram", 4.0, 12.0, 0, 0, {}, None]]
    expect("overlapping children are counted once and clipped",
           run.self_times(overlapping)[0] == 2.0)
    layers = run.aggregate(spans)
    scenario, auto = layers["experiment.run_scenario"], layers["params.auto_grid"]
    expect("aggregate sums calls, self and total time",
           (scenario["calls"], scenario["self_s"], scenario["total_s"]) == (1, 3.0, 10.0)
           and auto["calls"] == 2 and auto["total_s"] == 1.0)
    expect("aggregate counts escalations and computed counts",
           auto["counts"]["escalations"] == 1
           and layers["states.build_joint_state"]["counts"]["amplitudes"] == 4
           and layers["experiment.sample_joint"]["counts"]["pairs"] == 7)
    expect("self times of all spans add up to the root spans' wall time",
           sum(run.self_times(spans)) == 11.0)


def check_import_breakdown() -> None:
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |           scipy.special",
        "import time:       400 |        450 |         scipy.stats._distn",
        "import time:        70 |         70 |           scipy.stats._sub",
        "import time:       130 |        200 |         scipy.stats._stats_py",
        "import time:        10 |        660 |       popperlab.experiment",
        "import time:        20 |        980 |     popperlab",
        "import time:        30 |       1010 |   popperlab.cli",
    ])
    totals = run.import_breakdown(log)
    expect("importtime: popperlab is its topmost entry",
           math.isclose(totals["popperlab"], 1010e-6))
    expect("importtime: scipy.stats sums its topmost submodules",
           math.isclose(totals["scipy.stats"], 650e-6))


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json workloads are run.py's",
           [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    expect("BENCHMARK.json end_to_end metrics are run.py's",
           [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END))
    expect("BENCHMARK.json per_layer metrics are run.py's",
           [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_specs())


def small_command(cli_args: list[str]) -> bool:
    argv = [sys.executable, str(run.HERE / "child.py"), "plain",
            str(run.WORK / "stats.json"), "--", *cli_args]
    code, _, _ = run.spawn(argv, run.WORK / "child.log")
    return code == 0


def check_gate() -> None:
    run.WORK.mkdir(exist_ok=True)
    out = run.WORK / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    for workload in ("slit-run", "coincidence-run"):
        config = run.workload_config(workload, 5)
        config["grid"]["n_points"] = 512
        config["n_samples"] = 4000
        path = run.WORK / f"selftest-{workload}.json"
        path.write_text(json.dumps(config))
        ran = small_command(["run", "--config", str(path), "--out", str(out / workload)])
        doc = json.loads((out / workload / "report.json").read_text()) if ran else {}
        expect(f"gate passes a small {workload}", ran and gate.check_report(doc, config) == [])
        tampers = {
            "initial spread off by 2e-6": ("numeric", "initial", "dy2", 1 + 2e-6),
            "KS p-value below 0.001": ("sampled", "ks", "pvalue", 1e-4),
        }
        if workload == "slit-run":
            tampers["reduced momentum spread off by 2e-6"] = ("numeric", "reduced", "dp2y",
                                                              1 + 2e-6)
            tampers["ratio above 1"] = ("numeric", "ratios", "dp2_post_over_initial_numeric",
                                        1.5)
        else:
            tampers["correlation off by 0.02"] = ("sampled", "correlation", None, 0.98)
        for label, (a, b, c, factor) in tampers.items():
            bad = copy.deepcopy(doc)
            if c is None:
                bad[a][b] *= factor
            else:
                bad[a][b][c] *= factor
            expect(f"gate rejects {workload} with {label}",
                   bool(doc) and gate.check_report(bad, config) != [])
        bad = copy.deepcopy(doc)
        bad.pop("numeric", None)
        expect(f"gate rejects {workload} with a missing block",
               gate.check_report(bad, config) != [])
        if doc:
            timed = copy.deepcopy(doc)
            timed["timings"] = {"build": -1.0}
            expect("report digest ignores timings only",
                   gate.report_digest(timed) == gate.report_digest(doc)
                   and gate.report_digest(bad) != gate.report_digest(doc))

    config = run.workload_config("epsilon-sweep", 5)
    lo, hi, steps = 0.05, 1.0, 3
    path = run.WORK / "selftest-sweep.json"
    path.write_text(json.dumps(config))
    ran = small_command(["sweep", "--config", str(path), "--param", "epsilon", "--from",
                         str(lo), "--to", str(hi), "--steps", str(steps), "--log",
                         "--out", str(out / "sweep")])
    text = (out / "sweep" / "sweep.csv").read_text() if ran else ""
    expect("gate passes a small sweep", ran and gate.check_sweep(text, config, lo, hi, steps) == [])
    lines = text.splitlines()
    if len(lines) > 2:
        row = lines[2].split(",")
        for column, value in ((3, float(row[3]) * (1 + 2e-6)), (5, 1.0000001)):
            bad_row = row.copy()
            bad_row[column] = repr(value)
            bad = "\n".join(lines[:2] + [",".join(bad_row)] + lines[3:]) + "\n"
            expect(f"gate rejects a sweep with column {gate.SWEEP_COLUMNS[column]} tampered",
                   gate.check_sweep(bad, config, lo, hi, steps) != [])
    expect("gate rejects a sweep with a missing row",
           gate.check_sweep("\n".join(lines[:-1]) + "\n", config, lo, hi, steps) != [])

    commands = [run.Command("plain", 0, 1.0, 1.0, digests={"report.json": "a"}),
                run.Command("plain", 0, 1.0, 1.0, digests={"report.json": "b"})]
    run.check_repeats(commands)
    expect("repeats with different artifacts fail",
           commands[0].problems == [] and commands[1].problems != [])
    shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    check_self_times()
    check_import_breakdown()
    check_benchmark_json()
    check_gate()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
