"""popperlab benchmark: the real CLI as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One fresh ``popperlab`` process runs at a time with
``--jobs 1`` and the library-default BLAS threads.  Every command's
artifacts pass the correctness gate in ``gate.py`` or the command counts as
failed.  All commands of one run share the seed, so their artifacts must
also be byte-identical.

``--trace 0`` repeats the plain command for S seconds and reports the
end-to-end metrics: ``setup_s`` (import of ``popperlab.cli`` in a fresh
interpreter), ``wall_s`` (the whole command) and ``peak_rss_mib`` (the
child's ``ru_maxrss``), each the median over the run's commands.
``--trace 1`` alternates plain and span-traced commands for S seconds, then
runs one tracemalloc pass and one ``python -X importtime`` pass, and reports
the per-layer metrics.  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a table for people.  Each run also writes its commands, digests, spans
and machine facts to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
COMMAND_TIMEOUT_S = 120.0
# Fresh-interpreter imports timed before the commands, on top of the import
# each command pays, so setup_s is a median of several samples.
SETUP_IMPORTS = 3

# The README source: σ=1, Ω₀=2, ε=0.5 on y ∈ ±16.2, flight t=0.8, side B.
SOURCE = {
    "params": {"sigma": 1.0, "omega0": 2.0, "hbar": 1.0, "mass": 1.0},
    "grid": {"n_points": 2048, "y_min": -16.2, "y_max": 16.2},
    "detector": {"n_bins": 48, "y_range": [-5.0, 5.0], "side": "B"},
    "measurement": {"epsilon": 0.5, "center": 0.0},
    "evolution_time": 0.8,
    "n_samples": 20000,
}
SWEEP_RANGE = (0.02, 2.0, 12)

# Why each workload: slit-run spends ~80% in the Schmidt SVD at the
# 2048-point cap and is the only one writing the 64 MiB joint.wf;
# coincidence-run spends ~85% in sample_joint and the pure-Python RNG;
# epsilon-sweep spends ~97% building dense pair states (4096 points on 5
# steps) and runs no Schmidt, sampling or .wf writes, so it is the bypass
# workload for Schmidt, sampling and RNG changes.
WORKLOADS = ("slit-run", "coincidence-run", "epsilon-sweep")

# Layer spans recorded by child.py, in the order they are reported.
SPANS = (
    "params.validate", "params.auto_grid", "states.build_joint_state",
    "wavefunction.schmidt", "wavefunction.momentum_std_spectral",
    "wavefunction.position_stats", "wavefunction.save_wavefunction",
    "measurement.conditional_reduce", "evolution.free_propagate",
    "experiment.run_scenario", "experiment.sample_positions",
    "experiment.sample_joint", "experiment.histogram",
    "experiment.ks_against_density", "rng.uniforms", "cli._load_config",
    "cli._sweep_step",
)
# Computed counts: (metric name, span, count key, unit).
COUNTS = (
    ("params.auto_grid.escalations", "params.auto_grid", "escalations", "count"),
    ("states.build_joint_state.amplitudes", "states.build_joint_state", "amplitudes", "count"),
    ("states.build_joint_state.dense_bytes", "states.build_joint_state", "dense_bytes", "B"),
    ("wavefunction.save_wavefunction.bytes", "wavefunction.save_wavefunction", "bytes", "B"),
    ("experiment.sample_positions.samples", "experiment.sample_positions", "samples", "count"),
    ("experiment.sample_joint.pairs", "experiment.sample_joint", "pairs", "count"),
    ("rng.uniforms.count", "rng.uniforms", "count", "count"),
)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))


def per_layer_specs() -> list[tuple[str, str]]:
    """(name, unit) of every metric a ``--trace 1`` run reports."""
    specs = []
    for span in SPANS:
        specs += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"),
                  (f"{span}.total_s", "s"), (f"{span}.peak_mib", "MiB")]
    specs += [(name, unit) for name, _, _, unit in COUNTS]
    specs += [("cli.artifact_bytes", "B"), ("import.popperlab_s", "s"),
              ("import.scipy_stats_s", "s"), ("trace.overhead_s", "s"),
              ("trace.coverage", "frac")]
    return specs


def workload_config(workload: str, seed: int) -> dict:
    config = json.loads(json.dumps(SOURCE))
    config["seed"] = seed % 2 ** 64
    if workload == "coincidence-run":
        del config["measurement"]
        config["grid"]["n_points"] = 1024
        config["n_samples"] = 200_000
    return config


def cli_args(workload: str, config_path: Path, out: Path) -> list[str]:
    if workload == "epsilon-sweep":
        lo, hi, steps = SWEEP_RANGE
        return ["sweep", "--config", str(config_path), "--param", "epsilon",
                "--from", repr(lo), "--to", repr(hi), "--steps", str(steps), "--log",
                "--jobs", "1", "--out", str(out)]
    return ["run", "--config", str(config_path), "--out", str(out)]


@dataclass
class Command:
    """One CLI process: its measurements and what the gate found."""

    mode: str
    exit_code: int
    wall_s: float
    rss_mib: float
    import_s: float | None = None
    main_s: float | None = None
    artifact_bytes: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run argv to completion: (exit code, wall seconds, peak RSS in MiB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_command(workload: str, mode: str, config: dict) -> Command:
    out, stats_path = WORK / "out", WORK / "stats.json"
    shutil.rmtree(out, ignore_errors=True)
    stats_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), mode, str(stats_path), "--",
            *cli_args(workload, WORK / "config.json", out)]
    code, wall, rss = spawn(argv, WORK / "child.log")
    cmd = Command(mode=mode, exit_code=code, wall_s=wall, rss_mib=rss)
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
        cmd.import_s, cmd.main_s = stats["import_s"], stats.get("main_s")
        cmd.spans = stats.get("spans", [])
    if code != 0:
        tail = (WORK / "child.log").read_text(errors="replace")[-400:]
        cmd.problems.append(f"exit code {code}: {tail}")
    else:
        try:
            cmd.problems += check_artifacts(workload, config, out, cmd)
        except (OSError, ValueError) as e:
            cmd.problems.append(f"unreadable artifacts: {e!r}")
    shutil.rmtree(out, ignore_errors=True)
    return cmd


def check_artifacts(workload: str, config: dict, out: Path, cmd: Command) -> list[str]:
    cmd.artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
    if workload == "epsilon-sweep":
        data = (out / "sweep.csv").read_bytes()
        cmd.digests["sweep.csv"] = gate.sha256(data)
        return gate.check_sweep(data.decode(), config, *SWEEP_RANGE)
    doc = json.loads((out / "report.json").read_text())
    cmd.digests["report.json"] = gate.report_digest(doc)
    cmd.digests["histogram.csv"] = gate.sha256((out / "histogram.csv").read_bytes())
    return gate.check_report(doc, config)


def check_repeats(commands: list[Command]) -> None:
    """Every command of a run used one seed, so its artifacts must match."""
    ref = next((c.digests for c in commands if not c.problems), None)
    for c in commands:
        if ref is not None and c.digests and c.digests != ref:
            c.problems.append(f"artifacts differ from the first passing repeat: {c.digests}")


def import_breakdown(text: str) -> dict:
    """Cumulative seconds of popperlab and of scipy.stats from ``-X importtime``.

    scipy loads ``scipy.stats`` lazily, which hides the package's own line,
    so its time is the sum over the topmost ``scipy.stats.*`` entries.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"popperlab": 0.0, "scipy.stats": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        for key in totals:
            inside = name == key or name.startswith(key + ".")
            if inside and not (parent == key or parent.startswith(key + ".")):
                totals[key] += cumulative
        stack.append((depth, name))
    return totals


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    result = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        result.append(end - start - covered)
    return result


def aggregate(spans: list) -> dict:
    """Per span name: calls, self_s, total_s, peak_bytes and summed counts."""
    layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak_bytes": 0,
                     "counts": defaultdict(int)} for name in SPANS}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, peak, counts, error = span
        layer = layers[name]
        layer["calls"] += 1
        layer["self_s"] += own
        layer["total_s"] += end - start
        layer["peak_bytes"] = max(layer["peak_bytes"], peak)
        for key, value in counts.items():
            layer["counts"][key] += value
        if name == "params.auto_grid" and error == "CapExceededError":
            layer["counts"]["escalations"] += 1
    return layers


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(commands: list[Command], setup_imports: list[float]) -> dict:
    good = [c for c in commands if not c.problems] or commands
    samples = {
        "setup_s": setup_imports + [c.import_s for c in good if c.import_s is not None],
        "wall_s": [c.wall_s for c in good],
        "peak_rss_mib": [c.rss_mib for c in good],
    }
    return {name: {"unit": unit, "n": len(samples[name]),
                   "quartiles": quartiles(samples[name]) if samples[name] else None}
            for name, unit in END_TO_END}


def per_layer(commands: list[Command], importtime: dict) -> dict:
    plain = [c for c in commands if c.mode == "plain"]
    traced = [c for c in commands if c.mode == "spans"]
    memory = [c for c in commands if c.mode == "memory"]
    passes = [aggregate(c.spans) for c in traced]
    peaks = aggregate(memory[0].spans)
    values: dict[str, float] = {}
    for span in SPANS:
        values[f"{span}.calls"] = passes[0][span]["calls"]
        values[f"{span}.self_s"] = statistics.median(p[span]["self_s"] for p in passes)
        values[f"{span}.total_s"] = statistics.median(p[span]["total_s"] for p in passes)
        values[f"{span}.peak_mib"] = peaks[span]["peak_bytes"] / 2 ** 20
    for name, span, key, _ in COUNTS:
        values[name] = passes[0][span]["counts"][key]
    values["cli.artifact_bytes"] = plain[0].artifact_bytes
    values["import.popperlab_s"] = importtime["popperlab"]
    values["import.scipy_stats_s"] = importtime["scipy.stats"]
    values["trace.overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                  - statistics.median(c.wall_s for c in plain))
    values["trace.coverage"] = statistics.median(
        sum(self_times(c.spans)) / c.main_s for c in traced if c.main_s)
    return values


def set_up() -> tuple[dict, list[float]]:
    """Machine facts plus fresh-interpreter import times of popperlab.cli.

    The first import also writes the bytecode cache, which users pay once,
    so it is not a setup sample.  Exits 2 if popperlab is not importable
    from this checkout.
    """
    stats_path = WORK / "stats.json"
    argv = [sys.executable, str(HERE / "child.py"), "facts", str(stats_path), "--"]
    imports = []
    for _ in range(1 + SETUP_IMPORTS):
        stats_path.unlink(missing_ok=True)
        code, _, _ = spawn(argv, WORK / "child.log")
        if code != 0 or not stats_path.exists():
            sys.stderr.write((WORK / "child.log").read_text(errors="replace")[-2000:])
            sys.exit(f"perfbench: cannot import popperlab.cli from {ROOT / 'src'}")
        stats = json.loads(stats_path.read_text())
        if not Path(stats["popperlab_file"]).resolve().is_relative_to(ROOT / "src"):
            sys.exit(f"perfbench: popperlab was imported from {stats['popperlab_file']}, "
                     f"not from {ROOT / 'src'}")
        imports.append(stats["import_s"])
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {**stats["facts"], "src_lines": src_lines}, imports[1:]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: its commands, metrics and facts, also saved under .perfbench/results."""
    WORK.mkdir(exist_ok=True)
    config = workload_config(workload, seed)
    (WORK / "config.json").write_text(json.dumps(config, indent=2))
    facts, setup_imports = set_up()
    importtime = None
    if trace:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import popperlab.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S, check=True)
        importtime = import_breakdown(proc.stderr)
    # On a shared host the first heavy command after a pause runs 20-30%
    # slower while freed memory is faulted back in, so one warm-up command
    # is gated and counted as attempted but not timed.
    warm_up = run_command(workload, "plain", config)
    warm_up.mode = "warm-up"
    modes = ("plain", "spans") if trace else ("plain",)
    timed: list[Command] = []
    start = time.perf_counter()
    while True:
        for mode in modes:
            timed.append(run_command(workload, mode, config))
        # Stop before the next round would overrun; always repeat at least once.
        per_round = statistics.median(c.wall_s for c in timed) * len(modes)
        if (len(timed) >= 2 * len(modes)
                and time.perf_counter() - start + per_round > seconds):
            break
    commands = [warm_up] + timed
    if trace:
        commands.append(run_command(workload, "memory", config))
    check_repeats(commands)
    failed = sum(1 for c in commands if c.problems)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(commands), "failed": failed,
        "fail_frac": failed / len(commands),
        "end_to_end": end_to_end([c for c in commands if c.mode == "plain"], setup_imports),
        "per_layer": per_layer(commands, importtime) if trace else None,
        "facts": facts,
        "commands": [asdict(c) for c in commands],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1))
    result["path"] = str(path.relative_to(ROOT))
    return result


def metrics_of(result: dict) -> dict:
    if result["trace"]:
        units = dict(per_layer_specs())
        return {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
    return {name: {"value": m["quartiles"][1], "unit": m["unit"]}
            for name, m in result["end_to_end"].items()}


def print_table(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}: "
          f"{result['attempted']} commands, {result['failed']} failed")
    print(f"  {'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
    for name, m in result["end_to_end"].items():
        q1, med, q3 = m["quartiles"]
        print(f"  {name:<14}{m['unit']:<7}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{m['n']:>5}")
    print(f"  {'fail_frac':<14}{'1':<7}{result['fail_frac']:>12.4f}{'':>24}"
          f"{result['attempted']:>5}")
    if result["per_layer"]:
        layer = result["per_layer"]
        print(f"  {'layer span':<36}{'calls':>6}{'self_s':>10}{'total_s':>10}{'peak_mib':>10}")
        for span in sorted(SPANS, key=lambda s: -layer[f"{s}.self_s"]):
            print(f"  {span:<36}{layer[span + '.calls']:>6}{layer[span + '.self_s']:>10.4f}"
                  f"{layer[span + '.total_s']:>10.4f}{layer[span + '.peak_mib']:>10.1f}")
        for name, unit in per_layer_specs()[4 * len(SPANS):]:
            label = "computed count" if unit in ("count", "B") else "measured"
            print(f"  {name:<44}{layer[name]:>16.6g} {unit:<6}({label})")
    for c in result["commands"]:
        for problem in c["problems"]:
            print(f"  FAILED {c['mode']}: {problem}")
    print(f"  facts: {json.dumps(result['facts'], sort_keys=True)}")
    print(f"  result file: {result['path']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "popperlab" / "cli.py").is_file():
        print(f"perfbench: no popperlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for result in results:
        print_table(result)
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in metrics_of(result).items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
