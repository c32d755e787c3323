"""Command-line interface: exit codes, file outputs, determinism."""

import contextlib
import dataclasses
import errno
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
import weakref
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from popperlab import (
    MeasurementSpec,
    PhysicalParams,
    UserParameterError,
    ZeroNormError,
    analytic,
    cli,
    experiment,
    measurement,
    states,
    verify,
    wavefunction,
)
from popperlab.params import (
    DEFAULT_MAX_POINTS,
    MAX_BINS,
    MAX_SAMPLES,
    ValidationReport,
    auto_grid,
)

# A JSON value nested past the decoder's recursion limit on every supported
# Python.
DEEP_NESTING = "[" * 100_000 + "]" * 100_000


def write_config(path, **overrides):
    doc = {
        "params": {"sigma": 1.0, "omega0": 2.0},
        "grid": {"n_points": 1024, "y_min": -16.2, "y_max": 16.2},
        "detector": {"n_bins": 48, "y_range": [-5.0, 5.0], "side": "B"},
        "measurement": {"epsilon": 0.5},
        "evolution_time": 0.0,
        "n_samples": 2000,
        "seed": 1,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def refuse_compute(*args, **kwargs):
    raise AssertionError("computed before --out was claimed")


def vanished(*args, **kwargs):
    """Patched over ``experiment.pair_entropy``: the Schmidt stage runs after
    the pair's readout pass, so the run fails late, before it writes a file."""
    raise ZeroNormError("the state vanishes")


def read_rows(csv_path):
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestRun:
    def test_writes_report_and_artifacts(self, tmp_path, capsys):
        # positive flight time so the propagated detector-plane state exists
        cfg = write_config(tmp_path / "cfg.json", evolution_time=0.8)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["analytic"]["reduced"]["dp2y"] > 0
        assert report["numeric"]["reduced"]["dp2y"] == pytest.approx(
            report["analytic"]["reduced"]["dp2y"], rel=1e-6)
        assert (out / "histogram.csv").exists()
        for name in ("joint", "pointer", "reduced", "detector"):
            assert (out / f"{name}.wf").exists()
        assert "report.json" in capsys.readouterr().out

    def test_histogram_csv_layout(self, tmp_path):
        # lo + 48 * (10.3 / 48) rounds to 5.300000000000001; the edges end at hi.
        for lo, hi in ((-5.0, 5.0), (-5.0, 5.3)):
            cfg = write_config(tmp_path / "cfg.json",
                               detector={"n_bins": 48, "y_range": [lo, hi], "side": "B"})
            out = tmp_path / f"out{hi}"
            cli.main(["run", "--config", cfg, "--out", str(out)])
            header, rows = read_rows(out / "histogram.csv")
            assert header == ["bin_lo", "bin_hi", "count"]
            assert len(rows) == 48
            assert sum(int(r["count"]) for r in rows) <= 2000
            assert float(rows[0]["bin_lo"]) == lo and float(rows[-1]["bin_hi"]) == hi
            assert all(a["bin_hi"] == b["bin_lo"] for a, b in zip(rows, rows[1:]))

    def test_deterministic_reports(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        docs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
            doc = json.loads((out / "report.json").read_text())
            doc.pop("timings")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_single_pair_correlation_is_null(self, tmp_path):
        # One coincidence pair has no correlation; it must be reported as
        # null (NaN is not JSON) without numpy warnings.
        cfg = write_config(tmp_path / "cfg.json", measurement=None, n_samples=1,
                           grid={"n_points": 128, "y_min": -16.2, "y_max": 16.2})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["sampled"]["n"] == 1
        assert report["sampled"]["correlation"] is None

    def test_product_state_entropy_is_positive_zero(self, tmp_path):
        # Ω₀ = ħ/4σ keeps one Schmidt coefficient, whose entropy sum is −0.0
        cfg = write_config(tmp_path / "cfg.json", params={"sigma": 1.0, "omega0": 0.25},
                           grid={"n_points": 256, "y_min": -8.0, "y_max": 8.0},
                           n_samples=0)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        entropy = json.loads((out / "report.json").read_text())["numeric"]["schmidt_entropy"]
        assert entropy == 0.0
        assert math.copysign(1.0, entropy) == 1.0

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cli.main(["run", "--config", cfg, "--out", str(out1)])
        cli.main(["run", "--config", cfg, "--out", str(out2), "--seed", "7"])
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        assert b["seed"] == 7
        assert a["numeric"] == b["numeric"]
        assert a["sampled"]["histogram"] != b["sampled"]["histogram"]

    def test_invalid_epsilon_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", measurement={"epsilon": 0.0})
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "epsilon must be > 0" in capsys.readouterr().err

    def test_numerical_contract_violation_exits_3(self, tmp_path, capsys):
        # the config validates: 7.43 widths of the side-A pointer, flown to
        # 0.943, end 1e-6 inside the grid edge, where a Gaussian meets the
        # tail contract only just.  The pointer sits half a spacing off the
        # grid, so its sampled peak is low and the boundary breaks the tail
        # contract in stage 'propagate'
        cfg = write_config(tmp_path / "cfg.json", evolution_time=0.8, n_samples=0,
                           grid={"n_points": 1024, "y_min": -16.2,
                                 "y_max": 16.189961635491958},
                           detector={"n_bins": 48, "y_range": [-5.0, 5.0], "side": "A"},
                           measurement={"epsilon": 0.5, "center": 9.176885875705576})
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure" in err and "stage 'propagate' failed" in err

    def test_refused_side_a_pointer_past_validate_exits_3(self, tmp_path, capsys, monkeypatch):
        # validate refuses this side-A pointer (TestExitCodeFuzz); let past it,
        # the pointer flies to the grid edge and breaks the tail contract in
        # stage 'propagate'
        monkeypatch.setattr(experiment, "validate", lambda config: ValidationReport())
        cfg = write_config(tmp_path / "cfg.json", evolution_time=0.8, n_samples=0,
                           detector={"n_bins": 48, "y_range": [-5.0, 5.0], "side": "A"},
                           measurement={"epsilon": 0.5, "center": 12.0})
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure" in err and "stage 'propagate' failed" in err

    def test_side_a_flight_past_the_float_range_exits_3(self, tmp_path, capsys, monkeypatch):
        # the reduced state's flown width is finite at this time; validate
        # refuses the pointer's, which overflows a float (TestExitCodeFuzz),
        # and let past it the flight fails on it
        monkeypatch.setattr(experiment, "validate", lambda config: ValidationReport())
        cfg = write_config(tmp_path / "cfg.json", evolution_time=9.4e153,
                           detector={"n_bins": 48, "y_range": [-5.0, 5.0], "side": "A"})
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure: stage 'propagate' failed: predicted width inf" in err
        assert "Traceback" not in err

    def test_grid_short_of_the_tail_contract_exits_2(self, tmp_path, capsys):
        # ±13 holds 6 pair spreads of 2.016 but not the 7.43 the tail contract needs
        cfg = write_config(tmp_path / "cfg.json",
                           grid={"n_points": 1024, "y_min": -13.0, "y_max": 13.0},
                           n_samples=0)
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: the pair is at 0" in err and "initial position spread" in err

    def test_coincidence_flight_needs_no_room(self, tmp_path):
        # coincidence runs sample the pair at the slit plane, so a flight
        # time that would spread it past the grid adds no containment
        cfg = write_config(tmp_path / "cfg.json", measurement=None, evolution_time=8.0)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_coincidence_runs_take_any_finite_flight_time(self, tmp_path):
        # nothing flies in coincidence mode, so no flight time can overflow it
        hists = []
        for t in (0.0, 1e300):
            cfg = write_config(tmp_path / f"cfg{t}.json", measurement=None, evolution_time=t)
            out = tmp_path / f"o{t}"
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
            hists.append((out / "histogram.csv").read_bytes())
        assert hists[0] == hists[1]

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB")
        monkeypatch.setattr(experiment, "pair_source", exhausted)
        cfg = write_config(tmp_path / "cfg.json")
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "stage 'build' failed: Unable to allocate" in err
        assert "Traceback" not in err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        # --out is claimed before the scenario is computed
        monkeypatch.setattr(cli, "run_scenario", refuse_compute)
        cfg = write_config(tmp_path / "cfg.json", n_samples=0)
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main(["run", "--config", cfg, "--out", str(taken)])
        assert code == 2
        assert "error: cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("fails,code,written", [
        (False, 0, ["report.json", "histogram.csv", "pointer.wf", "reduced.wf", "detector.wf"]),
        (True, 3, []),
    ], ids=["finished", "failed-after-numeric-initial"])
    def test_pair_above_the_save_bound_is_reported_not_written(self, tmp_path, capsys,
                                                               monkeypatch, fails, code,
                                                               written):
        # the note comes only from a finished run
        cfg = write_config(tmp_path / "cfg.json", evolution_time=0.8,
                           grid={"n_points": 256, "y_min": -16.2, "y_max": 16.2})
        monkeypatch.setattr(cli, "SAVE_MAX_AMPLITUDES", 256 * 256 - 1)
        if fails:
            monkeypatch.setattr(experiment, "pair_entropy", vanished)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == code
        captured = capsys.readouterr()
        note = "note: joint.wf skipped, 65536 amplitudes exceeds the 65535 save bound"
        assert (note in captured.err) is not fails
        assert sorted(f.name for f in out.iterdir()) == sorted(written)
        assert (f"wrote {', '.join(written)} to {out}" in captured.out) is not fails

    @pytest.mark.parametrize("center", [16.2, 17.2, 1e6])
    def test_pointer_centre_off_the_grid_exits_2(self, tmp_path, capsys, center):
        # the reduced state sits near the pointer, too close to the edge
        cfg = write_config(tmp_path / "cfg.json", n_samples=0,
                           measurement={"epsilon": 0.5, "center": center})
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: pointer centre {center:.6g} leaves the reduced state at" in err

    def test_wide_pointer_at_the_edge_exits_0(self, tmp_path):
        # a wide pointer barely moves the reduced state off zero
        cfg = write_config(tmp_path / "cfg.json", n_samples=0,
                           measurement={"epsilon": 10.0, "center": 16.2})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_corrupt_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: cannot read config:" in err
        assert "Traceback" not in err

    def test_wrong_field_type_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", params={"sigma": "wide"})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field,raw", [
        ("detector", '{"n_bins": 48, "y_range": [-5.0]}'),
        ("grid", '{"n_points": 1e400, "y_min": -16.2, "y_max": 16.2}'),
        # Counts that int() would silently truncate, and a y_range whose
        # extra entry would be dropped.
        ("grid", '{"n_points": 1024.9, "y_min": -16.2, "y_max": 16.2}'),
        ("detector", '{"n_bins": 48.5, "y_range": [-5.0, 5.0]}'),
        ("detector", '{"n_bins": 48, "y_range": [-5.0, 5.0, 9.0]}'),
        ("n_samples", "2.7"),
        ("n_samples", "true"),
        ("seed", "1.5"),
        ("seed", "false"),
        # Counts take JSON numbers only: a numeric string is not coerced.
        ("grid", '{"n_points": "1024", "y_min": -16.2, "y_max": 16.2}'),
        ("n_samples", '"100"'),
        ("seed", '"7"'),
        # Float fields take JSON numbers only: no booleans, no strings.
        ("params", '{"sigma": true, "omega0": 2.0}'),
        ("params", '{"sigma": 1.0, "omega0": "2.0"}'),
        ("params", '{"sigma": 1.0, "omega0": 2.0, "hbar": false}'),
        ("grid", '{"n_points": 1024, "y_min": -16.2, "y_max": true}'),
        ("detector", '{"n_bins": 48, "y_range": [-5.0, "5.0"]}'),
        ("measurement", '{"epsilon": true}'),
        ("measurement", '{"epsilon": 0.5, "center": "0"}'),
        ("evolution_time", "true"),
        ("evolution_time", '"1.0"'),
        pytest.param("params", DEEP_NESTING, id="params-deeply-nested"),
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, field, raw):
        path = tmp_path / "cfg.json"
        write_config(path, **{field: "RAW"})
        path.write_text(path.read_text().replace('"RAW"', raw))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: bad config" in capsys.readouterr().err


class TestJointWf:
    """``run`` saves the pair's source as ``joint.wf`` through
    ``save_wavefunction``, as it saves every other state, in one pass of
    its own over the source's rows."""

    @staticmethod
    def factored_config(path, measurement, params=(1.0, 1.0), n=256):
        # σ = Ω₀ = 1 has 55 closed-form modes, so at 256 points the source
        # reads the pair's factor and the entropy takes the factored route,
        # which builds no pair
        extent = auto_grid(PhysicalParams(*params), MeasurementSpec(0.5), 0.8).y_max
        return write_config(path, params={"sigma": params[0], "omega0": params[1]},
                            grid={"n_points": n, "y_min": -extent, "y_max": extent},
                            measurement=measurement,
                            evolution_time=0.8 if measurement else 0.0)

    @pytest.mark.parametrize("measurement", [{"epsilon": 0.5}, None],
                             ids=["slit", "coincidence"])
    def test_joint_wf_is_the_saved_built_pair(self, tmp_path, measurement):
        # The README source at 1024 points reads its norm from the pair's
        # factor: joint.wf is the saved source, and the built pair to rounding.
        cfg = write_config(tmp_path / "cfg.json", measurement=measurement)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        config = cli._load_config(cfg)
        source = states.pair_source(config.params, config.grid)
        assert source.factored is not None
        wavefunction.save_wavefunction(source, tmp_path / "source.wf")
        assert (out / "joint.wf").read_bytes() == (tmp_path / "source.wf").read_bytes()
        built = states.build_joint_state(source.recipe)
        saved = wavefunction.load_wavefunction(out / "joint.wf")
        # subnormal amplitudes keep fewer bits
        np.testing.assert_allclose(saved.amps.real, built.amps, rtol=1e-15, atol=1e-300)

    @pytest.mark.parametrize("overrides,code", [
        ({"measurement": {"epsilon": 0.0}}, 2),
        ({}, 3),
    ], ids=["validate", "after-numeric-initial"])
    def test_a_failed_run_leaves_no_joint_wf(self, tmp_path, capsys, monkeypatch,
                                             overrides, code):
        monkeypatch.setattr(experiment, "pair_entropy", vanished)
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == code
        assert list(out.iterdir()) == []
        assert "Traceback" not in capsys.readouterr().err

    def test_a_failed_close_removes_joint_wf(self, tmp_path, capsys, epwf_faults):
        # joint.wf is the first state saved, after report.json and
        # histogram.csv, which the failed run removes too
        epwf_faults("joint.wf", close_fails=True)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write output: [Errno 5] Input/output error" in err
        assert "Traceback" not in err
        assert not (out / "joint.wf").exists()
        assert list(out.iterdir()) == []

    def test_a_write_error_mid_stream_exits_2(self, tmp_path, capsys, monkeypatch):
        real, calls = wavefunction.EPWFWriter.write, []

        def full_disk(self, rows):
            calls.append(len(rows))
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            real(self, rows)

        monkeypatch.setattr(wavefunction.EPWFWriter, "write", full_disk)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write output: [Errno 28] No space left on device" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("measurement,bound,params,n,passes", [
        ({"epsilon": 0.5}, cli.SAVE_MAX_AMPLITUDES, (1.0, 1.0), 256, 1),
        (None, cli.SAVE_MAX_AMPLITUDES, (1.0, 1.0), 256, 1),
        ({"epsilon": 0.5}, 256 * 256 - 1, (1.0, 1.0), 256, 0),
        # σ = Ω₀ = 1.6 has 142 modes: past 4·√1024 the source reads its
        # rows, and up to 1024/4 the entropy takes the factored route
        ({"epsilon": 0.5}, cli.SAVE_MAX_AMPLITUDES, (1.6, 1.6), 1024, 3),
        (None, cli.SAVE_MAX_AMPLITUDES, (1.6, 1.6), 1024, 3),
    ], ids=["slit", "coincidence", "slit-above-the-save-bound", "rows-slit",
            "rows-coincidence"])
    def test_amplitudes_are_computed_once_per_pass(self, tmp_path, monkeypatch,
                                                   measurement, bound, params, n, passes):
        # The factor route reads one row of the pair for each of its k
        # pivots and the two edge rows, and then, up to the save bound, the
        # save of joint.wf is its one pass; the rows route adds the norm and
        # the readout passes.  A coincidence run adds the rows its sampler
        # fills.  On the run's one grid every amplitude is the T·H product of
        # _fill_rows, and joint_amplitude is not called.
        real_fill, real_rows = states._fill_rows, states.PairSource.rows
        counts = {"amplitudes": 0, "single": 0, "sampled": 0}
        states._factored.cache_clear()

        def counted_fill(recipe, lo, hi, out, norm=None):
            assert recipe.grid1 == recipe.grid2
            counts["amplitudes"] += out.size
            counts["single"] += out.shape == (1, recipe.grid1.n_points) and norm is None
            return real_fill(recipe, lo, hi, out, norm)

        def counted_rows(self, lo, hi, out):
            counts["sampled"] += out.size
            return real_rows(self, lo, hi, out)

        def refused(*args, **kwargs):
            raise AssertionError("joint_amplitude must not be called")

        monkeypatch.setattr(states, "_fill_rows", counted_fill)
        monkeypatch.setattr(states.PairSource, "rows", counted_rows)
        monkeypatch.setattr(states, "joint_amplitude", refused)
        monkeypatch.setattr(cli, "SAVE_MAX_AMPLITUDES", bound)
        cfg = self.factored_config(tmp_path / "cfg.json", measurement, params, n)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        config = cli._load_config(cfg)
        factor = states._readout_route(config.params, config.grid)
        assert factor == (passes < 3)
        if n * n <= bound:
            assert (out / "joint.wf").stat().st_size == 48 + 16 * n * n
        else:
            assert not (out / "joint.wf").exists()
        assert (counts["sampled"] > 0) == (measurement is None)
        # k pivots, and on the factor route the two edge rows
        k = counts["single"] - 2 * factor
        assert counts["amplitudes"] == passes * n * n + n * counts["single"] + counts["sampled"]
        assert 0 < k <= n // 4 + 1


def perfbench_run(monkeypatch):
    """``perfbench/run.py`` as a module, for its workload configs; importing
    it runs nothing."""
    here = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(here))  # run.py imports its sibling gate.py
    spec = importlib.util.spec_from_file_location("perfbench_run", here / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def artifact_digests(out):
    """SHA-256 of ``report.json`` without ``timings`` and of every ``.wf``."""
    doc = json.loads((out / "report.json").read_text())
    doc.pop("timings")
    digests = {"report.json": sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()}
    return digests | {p.name: sha256(p.read_bytes()).hexdigest() for p in out.glob("*.wf")}


class TestBlasThreadCounts:
    """The benchmark's workloads write the same artifacts at one and two
    BLAS threads, each in its own ``popperlab run`` process."""

    def test_workload_artifacts_agree_at_one_and_two_blas_threads(self, tmp_path, child_env,
                                                                  monkeypatch):
        run = perfbench_run(monkeypatch)
        configs = {w: run.workload_config(w, 1) for w in ("slit-run", "coincidence-run")}
        # above the joint.wf save bound: the factor readout, and no joint.wf
        configs["slit-run-4096"] = json.loads(json.dumps(configs["slit-run"]))
        configs["slit-run-4096"]["grid"]["n_points"] = 4096
        # σ = Ω₀ = 1.6 has 142 modes, past 4·√1024: the rows readout
        configs["rows-route"] = json.loads(json.dumps(configs["coincidence-run"]))
        configs["rows-route"]["params"] |= {"sigma": 1.6, "omega0": 1.6}
        note = "note: joint.wf skipped, 16777216 amplitudes exceeds the 4194304 save bound"
        for name, config in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            loaded = cli._load_config(str(path))
            assert states._readout_route(loaded.params, loaded.grid) == (name != "rows-route")
            digests = []
            for threads in ("1", "2"):
                out = tmp_path / f"threads-{threads}" / name
                proc = subprocess.run(
                    [sys.executable, "-m", "popperlab.cli", "run", "--config", str(path),
                     "--out", str(out)], capture_output=True, text=True, timeout=300,
                    env={**child_env, "OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
                digests.append(artifact_digests(out))
                if name == "slit-run-4096":
                    assert not (out / "joint.wf").exists()
                    assert note in proc.stderr
            assert digests[0] == digests[1], name


class TestFailedRunLeavesNothing:
    """A run that fails removes every file it opened in ``--out``; a file it
    never opened stays."""

    @staticmethod
    def readme_run(tmp_path):
        # the README slit config at 512 points, into an --out holding a file
        cfg = write_config(tmp_path / "cfg.json", evolution_time=0.8, n_samples=20000,
                           grid={"n_points": 512, "y_min": -16.2, "y_max": 16.2})
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("not this run's")
        return ["run", "--config", cfg, "--out", str(out)], out

    def test_a_failed_save_removes_the_files_written_before_it(self, tmp_path, capsys,
                                                              monkeypatch):
        real = cli.save_wavefunction

        def full_after_reduced(wf, path):
            if (path.parent / "reduced.wf").exists():
                raise OSError(errno.ENOSPC, "No space left on device")
            real(wf, path)

        monkeypatch.setattr(cli, "save_wavefunction", full_after_reduced)
        argv, out = self.readme_run(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error: cannot write output: [Errno 28] No space left on device" in err
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_enospc_inside_a_wf_removes_every_file(self, tmp_path, capsys, epwf_faults):
        # write 2 is reduced.wf's one row, after its header
        epwf_faults("reduced.wf", fail_at=2)
        argv, out = self.readme_run(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "error: cannot write output: [Errno 28] No space left on device" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_a_file_the_run_could_not_open_stays(self, tmp_path, capsys):
        argv, out = self.readme_run(tmp_path)
        (out / "report.json").mkdir()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: [Errno 21]")
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "report.json"]

    def test_an_unwritable_joint_wf_exits_2_after_computing(self, tmp_path, capsys):
        # joint.wf is saved after report.json and histogram.csv, which the
        # failed run removes
        argv, out = self.readme_run(tmp_path)
        (out / "joint.wf").mkdir()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: [Errno 21]")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["joint.wf", "notes.txt"]


class TestSweep:
    def test_narrowing_slit_curve(self, tmp_path):
        # sigma = omega0 = 10: the tight-correlation story told as a CSV;
        # the 0.05 step needs the escalated grid cap
        cfg = write_config(tmp_path / "cfg.json",
                           params={"sigma": 10.0, "omega0": 10.0},
                           grid={"n_points": 4096, "y_min": -81.0, "y_max": 81.0},
                           measurement={"epsilon": 0.2}, n_samples=0)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.05", "--to", "0.5", "--steps", "4",
                         "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out / "sweep.csv")
        assert header == ["param_value", "dy2_closed", "dp2_closed",
                          "dp2_numeric", "dp2_initial", "ratio"]
        assert len(rows) == 4
        eps = [float(r["param_value"]) for r in rows]
        dp2 = [float(r["dp2_closed"]) for r in rows]
        assert eps == sorted(eps)
        # narrower slit, larger remote momentum spread
        assert all(a > b for a, b in zip(dp2, dp2[1:]))
        for r in rows:
            assert float(r["ratio"]) <= 1.0 + 1e-8
            assert float(r["dp2_numeric"]) == pytest.approx(
                float(r["dp2_closed"]), rel=1e-6)

    def test_ratio_peaks_on_disentanglement_line(self, tmp_path):
        # omega0 sweep through hbar/(4 sigma) = 0.25; the middle row sits
        # exactly on the line and is the only place the ratio reaches 1
        cfg = write_config(tmp_path / "cfg.json", n_samples=0)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", cfg, "--param", "omega0",
                         "--from", "0.05", "--to", "0.45", "--steps", "5",
                         "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "sweep.csv")
        ratios = [float(r["ratio"]) for r in rows]
        values = [float(r["param_value"]) for r in rows]
        assert values[2] == pytest.approx(0.25, abs=1e-15)
        assert abs(ratios[2] - 1.0) <= 1e-9
        for i in (0, 1, 3, 4):
            assert ratios[i] < 1.0 - 1e-6
        assert max(ratios) <= 1.0 + 1e-8

    def test_overflowing_grid_span_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", measurement={"epsilon": 1e120})
        code = cli.main(["sweep", "--config", cfg, "--param", "sigma", "--from", "1e-150",
                         "--to", "1e-150", "--steps", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: parameters overflow the grid")

    def test_log_spacing(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_samples=0)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.1", "--to", "1.6", "--steps", "5",
                         "--log", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "sweep.csv")
        values = [float(r["param_value"]) for r in rows]
        assert values == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6], rel=1e-12)

    def test_parallel_jobs_identical_output(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_samples=0)
        outputs = []
        for jobs, sub in ((1, "j1"), (2, "j2")):
            out = tmp_path / sub
            code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                             "--from", "0.3", "--to", "0.6", "--steps", "4",
                             "--jobs", str(jobs), "--out", str(out)])
            assert code == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_jobs_accepted_and_steps_run_serially(self, tmp_path):
        # --jobs is kept for scripts that pass it; no pool exists to start
        # processes, so even 5000 must give the same bytes as 1
        assert not hasattr(cli, "ProcessPoolExecutor")
        cfg = write_config(tmp_path / "cfg.json", n_samples=0)
        outputs = []
        for jobs in ("1", "5000"):
            out = tmp_path / f"j{jobs}"
            code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                             "--from", "0.3", "--to", "0.6", "--steps", "3",
                             "--jobs", jobs, "--out", str(out)])
            assert code == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_sweep_builds_no_pair_state(self, tmp_path, monkeypatch):
        # every step reduces by convolution, including the 8192-point
        # escalation of the 0.05 step, so no N×N amplitude is evaluated:
        # _fill_rows produces every row of the pair, a source's included
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep step built the pair state")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("popperlab"):
                for name in ("build_joint_state", "joint_amplitude", "_fill_rows"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refuse)
        cfg = write_config(tmp_path / "cfg.json",
                           params={"sigma": 10.0, "omega0": 10.0},
                           measurement={"epsilon": 0.2}, n_samples=0)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.05", "--to", "0.5", "--steps", "4",
                         "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "sweep.csv")
        assert len(rows) == 4

    def test_seventeen_digit_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_samples=0)
        out = tmp_path / "out"
        cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                  "--from", "0.1", "--to", "0.3", "--steps", "3",
                  "--out", str(out)])
        _, rows = read_rows(out / "sweep.csv")
        from popperlab import reduced_spreads, PhysicalParams
        p = PhysicalParams(sigma=1.0, omega0=2.0)
        for r in rows:
            eps = float(r["param_value"])
            # text -> float -> closed form reproduces the printed value exactly
            assert float(r["dp2_closed"]) == reduced_spreads(p, eps).dp2y

    def test_sigma_sweep_without_measurement_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", measurement=None, n_samples=0)
        code = cli.main(["sweep", "--config", cfg, "--param", "sigma",
                         "--from", "0.5", "--to", "2.0", "--steps", "3",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_nonphysical_base_exits_2(self, tmp_path, capsys):
        # the sweep keeps hbar from its config; 0 used to end in a traceback
        cfg = write_config(tmp_path / "cfg.json",
                           params={"sigma": 1.0, "omega0": 2.0, "hbar": 0.0})
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.1", "--to", "0.2", "--steps", "3",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "hbar must be > 0" in capsys.readouterr().err

    def test_too_few_steps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.1", "--to", "0.2", "--steps", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("steps", [10 ** 13, cli.MAX_SWEEP_STEPS + 1])
    def test_too_many_steps_exits_2(self, tmp_path, capsys, steps):
        cfg = write_config(tmp_path / "cfg.json")
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.1", "--to", "0.2", "--steps", str(steps),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "at most" in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        # --out is claimed before any step is computed
        monkeypatch.setattr(cli, "_sweep_step", refuse_compute)
        cfg = write_config(tmp_path / "cfg.json")
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.1", "--to", "0.2", "--steps", "2",
                         "--out", str(taken)])
        assert code == 2
        assert "error: cannot write output" in capsys.readouterr().err

    def test_memory_error_in_a_step_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 64.0 MiB")
        monkeypatch.setattr(cli, "_sweep_step", exhausted)
        cfg = write_config(tmp_path / "cfg.json")
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.1", "--to", "0.2", "--steps", "2",
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure: Unable to allocate 64.0 MiB" in err
        assert "Traceback" not in err

    def test_unknown_parameter_exits_2(self, tmp_path):
        # argparse rejects the choice itself, also with status 2
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--config", cfg, "--param", "hbar",
                      "--from", "0.1", "--to", "0.2", "--steps", "3",
                      "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    def test_nonpositive_endpoint_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "-0.1", "--to", "0.2", "--steps", "3",
                         "--out", str(tmp_path / "o")])
        assert code == 2


def key_tree(doc):
    """The nested key set of a JSON document; a leaf, list or null is None."""
    return {k: key_tree(v) for k, v in doc.items()} if isinstance(doc, dict) else None


def leaves(*names):
    return dict.fromkeys(names)


CONFIG_KEYS = {
    "detector": leaves("n_bins", "side", "y_range"),
    "grid": leaves("n_points", "y_max", "y_min"),
    "measurement": leaves("center", "epsilon"),
    "params": leaves("hbar", "mass", "omega0", "sigma"),
    **leaves("evolution_time", "n_samples", "seed"),
}
SAMPLED_KEYS = {
    "histogram": leaves("counts", "n_bins", "overflow", "side", "total", "underflow",
                        "y_range"),
    "ks": leaves("pvalue", "statistic"),
    **leaves("correlation", "mean", "n", "predicted_detector_width", "side", "std"),
}
SLIT_REPORT_KEYS = {
    "analytic": {
        "initial": leaves("dp1y", "dp2y", "dy1", "dy2"),
        "reduced": {
            "strong_correlation": leaves("regime_ok", "value"),
            **leaves("alpha", "detector_width_at_t", "dp1y", "dp2y", "dp2y_eps_to_zero",
                     "dy2", "omega"),
        },
        **leaves("disentangled", "position_correlation"),
    },
    "config": CONFIG_KEYS,
    "numeric": {
        "grid": leaves("dy", "n_points", "y_max", "y_min"),
        "initial": leaves("dp2y", "dy1", "dy2"),
        "ratios": leaves("dp2_post_over_initial_closed", "dp2_post_over_initial_numeric"),
        "reduced": leaves("dp2y", "dy2", "residual"),
        "schmidt_entropy": None,
    },
    "sampled": SAMPLED_KEYS,
    "seed": None,
    "timings": leaves("build", "numeric_initial", "propagate", "reduce", "sample", "schmidt"),
}
COINCIDENCE_REPORT_KEYS = {
    **SLIT_REPORT_KEYS,
    "analytic": {**SLIT_REPORT_KEYS["analytic"], "reduced": None},
    "config": {**CONFIG_KEYS, "measurement": None},
    "numeric": {**SLIT_REPORT_KEYS["numeric"], "ratios": None, "reduced": None},
    "timings": leaves("build", "numeric_initial", "sample", "schmidt"),
}


class TestReportLayout:
    """report.json's full nested key set, in slit and in coincidence mode."""

    @pytest.mark.parametrize("overrides,expected", [
        ({"evolution_time": 0.8}, SLIT_REPORT_KEYS),
        ({"measurement": None}, COINCIDENCE_REPORT_KEYS),
    ], ids=["slit", "coincidence"])
    def test_key_tree(self, tmp_path, overrides, expected):
        cfg = write_config(tmp_path / "cfg.json", n_samples=200,
                           grid={"n_points": 256, "y_min": -16.2, "y_max": 16.2},
                           **overrides)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert key_tree(json.loads((out / "report.json").read_text())) == expected


def scipy_loaded(tmp_path, env, seed=None):
    """scipy and its public subpackages loaded in a fresh interpreter.

    It imports ``popperlab.cli`` and, given a seed, runs the default slit
    scenario with 2000 samples.  Returns (loaded names, the run's KS block).
    """
    code = "import json, sys\nfrom popperlab import cli\n"
    if seed is not None:
        cfg = write_config(tmp_path / "cfg.json", n_samples=2000, seed=seed)
        out = tmp_path / "out"
        code += f"assert cli.main(['run', '--config', {cfg!r}, '--out', {str(out)!r}]) == 0\n"
    code += "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = {".".join(m.split(".")[:2]) for m in json.loads(proc.stdout.splitlines()[-1])}
    loaded = {m for m in loaded if not m.split(".")[-1].startswith("_") and m != "scipy.version"}
    ks = None if seed is None else json.loads((out / "report.json").read_text())["sampled"]["ks"]
    return loaded, ks


class TestImportBudget:
    """scipy loads only where a path needs it, and its stats package never."""

    def test_cli_import_loads_no_scipy(self, tmp_path, child_env):
        assert scipy_loaded(tmp_path, child_env) == (set(), None)

    def test_run_with_pvalue_in_the_body_loads_no_scipy(self, tmp_path, child_env):
        loaded, ks = scipy_loaded(tmp_path, child_env, seed=1)
        assert 2000 * ks["statistic"] ** 2 < 2.2  # below the smirnov tail
        assert loaded == set()

    def test_run_with_pvalue_in_the_tail_loads_scipy_special_only(self, tmp_path, child_env):
        loaded, ks = scipy_loaded(tmp_path, child_env, seed=75)
        assert 2000 * ks["statistic"] ** 2 >= 2.2
        assert loaded == {"scipy", "scipy.special"}


class TestFastRouteCallers:
    """Every caller of the source pair's fast routes meets their preconditions:
    ``reduce_pair`` gets a real, non-negative pointer.  ``pair_entropy`` and
    ``pair_schmidt`` take one grid for both axes by their signatures."""

    def test_run_sweep_and_verify_pass_what_the_routes_take(self, tmp_path, monkeypatch,
                                                           capsys):
        pointers, sites = [], set()

        def spy(site, route, seen):
            def call(state, *args, **kwargs):
                seen.append(state)
                sites.add(site)
                return route(state, *args, **kwargs)
            return call

        for site in ("experiment", "cli", "verify"):
            monkeypatch.setattr(f"popperlab.{site}.reduce_pair",
                                spy(f"{site}.reduce_pair", measurement.reduce_pair, pointers))
        for site, name in (("experiment", "pair_entropy"), ("verify", "pair_schmidt")):
            monkeypatch.setattr(f"popperlab.{site}.{name}",
                                spy(f"{site}.{name}", getattr(states, name), []))
        side_a = write_config(tmp_path / "a.json", evolution_time=0.8, n_samples=500,
                              measurement={"epsilon": 0.5, "center": 1.0},
                              detector={"n_bins": 48, "y_range": [-5.0, 5.0], "side": "A"})
        side_b = write_config(tmp_path / "b.json", evolution_time=0.8, n_samples=500)
        for argv in (["run", "--config", side_a, "--out", str(tmp_path / "a")],
                     ["run", "--config", side_b, "--out", str(tmp_path / "b")],
                     ["sweep", "--config", side_b, "--param", "epsilon", "--from", "0.3",
                      "--to", "0.6", "--steps", "3", "--out", str(tmp_path / "sweep")],
                     ["verify", "--quick"]):
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        assert sites == {"experiment.reduce_pair", "cli.reduce_pair", "verify.reduce_pair",
                         "experiment.pair_entropy", "verify.pair_schmidt"}
        for phi1 in pointers:
            assert not np.iscomplexobj(phi1.amps) and np.all(phi1.amps >= 0)


class TestVerifyCommand:
    def test_quick_and_full_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--quick", "--full"])
        assert err.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_table_lists_every_check(self, monkeypatch, capsys):
        rows = []
        real = cli.run_checks
        monkeypatch.setattr(cli, "run_checks", lambda level: rows.extend(real(level)) or rows)
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        for fragment in ("closed form vs grid", "route agreement", "factor vs rows route",
                         "never exceeds initial",
                         "narrow strictly", "minimum-uncertainty", "chi-square",
                         "doubling the resolution"):
            assert fragment in out
        criteria = [r.criterion for r in rows]
        assert criteria == sorted(criteria)
        assert set(criteria) == set(range(1, 11))

    @pytest.mark.parametrize("error,code,message", [
        (MemoryError("Unable to allocate 256 MiB"), 3,
         "numerical failure: Unable to allocate 256 MiB"),
        (MemoryError(), 3, "numerical failure: MemoryError"),
        (UserParameterError("scale ratio needs >= 16384 points"), 2,
         "error: scale ratio needs >= 16384 points"),
    ], ids=["memory", "bare-memory", "user"])
    def test_failure_maps_to_exit_code(self, monkeypatch, capsys, error, code, message):
        def fail(level):
            raise error
        monkeypatch.setattr(cli, "run_checks", fail)
        assert cli.main(["verify"]) == code
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert "Traceback" not in captured.out + captured.err

    @staticmethod
    def scaled_omega(params, eps):
        closed = analytic.reduced_spreads(params, eps)
        k = 1.0 + 1e-5
        return dataclasses.replace(closed, omega=closed.omega * k, dy2=closed.dy2 * k,
                                   dp2y=closed.dp2y / k)

    @staticmethod
    def widened_omega(params, eps):
        closed = analytic.reduced_spreads(params, eps)
        k = 1.0 + 1e-5
        return dataclasses.replace(closed, omega=closed.omega * k, dy2=closed.dy2 * k)

    @staticmethod
    def route_off(*args, **kwargs):
        red = measurement.reduce_pair(*args, **kwargs)
        return dataclasses.replace(red, dp2_numeric=red.dp2_numeric * (1.0 + 1e-12))

    @staticmethod
    def factored_off(params, grid):
        ss = states.pair_schmidt(params, grid)
        return dataclasses.replace(ss, entropy=ss.entropy * (1.0 + 1e-12))

    @staticmethod
    def entropy_off(params, grid):
        ss = states.pair_schmidt(params, grid)
        return dataclasses.replace(ss, entropy=ss.entropy * (1.0 + 1e-11))

    @staticmethod
    def number_off(params, grid):
        ss = states.pair_schmidt(params, grid)
        return dataclasses.replace(ss, coefficients=ss.coefficients * (1.0 + 1e-11))

    @staticmethod
    def factor_readout_off(params, grid):
        source = states.pair_source(params, grid)
        if source.factored is None:
            return source
        r = source.factored
        return dataclasses.replace(source, factored=r._replace(spectrum2=r.spectrum2 * (1.0 + 1e-12)))

    @staticmethod
    def spread_dp2_off(source):
        st, dp2 = states.pair_spreads(source)
        return st, dp2 * (1.0 + 1e-5)

    @staticmethod
    def scaled(func, k):
        return lambda *args, **kwargs: func(*args, **kwargs) * k

    @pytest.mark.parametrize("target,fault,row", [
        ("popperlab.measurement.reduced_spreads", scaled_omega,
         "reduced spreads: closed form vs grid"),
        ("popperlab.verify.pair_spreads", spread_dp2_off,
         "initial spreads: closed form vs grid"),
        ("popperlab.verify.position_correlation",
         lambda params: analytic.position_correlation(params) + 0.02,
         "coincidence correlation vs closed form"),
        ("popperlab.verify.reduce_pair", route_off,
         "reduce_pair route agreement with the dense reduction"),
        ("popperlab.verify.momentum_std_spectral",
         scaled(wavefunction.momentum_std_spectral, 1.0 - 1e-4),
         "remote momentum never exceeds initial (numeric)"),
        ("popperlab.measurement.reduced_spreads", widened_omega,
         "reduced state is minimum-uncertainty (closed)"),
        ("popperlab.measurement.momentum_std_spectral",
         scaled(wavefunction.momentum_std_spectral, 1.0 + 1e-5),
         "reduced state is minimum-uncertainty (grid)"),
        ("popperlab.verify.pair_schmidt", entropy_off,
         "Schmidt entropy: closed form vs grid"),
        ("popperlab.verify.pair_schmidt", factored_off,
         "Schmidt entropy: factored vs dense route"),
        ("popperlab.verify.pair_schmidt", number_off,
         "Schmidt number: grid vs closed form"),
        ("popperlab.verify.pair_source", factor_readout_off,
         "Pair readout: factor vs rows route"),
    ], ids=["omega", "spectral-dp2", "correlation", "route-dp2", "initial-dp2",
            "closed-product", "grid-product", "entropy-closed", "entropy-route",
            "schmidt-number", "factor-readout"])
    def test_injected_fault_fails_its_row(self, monkeypatch, capsys, target, fault, row):
        monkeypatch.setattr(target, fault)
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert next(line for line in out.splitlines() if line.startswith(row)).endswith("FAIL")


class TestVerifySchmidtRoutes:
    """Criterion 2 runs each Schmidt route once per pair, and takes the
    entropy ``pair_entropy`` reports from the route ``states`` picks."""

    def test_each_route_runs_once_per_pair(self, monkeypatch):
        counts = {"build_joint_state": 0, "schmidt": 0, "pair_schmidt": 0}

        def counted(name, func):
            def call(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return call

        for name in counts:
            call = counted(name, getattr(states, name))
            for module in (states, verify):
                monkeypatch.setattr(module, name, call)
        level = verify._LEVELS["quick"]
        rows = verify._check_initial_closed_vs_grid(level)
        assert all(r.passed for r in rows)
        assert counts == dict.fromkeys(counts, level.n_pairs)

    def test_the_routed_entropy_is_pair_entropys(self, monkeypatch):
        # Each pair's closed form is replaced by pair_entropy(params, grid),
        # so the row reads 0 only if every routed entropy has its bits.
        level, seen = verify._LEVELS["quick"], []

        def pair_entropy_as_closed(params):
            grid = auto_grid(params, max_points=level.max_points)
            seen.append(states._entropy_route(params, grid))
            return types.SimpleNamespace(entropy=states.pair_entropy(params, grid))

        monkeypatch.setattr(verify, "_pair_spectrum", pair_entropy_as_closed)
        rows = verify._check_initial_closed_vs_grid(level)
        row = next(r for r in rows if r.name.startswith("Schmidt entropy: closed form vs grid"))
        assert row.actual == f"{0.0:.3e}"
        # the quick pairs take both routes
        assert sorted(set(seen)) == ["dense", "factored"] and len(seen) == level.n_pairs

class TestVerifyMemory:
    """``verify`` holds one pair at a time: each site's pair is freed before
    the next is built."""

    @pytest.mark.parametrize("check", ["_check_sweep", "_check_initial_closed_vs_grid",
                                       "_check_factorization_line", "_check_convergence"])
    def test_each_pair_is_freed_before_the_next_is_built(self, monkeypatch, check):
        built, real = [], verify.build_joint_state

        def tracked(recipe):
            assert all(ref() is None for ref in built), "the last pair is still held"
            psi = real(recipe)
            built.append(weakref.ref(psi))
            return psi

        monkeypatch.setattr(verify, "build_joint_state", tracked)
        getattr(verify, check)(verify._Level(n_triples=3, n_pairs=3, box=(0.3, 3.0),
                                             max_points=256))
        assert len(built) >= 2

    def test_the_sweep_peaks_near_one_pair(self, monkeypatch):
        # Triples 2, 4 and 5 of the sweep's stream take 8 MiB pairs at 1024
        # points; holding the last pair while the next is built peaks at two.
        sizes, real = [], verify.build_joint_state

        def recorded(recipe):
            psi = real(recipe)
            sizes.append(psi.amps.nbytes)
            return psi

        monkeypatch.setattr(verify, "build_joint_state", recorded)
        level = verify._Level(n_triples=5, n_pairs=0, box=(0.3, 3.0), max_points=1024)
        tracemalloc.start()
        try:
            rows = verify._check_sweep(level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in rows)
        pair = max(sizes)
        assert (pair, pair) in zip(sizes, sizes[1:])
        assert peak < 1.5 * pair


# --- exit-code fuzzing -------------------------------------------------------
# Every drawn case stays small: a grid that passes validation has at most 512
# points (a 2 MiB pair state), at most 2000 samples are drawn, sweeps only run
# on bases whose auto grids have at most 1024 points, --jobs starts no worker
# process whatever its value, and valid verify calls are left to the tests
# above.  Sizes above the validation bounds are drawn too: validate
# rejects them, with exit 2, before anything is allocated.

RAW_1E400 = "__1e400__"  # written to the document as the bare literal 1e400
DROP = object()  # removes the field from the document
JUNK = [-1, 0, -2.5, float("nan"), float("-inf"), float("inf"), RAW_1E400,
        "x", "", "1.0", "1024", True, None, [1.0], {"a": 1}, DROP]
# Positive finite, but they overflow the closed forms that size every grid,
# so they stop a sweep before its first step.
OVERFLOWING = [1e-300, 1e300]
# Physics values that may pass validation: only safe where the document
# bounds the grid, which holds for run but not for sweep's auto grids.
# A flight of 1e154 overflows the pointer's predicted width but not the
# reduced state's.
RUN_EXTREMES = [5e-324, 1e-8, 1e8, 1e154]


def usually(valid, junk, odds=3):
    """The valid strategy odds times in odds + 1; shrinks toward it."""
    return st.sampled_from([True] * odds + [False]).flatmap(
        lambda ok: valid if ok else junk)


def without_drops(node):
    if isinstance(node, dict):
        return {k: without_drops(v) for k, v in node.items() if v is not DROP}
    return node


def config_text(bases, physics_junk):
    """A scenario document: half of them clean, the rest with junk fields."""
    return st.booleans().flatmap(lambda clean: _config_text(bases, physics_junk, clean))


def _config_text(bases, physics_junk, clean):
    def field(valid, extra_junk=()):
        return valid if clean else usually(valid, st.sampled_from(JUNK + list(extra_junk)))

    def physics(value):
        return field(st.just(value), physics_junk)

    doc = bases.flatmap(lambda base: st.fixed_dictionaries({
        "params": field(st.fixed_dictionaries({
            "sigma": physics(base[0]), "omega0": physics(base[1]),
            "hbar": physics(1.0), "mass": physics(1.0)})),
        "grid": field(st.fixed_dictionaries({
            # powers of two above 512 would pass validation and allocate too much
            "n_points": field(st.sampled_from([64, 128, 256, 512]),
                              [63, 100, 512.7, 2 ** 14 + 1, 10 ** 6 + 3,
                               2 * DEFAULT_MAX_POINTS, 2 ** 30, 1e300]),
            "y_min": field(st.floats(-24, -6), physics_junk),
            "y_max": field(st.floats(6, 24), physics_junk)})),
        "detector": field(st.fixed_dictionaries({
            "n_bins": field(st.integers(8, 64), [7, 8.5, MAX_BINS + 1, 10 ** 9, 1e300]),
            "y_range": field(st.tuples(st.floats(-10, -1), st.floats(1, 10)).map(list),
                             [[-5.0], [5.0, -5.0], [0, 1, 2]]),
            "side": field(st.sampled_from(["A", "B"]), ["C", 1])})),
        "measurement": field(st.one_of(st.none(), st.fixed_dictionaries({
            "epsilon": field(st.floats(0.2, 2.0), physics_junk),
            "center": field(st.floats(-1, 1), physics_junk)}))),
        "evolution_time": field(st.floats(0, 2), physics_junk),
        "n_samples": field(st.integers(0, 2000), [2000.5, -3, MAX_SAMPLES + 1, 1e300]),
        "seed": field(st.integers(0, 2 ** 64 - 1), [2 ** 64, 1.5, 1e300]),
    }))
    text = doc.map(lambda d: json.dumps(without_drops(d)).replace(f'"{RAW_1E400}"', "1e400"))
    return text if clean else usually(text, st.sampled_from(["{not json", "[1, 2]", '"doc"', ""]))


# Sweep bases and ranges whose every auto grid, for any epsilon and center
# the documents draw, has at most 1024 points.
SWEEP_BASES = st.sampled_from([(1.0, 0.25), (1.0, 0.3), (0.5, 0.5), (1.0, 0.5)])
RUN_BASES = usually(SWEEP_BASES, st.tuples(st.floats(0.3, 3.0), st.floats(0.1, 3.0)))
SWEEP_RANGES = {"epsilon": (0.25, 1.0), "sigma": (0.5, 1.0), "omega0": (0.25, 0.5)}
JUNK_ARG = st.sampled_from(["0", "-1", "nan", "inf", "1e400", "abc", ""])


@st.composite
def run_case(draw):
    argv = ["run"]
    if draw(st.booleans()):
        argv += ["--seed", draw(usually(st.integers(0, 2 ** 64 - 1).map(str),
                                        st.sampled_from(["-5", str(2 ** 64), "abc", "1.5"])))]
    return draw(config_text(RUN_BASES, OVERFLOWING + RUN_EXTREMES)), argv


@st.composite
def sweep_case(draw):
    param = draw(usually(st.sampled_from(sorted(SWEEP_RANGES)), st.just("hbar"), odds=9))
    lo, hi = SWEEP_RANGES.get(param, (0.25, 1.0))
    argv = ["sweep", "--param", param,
            "--from", draw(usually(st.floats(lo, hi).map(repr), JUNK_ARG, odds=9)),
            "--to", draw(usually(st.floats(lo, hi).map(repr), JUNK_ARG, odds=9)),
            "--steps", draw(usually(st.sampled_from(["2", "3"]),
                                    st.sampled_from(["1", "0", "-2", "2.5", "x", str(10 ** 13),
                                                     str(cli.MAX_SWEEP_STEPS + 1)]),
                                    odds=9))]
    if draw(st.booleans()):
        argv.append("--log")
    if draw(st.booleans()):
        argv += ["--jobs", draw(st.sampled_from(["1", "0", "-3", "5000", "x"]))]
    return draw(config_text(SWEEP_BASES, OVERFLOWING)), argv


VERIFY_CASES = st.sampled_from([
    ["verify", "--quick", "--full"], ["verify", "--bogus"], ["verify", "extra"],
    ["verify", "--full", "x"], ["bogus"], [], ["run"], ["sweep", "--param", "epsilon"],
])


# The README source behind a 1e120 slit, swept to sigma = 1e-150: the auto
# grid's span overflows a float.
OVERFLOWING_SPAN = (
    json.dumps({"params": {"sigma": 1.0, "omega0": 2.0, "hbar": 1.0, "mass": 1.0},
                "grid": {"n_points": 1024, "y_min": -16.2, "y_max": 16.2},
                "detector": {"n_bins": 48, "y_range": [-5.0, 5.0], "side": "B"},
                "measurement": {"epsilon": 1e120, "center": 0.0},
                "evolution_time": 0.8, "n_samples": 20000, "seed": 1}),
    ["sweep", "--param", "sigma", "--from", "1e-150", "--to", "1e-150", "--steps", "2"],
)

# A side-B pointer 49 pair widths off the pair, on the pair's 512-point
# auto grid: the grid holds the reduced state, but the pointer's overlap
# with the pair, e^-536, is below the norm floor of any reduced state.
OFF_PAIR_POINTER = (
    json.dumps({"params": {"sigma": 3.38, "omega0": 0.0133, "hbar": 1.0, "mass": 1.0},
                "grid": {"n_points": 512, "y_min": -4.2912060850039495,
                         "y_max": 4.2912060850039495},
                "detector": {"n_bins": 16, "y_range": [-1.0, 1.0], "side": "B"},
                "measurement": {"epsilon": 0.0266, "center": -3.69},
                "evolution_time": 0.0, "n_samples": 100, "seed": 1}),
    ["run"],
)

# The README source with the pointer at 12 on side A: it flies to width
# 0.943, and 7.43 of that reaches 19.0, past the grid edge at 16.2.
SIDE_A_POINTER_PAST_THE_EDGE = (
    json.dumps({"params": {"sigma": 1.0, "omega0": 2.0, "hbar": 1.0, "mass": 1.0},
                "grid": {"n_points": 1024, "y_min": -16.2, "y_max": 16.2},
                "detector": {"n_bins": 48, "y_range": [-5.0, 5.0], "side": "A"},
                "measurement": {"epsilon": 0.5, "center": 12.0},
                "evolution_time": 0.8, "n_samples": 20000, "seed": 1}),
    ["run"],
)


# Side-B flights whose flown reduced state fits 7.43 of its widths but not
# 7.62: the periodic FFT flight adds its image one period away, and both
# boundaries read over 1e-6 of the peak at 512, 1024 and 2048 points.
def side_b_flight(sigma, omega0, half, eps, center, t):
    return (json.dumps({"params": {"sigma": sigma, "omega0": omega0, "hbar": 1.0, "mass": 1.0},
                        "grid": {"n_points": 512, "y_min": -half, "y_max": half},
                        "detector": {"n_bins": 48, "y_range": [-5.0, 5.0], "side": "B"},
                        "measurement": {"epsilon": eps, "center": center},
                        "evolution_time": t, "n_samples": 2000, "seed": 1}),
            ["run"])


SIDE_B_FLIGHTS_WITH_THEIR_IMAGES = [
    side_b_flight(0.49935, 0.57386, 6.8438, 3.111, 3.600, 0.763),
    side_b_flight(3.8007, 0.48249, 3.7094, 4.903, 1.950, 0.0539),
]


def run_case_text(case):
    """Exit code and printed output of cli.main on a (config text, argv) case."""
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(text)
            argv = argv[:1] + ["--config", str(path), "--out", str(Path(tmp) / "o")] + argv[1:]
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
    return code, err.getvalue() + out.getvalue()


class TestExitCodeFuzz:
    @example(case=OVERFLOWING_SPAN)
    @example(case=OFF_PAIR_POINTER)
    @example(case=SIDE_A_POINTER_PAST_THE_EDGE)
    @example(case=SIDE_B_FLIGHTS_WITH_THEIR_IMAGES[0])
    @example(case=SIDE_B_FLIGHTS_WITH_THEIR_IMAGES[1])
    @example(case=(json.dumps({"params": "RAW"}).replace('"RAW"', DEEP_NESTING), ["run"]))
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.one_of(run_case(), sweep_case(), VERIFY_CASES.map(lambda a: (None, a))))
    def test_exit_code_and_no_traceback(self, case):
        code, printed = run_case_text(case)
        assert code in (0, 2, 3), (case, code, printed)
        assert "Traceback" not in printed

    def test_pointer_off_the_pair_exits_2(self):
        code, printed = run_case_text(OFF_PAIR_POINTER)
        assert code == 2, printed
        assert "pointer centre -3.69 overlaps the pair" in printed

    def test_side_a_pointer_past_the_grid_exits_2(self):
        code, printed = run_case_text(SIDE_A_POINTER_PAST_THE_EDGE)
        assert code == 2, printed
        assert ("error: the side-A pointer is at 12; 7.43 x its post-evolution width "
                "0.943398 spans [4.98693, 19.0131], outside the grid extent") in printed

    @pytest.mark.parametrize("case", SIDE_B_FLIGHTS_WITH_THEIR_IMAGES, ids=["wide", "narrow"])
    def test_side_b_flight_with_its_periodic_image_exits_2(self, case):
        code, printed = run_case_text(case)
        assert code == 2, printed
        assert "leaves the reduced state at" in printed
        assert "7.62 x its post-evolution width" in printed

    def test_side_a_flight_past_the_float_range_exits_2(self):
        text, argv = SIDE_A_POINTER_PAST_THE_EDGE
        doc = json.loads(text)
        doc["measurement"]["center"], doc["evolution_time"] = 0.0, 9.4e153
        code, printed = run_case_text((json.dumps(doc), argv))
        assert code == 2, printed
        assert "error: parameters overflow the closed forms" in printed
