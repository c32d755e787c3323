"""Command-line interface: exit codes, file outputs, determinism."""

import json
import subprocess
import sys

import pytest

from popperlab import cli


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
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        cli.main(["run", "--config", cfg, "--out", str(out)])
        header, rows = read_rows(out / "histogram.csv")
        assert header == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 48
        assert sum(int(r["count"]) for r in rows) <= 2000

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
        # extent clears the 6-spread validation floor but the boundary
        # amplitude still breaks the tail contract once momentum is taken
        cfg = write_config(tmp_path / "cfg.json",
                           grid={"n_points": 1024, "y_min": -13.0, "y_max": 13.0},
                           n_samples=0)
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

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

    def test_wrong_field_type_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", params={"sigma": "wide"})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field,raw", [
        ("detector", '{"n_bins": 48, "y_range": [-5.0]}'),
        ("grid", '{"n_points": 1e400, "y_min": -16.2, "y_max": 16.2}'),
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, field, raw):
        path = tmp_path / "cfg.json"
        write_config(path, **{field: "RAW"})
        path.write_text(path.read_text().replace('"RAW"', raw))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: bad config" in capsys.readouterr().err


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

    @pytest.mark.parametrize("cores,workers", [(64, 3), (2, 2)])
    def test_jobs_clamped_to_steps_and_cores(self, tmp_path, monkeypatch,
                                             cores, workers):
        # a pool forks all of its workers at once, so --jobs 5000 must not
        # reach it; the fake pool starts no process
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        cfg = write_config(tmp_path / "cfg.json", n_samples=0)
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.3", "--to", "0.6", "--steps", "3",
                         "--jobs", "5000", "--out", str(tmp_path / "o")])
        assert code == 0
        assert started == [workers]

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

    def test_too_few_steps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        code = cli.main(["sweep", "--config", cfg, "--param", "epsilon",
                         "--from", "0.1", "--to", "0.2", "--steps", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 2

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


class TestVerifyCommand:
    def test_quick_suite_passes_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "popperlab.cli", "verify"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "checks passed" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_quick_and_full_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--quick", "--full"])
        assert err.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_table_lists_every_check(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        for fragment in ("closed form vs grid", "never exceeds initial",
                         "minimum-uncertainty", "chi-square",
                         "doubling the resolution"):
            assert fragment in out
