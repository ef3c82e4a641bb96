"""End-to-end runs of the command-line surface through cli.main.

Everything goes through main(argv) so exit codes and output formats
are pinned exactly as a shell user would see them. Numerical claims
here stay shallow (the library tests own those); what matters is that
flags, config files, CSV and JSON round-trip and fail loudly.
"""

import json
import math

import numpy as np
import pytest

from divbarrier import cli
from divbarrier.simulator import SimConfig, simulate_h

from conftest import make_model

BASE_RHO = 0.24492856518008138
R1_RHO = 0.019271278997364492


def run(capsys, argv):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def first_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError("no %s= line in %r" % (key, out))


class TestRoot:
    def test_prints_root(self, capsys):
        rc, out, _ = run(capsys, ["root"])
        assert rc == 0
        assert float(first_value(out, "rho")) == pytest.approx(
            BASE_RHO, abs=1e-12)
        assert abs(float(first_value(out, "residual"))) < 1e-11

    def test_json_output(self, capsys, tmp_path):
        p = tmp_path / "root.json"
        rc, _, _ = run(capsys, ["root", "--out", str(p)])
        assert rc == 0
        payload = json.loads(p.read_text())
        assert payload["schema"] == "divbarrier/v1"
        assert payload["rho"] == pytest.approx(BASE_RHO, abs=1e-12)

    def test_flag_changes_model(self, capsys):
        rc, out, _ = run(capsys, ["root", "--r", "1.0"])
        assert rc == 0
        assert float(first_value(out, "rho")) == pytest.approx(
            R1_RHO, abs=1e-12)


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"r": 1.0}))
        rc, out, _ = run(capsys, ["root", "--config", str(p)])
        assert rc == 0
        assert float(first_value(out, "rho")) == pytest.approx(
            R1_RHO, abs=1e-12)

    def test_flags_beat_config(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"r": 1.0}))
        rc, out, _ = run(capsys, ["root", "--config", str(p), "--r", "0.8"])
        assert rc == 0
        assert float(first_value(out, "rho")) == pytest.approx(
            BASE_RHO, abs=1e-12)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"premum": 15.0}))
        rc, _, err = run(capsys, ["root", "--config", str(p)])
        assert rc == 2
        assert "premum" in err

    def test_missing_config_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["root", "--config", str(tmp_path / "no.json")])
        assert rc == 2


class TestInputErrors:
    def test_negative_loading(self, capsys):
        # c = 5 cannot carry lam mean = 10 of claims
        rc, _, err = run(capsys, ["root", "--c", "5.0"])
        assert rc == 2
        assert "error" in err

    def test_h_needs_barrier(self, capsys):
        rc, _, err = run(capsys, ["h"])
        assert rc == 2
        assert "--a" in err

    def test_bad_claims_string(self, capsys):
        rc, _, _ = run(capsys, ["root", "--claims", "weibull:1.0"])
        assert rc == 2

    def test_bad_delay(self, capsys):
        rc, _, _ = run(capsys, ["root", "--d", "soon"])
        assert rc == 2

    def test_nan_parameter(self, capsys):
        rc, _, err = run(capsys, ["root", "--lambda", "nan"])
        assert rc == 2
        assert "InvalidParameter" in err


class TestClaimsTable:
    def _write_triangle(self, path):
        step = 1e-3
        xs = np.arange(0.0, 2.0 + step / 2, step)
        lines = ["x,f"]
        lines += ["%.17g,%.17g" % (x, 1.0 - x / 2) for x in xs]
        path.write_text("\n".join(lines) + "\n")

    def test_table_claims_accepted(self, capsys, tmp_path):
        p = tmp_path / "tri.csv"
        self._write_triangle(p)
        rc, out, _ = run(capsys, ["root", "--claims", "table:%s" % p])
        assert rc == 0
        assert float(first_value(out, "rho")) > 0

    def test_nonuniform_grid_rejected(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,f\n0,1\n0.5,0.6\n0.7,0.4\n")
        rc, _, err = run(capsys, ["root", "--claims", "table:%s" % p])
        assert rc == 2
        assert "uniform" in err


class TestHCommand:
    def test_csv_shape(self, capsys, tmp_path):
        p = tmp_path / "h.csv"
        rc, out, err = run(capsys, ["h", "--a", "0.7693", "--out", str(p)])
        assert rc == 0
        assert out == ""
        assert "ide_residual" in err
        lines = p.read_text().splitlines()
        assert lines[0] == "x,h,hprime,hprimeprime"
        data = np.genfromtxt(str(p), delimiter=",", skip_header=1)
        assert data.shape[1] == 4
        assert data[0, 0] == 0.0
        assert data[-1, 0] == pytest.approx(0.7693, abs=1e-12)
        assert data[-1, 1] == 1.0


class TestBarrierCommand:
    def test_no_delay(self, capsys):
        rc, out, _ = run(capsys, ["barrier"])
        assert rc == 0
        assert float(first_value(out, "a_star")) == pytest.approx(
            0.7693, abs=2e-3)
        assert first_value(out, "boundary") == "False"
        assert first_value(out, "hjb_passed") == "True"

    def test_delay_two_hits_boundary(self, capsys):
        rc, out, _ = run(capsys, ["barrier", "--d", "2"])
        assert rc == 0
        assert float(first_value(out, "a_star")) == 0.0
        assert first_value(out, "boundary") == "True"


class TestValueCommand:
    def test_matches_library(self, capsys, tmp_path):
        p = tmp_path / "v.json"
        rc, out, _ = run(capsys, ["value", "--a", "0.7693", "--x", "0.3",
                                  "--out", str(p)])
        assert rc == 0
        payload = json.loads(p.read_text())
        from divbarrier.valuation import barrier_solution_at
        want = barrier_solution_at(make_model(0.0), 0.7693).value(0.3)
        assert payload["value"] == pytest.approx(want, rel=1e-12)
        assert payload["boundary"] is False
        assert float(first_value(out, "value")) == pytest.approx(
            want, rel=1e-12)


class TestSimulateCommand:
    def test_matches_api_bitwise(self, capsys, tmp_path):
        p = tmp_path / "sim.json"
        rc, out, _ = run(capsys, [
            "simulate", "--target", "h", "--a", "0.7693", "--x", "0.4",
            "--paths", "2000", "--seed", "77", "--out", str(p)])
        assert rc == 0
        api = simulate_h(make_model(0.0), 0.7693, 0.4,
                         SimConfig(2000, seed=77))
        payload = json.loads(p.read_text())
        assert payload["mean"] == api.mean
        assert payload["stderr"] == api.stderr
        assert float(first_value(out, "mean")) == pytest.approx(
            api.mean, rel=1e-15)

    def test_unknown_target(self, capsys):
        rc, _, _ = run(capsys, ["simulate", "--target", "drawdown"])
        assert rc == 2

    def test_nan_step_rejected(self, capsys):
        rc, _, err = run(capsys, [
            "simulate", "--target", "value", "--a", "0.5", "--x", "0.3",
            "--sigma", "0.5", "--t-max", "1", "--dt", "nan"])
        assert rc == 2
        assert "dt must be finite" in err


class TestCompareCommand:
    def test_repeat_runs_identical(self, capsys):
        argv = ["compare", "--a", "0.7693", "--xs", "0,0.3",
                "--paths", "2000", "--seed", "5"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert out1.count("z=") == 2


class TestVerifyCommand:
    def test_optimal_barrier_passes(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--a-max", "2"])
        assert rc == 0
        assert "generator_above: PASS" in out
        assert "generator_interior: PASS" in out
        assert "slope_floor: PASS" in out
        assert "overall: PASS" in out


class TestFiguresCommand:
    def test_writes_curve_files(self, capsys, tmp_path):
        rc, out, _ = run(capsys, ["figures", "--out", str(tmp_path),
                                  "--x-span", "2.0"])
        assert rc == 0
        for name in ("h_d0.csv", "hjb_d0.csv", "h_d2.csv", "hjb_d2.csv"):
            assert (tmp_path / name).exists(), name
        assert (tmp_path / "h_d0.csv").read_text().splitlines()[0] \
            == "x,h,hprime,hprimeprime"
        hjb = np.genfromtxt(str(tmp_path / "hjb_d0.csv"), delimiter=",",
                            skip_header=1)
        assert float(np.max(hjb[:, 1])) <= 1e-6
        assert "max_generator_minus_q_v" in out
