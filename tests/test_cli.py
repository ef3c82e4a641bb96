"""End-to-end runs of the command-line surface through cli.main.

Everything goes through main(argv) so exit codes and output formats
are pinned exactly as a shell user would see them. Numerical claims
here stay shallow (the library tests own those); what matters is that
flags, config files, CSV and JSON round-trip and fail loudly.
"""

import json
import math
import os
import subprocess
import sys

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

    @pytest.mark.parametrize("argv, file_cfg", [
        (["root"], {"lambda": None}),
        (["simulate"], {"paths": [1]}),
        (["simulate", "--a", "0.5", "--x", "0.3"], {"paths": 2.5}),
    ])
    def test_wrong_type_is_input_error(self, capsys, tmp_path, argv, file_cfg):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(file_cfg))
        rc, _, err = run(capsys, argv + ["--config", str(p)])
        assert rc == 2
        assert "InputError" in err
        assert "--" + next(iter(file_cfg)) in err

    def test_null_unsets_optional_flag(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"out": None}))
        rc, out, _ = run(capsys, ["root", "--config", str(p)])
        assert rc == 0
        assert float(first_value(out, "rho")) == pytest.approx(
            BASE_RHO, abs=1e-12)


# each subcommand's flags beyond the common ones, and every default,
# written out apart from cli.FLAGS/COMMANDS so that an edit to the table
# that drops, adds or changes a flag fails here
EXTRAS = {
    "root": (),
    "transform": ("y",),
    "h": ("a",),
    "value": ("a", "x", "a-max"),
    "barrier": ("a-max",),
    "verify": ("a", "a-max", "x-max", "tol"),
    "figures": ("a-max", "x-span"),
    "simulate": ("target", "a", "x", "y", "dt", "t-max", "mode"),
    "compare": ("a", "a-max", "xs", "dt", "t-max", "mode"),
}
DEFAULTS = {
    "lambda": 10.0, "c": 15.0, "sigma": 0.0, "q": 0.1, "r": 0.8, "d": 0.0,
    "claims": "exponential:1.0", "grid-step": 1e-3, "config": None,
    "out": None, "seed": 12345, "paths": 20000,
    "y": 0.5, "a": None, "x": 0.0, "a-max": 2.0, "x-max": None, "tol": 1e-5,
    "x-span": 10.0, "target": "value", "dt": 1e-4, "t-max": None,
    "mode": "per_payment", "xs": "0,0.5,astar",
}
# a non-default value for every flag but --config, as JSON would carry it
SAMPLES = {
    "lambda": 9.5, "c": 14.0, "sigma": 0.25, "q": 0.2, "r": 0.7, "d": 1.5,
    "claims": "exponential:2.0", "grid-step": 0.002, "out": "o.json",
    "seed": 7, "paths": 300, "y": 0.25, "a": 0.6, "x": 0.1, "a-max": 3.0,
    "x-max": 4.0, "tol": 1e-6, "x-span": 3.0, "target": "h", "dt": 0.001,
    "t-max": 2.0, "mode": "terminal_factor", "xs": "0,0.2",
}


def merged(argv):
    args = cli._build_parser().parse_args(argv)
    cfg = cli._merge_config(args, args.command)
    cfg.pop("config")
    return dict(cfg, claims=cfg["claims"].key())


class TestFlagTable:
    def test_table_keeps_flags_and_defaults(self):
        assert {k: v[1] for k, v in cli.FLAGS.items()} == DEFAULTS
        assert {k: v[1] for k, v in cli.COMMANDS.items()} == EXTRAS

    @pytest.mark.parametrize("command", sorted(EXTRAS))
    def test_subparser_takes_common_plus_extras(self, command):
        subs = cli._build_parser()._subparsers._group_actions[0]
        got = {s for act in subs.choices[command]._actions
               for s in act.option_strings} - {"-h", "--help"}
        assert got == {"--" + f for f in cli.COMMON + EXTRAS[command]}

    @pytest.mark.parametrize("command, flag", [
        (c, f) for c in sorted(EXTRAS) for f in cli.COMMON + EXTRAS[c]
        if f != "config"])
    def test_flag_and_config_agree(self, tmp_path, command, flag):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({flag: SAMPLES[flag]}))
        from_flag = merged([command, "--" + flag, str(SAMPLES[flag])])
        from_file = merged([command, "--config", str(p)])
        assert from_flag == from_file
        assert from_flag != merged([command])


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
        rc, _, err = run(capsys, ["root", "--d", "soon"])
        assert rc == 2
        assert "--d" in err

    def test_nan_parameter(self, capsys):
        rc, _, err = run(capsys, ["root", "--lambda", "nan"])
        assert rc == 2
        assert "InvalidParameter" in err

    @pytest.mark.parametrize("argv", [
        ["value", "--grid-step", "0"],
        ["value", "--grid-step", "-1"],
        ["value", "--grid-step", "inf"],
        ["value", "--a", "0.5", "--grid-step", "inf"],
        ["barrier", "--a-max", "inf"],
        ["barrier", "--a-max", "nan"],
        ["value", "--a", "inf"],
        ["value", "--a", "nan"],
        ["h", "--a", "inf"],
        ["h", "--a", "0.5", "--grid-step", "-1"],
        ["h", "--a", "0.5", "--sigma", "0.5", "--grid-step", "inf"],
        ["verify", "--a", "0.5", "--x-max", "inf"],
    ])
    def test_bad_barrier_or_grid_is_input_error(self, capsys, argv):
        # no traceback, no exit 1 ("verification failed"), no silent
        # 8-node grid
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ValueError:")
        assert "finite" in err

    def test_simulate_h_negative_barrier(self, capsys):
        rc, out, err = run(capsys, ["simulate", "--target", "h", "--a", "-1",
                                    "--x", "-2", "--d", "2"])
        assert rc == 2
        assert out == ""
        assert "barrier must be >= 0" in err

    def test_figures_bad_span_writes_nothing(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["figures", "--x-span", "inf",
                                  "--out", str(tmp_path)])
        assert rc == 2
        assert err.startswith("error: ValueError:")
        assert os.listdir(tmp_path) == []


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

    def test_transform_matches_exponential(self, capsys, tmp_path):
        # exp(1) on a 1e-2 grid up to 30, normalized to unit trapezoid mass
        step = 1e-2
        xs = step * np.arange(3001)
        fs = np.exp(-xs)
        fs /= np.trapezoid(fs, dx=step)
        p = tmp_path / "exp.csv"
        p.write_text("x,f\n" + "".join("%r,%r\n" % (float(x), float(f))
                                       for x, f in zip(xs, fs)))
        out_json = tmp_path / "tr.json"
        rc, out, _ = run(capsys, ["transform", "--claims", "table:%s" % p, "--d", "2",
                                  "--y", "0.5", "--out", str(out_json)])
        assert rc == 0
        rc, ref, _ = run(capsys, ["transform", "--claims", "exponential:1.0",
                                  "--d", "2", "--y", "0.5"])
        assert rc == 0
        phi = float(first_value(out, "phi"))
        assert phi == pytest.approx(float(first_value(ref, "phi")), abs=1e-6)
        doc = json.loads(out_json.read_text())
        assert set(doc) >= {"command", "y", "d", "phi", "truncation_k", "tail_bound"}
        assert doc["command"] == "transform" and doc["phi"] == phi
        assert doc["y"] == 0.5 and doc["d"] == "2.0"
        assert doc["truncation_k"] > 0 and doc["tail_bound"] >= 0.0

    @pytest.mark.parametrize("text,needle", [
        ("x,f\n0,1\n0.5,oops\n1,0\n", "bad table row"),
        (None, "cannot read"),
        ("x,f\n0,1\n1,1\n", "at least 3 rows"),
        ("x,f\n1,0\n0.5,1\n0,0\n", "uniform"),    # decreasing x: negative step
    ])
    def test_bad_table_exits_two(self, capsys, tmp_path, text, needle):
        p = tmp_path / "t.csv"
        if text is not None:
            p.write_text(text)
        rc, _, err = run(capsys, ["root", "--claims", "table:%s" % p])
        assert rc == 2
        assert needle in err


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

    def test_coarse_grid_fails_residual_gate(self, capsys):
        rc, out, err = run(capsys, ["h", "--a", "0.7693", "--grid-step", "0.1"])
        assert rc == 3
        assert out == ""
        assert "NonConvergenceError" in err

    def test_diffusion_solves_at_the_step_floor(self, capsys, tmp_path):
        # sigma > 0 takes valuation's floor of 1e-5; sigma = 0 (above)
        # keeps the caller's step
        p = tmp_path / "h.csv"
        rc, _, _ = run(capsys, ["h", "--a", "0.05", "--sigma", "0.5", "--d", "inf",
                                "--grid-step", "1e-3", "--out", str(p)])
        assert rc == 0
        assert len(p.read_text().splitlines()) == 1 + 5001


class TestBarrierCommand:
    def test_diffusion_no_delay_at_the_default_grid(self, capsys):
        # h is W(x)/W(a), a sum of three exponentials: W's boundary layer
        # at 0 needs no finer grid, and a* is the zero of W''
        rc, out, _ = run(capsys, ["barrier", "--sigma", "0.5", "--d", "0"])
        assert rc == 0
        assert abs(float(first_value(out, "a_star")) - 0.78597831) < 1e-6
        assert first_value(out, "hjb_passed") == "True"

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

    def test_h_from_default_start(self, capsys):
        # defaults x = 0, d = 0: a start at zero with no grace period
        rc, out, _ = run(capsys, ["simulate", "--target", "h", "--a", "1"])
        assert rc == 0
        assert 0.0 < float(first_value(out, "mean")) < 1.0

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

    def test_delay_flag_rejected_before_writing(self, capsys, tmp_path):
        # the panels are fixed at d = 0 and d = 2, so a --d would be ignored
        rc, out, err = run(capsys, ["figures", "--out", str(tmp_path),
                                    "--x-span", "2", "--d", "1"])
        assert rc == 2
        assert "InputError" in err and "--d" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_delay_from_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 2.0}))
        out_dir = tmp_path / "out"
        rc, _, err = run(capsys, ["figures", "--config", str(cfg),
                                  "--out", str(out_dir)])
        assert rc == 2
        assert "--d" in err
        assert not out_dir.exists()


class TestProcess:
    """The command in a process of its own: real exit codes, no traceback."""

    def _run(self, tmp_path, argv):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "divbarrier.cli"] + argv,
                              cwd=str(tmp_path), env=env, capture_output=True,
                              text=True, timeout=120)

    def test_root_exits_zero(self, tmp_path):
        proc = self._run(tmp_path, ["root"])
        assert proc.returncode == 0
        assert float(first_value(proc.stdout, "rho")) == pytest.approx(
            BASE_RHO, abs=1e-12)

    def test_null_config_value_exits_two(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"lambda": None}))
        proc = self._run(tmp_path, ["root", "--config", "cfg.json"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "InputError" in proc.stderr
