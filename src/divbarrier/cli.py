"""Command-line surface.

Subcommands: root, transform, h, value, barrier, verify, figures,
simulate, compare. Model parameters come from flags or from a flat
JSON config file whose keys mirror the flag names; flags win, unknown
config keys are rejected. CSV output is one header line plus rows at
17 significant digits with LF endings, so files diff cleanly across
runs. Exit codes: 0 success or pass, 1 verification failure, 2 input
error, 3 numerical non-convergence.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .model import (
    ModelParams,
    ExponentialClaims,
    TabulatedClaims,
    ModelError,
    validate,
)
from .gridmath import GridFunction, NonConvergenceError
from .lundberg import lundberg_root, psi_r
from .firstpassage import upcross_transform
from .valuation import (
    _build_h,
    optimal_barrier,
    barrier_solution_at,
    hjb_verify,
    hjb_curve,
)
from .simulator import SimConfig, simulate_value, simulate_h, simulate_upcross

SCHEMA = "divbarrier/v1"

COMMON_KEYS = ("lambda", "c", "sigma", "q", "r", "d", "claims",
               "grid-step", "config", "out", "seed", "paths")
EXTRA_KEYS = {
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
    "claims": "exponential:1.0", "grid-step": 1e-3, "out": None,
    "seed": 12345, "paths": 20000,
    "y": 0.5, "a": None, "x": 0.0, "a-max": 2.0, "x-max": None, "tol": 1e-5,
    "x-span": 10.0, "target": "value", "dt": 1e-4, "t-max": None,
    "mode": "per_payment", "xs": "0,0.5,astar",
}


class InputError(ValueError):
    pass


def _parse_d(text):
    s = str(text).strip().lower()
    if s in ("inf", "infinity", "+inf"):
        return math.inf
    try:
        return float(s)
    except ValueError:
        raise InputError("cannot parse d=%r" % (text,))


def _parse_claims(text):
    s = str(text).strip()
    if ":" not in s:
        raise InputError("claims must look like exponential:<mu> or table:<path>")
    kind, _, arg = s.partition(":")
    if kind == "exponential":
        try:
            return ExponentialClaims(float(arg))
        except ValueError:
            raise InputError("bad exponential rate %r" % (arg,))
    if kind == "table":
        return _load_table(arg)
    raise InputError("unknown claims kind %r" % (kind,))


def _load_table(path):
    try:
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except (ValueError, IndexError):
                    if not rows:
                        continue  # header line
                    raise InputError("bad table row %r in %s" % (line, path))
    except OSError as exc:
        raise InputError("cannot read claims table %s: %s" % (path, exc))
    if len(rows) < 3:
        raise InputError("claims table %s needs at least 3 rows" % path)
    xs = np.array([p[0] for p in rows])
    fs = np.array([p[1] for p in rows])
    steps = np.diff(xs)
    step = float(steps[0])
    if step <= 0 or np.max(np.abs(steps - step)) > 1e-9 * max(step, 1.0):
        raise InputError("claims table %s must use a uniform x grid" % path)
    return TabulatedClaims(GridFunction(float(xs[0]), float(xs[-1]), step, fs))


def _merge_config(args, command):
    allowed = set(COMMON_KEYS) | set(EXTRA_KEYS[command])
    merged = {k: DEFAULTS[k] for k in allowed if k in DEFAULTS}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise InputError("cannot read config %s: %s" % (args.config, exc))
        except json.JSONDecodeError as exc:
            raise InputError("config %s is not valid JSON: %s" % (args.config, exc))
        if not isinstance(file_cfg, dict):
            raise InputError("config must be a flat JSON object")
        for k, v in file_cfg.items():
            if k not in allowed:
                raise InputError("unknown config key %r for command %s"
                                 % (k, command))
            merged[k] = v
    flag_name = {k: k.replace("-", "_") for k in allowed}
    flag_name["lambda"] = "lam"
    for k in allowed:
        v = getattr(args, flag_name[k], None)
        if v is not None:
            merged[k] = v
    return merged


def _model_from(cfg):
    claims = cfg["claims"]
    if isinstance(claims, str):
        claims = _parse_claims(claims)
    params = ModelParams(
        lam=float(cfg["lambda"]), c=float(cfg["c"]), sigma=float(cfg["sigma"]),
        q=float(cfg["q"]), r=float(cfg["r"]), d=_parse_d(cfg["d"]),
    )
    return validate(params, claims)


def _write_csv(path, header, columns):
    rows = len(columns[0])
    lines = [",".join(header)]
    for i in range(rows):
        lines.append(",".join("%.17g" % col[i] for col in columns))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _write_json(path, payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _sim_config(cfg):
    return SimConfig(
        n_paths=int(cfg["paths"]), seed=int(cfg["seed"]), dt=float(cfg["dt"]),
        t_max=None if cfg["t-max"] is None else float(cfg["t-max"]),
        discount_mode=str(cfg["mode"]),
    )


def _solution(model, cfg):
    if cfg.get("a") is not None:
        return barrier_solution_at(model, float(cfg["a"]), float(cfg["grid-step"]))
    return optimal_barrier(model, float(cfg["a-max"]), float(cfg["grid-step"]))


def cmd_root(cfg):
    model = _model_from(cfg)
    root = lundberg_root(model)
    resid = psi_r(model, root.rho) - model.q
    print("rho=%.17g" % root.rho)
    print("residual=%.3e" % resid)
    if cfg["out"]:
        _write_json(cfg["out"], {"command": "root", "rho": root.rho,
                                 "residual": resid})
    return 0


def cmd_transform(cfg):
    model = _model_from(cfg)
    tr = upcross_transform(model, float(cfg["y"]), model.d)
    print("phi=%.17g" % tr.value)
    print("truncation_k=%d tail_bound=%.3e" % (tr.truncation_k, tr.tail_bound))
    if cfg["out"]:
        _write_json(cfg["out"], {
            "command": "transform", "y": tr.y, "d": repr(tr.d),
            "phi": tr.value, "truncation_k": tr.truncation_k,
            "tail_bound": tr.tail_bound,
        })
    return 0


def cmd_h(cfg):
    model = _model_from(cfg)
    if cfg["a"] is None:
        raise InputError("command h needs --a (the barrier)")
    step = float(cfg["grid-step"])
    if model.sigma != 0.0:
        step = min(step, 1e-5)
    h = _build_h(model, float(cfg["a"]), step)
    print("a=%.17g ide_residual=%.3e" % (h.a, h.ide_residual), file=sys.stderr)
    _write_csv(cfg["out"], ("x", "h", "hprime", "hprimeprime"),
               (h.grid.x, h.grid.values, h.hp.values, h.hpp.values))
    return 0


def cmd_value(cfg):
    model = _model_from(cfg)
    sol = _solution(model, cfg)
    x = float(cfg["x"])
    v = sol.value(x)
    print("a=%.17g" % sol.a_star)
    print("value=%.17g" % v)
    if cfg["out"]:
        _write_json(cfg["out"], {"command": "value", "a": sol.a_star,
                                 "x": x, "value": v,
                                 "boundary": sol.boundary})
    return 0


def cmd_barrier(cfg):
    model = _model_from(cfg)
    sol = optimal_barrier(model, float(cfg["a-max"]), float(cfg["grid-step"]))
    print("a_star=%.17g" % sol.a_star)
    print("boundary=%s" % sol.boundary)
    if sol.alternatives:
        print("alternatives=%s" % ",".join("%.17g" % t for t in sol.alternatives))
    if sol.hjb_report is not None:
        print("hjb_passed=%s" % sol.hjb_report.passed)
    if cfg["out"]:
        _write_csv(cfg["out"], ("x", "h", "hprime", "hprimeprime"),
                   (sol.h.grid.x, sol.h.grid.values,
                    sol.h.hp.values, sol.h.hpp.values))
    return 0


def cmd_verify(cfg):
    model = _model_from(cfg)
    sol = _solution(model, cfg)
    x_max = cfg["x-max"]
    x_max = sol.a_star + 10.0 if x_max is None else float(x_max)
    report = hjb_verify(model, sol, x_max, tol=float(cfg["tol"]))
    for chk in (report.generator_above, report.generator_interior,
                report.slope_floor):
        where = "" if chk.worst_x is None else (
            " worst=%.6g at x=%.6g" % (chk.worst_value, chk.worst_x))
        print("%s: %s%s" % (chk.name, "PASS" if chk.passed else "FAIL", where))
    print("overall: %s" % ("PASS" if report.passed else "FAIL"))
    if cfg["out"]:
        _write_json(cfg["out"], {
            "command": "verify", "a_star": report.a_star,
            "x_max": report.x_max, "passed": report.passed,
            "checks": [dataclasses.asdict(c) for c in
                       (report.generator_above, report.generator_interior,
                        report.slope_floor)],
        })
    return 0 if report.passed else 1


def cmd_figures(cfg):
    out_dir = cfg["out"] or "."
    os.makedirs(out_dir, exist_ok=True)
    worst = -math.inf
    if isinstance(cfg["claims"], str):
        cfg = dict(cfg, claims=_parse_claims(cfg["claims"]))
    for d in (0.0, 2.0):
        model = _model_from(dict(cfg, d=d))
        sol = optimal_barrier(model, float(cfg["a-max"]), float(cfg["grid-step"]))
        h = sol.h
        tag = "d%g" % d
        _write_csv(os.path.join(out_dir, "h_%s.csv" % tag),
                   ("x", "h", "hprime", "hprimeprime"),
                   (h.grid.x, h.grid.values, h.hp.values, h.hpp.values))
        xs, gen = hjb_curve(model, sol, sol.a_star + float(cfg["x-span"]))
        _write_csv(os.path.join(out_dir, "hjb_%s.csv" % tag),
                   ("x", "generator_minus_q_v"), (xs, gen))
        worst = max(worst, float(np.max(gen)))
        print("d=%g a_star=%.17g files=h_%s.csv,hjb_%s.csv"
              % (d, sol.a_star, tag, tag))
    print("max_generator_minus_q_v=%.3e" % worst)
    return 0 if worst <= 1e-6 else 1


def cmd_simulate(cfg):
    model = _model_from(cfg)
    sim_cfg = _sim_config(cfg)
    target = str(cfg["target"])
    if target == "value":
        if cfg["a"] is None:
            raise InputError("simulate --target value needs --a")
        est = simulate_value(model, float(cfg["a"]), float(cfg["x"]), sim_cfg)
    elif target == "h":
        if cfg["a"] is None:
            raise InputError("simulate --target h needs --a")
        est = simulate_h(model, float(cfg["a"]), float(cfg["x"]), sim_cfg)
    elif target == "upcross":
        est = simulate_upcross(model, float(cfg["y"]), model.d, sim_cfg)
    else:
        raise InputError("unknown simulate target %r" % (target,))
    print("mean=%.17g" % est.mean)
    print("stderr=%.17g" % est.stderr)
    print("n_paths=%d truncation_bias_bound=%.3e"
          % (est.n_paths, est.truncation_bias_bound))
    if cfg["out"]:
        _write_json(cfg["out"], {
            "command": "simulate", "target": target, "mean": est.mean,
            "stderr": est.stderr, "n_paths": est.n_paths,
            "truncation_bias_bound": est.truncation_bias_bound,
        })
    return 0


def cmd_compare(cfg):
    model = _model_from(cfg)
    sol = _solution(model, cfg)
    sim_cfg = _sim_config(cfg)
    tokens = [t.strip() for t in str(cfg["xs"]).split(",") if t.strip()]
    xs = []
    for tok in tokens:
        if tok in ("astar", "a_star", "a*"):
            xs.append(sol.a_star)
        else:
            try:
                xs.append(float(tok))
            except ValueError:
                raise InputError("cannot parse x value %r" % (tok,))
    if sim_cfg.discount_mode == "terminal_factor":
        print("note: terminal_factor semantics; the analytic column is the "
              "per-payment value", file=sys.stderr)
    cols = {"x": [], "analytic": [], "mc_mean": [], "mc_stderr": [], "z": []}
    for x in xs:
        analytic = float(sol.value(x))
        est = simulate_value(model, sol.a_star, x, sim_cfg)
        z = 0.0 if est.stderr == 0 else (est.mean - analytic) / est.stderr
        cols["x"].append(x)
        cols["analytic"].append(analytic)
        cols["mc_mean"].append(est.mean)
        cols["mc_stderr"].append(est.stderr)
        cols["z"].append(z)
        print("x=%.6g analytic=%.10g mc=%.10g se=%.3g z=%+.3f"
              % (x, analytic, est.mean, est.stderr, z))
    if cfg["out"]:
        _write_csv(cfg["out"], ("x", "analytic", "mc_mean", "mc_stderr", "z"),
                   tuple(np.asarray(cols[k]) for k in
                         ("x", "analytic", "mc_mean", "mc_stderr", "z")))
    return 0


_COMMANDS = {
    "root": cmd_root,
    "transform": cmd_transform,
    "h": cmd_h,
    "value": cmd_value,
    "barrier": cmd_barrier,
    "verify": cmd_verify,
    "figures": cmd_figures,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lambda", dest="lam", type=float)
    common.add_argument("--c", type=float)
    common.add_argument("--sigma", type=float)
    common.add_argument("--q", type=float)
    common.add_argument("--r", type=float)
    common.add_argument("--d", type=str)
    common.add_argument("--claims", type=str)
    common.add_argument("--grid-step", dest="grid_step", type=float)
    common.add_argument("--config", type=str)
    common.add_argument("--out", type=str)
    common.add_argument("--seed", type=int)
    common.add_argument("--paths", type=int)

    parser = argparse.ArgumentParser(
        prog="divbarrier",
        description="Dividend valuation with Parisian ruin and "
                    "claim-count discounting.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = {}
    for name in _COMMANDS:
        sp[name] = subs.add_parser(name, parents=[common])
    sp["transform"].add_argument("--y", type=float)
    sp["h"].add_argument("--a", type=float)
    for name in ("value", "verify", "simulate", "compare"):
        sp[name].add_argument("--a", type=float)
    for name in ("value", "barrier", "verify", "figures", "compare"):
        sp[name].add_argument("--a-max", dest="a_max", type=float)
    for name in ("value", "simulate"):
        sp[name].add_argument("--x", type=float)
    sp["verify"].add_argument("--x-max", dest="x_max", type=float)
    sp["verify"].add_argument("--tol", type=float)
    sp["figures"].add_argument("--x-span", dest="x_span", type=float)
    sp["simulate"].add_argument("--target", type=str)
    sp["simulate"].add_argument("--y", type=float)
    for name in ("simulate", "compare"):
        sp[name].add_argument("--dt", type=float)
        sp[name].add_argument("--t-max", dest="t_max", type=float)
        sp[name].add_argument("--mode", type=str)
    sp["compare"].add_argument("--xs", type=str)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, args.command)
        return _COMMANDS[args.command](cfg)
    except (InputError, ModelError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print("error: NonConvergenceError: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
