"""Command-line surface.

Subcommands: root, transform, h, value, barrier, verify, figures,
simulate, compare. FLAGS declares each flag once, with its parser and
default; COMMANDS gives each subcommand its handler and the flags it
takes on top of COMMON (`divbarrier <cmd> --help` lists them). Values
can also come from a flat JSON config file whose keys are the flag
names; flags win, unknown config keys are rejected, and a config value
is parsed exactly like the same flag on the command line. JSON null is
allowed only for flags that default to unset (a, x-max, t-max, out)
and leaves them unset. CSV output is one header line plus rows at 17
significant digits with LF endings, so files diff cleanly across runs.
Exit codes: 0 success or pass, 1 verification failure, 2 input error,
3 numerical non-convergence.
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
from .lundberg import lundberg_root
from .firstpassage import upcross_transform
from .hfun import _solver_step
from .valuation import (
    _build_h,
    optimal_barrier,
    barrier_solution_at,
    hjb_verify,
    hjb_curve,
)
from .simulator import SimConfig, simulate_value, simulate_h, simulate_upcross

SCHEMA = "divbarrier/v1"


class InputError(ValueError):
    pass


def _parse_claims(text):
    s = str(text).strip()
    if ":" not in s:
        raise InputError("claims must look like exponential:<mu> or table:<path>")
    kind, _, arg = s.partition(":")
    if kind == "exponential":
        return ExponentialClaims(float(arg))
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


def _parse_whole(value):
    """int() that refuses to drop a fraction: 2000, 2000.0, "2000" pass."""
    number = int(value) if isinstance(value, str) else value
    if number != int(number):
        raise ValueError("%r is not a whole number" % (value,))
    return int(number)


# flag -> (parser, default); float also reads inf, Infinity and +inf
FLAGS = {
    "lambda": (float, 10.0), "c": (float, 15.0), "sigma": (float, 0.0),
    "q": (float, 0.1), "r": (float, 0.8), "d": (float, 0.0),
    "claims": (_parse_claims, "exponential:1.0"), "grid-step": (float, 1e-3),
    "config": (str, None), "out": (str, None),
    "seed": (_parse_whole, 12345), "paths": (_parse_whole, 20000),
    "y": (float, 0.5), "a": (float, None), "x": (float, 0.0),
    "a-max": (float, 2.0), "x-max": (float, None), "tol": (float, 1e-5),
    "x-span": (float, 10.0), "target": (str, "value"), "dt": (float, 1e-4),
    "t-max": (float, None), "mode": (str, "per_payment"),
    "xs": (str, "0,0.5,astar"),
}
COMMON = ("lambda", "c", "sigma", "q", "r", "d", "claims",
          "grid-step", "config", "out", "seed", "paths")


def _parse(flag, value):
    parse, default = FLAGS[flag]
    if value is None and default is None:
        return None
    try:
        if value is None or isinstance(value, (bool, list, dict)):
            raise TypeError("%s is not allowed" % json.dumps(value))
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("bad value for --%s: %s" % (flag, exc))


def _merge_config(args, command):
    """Defaults, then the config file, then flags; each value parsed once."""
    raw = {k: FLAGS[k][1] for k in COMMON + COMMANDS[command][1]}
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
            if k not in raw:
                raise InputError("unknown config key %r for command %s"
                                 % (k, command))
            raw[k] = v
    raw.update((k, v) for k, v in vars(args).items()
               if k in raw and v is not None)
    return {k: _parse(k, v) for k, v in raw.items()}


def _model_from(cfg):
    params = ModelParams(lam=cfg["lambda"], c=cfg["c"], sigma=cfg["sigma"],
                         q=cfg["q"], r=cfg["r"], d=cfg["d"])
    return validate(params, cfg["claims"])


def _emit(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    _emit(path, "\n".join(lines) + "\n")


def _write_h_csv(path, h):
    # h read at grid's nodes, the last one at a itself, as grid.values is
    xs = h.grid.x
    _write_csv(path, ("x", "h", "hprime", "hprimeprime"),
               zip(xs, *(h.read(np.append(xs[:-1], h.a), k) for k in range(3))))


def _write_json(path, payload):
    _emit(path, json.dumps(dict(payload, schema=SCHEMA), indent=2,
                           sort_keys=True) + "\n")


def _sim_config(cfg):
    return SimConfig(n_paths=cfg["paths"], seed=cfg["seed"], dt=cfg["dt"],
                     t_max=cfg["t-max"], discount_mode=cfg["mode"])


def _solution(model, cfg):
    if cfg["a"] is not None:
        return barrier_solution_at(model, cfg["a"], cfg["grid-step"])
    return optimal_barrier(model, cfg["a-max"], cfg["grid-step"])


def cmd_root(cfg):
    model = _model_from(cfg)
    root = lundberg_root(model)
    print("rho=%.17g" % root.rho)
    print("residual=%.3e" % root.residual)
    if cfg["out"]:
        _write_json(cfg["out"], {"command": "root", "rho": root.rho,
                                 "residual": root.residual})
    return 0


def cmd_transform(cfg):
    model = _model_from(cfg)
    tr = upcross_transform(model, cfg["y"], model.d)
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
    # an h with exponents is read and certified in closed form at the
    # caller's step (certificate=closed); a table solves on its grid and is
    # certified there by ide_residual (certificate=grid), at sigma = 0 at
    # the caller's step, unclamped, and at sigma > 0 at hfun's 1e-5 floor
    step = _solver_step(model, cfg["grid-step"]) if model.sigma else cfg["grid-step"]
    h = _build_h(model, cfg["a"], step)
    print("a=%.17g ide_residual=%.3e certificate=%s" % (
        h.a, h.ide_residual, "grid" if h.t is None else "closed"), file=sys.stderr)
    _write_h_csv(cfg["out"], h)
    return 0


def cmd_value(cfg):
    model = _model_from(cfg)
    sol = _solution(model, cfg)
    v = sol.value(cfg["x"])
    print("a=%.17g" % sol.a_star)
    print("value=%.17g" % v)
    if cfg["out"]:
        _write_json(cfg["out"], {"command": "value", "a": sol.a_star,
                                 "x": cfg["x"], "value": v,
                                 "boundary": sol.boundary})
    return 0


def cmd_barrier(cfg):
    model = _model_from(cfg)
    sol = optimal_barrier(model, cfg["a-max"], cfg["grid-step"])
    print("a_star=%.17g" % sol.a_star)
    print("boundary=%s" % sol.boundary)
    if sol.alternatives:
        print("alternatives=%s" % ",".join("%.17g" % t for t in sol.alternatives))
    if sol.hjb_report is not None:
        print("hjb_passed=%s" % sol.hjb_report.passed)
        print("hjb_method=%s" % sol.hjb_report.method)
    if cfg["out"]:
        _write_h_csv(cfg["out"], sol.h)
    return 0


def cmd_verify(cfg):
    model = _model_from(cfg)
    sol = _solution(model, cfg)
    x_max = sol.a_star + 10.0 if cfg["x-max"] is None else cfg["x-max"]
    report = hjb_verify(model, sol, x_max, tol=cfg["tol"])
    checks = (report.generator_above, report.generator_interior,
              report.slope_floor)
    for chk in checks:
        where = "" if chk.worst_x is None else (
            " worst=%.6g at x=%.6g" % (chk.worst_value, chk.worst_x))
        print("%s: %s%s" % (chk.name, "PASS" if chk.passed else "FAIL", where))
    print("overall: %s" % ("PASS" if report.passed else "FAIL"))
    print("method: %s" % report.method)
    if cfg["out"]:
        _write_json(cfg["out"], {
            "command": "verify", "a_star": report.a_star,
            "x_max": report.x_max, "passed": report.passed,
            "method": report.method,
            "checks": [dataclasses.asdict(c) for c in checks],
        })
    return 0 if report.passed else 1


def cmd_figures(cfg):
    if cfg["d"] != 0.0:
        raise InputError("figures always draws d = 0 and d = 2; "
                         "--d must be left at 0, got %r" % cfg["d"])
    out_dir = cfg["out"] or "."
    os.makedirs(out_dir, exist_ok=True)
    worst = -math.inf
    for d in (0.0, 2.0):
        model = _model_from(dict(cfg, d=d))
        sol = optimal_barrier(model, cfg["a-max"], cfg["grid-step"])
        tag = "d%g" % d
        xs, gen = hjb_curve(model, sol, sol.a_star + cfg["x-span"])
        _write_h_csv(os.path.join(out_dir, "h_%s.csv" % tag), sol.h)
        _write_csv(os.path.join(out_dir, "hjb_%s.csv" % tag),
                   ("x", "generator_minus_q_v"), zip(xs, gen))
        worst = max(worst, float(np.max(gen)))
        print("d=%g a_star=%.17g files=h_%s.csv,hjb_%s.csv"
              % (d, sol.a_star, tag, tag))
    print("max_generator_minus_q_v=%.3e" % worst)
    return 0 if worst <= 1e-6 else 1


def cmd_simulate(cfg):
    model = _model_from(cfg)
    sim_cfg = _sim_config(cfg)
    target = cfg["target"]
    if target in ("value", "h"):
        if cfg["a"] is None:
            raise InputError("simulate --target %s needs --a" % target)
        run = simulate_value if target == "value" else simulate_h
        est = run(model, cfg["a"], cfg["x"], sim_cfg)
    elif target == "upcross":
        est = simulate_upcross(model, cfg["y"], model.d, sim_cfg)
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
    xs = []
    for tok in (t.strip() for t in cfg["xs"].split(",")):
        if tok in ("astar", "a_star", "a*"):
            xs.append(sol.a_star)
        elif tok:
            try:
                xs.append(float(tok))
            except ValueError:
                raise InputError("cannot parse x value %r" % (tok,))
    if sim_cfg.discount_mode == "terminal_factor":
        print("note: terminal_factor semantics; the analytic column is the "
              "per-payment value", file=sys.stderr)
    rows = []
    for x in xs:
        analytic = float(sol.value(x))
        est = simulate_value(model, sol.a_star, x, sim_cfg)
        z = 0.0 if est.stderr == 0 else (est.mean - analytic) / est.stderr
        rows.append((x, analytic, est.mean, est.stderr, z))
        print("x=%.6g analytic=%.10g mc=%.10g se=%.3g z=%+.3f"
              % (x, analytic, est.mean, est.stderr, z))
    if cfg["out"]:
        _write_csv(cfg["out"], ("x", "analytic", "mc_mean", "mc_stderr", "z"),
                   rows)
    return 0


# subcommand -> (handler, flags taken on top of COMMON)
COMMANDS = {
    "root": (cmd_root, ()),
    "transform": (cmd_transform, ("y",)),
    "h": (cmd_h, ("a",)),
    "value": (cmd_value, ("a", "x", "a-max")),
    "barrier": (cmd_barrier, ("a-max",)),
    "verify": (cmd_verify, ("a", "a-max", "x-max", "tol")),
    "figures": (cmd_figures, ("a-max", "x-span")),
    "simulate": (cmd_simulate, ("target", "a", "x", "y", "dt", "t-max", "mode")),
    "compare": (cmd_compare, ("a", "a-max", "xs", "dt", "t-max", "mode")),
}


def _build_parser():
    """argparse only collects strings; _merge_config parses them."""
    parser = argparse.ArgumentParser(
        prog="divbarrier",
        description="Dividend valuation with Parisian ruin and "
                    "claim-count discounting.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, extra) in COMMANDS.items():
        sub = subs.add_parser(name)
        for flag in COMMON + extra:
            sub.add_argument("--" + flag, dest=flag)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args, args.command)
        return COMMANDS[args.command][0](cfg)
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
