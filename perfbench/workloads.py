"""Seeded op lists for the four benchmark workloads, and their oracles.

A workload is a sequence of rounds. Every round has the same shape
(the same op kinds and Parisian delays in the same order); only the
parameters drawn from the seed differ. A run executes a fixed number
of whole rounds, set by --seconds and the workload's nominal round
time, so the op list depends on the seed and the run length only,
never on how fast the host or the program happened to be.

Each check compares an op's answer with an oracle that does not use
the solver under test:

- flat solves        expmodel.exp_optimal_barrier (closed series)
- flat queries       expmodel.exp_value_function
- tabulated ops      expmodel with the matching ExponentialClaims model
- diffusion d = inf  h(x) = exp(-rho (a - x)), rho found here by brentq
- diffusion d = 0    h(0) = 0 (the known sigma > 0, d = 0 defect misses it)
- diffusion d = 1, 2 no oracle: finiteness and the HJB certificate only
- mc                 closed values, expmodel, or firstpassage quadrature

Every solve must also pass its own HJB certificate.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

import divbarrier as db
from divbarrier import expmodel

LAM, C = 10.0, 15.0
A_MAX = 4.0

# Oracle tolerances. Solver and closed series agree to ~1e-8 on values
# and ~1e-6 on a*; tabulated claims add the grid error of criterion 09.
TOL_A_STAR = 1e-4
TOL_A_STAR_TAB = 1e-3
TOL_VALUE = 1e-6
TOL_VALUE_TAB = 1e-5
TOL_H = 1e-5
TOL_H0 = 1e-3
# sigma > 0, d = inf: the boundary value x + 1/slope0 reads its slope off
# the a_max scan at grid_step 1e-3; measured relative error 5e-4 - 7e-4
TOL_V_SCAN = 2e-3
# MC gate: 5 standard errors plus the reported truncation bound, plus
# for Euler paths (sigma > 0, dt = 1e-3) a 3% allowance for the
# discretization bias, which 4000-path runs put below 1%.
MC_Z = 5.0
EULER_REL = 0.03

# Wall time of one round at the commit that defined the benchmark, on a
# 2-core Xeon host (Python 3.11.7, numpy 2.4.6, scipy 1.17.1). It only
# sizes the op list: a run of --seconds s executes seconds / round time
# rounds (at least one), so it measures about --seconds s on that host.
NOMINAL_ROUND_S = {"flat": 0.65, "diffusion": 2.8, "tabulated": 13.0, "mc": 2.3}


@dataclass(frozen=True)
class Op:
    index: int          # position in the op list; also the trace id
    round: int
    kind: str           # "solve", "query" or "mc"
    params: tuple       # (lam, c, sigma, q, r, d)
    claims: tuple       # ("exp", mu) or ("tab", mu, x_max)
    cold: bool          # must run on a model key no earlier op has used
    call: tuple = ()    # query: (a, xs); mc: see _mc_round
    label: str = ""


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _flat_round(rng):
    # two solves (~65-95 ms) per query (~10-25 ms): the median op is a
    # d > 0 solve, inside one cost cluster
    out = []
    for d in (0.0, 0.5, 2.0, math.inf):
        for i in range(2):
            params = (LAM, C, 0.0, _u(rng, 0.08, 0.12), _u(rng, 0.7, 0.9), d)
            claims = ("exp", 1.0)
            out.append(("solve", params, claims, True, (), "flat d=%g solve" % d))
            if i == 0:
                a = _u(rng, 0.3, 1.5)
                out.append(("query", params, claims, False, (a, (0.0, a / 2, a, a + 0.5)),
                            "flat d=%g query" % d))
    return out


def _diffusion_round(rng):
    # d = 1 and d = 2 twice: d = inf (~25 ms) and d = 0 (~0.3 s) are the
    # two fastest, so the median op falls inside the d = 1, 2 cluster
    # (~0.65 s) instead of on the edge between clusters
    out = []
    for d in (0.0, 1.0, 2.0, 1.0, 2.0, math.inf):
        # narrow draws: a d = 0 solve costs in proportion to its a*,
        # which moves fast with sigma, q and r
        params = (LAM, C, _u(rng, 0.48, 0.52), _u(rng, 0.097, 0.103), _u(rng, 0.79, 0.81), d)
        out.append(("solve", params, ("exp", 1.0), True, (), "diffusion d=%g solve" % d))
    return out


def _tab_x_max(mu, d):
    # the table must cover the c*d recovery horizon and hold all but
    # 1e-10 of the mass; mu moves the length when d does not
    return max(math.ceil(23.1 / mu), C * d if math.isfinite(d) else 0.0)


def _tabulated_round(rng):
    # queries per model: 1 at d = 0 (~15 ms), 4 at d = inf (~0.3 s),
    # 2 at d = 2 (~0.45 s), so the median op is a d = inf query, inside
    # one cost cluster; a query costs in proportion to a
    out = []
    for d, n_queries in ((0.0, 1), (math.inf, 4), (2.0, 2)):
        mu = _u(rng, 1.0, 1.15)
        params = (LAM, C, 0.0, _u(rng, 0.095, 0.105), _u(rng, 0.78, 0.82), d)
        claims = ("tab", mu, _tab_x_max(mu, d))
        out.append(("solve", params, claims, True, (), "tabulated d=%g solve" % d))
        for _ in range(n_queries):
            a = _u(rng, 0.6, 0.65)
            out.append(("query", params, claims, False, (a, (0.0, a / 2, a, a + 0.5)),
                        "tabulated d=%g query" % d))
    return out


def _mc_round(rng):
    """Eight MC calls reaching all six chunk kernels, ~0.3-0.5 s each.

    call = (target, level, x, n_paths, seed, dt, t_max, discount_mode);
    level is the barrier a (value, h) or the target level y (upcross),
    x is the start (value, h) or the deadline d (upcross).
    """
    def params(sigma, d, q_lo=0.095, q_hi=0.105):
        return (LAM, C, sigma, _u(rng, q_lo, q_hi), _u(rng, 0.78, 0.82), d)

    def seed():
        return int(rng.integers(1, 2 ** 31))

    inf = math.inf
    calls = [
        # ~230 event rounds per 16384-path chunk
        (params(0.0, 2.0), ("value", 0.0, 0.0, 16384, seed(), 1e-4, None, "per_payment"),
         "mc value sigma0 d=2 a=0"),
        (params(0.0, 0.0), ("value", 0.0, 0.0, 800000, seed(), 1e-4, None, "per_payment"),
         "mc value sigma0 d=0 a=0"),
        (params(0.0, 0.0), ("value", 0.0, 0.0, 800000, seed(), 1e-4, None, "terminal_factor"),
         "mc value sigma0 d=0 a=0 terminal_factor"),
        (params(0.0, 0.0), ("h", _u(rng, 0.7, 0.9), 0.4, 1200000, seed(), 1e-4, None, "per_payment"),
         "mc h sigma0 d=0"),
        (params(0.0, 2.0), ("upcross", 0.5, 2.0, 800000, seed(), 1e-4, None, "per_payment"),
         "mc upcross sigma0 d=2"),
        # Euler value paths cost ~n_paths * t_max; a larger q keeps the
        # truncation bound at t_max = 2 small
        (params(0.5, inf, 1.9, 2.1), ("value", 1.0, 0.5, 600, seed(), 1e-3, 2.0, "per_payment"),
         "mc value sigma_pos d=inf"),
        (params(0.5, inf), ("h", 1.0, 0.5, 1000, seed(), 1e-3, None, "per_payment"),
         "mc h sigma_pos d=inf"),
        (params(0.5, inf), ("upcross", 0.5, inf, 1500, seed(), 1e-3, None, "per_payment"),
         "mc upcross sigma_pos d=inf"),
    ]
    return [("mc", p, ("exp", 1.0), False, call, label) for p, call, label in calls]


_ROUNDS = {"flat": _flat_round, "diffusion": _diffusion_round,
           "tabulated": _tabulated_round, "mc": _mc_round}


def n_rounds(workload, seconds):
    return max(1, int(seconds / NOMINAL_ROUND_S[workload]))


def rounds(workload, seed):
    """Endless list of rounds of Ops; the same seed gives the same ops."""
    make = _ROUNDS[workload]
    index = 0
    r = 0
    while True:
        ops = []
        for kind, params, claims, cold, call, label in make(_rng(seed, r)):
            ops.append(Op(index, r, kind, params, claims, cold, call, label))
            index += 1
        yield ops
        r += 1


def warmup_ops(workload, seed):
    """One cheap op on a model no timed op uses (its own seed stream)."""
    rng = _rng(seed, 2 ** 32 - 1)
    q, r = _u(rng, 0.13, 0.14), _u(rng, 0.6, 0.65)
    if workload == "flat":
        return [Op(-1, -1, "solve", (LAM, C, 0.0, q, r, 0.0), ("exp", 1.0), True, (), "warm-up")]
    if workload == "diffusion":
        return [Op(-1, -1, "solve", (LAM, C, 0.5, q, r, math.inf), ("exp", 1.0), True, (), "warm-up")]
    if workload == "tabulated":
        return [Op(-1, -1, "solve", (LAM, C, 0.0, q, r, 0.0), ("tab", 1.5, 16.0), True, (), "warm-up")]
    calls = [(0.0, 1.0, ("value", 0.0, 0.0)), (0.0, 1.0, ("h", 0.5, 0.2)),
             (0.0, 1.0, ("upcross", 0.5, 1.0)), (0.5, math.inf, ("value", 0.5, 0.2)),
             (0.5, math.inf, ("h", 0.5, 0.2)), (0.5, math.inf, ("upcross", 0.5, math.inf))]
    return [Op(-1, -1, "mc", (LAM, C, sigma, q, r, d), ("exp", 1.0), False,
               call + (64, 7, 1e-3, 2.0, "per_payment"), "warm-up")
            for sigma, d, call in calls]


def build_model(params, claims):
    if claims[0] == "exp":
        dist = db.ExponentialClaims(claims[1])
    else:
        dist = db.tabulated_exponential(claims[1], x_max=claims[2])
    return db.validate(db.ModelParams(*params), dist)


def execute(op, model):
    """The timed call. Library entry points are looked up at call time,
    so a tracer that rebinds them sees these calls."""
    if op.kind == "solve":
        return db.optimal_barrier(model, A_MAX)
    if op.kind == "query":
        a, xs = op.call
        return db.barrier_solution_at(model, a).value(np.array(xs))
    target, level, x, n, seed, dt, t_max, mode = op.call
    cfg = db.SimConfig(n, seed=seed, dt=dt, t_max=t_max, discount_mode=mode)
    fn = {"value": db.simulate_value, "h": db.simulate_h,
          "upcross": db.simulate_upcross}[target]
    return fn(model, level, x, cfg)


@dataclass
class Check:
    ok: bool
    reason: str
    outputs: list       # (value, quantum): quantum 0 keeps the float bit-exact
    no_oracle: bool = False


def known_defect(op):
    """Ops that miss their oracle at the parent commit for a documented
    reason. They still count as failed; they only do not make the run
    incorrect."""
    return op.kind == "solve" and op.params[2] > 0.0 and op.params[5] == 0.0


def independent_rho(params, mu):
    """Root of psi_r(s) = q for exponential claims, without lundberg.py."""
    lam, c, sigma, q, r, _ = params

    def g(s):
        return 0.5 * sigma * sigma * s * s + c * s - lam + lam * r * mu / (mu + s) - q

    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    return brentq(g, 0.0, hi, xtol=1e-15, maxiter=200)


def _exp_twin(params, claims):
    return db.validate(db.ModelParams(*params), db.ExponentialClaims(claims[1]))


def _close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    return bool(np.all(np.isfinite(got)) and err <= tol), err


def check(op, model, result):
    """Compare one op's answer with its oracle."""
    if op.kind == "mc":
        return _check_mc(op, result)
    if op.kind == "query":
        a, xs = op.call
        tol = TOL_VALUE if op.claims[0] == "exp" else TOL_VALUE_TAB
        want = expmodel.exp_value_function(_exp_twin(op.params, op.claims), op.params[5],
                                           np.array(xs), barrier=a)
        ok, err = _close(result, want, tol)
        return Check(ok, "" if ok else "value off by %.2e (tol %.0e)" % (err, tol),
                     [(float(v), tol) for v in result])
    return _check_solve(op, result)


def _check_solve(op, sol):
    sigma, d = op.params[2], op.params[5]
    problems = []
    if not sol.hjb_report.passed:
        problems.append("HJB certificate failed")
    tol = TOL_A_STAR if op.claims[0] == "exp" else TOL_A_STAR_TAB
    outputs = [(sol.a_star, tol)]
    no_oracle = False
    if sigma == 0.0:
        a_ref, boundary, _ = expmodel.exp_optimal_barrier(
            _exp_twin(op.params, op.claims), d, a_max=A_MAX)
        if abs(sol.a_star - a_ref) > tol or sol.boundary != boundary:
            problems.append("a* %.6f (boundary %s) vs closed %.6f (boundary %s)"
                            % (sol.a_star, sol.boundary, a_ref, boundary))
    elif math.isinf(d):
        rho = independent_rho(op.params, op.claims[1])
        xs = np.linspace(0.0, sol.h.a, 9)
        ok, err = _close(sol.h.grid.interp(xs), np.exp(-rho * (sol.h.a - xs)), TOL_H)
        if not ok:
            problems.append("h off exp(-rho(a-x)) by %.2e" % err)
        if sol.boundary and sol.a_star == 0.0:
            ok, err = _close(sol.value(xs), xs + 1.0 / rho, TOL_V_SCAN)
            if not ok:
                problems.append("v off x + 1/rho by %.2e" % err)
        outputs.append((float(sol.h.grid.values[0]), TOL_H))
    elif d == 0.0:
        h0 = float(sol.h.grid.values[0])
        if abs(h0) > TOL_H0:
            problems.append("h(0) = %.4f, oracle 0" % h0)
        outputs.append((h0, TOL_H0))
    else:
        no_oracle = True
        vals = [sol.a_star, float(sol.h.grid.values[0]), float(sol.value(0.0))]
        if not all(math.isfinite(v) for v in vals):
            problems.append("non-finite output")
        outputs.append((vals[2], TOL_VALUE))
    return Check(not problems, "; ".join(problems), outputs, no_oracle)


def _mc_want(op):
    lam, c, sigma, q, r, d = op.params
    target, level, x, *_ = op.call
    mode = op.call[7]
    mu = op.claims[1]
    model = _exp_twin(op.params, op.claims)
    if sigma > 0.0:
        rho = independent_rho(op.params, mu)
        if target == "upcross":
            return math.exp(-rho * level)
        h = math.exp(-rho * (level - x))
        return h if target == "h" else h / rho
    if target == "upcross":
        return db.upcross_transform(model, level, x).value
    if target == "h":
        num, _, _ = expmodel.exp_series(model, np.array([x, level]), d)
        return float(num[0] / num[1])
    if d == 0.0 and level == 0.0 and x == 0.0:
        # pays c until the first claim, which ruins
        return c / (lam + q) * (r if mode == "terminal_factor" else 1.0)
    return expmodel.exp_value_function(model, d, x, barrier=level)


def _check_mc(op, est):
    want = _mc_want(op)
    gate = MC_Z * est.stderr + est.truncation_bias_bound
    if op.params[2] > 0.0:
        gate += EULER_REL * abs(want)
    miss = abs(est.mean - want)
    ok = math.isfinite(est.mean) and miss <= gate
    return Check(ok, "" if ok else "MC %.6f vs %.6f, gap %.2e > gate %.2e"
                 % (est.mean, want, miss, gate), [(est.mean, 0), (est.stderr, 0)])


def quantize(value, quantum):
    """Fingerprint token: MC floats bit-exact, analytic ones to tolerance."""
    if quantum == 0:
        return float(value).hex()
    return str(int(round(value / quantum)))
