"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Every test prints "CRITERION k: PASS/FAIL - detail" and registers the
line so the run summary repeats them in order (see conftest). A
criterion that cannot be met honestly fails here with its diagnosis in
the detail line; nothing in this file relaxes a tolerance to pass.

Reference parameter set: lam = 10, c = 15, q = 0.1, r = 0.8,
exponential(1) claims, sigma = 0 except where a criterion says
otherwise.
"""

import math
import time

import numpy as np
import pytest

import divbarrier as db
from divbarrier import expmodel
from divbarrier.gridmath import GridFunction, dickson_commutation_residual
from divbarrier.hfun import h_d_sigma0, h_d_sigma_pos
from divbarrier.lundberg import lundberg_root
from divbarrier.simulator import SimConfig, simulate_h, simulate_value
from divbarrier.valuation import hjb_curve, hjb_verify, optimal_barrier

from conftest import make_model


def record(request, k, ok, detail):
    lines = getattr(request.config, "_criterion_lines", None)
    if lines is None:
        lines = {}
        request.config._criterion_lines = lines
    line = "CRITERION %02d: %s - %s" % (k, "PASS" if ok else "FAIL", detail)
    lines[k] = line
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_01_lundberg_root(request, m_d0):
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        root = lundberg_root(m_d0)
        best = min(best, time.perf_counter() - t0)
    ok = abs(root.rho - 0.24493) <= 5e-5 and best < 0.010
    record(request, 1, ok,
           "rho=%.8f (target 0.24493 +/- 5e-5), solve time %.3f ms"
           % (root.rho, 1e3 * best))


def test_criterion_02_optimal_barriers(request, m_d0, m_d2):
    t0 = time.perf_counter()
    s0 = optimal_barrier(m_d0, 2.0, 1e-3)
    t_d0 = time.perf_counter() - t0
    ok0 = abs(s0.a_star - 0.7693) <= 2e-3 and t_d0 < 30.0

    t0 = time.perf_counter()
    s2 = optimal_barrier(m_d2, 2.0, 1e-3)
    t_d2 = time.perf_counter() - t0
    ok2 = abs(s2.a_star - 0.52202) <= 2e-3 and t_d2 < 30.0

    detail = ("d=0 a*=%.6f in %.2fs (target 0.7693 +/- 2e-3); "
              "d=2 a*=%.6f in %.2fs (target 0.52202 +/- 2e-3)"
              % (s0.a_star, t_d0, s2.a_star, t_d2))

    if not ok2:
        # diagnosis: with the full reach-back weight u(2) = 0.803241
        # the exit curvature is positive on all of (0, 2], so the
        # honest optimum is the pay-everything boundary
        curv = expmodel.exp_series(m_d2, np.linspace(1e-3, 2.0, 400), 2.0)[2]
        mc = simulate_value(m_d2, 0.0, 0.0, SimConfig(20000, seed=606))
        z = (mc.mean - s2.value(0.0)) / mc.stderr
        # the reference number is reproduced by truncating the weight
        # after the first claim: u -> 0.205631, curvature zero 0.520098
        gam = 10.0 + 0.1 + 15.0
        u_tr = (expmodel.u_of_d(m_d2, 2.0)
                - (15.0 / gam) * (1.0 - math.exp(-gam * 2.0)))
        rho = lundberg_root(m_d2).rho
        kap = 10.0 * 0.8 * u_tr / (15.0 * (rho + 1.0))

        def curv_tr(x):
            return float(expmodel._series_eval(m_d2, np.array([x]), kap)[2][0])

        lo, hi = 0.3, 0.8
        flo = curv_tr(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if flo * curv_tr(mid) <= 0:
                hi = mid
            else:
                lo, flo = mid, curv_tr(mid)
            if hi - lo < 1e-13:
                break
        b_tr = 0.5 * (lo + hi)
        detail += (". d=2 diagnosis: solver lands on the boundary "
                   "(boundary=%s, min curvature on (0,2] = %+.3e > 0, "
                   "boundary value v(0)=%.6f agrees with MC at z=%+.2f); "
                   "truncating the reach-back weight after one claim "
                   "(u=%.6f) restores an interior curvature zero at "
                   "%.6f, which is within 2.1e-3 of 0.52202"
                   % (s2.boundary, float(np.min(curv)), s2.value(0.0), z,
                      u_tr, b_tr))

    record(request, 2, ok0 and ok2, detail)


def test_criterion_03_hjb_inequalities(request, m_d0, m_d2, sol_d0, sol_d2):
    worst = {}
    ok = True
    for tag, model, sol in (("d=0", m_d0, sol_d0), ("d=2", m_d2, sol_d2)):
        _, gen = hjb_curve(model, sol, sol.a_star + 10.0)
        above = float(np.max(gen))
        rep = hjb_verify(model, sol, sol.a_star + 10.0, tol=1e-5)
        inner = rep.generator_interior
        interior = 0.0 if inner.worst_value is None else abs(inner.worst_value)
        ok = ok and above <= 1e-6 and inner.passed and rep.slope_floor.passed
        worst[tag] = (above, interior)
    record(request, 3, ok,
           "max (Gamma-q)v above a*: d=0 %.2e, d=2 %.2e (tol 1e-6); "
           "max |(Gamma-q)v| inside: d=0 %.2e, d=2 %.2e (tol 1e-5)"
           % (worst["d=0"][0], worst["d=2"][0],
              worst["d=0"][1], worst["d=2"][1]))


def test_criterion_04_boundary_slope(request, m_d0):
    got = expmodel.exp_series(m_d0, 0.0, 0.0)[1][0]
    want = (10.0 + 0.1) / 15.0
    ok = abs(got - want) <= 1e-10
    record(request, 4, ok,
           "theta'(0)=%.14f vs (lam+q)/c=%.14f, |diff|=%.2e (tol 1e-10)"
           % (got, want, abs(got - want)))


def test_criterion_05_discount_mode_discriminator(request, m_d0):
    t0 = time.perf_counter()
    per = simulate_value(m_d0, 0.0, 0.0,
                         SimConfig(200000, seed=501))
    ter = simulate_value(m_d0, 0.0, 0.0,
                         SimConfig(200000, seed=501,
                                   discount_mode="terminal_factor"))
    elapsed = time.perf_counter() - t0
    zp = (per.mean - 1.485149) / per.stderr
    zt = (ter.mean - 1.188119) / ter.stderr
    ok = (abs(per.mean - 1.485149) <= 3 * per.stderr
          and abs(ter.mean - 1.188119) <= 3 * ter.stderr
          and elapsed < 60.0)
    record(request, 5, ok,
           "per_payment %.6f (z=%+.2f vs 1.485149), terminal_factor %.6f "
           "(z=%+.2f vs 1.188119), 2e5 paths each, %.1fs"
           % (per.mean, zp, ter.mean, zt, elapsed))


def test_criterion_06_value_vs_monte_carlo(request, m_d0, m_d2,
                                           sol_d0, sol_d2):
    t0 = time.perf_counter()
    zs = []
    ok = True
    for tag, model, sol in (("d=0", m_d0, sol_d0), ("d=2", m_d2, sol_d2)):
        points = sorted(set(round(x, 12) for x in (0.0, 0.5, sol.a_star)))
        for x in points:
            analytic = float(sol.value(x))
            est = simulate_value(model, sol.a_star, x,
                                 SimConfig(200000, seed=601))
            gap = abs(est.mean - analytic)
            ok = ok and gap <= 3 * est.stderr + est.truncation_bias_bound
            zs.append("%s x=%g z=%+.2f" % (tag, x, (est.mean - analytic)
                                           / est.stderr))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    record(request, 6, ok,
           "all points within 3 SE (%s), 2e5 paths each, %.1fs total"
           % ("; ".join(zs), elapsed))


def test_criterion_07_unbounded_clock_transform(request, m_d0):
    rho = lundberg_root(m_d0).rho
    worst = 0.0
    for y in (0.1, 0.5, 1.0, 2.0):
        got = db.upcross_transform(m_d0, y, math.inf).value
        worst = max(worst, abs(got - math.exp(-rho * y)))
    ok = worst <= 1e-6
    record(request, 7, ok,
           "sup_y |Phi(y, inf) - exp(-rho y)| = %.2e over y in "
           "{0.1, 0.5, 1, 2} (tol 1e-6)" % worst)


def test_criterion_08_resolvent_commutation(request):
    step = 1e-4
    xs = np.arange(0.0, 30.0 + step / 2, step)
    gs = {
        "exp": GridFunction(0.0, 30.0, step, np.exp(-xs)),
        "erlang2": GridFunction(0.0, 30.0, step, xs * np.exp(-xs)),
    }
    worst = 0.0
    for g in gs.values():
        for s, r in ((0.1, 0.3), (0.2, 1.0)):
            worst = max(worst, dickson_commutation_residual(s, r, g))
    ok = worst <= 1e-8
    record(request, 8, ok,
           "max commutation residual %.2e over two kernels and "
           "(s,r) in {(0.1,0.3),(0.2,1.0)} (tol 1e-8)" % worst)


def test_criterion_09_tabulated_matches_closed(request, tab_dist):
    a = 0.7693
    worst = 0.0
    for d in (0.0, 2.0):
        mt = db.validate(
            db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d), tab_dist)
        me = make_model(d)
        ht = h_d_sigma0(mt, a, step=1e-4)
        he = h_d_sigma0(me, a, step=1e-4)
        worst = max(worst, float(np.max(np.abs(ht.grid.values
                                               - he.grid.values))))
    ok = worst <= 1e-6
    record(request, 9, ok,
           "sup |h_tabulated - h_closed| = %.2e on [0, %.4f] for "
           "d in {0, 2} (tol 1e-6)" % (worst, a))


def test_criterion_10_diffusion_pipeline(request):
    m = make_model(1.0, sigma=0.5)
    h = h_d_sigma_pos(m, 1.0, step=1e-5)
    zs = []
    ok = h.ide_residual <= 1e-4
    for x in (0.3, 0.7):
        est = simulate_h(m, 1.0, x, SimConfig(20000, seed=707, dt=1e-3))
        want = float(h.grid.interp(np.array([x]))[0])
        gap = abs(est.mean - want)
        ok = ok and gap <= 3 * est.stderr + est.truncation_bias_bound
        zs.append("x=%g z=%+.2f" % (x, (est.mean - want) / est.stderr))
    record(request, 10, ok,
           "shooting residual %.2e (tol 1e-4); MC agreement %s "
           "at 2e4 paths" % (h.ide_residual, "; ".join(zs)))
