"""Barrier dividend values, the optimal barrier, and its certificates.

Under a barrier at a, everything above a is paid out immediately, so
the value function is v(x) = h(x)/h'(a) below the barrier and
v(x) = x - a + 1/h'(a) above it, where h is the two-sided exit
function built in hfun; below zero v continues as v(0) Phi_d(-x),
which at sigma = 0 is zero from -c d down, where the Parisian clock
runs out before the drift climbs back. The optimal barrier is
where the normalizing slope h'(a) is smallest (Loeffen 2008): the
slope at 0 is compared with the slope at each zero where h'' rises
through 0, a local minimum of h'. Zeros where h'' falls are maxima of
h' and are never chosen; every zero other than the chosen one is
reported as an alternative. 0 is always a candidate, so this one
rule also covers an h'' with no zero on [0, a_max]. A grid scan of h''
brackets each zero; where h is a sum of exponentials the zero is then
polished on the closed h'', and the value and its certificate read h
in closed form too (HFunction.read), not off a grid. When the smallest
slope is at 0 the optimum sits on the pay-everything boundary and is
flagged rather than polished; a slope at a_max below every candidate's
is an error naming a_max.

Verification never trusts the construction: hjb_verify re-applies the
integro-differential generator to the assembled value function on a
fresh grid and checks the variational inequalities

    (i)  (Gamma - q) v <= tol   on [a*, x_max]
    (ii) (Gamma - q) v  = 0     on (0, a*)   within tol
    (iii) v' >= 1 - tol         on (0, a*],  v' = 1 above,

reporting the worst point of each. gprime_monotone_check and
density_shape_advisory are the cheaper screens: the first checks that
the unnormalized slope never decreases to the right of a*, the second
inspects the shape of the claim density and only ever promises
anything when the density's derivative is monotone.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .gridmath import GridFunction, trapezoid
from .scale import exp_sum
from .hfun import (
    HFunction,
    h_d_sigma0,
    h_d_sigma_pos,
    h_callable,
    _generator_grid,
    _require_step,
    _solver_step,
    _whole_line,
)

# Newton steps that polish a zero of a closed h''; a step that would
# leave the bracket halves it instead
_NEWTON_STEPS = 60


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_x: Optional[float]
    worst_value: Optional[float]
    tol: float


@dataclass(frozen=True)
class HJBReport:
    passed: bool
    generator_above: CheckResult
    generator_interior: CheckResult
    slope_floor: CheckResult
    a_star: float
    x_max: float


@dataclass(frozen=True)
class BarrierSolution:
    a_star: float
    h: HFunction
    value: Callable
    hjb_report: Optional[HJBReport]
    boundary: bool
    alternatives: tuple


def _build_h(model, a, step):
    if model.sigma == 0.0:
        return h_d_sigma0(model, a, step)
    return h_d_sigma_pos(model, a, step)


def _barrier_slope(h: HFunction):
    """h'(a), the normalizing slope of a barrier value; must be positive."""
    slope = float(h.hp.values[-1])
    if slope <= 0.0:
        raise ValueError("degenerate barrier slope h'(a) <= 0")
    return slope


def value_barrier(model, h: HFunction, a, x):
    """Barrier-strategy value at x for the barrier a carried by h."""
    if abs(h.a - a) > 1e-9:
        raise ValueError("h was built at barrier %g, not %g" % (h.a, a))
    slope = _barrier_slope(h)
    hc = h_callable(model, h)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    # a NaN is not above the barrier, and h_callable refuses it
    above = xs > a
    if not np.all(above):
        out[~above] = hc(xs[~above]) / slope
    out[above] = xs[above] - a + 1.0 / slope
    return float(out[0]) if np.ndim(x) == 0 else out


def _boundary_solution(model, scan: HFunction) -> BarrierSolution:
    """The pay-everything barrier at 0: x plus a lump 1/slope0, with the
    unnormalized slope at zero read off the exit function scan. With
    h(0) = 0 (sigma > 0, d = 0) ruin at 0 is immediate and the lump is 0."""
    h0 = scan.grid.values[0]
    v0 = 1.0 / float(scan.hp.values[0] / h0) if h0 else 0.0

    def value(x):
        return _whole_line(model, x, v0, lambda t: t + v0)

    return BarrierSolution(0.0, scan, value, None, True, ())


def _refine_root(xs, ys, i):
    """Root in [xs[i], xs[i+1]] of the parabola through nodes j-1, j, j+1
    of the uniform grid xs (j = i away from its ends).

    ys changes sign between xs[i] and xs[i+1]; the quadratic through
    the three surrounding nodes locates the zero to O(step^3). Its roots
    are taken by the stable quadratic formula; where rounding leaves
    none in the bracket, the chord's zero is returned instead.
    """
    j = max(1, min(i, len(xs) - 2))
    y0, y1, y2 = ys[j - 1], ys[j], ys[j + 1]
    # the parabola is y1 + b s + a s^2 in s = (x - xs[j]) / step
    a, b = 0.5 * (y0 - 2.0 * y1 + y2), 0.5 * (y2 - y0)
    disc = b * b - 4.0 * a * y1
    if disc >= 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        for s in ([y1 / q] if q else []) + ([q / a] if a else []):
            if i - j <= s <= i - j + 1:
                return xs[j] + s * (xs[j + 1] - xs[j])
    return xs[i] + (xs[i + 1] - xs[i]) * ys[i] / (ys[i] - ys[i + 1])


def _curvature_root(h: HFunction, xs, hpp, i):
    """The zero of h'' in [xs[i], xs[i+1]], between whose nodes hpp
    changes sign: the local parabola's root (_refine_root), polished
    where h has exponents by Newton steps on the closed h'' with the
    closed third derivative; a step that would leave the bracket halves
    it instead."""
    x = _refine_root(xs, hpp, i)
    if h.t is None:
        return x
    lo, hi = xs[i], xs[i + 1]
    for _ in range(_NEWTON_STEPS):
        f, slope = (float(v) for v in exp_sum(h.t, h.w, x, 3)[2:])
        if f == 0.0:
            break
        lo, hi = (x, hi) if (f < 0.0) == (hpp[i] < 0.0) else (lo, x)
        # x is now an end of the bracket, so a flat h'' bisects too
        nxt = x - f / slope if slope else x
        nxt = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        if nxt == x:
            break
        x = nxt
    return x


def optimal_barrier(model, a_max, grid_step=1e-3) -> BarrierSolution:
    """Locate the barrier where the exit function's slope is smallest.

    The candidates are 0 and every zero where h'' rises through 0; the
    one with the smallest h' wins (Loeffen 2008). The scan's grid
    brackets each zero; where h has exponents the zero is then polished
    on the closed h'' (_curvature_root).
    """
    if not 0.0 < a_max < math.inf:
        raise ValueError("a_max must be positive and finite, got %g" % (a_max,))
    scan = _build_h(model, a_max, grid_step)
    xs, hp, hpp = scan.grid.x, scan.hp.values, scan.hpp.values
    sign = np.sign(hpp)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = [i for i in np.nonzero(hpp == 0.0)[0] if 0 < i < len(xs) - 1]

    # (zero of h'', whether h'' rises through it: a local minimum of h')
    zeros = [(float(xs[i]), hpp[i - 1] < 0 < hpp[i + 1]) for i in exact]
    zeros += [(_curvature_root(scan, xs, hpp, i), hpp[i] < 0) for i in flips]
    roots = sorted(set(round(t, 12) for t, _ in zeros))
    cands = [0.0] + sorted(set(round(t, 12) for t, up in zeros if up))

    slopes = np.interp(cands, xs, hp)
    k = int(np.argmin(slopes))
    if hp[-1] < slopes[k]:
        raise ValueError(
            "the slope at a_max = %g is below its value at 0 and at every "
            "minimum of h'; enlarge a_max" % a_max)
    sol = (barrier_solution_at(model, cands[k], grid_step) if k
           else _boundary_solution(model, scan))
    report = hjb_verify(model, sol, sol.a_star + 10.0, tol=1e-5)
    return replace(sol, hjb_report=report, alternatives=tuple(
        t for t in roots if t != sol.a_star))


def barrier_solution_at(model, a, grid_step=1e-3) -> BarrierSolution:
    """Solution object for a forced (possibly suboptimal) barrier a."""
    if not 0.0 <= a < math.inf:
        raise ValueError("barrier must be >= 0 and finite, got %g" % (a,))
    if a == 0.0:
        return _boundary_solution(model, _build_h(
            model, max(10 * grid_step, 1e-2), _solver_step(model, grid_step)))
    h = _build_h(model, a, _solver_step(model, grid_step))
    _barrier_slope(h)  # a degenerate slope fails here, not at first use
    return BarrierSolution(a, h, partial(value_barrier, model, h, a), None, False, ())


def generator_apply(model, g, x, g1=None, g2=None, support_lo=None,
                    knots=(), y_step=1e-4):
    """Apply the integro-differential generator to g at the point x.

    Gamma g(x) = sigma^2/2 g''(x) + c g'(x) - lam g(x)
                 + lam r int_0^inf g(x - y) f(y) dy.

    g1/g2 supply derivatives; omitted ones are taken by central
    differences. support_lo declares that g cannot be evaluated below
    that point; if claim mass reaches below it the call fails rather
    than guessing. knots lists argument values where g has kinks, so
    the quadrature can split there.
    """
    _require_step(y_step)
    x = float(x)
    if g1 is None:
        hstep = 1e-5
        g1v = (g(x + hstep) - g(x - hstep)) / (2 * hstep)
    else:
        g1v = float(g1(x))
    if g2 is None:
        hstep = 1e-4
        g2v = (g(x + hstep) - 2.0 * g(x) + g(x - hstep)) / (hstep * hstep)
    else:
        g2v = float(g2(x))

    claims = model.claims
    y_hi = claims.reach
    if support_lo is not None:
        room = x - support_lo
        lost = claims.survival(max(room, 0.0))
        if room < y_hi and lost > 1e-9:
            raise ValueError(
                "g's support [%g, inf) leaves claim mass %.2e unreachable "
                "below x = %g" % (support_lo, lost, x))
        y_hi = min(y_hi, room)

    cuts = [0.0, y_hi]
    for u in knots:
        y = x - float(u)
        if 0.0 < y < y_hi:
            cuts.append(y)
    cuts = sorted(set(cuts))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = max(int(math.ceil((hi - lo) / y_step)), 4)
        ys = np.linspace(lo, hi, m + 1)
        fy = claims.density(ys)
        gv = np.asarray(g(x - ys), dtype=float)
        total += float(trapezoid(fy * gv, ys))

    lam, c, r, sigma = model.lam, model.c, model.r, model.sigma
    return 0.5 * sigma * sigma * g2v + c * g1v - lam * g(x) + lam * r * total


def _generator_sweep(model, sol: BarrierSolution, x_max, grid_step):
    """(Gamma - q)v and v' on a fresh uniform grid over [0, x_max]."""
    if not 0.0 < x_max < math.inf:
        raise ValueError("x_max must be positive and finite, got %g" % (x_max,))
    _require_step(grid_step)
    a = sol.a_star
    n = int(math.ceil(x_max / grid_step))
    st = x_max / n
    xs = st * np.arange(n + 1)
    v = np.asarray(sol.value(xs), dtype=float)

    v1, v2 = np.ones_like(xs), np.zeros_like(xs)
    if a > 0:
        # off h itself: closed where it has exponents
        slope = float(sol.h.hp.values[-1])
        below = xs <= a + 1e-12
        v1[below] = sol.h.read(xs[below], 1) / slope
        v2[below] = sol.h.read(xs[below], 2) / slope

    return xs, _generator_grid(model, st, v, v1, v2), v1


def hjb_curve(model, sol: BarrierSolution, x_max, grid_step=2e-4):
    """(x, (Gamma - q)v(x)) sampled on [a_star, x_max]."""
    xs, gen, _ = _generator_sweep(model, sol, x_max, grid_step)
    keep = xs >= sol.a_star - 1e-12
    return xs[keep], gen[keep]


def _worst(name, xs, values, region, badness, ok, tol):
    """CheckResult at the point of region where badness(values) peaks;
    an empty region passes vacuously."""
    idx = np.nonzero(region)[0]
    if not len(idx):
        return CheckResult(name, True, None, None, tol)
    i = idx[int(np.argmax(badness(values[idx])))]
    return CheckResult(name, bool(ok(values[i])), float(xs[i]), float(values[i]), tol)


def hjb_verify(model, sol: BarrierSolution, x_max, tol=1e-5,
               grid_step=2e-4) -> HJBReport:
    """Re-apply the generator to the assembled value function on a grid."""
    a = sol.a_star
    if x_max < a:
        raise ValueError("x_max = %g lies below the barrier %g" % (x_max, a))
    xs, gen, v1 = _generator_sweep(model, sol, x_max, grid_step)
    interior = (xs > 0) & (xs < a)
    checks = (
        _worst("generator_above", xs, gen, xs >= a - 1e-12,
               lambda g: g, lambda g: g <= tol, tol),
        _worst("generator_interior", xs, gen, interior,
               np.abs, lambda g: abs(g) <= tol, tol),
        # the slope floor is vacuous exactly when the interior is empty
        _worst("slope_floor", xs, v1, (xs > 0) & (xs <= a + 1e-12) & interior.any(),
               np.negative, lambda s: s >= 1.0 - tol, tol),
    )
    return HJBReport(all(c.passed for c in checks), *checks, a, x_max)


def _nondecreasing_violation(values):
    """Largest drop below the running maximum; 0 for nondecreasing input."""
    run = np.maximum.accumulate(values)
    return float(np.max(run - values))


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    worst_violation: float
    a_star: float
    b_max: float


def gprime_monotone_check(model, a_star, b_max, grid_step=1e-3,
                          tol=1e-7, gprime: GridFunction = None) -> MonotoneReport:
    """Check the unnormalized slope never falls to the right of a_star.

    gprime overrides the built slope curve (for detector sanity tests).
    """
    if b_max <= a_star:
        raise ValueError("b_max must exceed a_star")
    if gprime is None:
        h = _build_h(model, b_max, _solver_step(model, grid_step))
        # the slope of xi with xi(0) = 1, or with xi'(0) = 1 when h(0) = 0
        vals = h.hp.values / (h.grid.values[0] or h.hp.values[0])
        xs = h.grid.x
    else:
        vals = gprime.values
        xs = gprime.x
    keep = xs >= a_star - 1e-12
    viol = _nondecreasing_violation(vals[keep])
    return MonotoneReport(viol <= tol, viol, a_star, b_max)


@dataclass(frozen=True)
class ShapeAdvisory:
    monotone: bool
    direction: str
    message: str


def density_shape_advisory(dist, grid_step=1e-3, tol=1e-9) -> ShapeAdvisory:
    """Report whether the claim density's derivative is monotone.

    A monotone f' is the cheap sufficient condition under which the
    barrier found by optimal_barrier is known to be globally optimal;
    anything else defers to hjb_verify.
    """
    _require_step(grid_step)
    xs = np.arange(0.0, dist.reach + grid_step / 2, grid_step)
    fp = dist.density_slope(xs, grid_step)
    scale = max(float(np.max(np.abs(fp))), 1e-30)
    up = _nondecreasing_violation(fp) / scale
    down = _nondecreasing_violation(-fp) / scale
    if up <= tol and down <= tol:
        return ShapeAdvisory(True, "constant",
                             "barrier optimality guaranteed (flat density slope)")
    if up <= tol:
        return ShapeAdvisory(True, "nondecreasing",
                             "barrier optimality guaranteed (monotone density slope)")
    if down <= tol:
        return ShapeAdvisory(True, "nonincreasing",
                             "barrier optimality guaranteed (monotone density slope)")
    return ShapeAdvisory(False, "none", "inconclusive; rely on hjb_verify")
