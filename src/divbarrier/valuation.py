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
h' and are never chosen. When the smallest slope is at 0 the optimum
sits on the pay-everything boundary and is flagged.

Where h is a sum of exponentials (Exp(mu) claims at every d, a table
at d = inf) the signs of its weights decide this on all of [0, inf)
with no scan (_closed_barrier): by Descartes' rule for exponential
sums h' > 0 and h'' has at most one zero, so a* is 0 when h''(0) >= 0
and that zero otherwise, polished on the closed h''. The signs always
decide it (_closed_barrier says why), and a_max is only a bound. The
HJB inequalities below are then checked in closed form too
(_closed_report): on (0, a*) from the roots' residuals, and on
[a*, inf) from the sup of (Gamma - q) v, which the route takes from
its claim law (scale's generator_above), so this module reads none.

A route without exponents (a table below d = inf) is scanned: h'' read
at the solver grid's nodes on [0, a_max] brackets each zero, every
zero other than the chosen one is reported as an alternative, and a
slope at a_max below every candidate's is an error naming a_max.

Either way optimal_barrier only finds a*; the solution at a*, 0
included, is built by barrier_solution_at, as for a forced barrier.
This module reads every exit function through HFunction.read, in
closed form wherever it has exponents, and never its sampled grid.

Verification never trusts the construction: hjb_verify re-applies the
integro-differential generator to the assembled value function on a
fresh grid and checks the variational inequalities

    (i)  (Gamma - q) v <= tol   on [a*, x_max]
    (ii) (Gamma - q) v  = 0     on (0, a*)   within tol
    (iii) v' >= 1 - tol         on (0, a*],  v' = 1 above,

reporting the worst point of each. optimal_barrier attaches it to
every scanned barrier, and it stays the public cross-check of a
closed one; each report records which it is
(HJBReport.method). gprime_monotone_check and
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

from .gridmath import GridFunction, NonConvergenceError, trapezoid
from .scale import exp_sum_at
from .hfun import (
    HFunction,
    h_d_sigma0,
    h_d_sigma_pos,
    h_callable,
    _closed_residual,
    _generator_grid,
    _require_step,
    _route,
    _solver_step,
    _whole_line,
)

# Newton steps that polish a zero of a closed h''; a step that would
# leave the bracket halves it instead
_NEWTON_STEPS = 60

# tolerance of the HJB report optimal_barrier attaches
_HJB_TOL = 1e-5


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
    # "closed" (_closed_report, on all of [0, inf)) or "sampled"
    # (hjb_verify's sweep over [0, x_max])
    method: str


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
    slope = h.slope
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


def _polish(t, w, lo, hi, x, falls_at_lo):
    """Safeguarded Newton steps from x on the closed h'' = sum w t^2 e^{t x},
    with the closed third derivative, toward its zero in [lo, hi];
    falls_at_lo says h'' < 0 at lo. A step that would leave the bracket
    halves it instead."""
    for _ in range(_NEWTON_STEPS):
        f, slope = exp_sum_at(t, w, x, 3)[2:]
        if f == 0.0:
            break
        lo, hi = (x, hi) if (f < 0.0) == falls_at_lo else (lo, x)
        # x is now an end of the bracket, so a flat h'' bisects too
        nxt = x - f / slope if slope else x
        nxt = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        if nxt == x:
            break
        x = nxt
    return x


def _sign_changes(coeffs):
    """Sign changes along coeffs, zeros skipped."""
    signs = np.sign(coeffs[coeffs != 0.0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _closed_barrier(t, w):
    """a* from the signs of the weights of h = sum w e^{t x} (up to a
    positive factor); NonConvergenceError where they do not decide it.

    Ordered by t, a sum of exponentials has at most as many real zeros,
    counted with multiplicity, as its weights have sign changes
    (Descartes' rule for exponential sums; Polya & Szego, Problems and
    Theorems in Analysis II, Part V). With none in the weights w t of h'
    and the weight on the largest exponent positive, h' > 0 on all of R;
    with at most one in the weights w t^2 of h'', h'' has at most one
    zero, a rise through 0. So h' has no local minimum but that zero,
    and the smallest slope on [0, inf) is at 0 when h''(0) >= 0 and at
    the zero of h'' otherwise: no a_max enters. That zero is bracketed
    by doubling from 1/min|t| and polished by _polish; it is rounded to
    12 decimals, as the scan's were, so that a* does not move with the
    last bit of the step that reached it.

    Every route with exponents passes. W's weights c_i = (mu + t_i)/Q'(t_i)
    have the signs (+, -, -) on (rho, t_2, t_3), since Q(-mu) = lam r mu > 0
    and Q(0) = -mu kill < 0 put t_2 in (-mu, 0) and t_3 below -mu. At
    0 < d < inf the weights are c_i M(t_i, 0), M > 0, with the same signs,
    and at d = inf the one weight is 1, on rho (scale). So the weights of
    h' never change sign and those of h'' at most once.
    """
    order = np.argsort(t)
    t, w = t[order], w[order]
    if _sign_changes(w * t) or _sign_changes(w * t * t) > 1 or not w[-1] > 0.0:
        raise NonConvergenceError("the signs of h's weights leave a* undecided")
    if exp_sum_at(t, w, 0.0, 2)[2] >= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0 / float(np.min(np.abs(t)))
    while exp_sum_at(t, w, hi, 2)[2] < 0.0:
        lo, hi = hi, 2.0 * hi
    return round(_polish(t, w, lo, hi, 0.5 * (lo + hi), True), 12)


def optimal_barrier(model, a_max, grid_step=1e-3) -> BarrierSolution:
    """Locate the barrier where the exit function's slope is smallest.

    Where the route has exponents, a* is read off the signs of h's
    weights and the zero of the closed h'' (_closed_barrier), with no
    scan; a_max is then only a bound, and an a* above it is an error.
    The HJB report is closed (_closed_report) and holds on all of
    [0, inf). Anywhere else the candidates are 0 and every zero where h''
    rises through 0 on a scan of [0, a_max]; the one with the smallest
    h' wins (Loeffen 2008), and the report is hjb_verify's sampled
    sweep over [a*, a* + 10]. The solution at a* is barrier_solution_at's.
    """
    if not 0.0 < a_max < math.inf:
        raise ValueError("a_max must be positive and finite, got %g" % (a_max,))
    _require_step(grid_step)
    route = _route(model)[0]
    if route.t is None:
        a, roots = _scanned_barrier(model, a_max, grid_step)
    else:
        a, roots = _closed_barrier(route.t, route.weights), ()
        if a > a_max:
            raise ValueError("the smallest slope is at a* = %.6g, above a_max = %g; "
                             "enlarge a_max" % (a, a_max))
    sol = barrier_solution_at(model, a, grid_step)
    report = (_closed_report(model, route, sol) if route.t is not None
              else hjb_verify(model, sol, a + 10.0, tol=_HJB_TOL))
    return replace(sol, hjb_report=report, alternatives=tuple(t for t in roots if t != a))


def _scanned_barrier(model, a_max, grid_step):
    """(a*, the zeros of h'') as Python floats, off a scan of h'' on
    [0, a_max] at grid_step, for a route without exponents: the scan's
    nodes bracket each zero, located by the local parabola (_refine_root).
    A zero, and so a*, is rounded to 12 decimals."""
    scan = _build_h(model, a_max, grid_step)
    xs = scan.xs
    hp, hpp = scan.read(xs, 1), scan.read(xs, 2)
    sign = np.sign(hpp)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = [i for i in np.nonzero(hpp == 0.0)[0] if 0 < i < len(xs) - 1]

    # (zero of h'', whether h'' rises through it: a local minimum of h')
    zeros = [(float(xs[i]), hpp[i - 1] < 0 < hpp[i + 1]) for i in exact]
    zeros += [(_refine_root(xs, hpp, i), hpp[i] < 0) for i in flips]
    roots = sorted(set(float(round(t, 12)) for t, _ in zeros))
    cands = [0.0] + sorted(set(float(round(t, 12)) for t, up in zeros if up))

    slopes = scan.read(cands, 1)
    k = int(np.argmin(slopes))
    if hp[-1] < slopes[k]:
        raise ValueError(
            "the slope at a_max = %g is below its value at 0 and at every "
            "minimum of h'; enlarge a_max" % a_max)
    return cands[k], roots


def barrier_solution_at(model, a, grid_step=1e-3) -> BarrierSolution:
    """Solution object for a forced (possibly suboptimal) barrier a.

    At a = 0 it is the pay-everything barrier: x plus a lump h(0)/h'(0),
    read off the exit function at a small barrier. With h(0) = 0
    (sigma > 0, d = 0) ruin at 0 is immediate and the lump is 0.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError("barrier must be >= 0 and finite, got %g" % (a,))
    h = _build_h(model, a or max(10 * grid_step, 1e-2), _solver_step(model, grid_step))
    if a:
        _barrier_slope(h)  # a degenerate slope fails here, not at first use
        return BarrierSolution(a, h, partial(value_barrier, model, h, a), None, False, ())
    h0, slope0 = h.read(0.0, 0)[0], h.read(0.0, 1)[0]
    v0 = 1.0 / float(slope0 / h0) if h0 else 0.0
    return BarrierSolution(0.0, h, lambda x: _whole_line(model, x, lambda t: t + v0),
                           None, True, ())


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
    """(Gamma - q)v and v' on a fresh uniform grid over [0, x_max].

    From the first node at or past a* on, v is x - a* + v(a*), affine,
    which the operator is told (_generator_grid), so a table convolves
    only v on [0, a*) by transform."""
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
        slope = _barrier_slope(sol.h)
        below = xs <= a + 1e-12
        v1[below] = sol.h.read(xs[below], 1) / slope
        v2[below] = sol.h.read(xs[below], 2) / slope

    affine_from = int(np.searchsorted(xs, a))
    return xs, _generator_grid(model, st, v, v1, v2, affine_from), v1


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
    return HJBReport(all(c.passed for c in checks), *checks, a, x_max, "sampled")


def _closed_report(model, route, sol: BarrierSolution) -> HJBReport:
    """The HJB report of a barrier value on a route with exponents, where
    a* comes from _closed_barrier, in closed form on all of [0, inf).

    - generator_above: the sup over s >= 0 of (Gamma - q) v(a* + s), which
      the route takes from its claim law (route.generator_above).
    - generator_interior: on (0, a*) v = sum_i W_i e^{t_i x} with
      W = h's weights / h'(a*), so the bound is the exit function's own
      closed certificate (hfun._closed_residual) applied to W, on the
      weight-free terms h's certificate took (HFunction.closed).
    - slope_floor: h'' < 0 on [0, a*) by the sign count, so v' = h'/h'(a*)
      falls to exactly 1 at a*.

    At a* = 0 the last two are vacuous.
    """
    a, h, tol = sol.a_star, sol.h, _HJB_TOL
    v0 = float(sol.value(0.0))
    s, top = route.generator_above(a, h.w, 1.0 / _barrier_slope(h) if a else v0, v0)
    bound, x = (_closed_residual(model, h.t, h.w / _barrier_slope(h), a, h.closed)
                if a else (None, None))
    checks = [CheckResult("generator_above", top <= tol, a + s, top, tol),
              CheckResult("generator_interior", not a or bound <= tol, x, bound, tol),
              CheckResult("slope_floor", True, a or None, 1.0 if a else None, tol)]
    return HJBReport(all(chk.passed for chk in checks), *checks, a, math.inf, "closed")


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
        xs = h.xs
        hp = h.read(xs, 1)
        # the slope of xi with xi(0) = 1, or with xi'(0) = 1 when h(0) = 0
        vals = hp / (h.read(0.0)[0] or hp[0])
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
