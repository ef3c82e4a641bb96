"""Two-sided-exit functions under claim-count discounting.

h(x) is the expected value of r^{claims so far} e^{-q tau} on the
event that the surplus climbs from x to the barrier a before staying
below zero for longer than the grace period d. It is built from the
unnormalized solution xi of

    sigma^2/2 xi'' + c xi' - (lam+q) xi
        + lam r [ (f * xi)(x) + xi(0) w_d(x) ] = 0,     xi(0) = 1,

where the w_d term carries the below-zero continuation
xi(z) = xi(0) * Phi_d(-z) for z < 0 (zero from -c d down at sigma = 0,
where the drift cannot climb back in time):

    w_d(x) = int_0^inf Phi_d(y) f(y + x) dy.

At d = inf, w_d is T_rho f itself at rho = model.rho, the claim law's
exact tail transform at any points. At every finite d > 0, w_d is read
from one memo entry per model (_phi_grid), which holds the scale
route's Lambda (scale.scale_ratio) and its w_reader, for either claim
law at every sigma; this module does not choose the route. At
sigma > 0 that Lambda gives the continuation slope and the
certificate. For exponential claims w_d is the closed form u(d) f, u(d)
taken once from that Lambda; no Phi grid is built. For a table the
entry's TableRatio integrates Phi_d = Lambda(-y)/Lambda(0) against the
density on the table's own lattice, into a node table read with one
interpolation. The continuation below zero (_whole_line) reads Phi_d
at its own deficits off the same Lambda at finite d > 0, and through
upcross_table's closed forms at d = 0 and d = inf.

For Exp(mu) claims no renewal equation is solved (_exp_basis). Since
f * e^{t x} = mu/(mu + t) (e^{t x} - e^{-mu x}), e^{t x} solves the
equation up to a multiple of e^{-mu x} exactly when t is a root of

    Q(t) = (sigma^2 t^2 / 2 + c t - lam - q)(mu + t) + lam r mu,

two roots at sigma = 0 and three at sigma > 0 (scale._roots), and with
w_d = u e^{-mu x}, u = w_d(0), xi = sum_i w_i e^{t_i x} solves it where
sum_i w_i (mu/(mu + t_i) - u) = 0 (Loeffen, Czarna & Palmowski 2013,
Bernoulli 19(2)). That row, xi(0) and, at sigma > 0, xi'(0) give the
weights in one 2x2 or 3x3 solve, and xi, xi', xi'' are sums of
exponentials at the solver nodes, exact at any step.

For a table, with sigma = 0 the equation is first order in xi, with
xi(0) = 1; its renewal form

    xi = [zeta - (lam r / c) (zeta * w_d)] + (lam r / c) (T_rho f) * xi

(zeta(x) = e^{rho x}) is solved whole in one tilted transform
(gridmath.neumann_series), and xi' and xi'' are read back through the
equation. With sigma > 0 the solution family is

    xi = sum_n (2 lam r / sigma^2)^n (beta * T_rho f)^{*n} * phi,
    beta(x) = e^{-(rho + 2c/sigma^2) x},
    phi = xi(0) [(rho + 2c/sigma^2) (zeta*beta) + beta
                 - (2 lam r / sigma^2) (zeta*beta*w_d)] + p (zeta*beta),

and xi, xi' and xi'' are one such solve each (scale.renewal's kernel
and forcing, which a table's W solves too).

In either form there is one free slope p = xi'(0) at sigma > 0. Every p
solves the equation on (0, a), so p is imposed: h is C^1 at 0 with its
continuation, p = -Phi_d'(0+): Lambda'(0)/Lambda(0) of the memo entry's
Lambda at finite d, rho at d = inf. At d = 0 a diffusion started at 0
is ruined at once, so xi(0) = 0 with unit slope instead, and h is
W(x)/W(a) for the scale function W.

By the Lundberg equation a table's renewal kernel has L1 mass
1 - kill/(c rho) at sigma = 0 and 1 - 2 kill/(rho (sigma^2 rho + 2c))
at sigma > 0, kill = q + lam(1-r) > 0, so it is below 1 for every valid
model and the equation contracts: the solution grows only as fast as
its forcing, like e^{rho x}.

The operator of the equation, sigma^2/2 v'' + c v' - (lam+q) v
+ lam r (f*v + v(0) w_d), is applied on a grid in one place: the exit
function's check ide_residual and the HJB sweep of valuation both call
it. The residual an exit function reports is ide_residual on the
returned h, at sigma > 0 raised to an interface term when that is
larger, both in h units, so it is never below the check a caller can
rerun. At finite d > 0 the term is the cross-route gap
max |h - Lambda(x)/Lambda(a)| on the solver grid, for either claim law,
which a wrong imposed slope cannot pass. At d = 0 and d = inf a
table's term is the mismatch between the solved slope at 0+ and the
imposed one (1 at d = 0, rho at d = inf); exponential claims have none
there, since their basis takes xi(0) and xi'(0) exactly. Both solvers
refuse an h whose reported residual exceeds the gate with the same
NonConvergenceError.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .gridmath import (
    GridFunction,
    NonConvergenceError,
    # not called here: perfbench's self-test and tests/test_bench_contract
    # read hfun.convolve_values to see the tracer's by-name rebinding reach
    # a module that imports it
    convolve_values,
    convolve_exp,
    derivative,
    neumann_series,
)
from .firstpassage import upcross_table
from .scale import _roots, renewal, scale_ratio

_CACHE = {}

# sup-norm equation residual above which a built exit function is refused
_RESIDUAL_GATE = 1e-4


@dataclass(frozen=True)
class HFunction:
    grid: GridFunction
    hp: GridFunction
    hpp: GridFunction
    a: float
    xi_prime_zero: Optional[float]
    ide_residual: float


def _phi_grid(model):
    """The w_d reader at finite d > 0 with the scale route's Lambda,
    memoized per model as one entry (Lambda, reader).

    Lambda is scale_ratio's at every sigma, a ScaleRatio for Exp(mu)
    claims and a TableRatio for a table; it gives Phi_d, and at
    sigma > 0 the continuation slope and ratio(xs, a) too. The reader is
    its w_reader: the closed form u(d) e^{-mu x} for Exp(mu) claims, a
    node table on the table's lattice for a table.
    """
    key = (model.key(), "phi")
    if key not in _CACHE:
        route = scale_ratio(model)
        _CACHE[key] = route, route.w_reader()
    return _CACHE[key]


def _w_values(model, xs):
    """w_d sampled at the points xs >= 0. w_inf is T_rho f itself, not a
    quadrature of Phi."""
    if model.d == 0:
        return np.zeros_like(xs)
    if math.isinf(model.d):
        return model.claims.tail_transform(model.rho, xs)
    return _phi_grid(model)[1](xs)


def w_d(model, x):
    """Below-zero continuation forcing w_d at x (scalar or array)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise ValueError("w_d is defined for x >= 0")
    vals = _w_values(model, xs)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _require_step(step):
    if not 0.0 < step < math.inf:
        raise ValueError("grid step must be positive and finite, got %g" % (step,))


def _solver_grid(a, step):
    """Grid [0, a] with a step near `step` that lands on the barrier; its
    values are its abscissae."""
    if not 0.0 < a < math.inf:
        raise ValueError("barrier a must be positive and finite, got %g" % (a,))
    _require_step(step)
    n = max(int(round(a / step)), 8)
    step = a / n
    return GridFunction(0.0, n * step, step, step * np.arange(n + 1))


def _exit_function(grid, a, xi, xip, xipp, xi_prime_zero=None):
    """h = xi / xi(a) with its derivatives, on the solver grid, not yet
    certified; xi and its derivatives are normalized in place."""
    # xi last, so that each divides by the same xi(a)
    for v in (xip, xipp, xi):
        v /= xi[-1]
    gf = grid.with_values(xi)
    return HFunction(gf, gf.with_values(xip), gf.with_values(xipp),
                     a, xi_prime_zero, math.nan)


def _exp_basis(model, xs, x0, p=None):
    """xi, xi' and xi'' at xs for Exp(mu) claims: xi = sum_i w_i e^{t_i x}
    over the roots t_i of Q (scale._roots), with xi(0) = x0 and, at
    sigma > 0, xi'(0) = p.

    f * e^{t x} = mu/(mu + t) (e^{t x} - e^{-mu x}), so each e^{t_i x}
    solves the equation but for a term in e^{-mu x}, which
    xi(0) w_d = xi(0) u e^{-mu x}, u = w_d(0), cancels where
    sum_i w_i (mu/(mu + t_i) - u) = 0.
    """
    mu, t = model.claims.mu, _roots(model)[0]
    u = _w_values(model, np.zeros(1))[0]
    # two roots at sigma = 0, three at sigma > 0: as many rows
    rows = np.array([mu / (mu + t) - u, np.ones(len(t)), t])[:len(t)]
    w = np.linalg.solve(rows, [0.0, x0, p][:len(t)])
    # summed one root at a time, elementwise, in one scratch array
    xi, xip, xipp, term = (np.zeros(len(xs)) for _ in range(4))
    for ti, wi in zip(t, w):
        np.exp(np.multiply(xs, ti, out=term), out=term)
        term *= wi
        for v in (xi, xip, xipp):
            v += term
            term *= ti
    xi[0] = x0
    return xi, xip, xipp


def _certified(h, res, detail=""):
    """h carrying the residual res, or NonConvergenceError above the gate."""
    if not res <= _RESIDUAL_GATE:
        raise NonConvergenceError(
            "equation residual %.3e exceeds %.0e at step %g%s"
            % (res, _RESIDUAL_GATE, h.grid.step, detail), last_norm=res)
    return replace(h, ide_residual=res)


def h_d_sigma0(model, a, step=1e-4) -> HFunction:
    """Exit function for the drift-only model (sigma = 0)."""
    if model.sigma != 0.0:
        raise ValueError("h_d_sigma0 requires sigma = 0")
    grid = _solver_grid(a, step)
    if model.claims.kind == "exponential":
        hf = _exit_function(grid, a, *_exp_basis(model, grid.values, 1.0))
        return _certified(hf, ide_residual(model, hf))
    lam, c, q, r, rho = model.lam, model.c, model.q, model.r, model.rho
    xs, step = grid.values, grid.step
    zeta = np.exp(rho * xs)
    w = _w_values(model, xs)
    coeff = lam * r / c
    # (zeta * w_d)(x) = int_0^x e^{rho(x - u)} w_d(u) du
    forcing = grid.with_values(zeta - coeff * convolve_exp(-rho, w, step))
    trf = grid.with_values(model.claims.tail_transform(rho, xs))
    xi = neumann_series(trf, forcing, coeff)[0].values

    # derivatives read off the equation itself, not finite differences
    f_xi = model.claims.convolve_grid(xi, step)
    xip = ((lam + q) * xi - lam * r * f_xi - lam * r * w) / c
    f_xip = model.claims.convolve_grid(xip, step)
    f_res, wp = model.claims.density(xs), derivative(grid.with_values(w), 1).values
    xipp = ((lam + q) * xip - lam * r * (f_res * xi[0] + f_xip) - lam * r * wp) / c

    hf = _exit_function(grid, a, xi, xip, xipp)
    return _certified(hf, ide_residual(model, hf))


def _continuation_slope(model):
    """The slope xi'(0)/xi(0) that xi shares at 0 with its continuation
    xi(0) Phi_d(-z) below zero: -Phi_d'(0+), which is rho at d = inf and
    Lambda'(0)/Lambda(0) of the memo entry's Lambda at finite d."""
    if math.isinf(model.d):
        return model.rho
    return _phi_grid(model)[0].slope


def h_d_sigma_pos(model, a, step=1e-5) -> HFunction:
    """Exit function for the diffusion-perturbed model (sigma > 0).

    xi starts from xi(0) = 1 with the continuation slope at d > 0, and
    from xi(0) = 0 with unit slope at d = 0 (proportional to W). For
    Exp(mu) claims xi is a sum of exponentials (_exp_basis); for a table
    xi, xi' and xi'' are one renewal solve each. The certificate is the
    larger of the equation residual and the interface term: the gap to
    the scale route at 0 < d < inf, else for a table the slope mismatch
    at 0, which the exponential basis imposes exactly.
    """
    if model.sigma <= 0.0:
        raise ValueError("h_d_sigma_pos requires sigma > 0")
    grid = _solver_grid(a, step)
    rho, xs, step = model.rho, grid.values, grid.step
    x0, p = (0.0, 1.0) if model.d == 0 else (1.0, _continuation_slope(model))
    gap, detail = 0.0, ""
    if model.claims.kind == "exponential":
        xi, xip, xipp = _exp_basis(model, xs, x0, p)
    else:
        trf = model.claims.tail_transform(rho, xs)
        b1, gam, erx, beta, zb, kern = renewal(model, xs, trf, step)
        w = _w_values(model, xs)
        dzb = (rho * erx + b1 * beta) / (rho + b1)
        d2zb = (rho * rho * erx - b1 * b1 * beta) / (rho + b1)
        bw = convolve_exp(b1, w, step)
        zbw = convolve_exp(-rho, bw, step)
        dzbw = bw + rho * zbw
        d2zbw = (w - b1 * bw) + rho * dzbw
        # xi = phi + gam kern * xi with phi(0) = x0, phi'(0) = p; xi' and
        # xi'' carry the boundary terms kern xi(0) and kern' xi(0) + kern p
        forcings = (
            x0 * (b1 * zb + beta - gam * zbw) + p * zb,
            x0 * (b1 * dzb - b1 * beta - gam * dzbw + gam * kern) + p * dzb,
            x0 * (b1 * d2zb + b1 * b1 * beta - gam * d2zbw + gam * (trf - b1 * kern))
            + p * (d2zb + gam * kern))
        kern = grid.with_values(kern)
        xi, xip, xipp = (neumann_series(kern, grid.with_values(v), gam)[0].values
                         for v in forcings)
        if not 0.0 < model.d < math.inf:
            # in h units: the mismatch between the slope imposed at 0 (1 at
            # d = 0, rho at d = inf) and the solved one at 0+, extrapolated
            # quadratically from 1, 2 and 3 steps
            solved = 3.0 * xip[1] - 3.0 * xip[2] + xip[3]
            gap = 0.5 * model.sigma ** 2 * abs(solved - p) / xi[-1]
            detail = " (slope at 0 imposed %.6f, solved %.6f)" % (p, solved)

    hf = _exit_function(grid, a, xi, xip, xipp, p if x0 else None)
    if 0.0 < model.d < math.inf:
        # in h units: the gap to the scale route's Lambda(x)/Lambda(a)
        gap = float(np.max(np.abs(hf.grid.values - _phi_grid(model)[0].ratio(xs, a))))
        detail = " (slope at 0 imposed %.6f, h %.3e off the scale route)" % (p, gap)
    return _certified(hf, max(ide_residual(model, hf), gap), detail)


def _generator_grid(model, step, v, v1, v2):
    """sigma^2/2 v'' + c v' - (lam+q) v + lam r (f*v + v(0) w_d), given v,
    v' and v'' on the uniform grid of that step from 0.

    This is (Gamma - q) v for a v that continues below zero as
    v(0) Phi_d(-z), the continuation entering through w_d.
    """
    lam, c, q, r, sigma = model.lam, model.c, model.q, model.r, model.sigma
    w = _w_values(model, step * np.arange(len(v)))
    conv = model.claims.convolve_grid(v, step) + v[0] * w
    return 0.5 * sigma * sigma * v2 + c * v1 - (lam + q) * v + lam * r * conv


def ide_residual(model, h: HFunction) -> float:
    """Sup-norm equation residual of a constructed exit function.

    For sigma = 0 the derivative is re-taken by finite differences,
    making the check independent of how h was built; for sigma > 0 the
    carried analytic derivatives are used, because a second difference
    at the stiff rate rho + 2c/sigma^2 would only measure interpolation
    noise.
    """
    grid = h.grid
    hp = derivative(grid, 1).values if model.sigma == 0.0 else h.hp.values
    res = _generator_grid(model, grid.step, grid.values, hp, h.hpp.values)
    lo = max(2, len(res) // 100)
    return float(np.max(np.abs(res[lo:-2])))


def _whole_line(model, x, at_zero, inside):
    """inside(x) on x >= 0 and at_zero * Phi_d(-x) below zero.

    From a deficit the surplus must climb back to 0 within the grace
    period, so a quantity worth at_zero at 0 is worth at_zero Phi_d(-x)
    at x < 0. Both h and the barrier value continue below zero this way.
    At sigma = 0 the drift cannot climb back from -c d or below in time,
    so the value there is zero without a transform; a diffusion can
    recover from any deficit.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x_arr)
    pos = x_arr >= 0
    out[pos] = inside(x_arr[pos])
    reach = model.c * model.d if model.sigma == 0.0 else math.inf
    neg = (~pos) & (x_arr > -reach)
    if np.any(neg):
        ys = -x_arr[neg]
        if 0.0 < model.d < math.inf:
            # Phi_d from the Lambda the forcing memo holds
            out[neg] = at_zero * _phi_grid(model)[0].phi(ys)
        else:
            out[neg] = at_zero * upcross_table(model, model.d, ys)
    return float(out[0]) if np.ndim(x) == 0 else out


def h_callable(model, h: HFunction):
    """Whole-line evaluator for an exit function.

    Inside [0, a] the grid is interpolated; below zero the value is
    h(0) times the recovery transform of the deficit, zero from -c d
    down at sigma = 0. Evaluation above the barrier is a contract
    violation.
    """
    grid = h.grid

    def fun(x):
        if np.any(np.asarray(x, dtype=float) > grid.hi + 1e-9):
            raise ValueError("h is defined only up to its barrier")
        return _whole_line(model, x, grid.values[0],
                           lambda t: np.interp(t, grid.x, grid.values))

    return fun
