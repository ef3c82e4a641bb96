"""Two-sided-exit functions under claim-count discounting.

h(x) is the expected value of r^{claims so far} e^{-q tau} on the
event that the surplus climbs from x to the barrier a before staying
below zero for longer than the grace period d. It is built from the
unnormalized solution xi of

    sigma^2/2 xi'' + c xi' - (lam+q) xi
        + lam r [ (f * xi)(x) + xi(0) w_d(x) ] = 0,     xi(0) = 1,

where the w_d term carries the below-zero continuation
xi(z) = xi(0) * Phi_d(-z) for z in (-c d, 0):

    w_d(x) = int_0^inf Phi_d(y) f(y + x) dy.

At d = inf, w_d is T_rho f itself, the claim law's exact tail
transform at any points. Otherwise, except for the closed form u(d) f of
exponential claims at sigma = 0, w_d is a Simpson sum over the
memoized _PHI_STEP grid of Phi_d, built once per model by the claim
law's shift_sum (for a table, a node table read with one
interpolation) and kept in the same memo entry as the grid.

With sigma = 0 the equation is first order and marches from xi(0)=1;
the equivalent renewal form

    xi = [zeta - (lam r / c) (zeta * w_d)] + (lam r / c) (T_rho f) * xi

(zeta(x) = e^{rho x}) sums by Neumann iteration. For Exp(mu) claims the
kernel T_rho f = (mu/(rho+mu)) e^{-mu x} is one exponential, so each
term is an O(n) exponential-panel convolution, as are the claim
convolutions f * xi; a table sums by FFT convolutions. With sigma > 0
the solution family is

    xi = sum_n (2 lam r / sigma^2)^n (beta * T_rho f)^{*n} * phi,
    beta(x) = e^{-(rho + 2c/sigma^2) x},
    phi = xi(0) [(rho + 2c/sigma^2) (zeta*beta) + beta
                 - (2 lam r / sigma^2) (zeta*beta*w_d)] + p (zeta*beta),

with one free slope p = xi'(0). Every p solves the equation on (0, a),
so p is imposed: h is C^1 at 0 with its continuation, p = -Phi_d'(0+)
(rho at d = inf). At d = 0 a diffusion started at 0 is ruined at once,
so xi(0) = 0 with unit slope instead, and h is W(x)/W(a) for the scale
function W. For Exp(mu) claims beta * T_rho f is a mixture of two
exponentials (rates mu and rho + 2c/sigma^2), summed with two-rate
exponential panels. Everything here works on uniform grids via the
exponential panel and Neumann machinery in gridmath.

The operator of the equation, sigma^2/2 v'' + c v' - (lam+q) v
+ lam r (f*v + v(0) w_d), is applied on a grid in one place: the exit
function's check ide_residual and the HJB sweep of valuation both call
it. The residual an exit function reports is ide_residual on the
returned h, at sigma > 0 raised to the interface mismatch between the
solved slope at 0+ and the continuation's slope read off the Phi grid
a second way when that is larger, both in h units; so it is never
below the check a caller can rerun. Both solvers refuse an h whose
reported residual exceeds the gate with the same NonConvergenceError.
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
    cumexp,
    convolve_exp,
    derivative,
    neumann_series,
    neumann_series_exp,
    volterra_march,
)
from .lundberg import lundberg_root
from . import expmodel
from .firstpassage import upcross_table

_CACHE = {}

# sup-norm equation residual above which a built exit function is refused
_RESIDUAL_GATE = 1e-4

# deficit step of the memoized Phi grid, and so of the slope stencils
_PHI_STEP = 2e-2


@dataclass(frozen=True)
class HFunction:
    grid: GridFunction
    hp: GridFunction
    hpp: GridFunction
    a: float
    xi_prime_zero: Optional[float]
    ide_residual: float


def _simpson_weights(n, step):
    """Composite Simpson weights for n uniformly spaced nodes.

    When n is even the last interval gets a trapezoid patch, which keeps
    the rule valid for any node count at step**4 accuracy elsewhere.
    """
    if n < 3:
        w = np.full(n, step)
        if n == 2:
            w *= 0.5
        return w
    m = n if n % 2 == 1 else n - 1
    w = np.zeros(n)
    w[:m] = 1.0
    w[1:m - 1:2] = 4.0
    w[2:m - 1:2] = 2.0
    w[:m] *= step / 3.0
    if m < n:
        w[m - 1] += 0.5 * step
        w[m] += 0.5 * step
    return w


def _phi_grid(model):
    """Phi_d on the _PHI_STEP deficit grid over the claims' reach, and
    the w_d reader built from it, memoized per model as one entry."""
    ys = np.arange(0.0, model.claims.reach + _PHI_STEP / 2, _PHI_STEP)
    key = (model.key(), "phi_for_w", _PHI_STEP, float(ys[-1]))
    if key not in _CACHE:
        phi = upcross_table(model, model.d, ys)
        wts = _simpson_weights(len(ys), _PHI_STEP)
        _CACHE[key] = phi, model.claims.shift_sum(ys, wts * phi)
    return _CACHE[key]


def _w_values(model, xs):
    """w_d sampled at the points xs >= 0. w_inf is T_rho f itself, not a
    quadrature of Phi."""
    d = model.d
    if d == 0:
        return np.zeros_like(xs)
    if math.isinf(d):
        return model.claims.tail_transform(lundberg_root(model).rho, xs)
    if model.claims.kind == "exponential" and model.sigma == 0.0:
        # w_d = u(d) f with u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy
        mu = model.claims.mu
        return expmodel.u_of_d(model, d) * np.exp(-mu * xs)
    # Simpson quadrature of Phi against the shifted density
    return _phi_grid(model)[1](xs)


def w_d(model, x):
    """Below-zero continuation forcing w_d at x (scalar or array)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise ValueError("w_d is defined for x >= 0")
    vals = _w_values(model, xs)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _solve_renewal(grid, kernel, forcing, coeff, mix=None):
    """xi = forcing + coeff (kernel * xi) on the solver grid.

    A kernel that is a mixture of exponentials, mix = (rates, weights),
    sums with exponential panels, O(n) per term; any other kernel by
    the FFT Neumann series, else by marching.
    """
    forcing = grid.with_values(forcing)
    if mix is not None:
        return neumann_series_exp(*mix, forcing, coeff).values
    kernel = grid.with_values(kernel)
    try:
        return neumann_series(kernel, forcing, coeff).values
    except NonConvergenceError:
        return volterra_march(kernel, forcing, coeff).values


def _require_step(step):
    if not 0.0 < step < math.inf:
        raise ValueError("grid step must be positive and finite, got %g" % (step,))


def _solver_grid(model, a, step):
    """Grid [0, a] with a step near `step` that lands on the barrier.

    Returns rho, the grid (its values are its abscissae), and the claim
    density and T_rho f sampled on it.
    """
    if not 0.0 < a < math.inf:
        raise ValueError("barrier a must be positive and finite, got %g" % (a,))
    _require_step(step)
    rho = lundberg_root(model).rho
    n = max(int(round(a / step)), 8)
    step = a / n
    xs = step * np.arange(n + 1)
    grid = GridFunction(0.0, n * step, step, xs)
    return rho, grid, model.claims.density(xs), model.claims.tail_transform(rho, xs)


def _exit_function(grid, a, xi, xip, xipp, xi_prime_zero=None):
    """h = xi / xi(a) with its derivatives, on the solver grid, not yet
    certified."""
    Z = xi[-1]
    gf = grid.with_values(xi / Z)
    return HFunction(gf, gf.with_values(xip / Z), gf.with_values(xipp / Z),
                     a, xi_prime_zero, math.nan)


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
    lam, c, q, r = model.lam, model.c, model.q, model.r
    rho, grid, f_res, trf = _solver_grid(model, a, step)
    xs, step = grid.values, grid.step
    zeta = np.exp(rho * xs)
    w = _w_values(model, xs)

    coeff = lam * r / c
    if model.claims.kind == "exponential":
        # T_rho f = (mu / (rho + mu)) e^{-mu x} is one exponential panel
        # rate, and w_d = w_d(0) e^{-mu x} integrates in closed form
        mu = model.claims.mu
        mix, wp = ([mu], [mu / (rho + mu)]), -mu * w
        cw = w[0] * -np.expm1(-(rho + mu) * xs) / (rho + mu)
    else:
        mix, wp = None, derivative(grid.with_values(w), 1).values
        cw = cumexp(rho, w, step)
    forcing = zeta - coeff * zeta * cw
    xi = _solve_renewal(grid, trf, forcing, coeff, mix)

    # derivatives read off the equation itself, not finite differences
    f_xi = model.claims.convolve_grid(xi, step)
    xip = ((lam + q) * xi - lam * r * f_xi - lam * r * w) / c
    f_xip = model.claims.convolve_grid(xip, step)
    xipp = ((lam + q) * xip - lam * r * (f_res * xi[0] + f_xip) - lam * r * wp) / c

    hf = _exit_function(grid, a, xi, xip, xipp)
    return _certified(hf, ide_residual(model, hf))


# one-sided stencils for -f'(0) on the nodes 0, h, 2h, 3h: 3rd and 2nd order
_SLOPE_3 = np.array([11.0, -18.0, 9.0, -2.0]) / 6.0
_SLOPE_2 = np.array([3.0, -4.0, 1.0, 0.0]) / 2.0


def _phi_slope(model, stencil):
    """-Phi_d'(0+) off the memoized Phi grid (rho at d = inf)."""
    if math.isinf(model.d):
        return lundberg_root(model).rho
    return float(stencil @ _phi_grid(model)[0][:4]) / _PHI_STEP


def _continuation_slope(model):
    """The slope xi'(0)/xi(0) that xi shares at 0 with its continuation
    xi(0) Phi_d(-z) below zero, by the 3rd-order stencil."""
    return _phi_slope(model, _SLOPE_3)


def _extrap_zero(vals):
    """Quadratic extrapolation of grid samples at 1,2,3 steps to 0+."""
    return 3.0 * vals[1] - 3.0 * vals[2] + vals[3]


def h_d_sigma_pos(model, a, step=1e-5) -> HFunction:
    """Exit function for the diffusion-perturbed model (sigma > 0).

    xi starts from xi(0) = 1 with the continuation slope at d > 0, and
    from xi(0) = 0 with unit slope at d = 0 (proportional to W). xi,
    xi' and xi'' are one Neumann series each; the certificate is the
    larger of the equation residual and the interface mismatch.
    """
    if model.sigma <= 0.0:
        raise ValueError("h_d_sigma_pos requires sigma > 0")
    lam, c, q, r, sigma = model.lam, model.c, model.q, model.r, model.sigma
    rho, grid, _, trf = _solver_grid(model, a, step)
    xs, step = grid.values, grid.step
    b1 = rho + 2.0 * c / (sigma * sigma)
    gam = 2.0 * lam * r / (sigma * sigma)
    w = _w_values(model, xs)
    if model.d == 0:
        x0, p, p_cont = 0.0, 1.0, 1.0
    else:
        x0, p, p_cont = 1.0, _continuation_slope(model), _phi_slope(model, _SLOPE_2)

    beta = np.exp(-b1 * xs)
    erx = np.exp(rho * xs)
    zb = (erx - beta) / (rho + b1)
    dzb = (rho * erx + b1 * beta) / (rho + b1)
    d2zb = (rho * rho * erx - b1 * b1 * beta) / (rho + b1)

    if model.claims.kind == "exponential":
        # beta * T_rho f is a two-rate mixture of exponentials
        mu = model.claims.mu
        kern = (mu / (rho + mu)) * (np.exp(-mu * xs) - beta) / (b1 - mu)
        wgt = mu / ((rho + mu) * (b1 - mu))
        mix = ([mu, b1], [wgt, -wgt])
    else:
        kern, mix = convolve_exp(b1, trf, step), None
    bw = convolve_exp(b1, w, step)
    zbw = erx * cumexp(rho, bw, step)
    dzbw = bw + rho * zbw
    d2zbw = (w - b1 * bw) + rho * dzbw

    # xi = phi + gam kern * xi with phi(0) = x0, phi'(0) = p; xi' and
    # xi'' carry the boundary terms kern xi(0) and kern' xi(0) + kern p
    forcings = (
        x0 * (b1 * zb + beta - gam * zbw) + p * zb,
        x0 * (b1 * dzb - b1 * beta - gam * dzbw + gam * kern) + p * dzb,
        x0 * (b1 * d2zb + b1 * b1 * beta - gam * d2zbw + gam * (trf - b1 * kern))
        + p * (d2zb + gam * kern))
    xi, xip, xipp = (_solve_renewal(grid, kern, v, gam, mix) for v in forcings)

    # in h units: the mismatch between the solved slope at 0+ and the
    # lower-order continuation slope
    mismatch = 0.5 * sigma * sigma * abs(_extrap_zero(xip) - p_cont) / xi[-1]
    hf = _exit_function(grid, a, xi, xip, xipp, p if x0 else None)
    return _certified(hf, max(ide_residual(model, hf), mismatch),
                      " (slope at 0 imposed %.6f, checked against %.6f)" % (p, p_cont))


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
    """inside(x) on x >= 0, at_zero * Phi_d(-x) on (-c d, 0), zero below.

    From a deficit the surplus must climb back to 0 within the grace
    period, so a quantity worth at_zero at 0 is worth at_zero Phi_d(-x)
    at x < 0. Both h and the barrier value continue below zero this way.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x_arr)
    pos = x_arr >= 0
    out[pos] = inside(x_arr[pos])
    neg = (~pos) & (x_arr > -(model.c * model.d))
    if np.any(neg):
        out[neg] = at_zero * upcross_table(model, model.d, -x_arr[neg])
    return float(out[0]) if np.ndim(x) == 0 else out


def h_callable(model, h: HFunction):
    """Whole-line evaluator for an exit function.

    Inside [0, a] the grid is interpolated; on (-c d, 0) the value is
    h(0) times the recovery transform of the deficit; below -c d it is
    zero. Evaluation above the barrier is a contract violation.
    """
    grid = h.grid

    def fun(x):
        if np.any(np.asarray(x, dtype=float) > grid.hi + 1e-9):
            raise ValueError("h is defined only up to its barrier")
        return _whole_line(model, x, grid.values[0],
                           lambda t: np.interp(t, grid.x, grid.values))

    return fun
