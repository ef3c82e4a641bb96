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
route's Lambda (scale.scale_ratio) for a table at every sigma and for
exponential claims at sigma > 0. At sigma > 0 that Lambda gives the
continuation slope and the certificate for either claim law. For
exponential claims w_d is the closed form u(d) f, with u(d) taken
once: from expmodel at sigma = 0, and at sigma > 0 from that Lambda; no
Phi grid is built. For a table the entry's TableRatio integrates
Phi_d = Lambda(-y)/Lambda(0) against the density on the table's own
lattice, into a node table read with one interpolation (w_reader).
The continuation below zero (_whole_line) reads Phi_d at its own
deficits off the same Lambda for a table, and through upcross_table
for exponential claims.

With sigma = 0 the equation is first order in xi, with xi(0) = 1; its
renewal form

    xi = [zeta - (lam r / c) (zeta * w_d)] + (lam r / c) (T_rho f) * xi

(zeta(x) = e^{rho x}). For Exp(mu) claims the kernel
T_rho f = (mu/(rho+mu)) e^{-mu x} is one exponential, so on
exponential panels the equation is a first-order recursion, solved
exactly in O(n), and the claim convolutions f * xi are O(n) panel
recursions too; a table's equation is solved whole in one tilted
transform (gridmath.neumann_series). With sigma > 0 the solution family is

    xi = sum_n (2 lam r / sigma^2)^n (beta * T_rho f)^{*n} * phi,
    beta(x) = e^{-(rho + 2c/sigma^2) x},
    phi = xi(0) [(rho + 2c/sigma^2) (zeta*beta) + beta
                 - (2 lam r / sigma^2) (zeta*beta*w_d)] + p (zeta*beta),

with one free slope p = xi'(0). Every p solves the equation on (0, a),
so p is imposed: h is C^1 at 0 with its continuation, p = -Phi_d'(0+):
Lambda'(0)/Lambda(0) of the memo entry's Lambda at finite d, rho at
d = inf. At d = 0 a diffusion started at 0 is ruined at once, so
xi(0) = 0 with unit slope instead, and h is W(x)/W(a) for the scale
function W; a table's Lambda solves the same equation (scale.renewal)
for its W. For Exp(mu) claims
beta * T_rho f is a mixture of two exponentials (rates mu and
rho + 2c/sigma^2), and on two-rate exponential panels the equation is
a second-order recursion, solved exactly, while the rates are far
enough apart, relative to the grid step, for its weights not to
cancel; otherwise, like a table's, the kernel is sampled on the grid.
Everything here works on uniform grids via the exponential panel and
renewal solvers in gridmath.

A mixture-of-exponentials kernel is solved exactly
(gridmath.neumann_series_exp, one filter pass); every other kernel
on trapezoid panels in one transform tilted past the solution's growth
(gridmath.neumann_series), which sums the whole Neumann series of
the discrete equation. By the Lundberg equation the kernel's L1 mass
is 1 - kill/(c rho) at sigma = 0 and
1 - 2 kill/(rho (sigma^2 rho + 2c)) at sigma > 0, kill = q + lam(1-r)
> 0, so it is below 1 for every valid model and the equation
contracts: the solution grows only as fast as its forcing, like
e^{rho x}.

The operator of the equation, sigma^2/2 v'' + c v' - (lam+q) v
+ lam r (f*v + v(0) w_d), is applied on a grid in one place: the exit
function's check ide_residual and the HJB sweep of valuation both call
it. The residual an exit function reports is ide_residual on the
returned h, at sigma > 0 raised to an interface term when that is
larger, both in h units, so it is never below the check a caller can
rerun. At finite d > 0 the term is the cross-route gap
max |h - Lambda(x)/Lambda(a)| on the solver grid, for either claim law,
which a wrong imposed slope cannot pass; at d = 0 and d = inf it is the
mismatch between the solved slope at 0+ and the exact one (1 at d = 0,
rho at d = inf). Both solvers refuse an h whose reported residual
exceeds the gate with the same NonConvergenceError.
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
    solve_renewal,
)
from . import expmodel
from .firstpassage import upcross_table
from .scale import renewal, scale_ratio

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

    Lambda is scale_ratio's: for a table a TableRatio at every sigma,
    which gives Phi_d, and at sigma > 0 the continuation slope and
    ratio(xs, a) too; for Exp(mu) claims a ScaleRatio at sigma > 0, or
    None at sigma = 0. For Exp(mu) claims the reader is the closed form
    u(d) e^{-mu x}, u(d) from the ScaleRatio or, at sigma = 0, from
    expmodel; for a table it is the TableRatio's own, on the table's
    lattice (w_reader).
    """
    key = (model.key(), "phi")
    if key not in _CACHE:
        if model.claims.kind == "exponential":
            route = scale_ratio(model) if model.sigma > 0.0 else None
            # w_d = u(d) f with u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy
            u = route.u if route is not None else expmodel.u_of_d(model, model.d)
            mu = model.claims.mu
            _CACHE[key] = route, lambda x: u * np.exp(-mu * np.asarray(x, dtype=float))
        else:
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


def _solver_grid(model, a, step):
    """Grid [0, a] with a step near `step` that lands on the barrier.

    Returns rho, the grid (its values are its abscissae), and the claim
    density and T_rho f sampled on it.
    """
    if not 0.0 < a < math.inf:
        raise ValueError("barrier a must be positive and finite, got %g" % (a,))
    _require_step(step)
    rho = model.rho
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
        zw = zeta * w[0] * -np.expm1(-(rho + mu) * xs) / (rho + mu)
    else:
        mix, wp = None, derivative(grid.with_values(w), 1).values
        # (zeta * w_d)(x) = int_0^x e^{rho(x - u)} w_d(u) du
        zw = convolve_exp(-rho, w, step)
    forcing = zeta - coeff * zw
    xi = solve_renewal(grid, trf, forcing, coeff, mix)

    # derivatives read off the equation itself, not finite differences
    f_xi = model.claims.convolve_grid(xi, step)
    xip = ((lam + q) * xi - lam * r * f_xi - lam * r * w) / c
    f_xip = model.claims.convolve_grid(xip, step)
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


def _extrap_zero(vals):
    """Quadratic extrapolation of grid samples at 1,2,3 steps to 0+."""
    return 3.0 * vals[1] - 3.0 * vals[2] + vals[3]


def h_d_sigma_pos(model, a, step=1e-5) -> HFunction:
    """Exit function for the diffusion-perturbed model (sigma > 0).

    xi starts from xi(0) = 1 with the continuation slope at d > 0, and
    from xi(0) = 0 with unit slope at d = 0 (proportional to W). xi,
    xi' and xi'' are one renewal solve each; the certificate is the
    larger of the equation residual and the interface term: the gap to
    the scale route where there is one, else the slope mismatch at 0.
    """
    if model.sigma <= 0.0:
        raise ValueError("h_d_sigma_pos requires sigma > 0")
    sigma = model.sigma
    rho, grid, _, trf = _solver_grid(model, a, step)
    xs, step = grid.values, grid.step
    b1, gam, erx, beta, zb, kern, mix = renewal(model, xs, trf, step)
    w = _w_values(model, xs)
    x0, p = (0.0, 1.0) if model.d == 0 else (1.0, _continuation_slope(model))

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
    xi, xip, xipp = (solve_renewal(grid, kern, v, gam, mix) for v in forcings)

    hf = _exit_function(grid, a, xi, xip, xipp, p if x0 else None)
    if 0.0 < model.d < math.inf:
        # in h units: the gap to the scale route's Lambda(x)/Lambda(a)
        gap = float(np.max(np.abs(hf.grid.values - _phi_grid(model)[0].ratio(xs, a))))
        detail = " (slope at 0 imposed %.6f, h %.3e off the scale route)" % (p, gap)
    else:
        # in h units: the mismatch between the solved slope at 0+ and the
        # exact one, 1 at d = 0 and rho at d = inf
        p_cont = 1.0 if model.d == 0 else rho
        gap = 0.5 * sigma * sigma * abs(_extrap_zero(xip) - p_cont) / xi[-1]
        detail = " (slope at 0 imposed %.6f, checked against %.6f)" % (p, p_cont)
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
        if model.claims.kind == "exponential" or not 0.0 < model.d < math.inf:
            out[neg] = at_zero * upcross_table(model, model.d, ys)
        else:
            # a table's Phi_d from the Lambda its forcing memo holds
            out[neg] = at_zero * _phi_grid(model)[0].phi(ys)
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
