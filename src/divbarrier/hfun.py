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

Every model reads w_d, Phi_d below zero and, at sigma > 0, the
continuation slope off one memo entry (_route), which holds the scale
route's Lambda (scale.scale_ratio at the model's d) and its w_reader,
for either claim law at every sigma and every d; this module does not
choose the route and never asks which grace-period regime it is in.
The end cases are closed: at d = 0 w_d = 0 and Phi_d(y) = 1{y = 0}, at d = inf w_d is
T_rho f at rho = model.rho, the claim law's exact tail transform at any
points, and Phi_d(y) = e^{-rho y}. At 0 < d < inf for exponential claims
w_d is the closed form u(d) f, u(d) taken once from that Lambda; no Phi
grid is built. For a table the entry's TableRatio integrates
Phi_d = Lambda(-y)/Lambda(0) against the density on the table's own
lattice, into node tables of w_d and w_d' read with one interpolation.
The continuation below zero (_whole_line) reads Phi_d at its own
deficits off the same Lambda's phi, which gives Phi_d with its K and
bound; a NaN point is refused there, not read as a point.

One builder (_exit) serves both sigmas; h_d_sigma0 and h_d_sigma_pos
check sigma and call it. The solver step (_solver_step) lives next to
it: the caller's grid_step where the route has exponents, else a floor
of 1e-4, or 1e-5 at sigma > 0. valuation and the CLI take theirs from
it, and an exit function built without a step takes the step for a
grid_step of 1e-3.

Where the route has exponents nothing is solved: for Exp(mu) claims at
every d, and for a table at d = inf. Since
f * e^{t x} = mu/(mu + t) (e^{t x} - e^{-mu x}), e^{t x} solves the
equation up to a multiple of e^{-mu x} exactly when t is a root of

    Q(t) = (sigma^2 t^2 / 2 + c t - lam - q)(mu + t) + lam r mu,

two roots at sigma = 0 and three at sigma > 0 (scale._roots), and
xi = sum_i w_i e^{t_i x} solves it when the weights make those
multiples cancel against xi(0) w_d = xi(0) u e^{-mu x} (Loeffen, Czarna
& Palmowski 2013, Bernoulli 19(2)). scale holds such weights: W's c_i
at d = 0 (h = W(x)/W(a)), the unit weight on t_1 = rho at d = inf
(h = e^{-rho (a - x)}, for any claim law, since T_rho f is exact) and
the memo entry's Lambda weights at 0 < d < inf (h = Lambda(x)/Lambda(a)).
The exit function keeps the exponents t_i, the route's weights W and
W(a), and HFunction.read sums h = W(x)/W(a) and its derivatives at any
points, with no grid in between (scale.exp_sum, elementwise, so a
point's value does not depend on the points read with it). At
sigma > 0, d = 0 the weights sum to 0 exactly (scale._roots), so h(0)
reads 0 exactly. Such an h is certified in closed form
(_closed_residual): K(t_i) = 0 at each root and the tail row, with no
equation solved or rerun on a grid.

Every module but this one reads an exit function through
HFunction.read, for either kind: the sum of exponentials, or a table's
solved node arrays of h, h' and h'' read linearly. Its grid is only a
sampled view that read builds on first access, at the solver grid's
nodes with the last one at a itself, kept for the CLI's CSV and the
benchmark; no reader in the library takes it.

A table's exit equation is spelled once, as renewal equations in
scale.exit_equation, whose solve with w_d = 0 is also the table's W
(scale._scale_w). With sigma = 0 the equation is first order in xi,
with xi(0) = 1; its renewal form

    xi = [zeta - (lam r / c) (zeta * w_d)] + (lam r / c) (T_rho f) * xi

(zeta(x) = e^{rho x}) is solved whole in one tilted transform
(gridmath.neumann_series), and xi' and xi'' are read back through the
equation, with w_d' read off the route, not differenced. With sigma > 0
the solution family is

    xi = sum_n (2 lam r / sigma^2)^n (beta * T_rho f)^{*n} * phi,
    beta(x) = e^{-(rho + 2c/sigma^2) x},
    phi = xi(0) [(rho + 2c/sigma^2) (zeta*beta) + beta
                 - (2 lam r / sigma^2) (zeta*beta*w_d)] + p (zeta*beta),

and xi, xi' and xi'' are one such solve each.

There is one free slope p = xi'(0) at sigma > 0. Every p solves a
table's equation on (0, a), so p is imposed: h is C^1 at 0 with its
continuation, p = -Phi_d'(0+), the route's slope Lambda'(0)/Lambda(0).
At d = 0 the route has no slope: a diffusion started at 0 is ruined at
once, so xi(0) = 0 with unit slope instead, and h is W(x)/W(a) for the
scale function W. The exponential weights carry the same slope; the
exit function reports p as xi_prime_zero where xi(0) = 1.

By the Lundberg equation a table's renewal kernel has L1 mass
1 - kill/(c rho) at sigma = 0 and 1 - 2 kill/(rho (sigma^2 rho + 2c))
at sigma > 0, kill = q + lam(1-r) > 0, so it is below 1 for every valid
model and the equation contracts: the solution grows only as fast as
its forcing, like e^{rho x}.

The operator of the equation, sigma^2/2 v'' + c v' - (lam+q) v
+ lam r (f*v + v(0) w_d), is applied on a grid in one place: the grid
rerun check ide_residual and the HJB sweep of valuation both call it.
The residual an exit function reports is, in h units, one of two
certificates. Where the route has exponents it is the closed bound
_closed_residual on all of [0, a]; valuation's closed HJB report takes
its interior bound from the same function. A table below
d = inf is solved on its grid and reports ide_residual on the returned
h, at sigma > 0 raised to an interface term when that is larger, so it
is never below the check a caller can rerun. At 0 < d < inf the term
is the cross-route gap max |h - Lambda(x)/Lambda(a)| on the solver
grid, which a wrong imposed slope cannot pass; at d = 0 it is the
mismatch between the solved slope at 0+ and the imposed unit one. An h
whose reported residual exceeds the gate is refused with
NonConvergenceError.

The memo holds at most _CACHE_SIZE models; past that the oldest entry
goes.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .gridmath import (
    GridFunction,
    NonConvergenceError,
    # not called here: perfbench's self-test and tests/test_bench_contract
    # read hfun.convolve_values to see the tracer's by-name rebinding reach
    # a module that imports it
    convolve_values,
    derivative,
    neumann_series,
)
from .scale import exit_equation, exp_sum, scale_ratio

# (model.key(), "route") -> (Lambda, w_d reader), oldest first
_CACHE = {}

# models the memo holds; a table's entry near d = 2 holds over 1 MB
_CACHE_SIZE = 8

# sup-norm equation residual above which a built exit function is refused
_RESIDUAL_GATE = 1e-4


@dataclass(frozen=True)
class HFunction:
    a: float
    # the solver step: grid samples h at the nodes of _solver_grid(a, step)
    step: float
    xi_prime_zero: Optional[float]
    # the certificate, in h units: closed (_closed_residual) where t is
    # set, else the grid's ide_residual with a table's interface term
    ide_residual: float
    # where the route has exponents h = sum_i big_w_i e^{t_i x} / w_at_a,
    # with W = big_w the route's weights and w_at_a = W(a)
    t: Optional[np.ndarray] = None
    big_w: Optional[np.ndarray] = None
    w_at_a: Optional[float] = None
    # else h, h' and h'' at the nodes of _solver_nodes(a, step), one row each
    nodes: Optional[np.ndarray] = None

    @property
    def w(self):
        """h's weights W / W(a), where the route has exponents."""
        return self.big_w / self.w_at_a

    @cached_property
    def slope(self):
        """h'(a), read once: the normalizing slope of a barrier value."""
        return float(self.read(self.a, 1)[0])

    @cached_property
    def grid(self):
        """h at the solver grid's nodes, the last one a itself: a sampled
        view that read builds on first access, for the CLI's CSV and the
        benchmark. No reader of h in the library takes it."""
        return _solver_grid(self.a, self.step).with_values(
            self.read(_solver_nodes(self.a, self.step)))

    def read(self, x, order=0):
        """The order-th derivative of h at the points x of [0, a], as an
        array: closed where h has exponents (any int order >= 0), else the
        table's node arrays of h, h' or h'' (order 0, 1 or 2) read
        linearly. Any other order, a bool included, is a ValueError, and
        so is a point below 0, above a by more than 1e-9, or NaN: outside
        [0, a] h is the continuation of h_callable, which neither reading
        gives."""
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or not (
                0 <= order <= (2 if self.t is None else order)):
            raise ValueError("order must be an int >= 0, at most 2 on a grid, got %r" % (order,))
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        # a NaN fails both comparisons
        if not np.all((xs >= 0.0) & (xs <= self.a + 1e-9)):
            raise ValueError("h is read on [0, a] = [0, %g] only" % self.a)
        if self.t is None:
            return np.interp(xs, _solver_nodes(self.a, self.step), self.nodes[order])
        return exp_sum(self.t, self.big_w, xs, order)[order] / self.w_at_a


def _route(model):
    """The scale route's Lambda (scale.scale_ratio) and its w_reader,
    memoized per model as one entry (Lambda, reader).

    Lambda gives Phi_d and, at sigma > 0, the continuation slope and
    ratio(xs, a) too; its exponents t, where it has them, are the exit
    function. The reader gives w_d at x >= 0 and, for a route without
    exponents, w_d' with order = 1.
    """
    key = (model.key(), "route")
    if key not in _CACHE:
        if len(_CACHE) >= _CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]
        route = scale_ratio(model, model.d)
        _CACHE[key] = route, route.w_reader()
    return _CACHE[key]


def _w_values(model, xs):
    """w_d sampled at the points xs >= 0."""
    return _route(model)[1](xs)


def w_d(model, x):
    """Below-zero continuation forcing w_d at x (scalar or array)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    # a NaN is not >= 0 either
    if not np.all(xs >= 0):
        raise ValueError("w_d is defined for x >= 0")
    vals = _w_values(model, xs)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _require_step(step):
    if not 0.0 < step < math.inf:
        raise ValueError("grid step must be positive and finite, got %g" % (step,))


def _solver_grid(a, step):
    """Grid [0, a] with a step near `step` that lands on the barrier; its
    values are its abscissae."""
    n = max(int(round(a / step)), 8)
    step = a / n
    return GridFunction(0.0, n * step, step, step * np.arange(n + 1))


def _solver_nodes(a, step):
    """The solver grid's abscissae, the last one a itself: where grid
    samples h and where a table's node arrays sit."""
    return np.append(_solver_grid(a, step).values[:-1], a)


def _solver_step(model, grid_step):
    """The solver grid's step for a caller's grid_step: the caller's own
    where the route has exponents, else at most 1e-4, and at most 1e-5
    at sigma > 0.

    An exit function with exponents is read and certified in closed form
    (_closed_residual); the step only sets its sampled grid view. A
    table's h is solved and read on its grid, and at sigma > 0 the
    boundary layer e^{-(rho + 2c/sigma^2) x} needs the finer floor.
    """
    _require_step(grid_step)
    return min(grid_step, math.inf if _route(model)[0].t is not None
               else 1e-4 if model.sigma == 0.0 else 1e-5)


def _closed_residual(model, t, w, a):
    """(bound, x): a bound on the sup over [0, a] of |(Gamma - q) v| for
    v = sum_i w_i e^{t_i x}, continued below zero as v(0) Phi_d, and the
    end x of [0, a] where it is taken.

    With L the claims' Laplace transform, f * e^{t x} is
    L(t) e^{t x} - T_t f(x), so (Gamma - q) v is
    sum_i w_i K(t_i) e^{t_i x}, K(t) = sigma^2 t^2/2 + c t - lam - q
    + lam r L(t), zero at a root of the exit equation, plus the tail row
    lam r (v(0) w_d(x) - sum_i w_i T_{t_i} f(x)). The first is convex in
    x, so it peaks at an end. The row is a multiple of e^{-mu x} for
    Exp(mu) claims, whose w_d is w_d(0) e^{-mu x}, and 0 for a table at
    d = inf, whose w_d is T_rho f; so it peaks at an end too.
    """
    # a few exponents: Python floats, not numpy's per-call cost
    claims, lr, s2 = model.claims, model.lam * model.r, 0.5 * model.sigma ** 2
    ends, t, w = (0.0, a), t.tolist(), w.tolist()
    k = [s2 * ti * ti + model.c * ti - model.lam - model.q + lr * claims.laplace(ti) for ti in t]
    row = sum(w) * _w_values(model, ends) - sum(
        wi * claims.tail_transform(ti, ends) for ti, wi in zip(t, w))
    bound = [sum(abs(wi * ki) * math.exp(ti * x) for ti, wi, ki in zip(t, w, k))
             + lr * abs(float(rx)) for x, rx in zip(ends, row)]
    return max(zip(bound, ends), key=lambda bx: bx[0])


def _exit(model, a, step):
    """The certified exit function at barrier a, for either sigma and
    claim law (see the module notes): closed where the route has
    exponents, else solved on the solver grid of that step; by default
    at the solver step of a grid_step of 1e-3."""
    step = _solver_step(model, 1e-3) if step is None else step
    if not 0.0 < a < math.inf:
        raise ValueError("barrier a must be positive and finite, got %g" % (a,))
    _require_step(step)
    route, read = _route(model)
    # xi(0) = x0 and, at sigma > 0, xi'(0) = p: the continuation slope, or
    # where the route has none (d = 0) xi(0) = 0 with unit slope
    x0, p = 1.0, None
    if model.sigma > 0.0:
        x0, p = (1.0, route.slope) if route.slope else (0.0, 1.0)
    if route.t is not None:
        hf = HFunction(a, step, p if x0 else None, math.nan, route.t, route.weights,
                       float(exp_sum(route.t, route.weights, a)[0]))
        # certified in closed form, in h units, with no rerun on a grid
        res, x = _closed_residual(model, route.t, hf.w, a)
        detail = " (closed, worst at x = %g)" % x
    else:
        grid = _solver_grid(a, step)
        xs, gap, detail = grid.values, 0.0, ""
        w = _w_values(model, xs)
        kernel, coeff, forcings = exit_equation(model, xs, grid.step, w, x0, p)
        kernel = grid.with_values(kernel)
        xi, *rest = (neumann_series(kernel, grid.with_values(g), coeff)[0].values
                     for g in forcings)
        if model.sigma == 0.0:
            # derivatives read off the equation itself, not finite differences
            lam, c, q, r = model.lam, model.c, model.q, model.r
            f_xi = model.claims.convolve_grid(xi, grid.step)
            xip = ((lam + q) * xi - lam * r * f_xi - lam * r * w) / c
            f_xip = model.claims.convolve_grid(xip, grid.step)
            f_res, wp = model.claims.density(xs), read(xs, 1)
            xipp = ((lam + q) * xip - lam * r * (f_res * xi[0] + f_xip) - lam * r * wp) / c
        else:
            xip, xipp = rest
            if x0:
                # in h units: the gap to the scale route's Lambda(x)/Lambda(a)
                gap = float(np.max(np.abs(xi / xi[-1] - route.ratio(xs, a))))
                detail = " (slope at 0 imposed %.6f, h %.3e off the scale route)" % (p, gap)
            else:
                # in h units: the mismatch between the unit slope imposed at
                # 0 and the solved one at 0+, extrapolated quadratically
                # from 1, 2 and 3 steps
                solved = 3.0 * xip[1] - 3.0 * xip[2] + xip[3]
                gap = 0.5 * model.sigma ** 2 * abs(solved - p) / xi[-1]
                detail = " (slope at 0 imposed %.6f, solved %.6f)" % (p, solved)
        nodes = np.stack((xi, xip, xipp))
        nodes /= float(xi[-1])
        hf = HFunction(a, step, p if x0 else None, math.nan, nodes=nodes)
        res = max(ide_residual(model, hf), gap)
    if not res <= _RESIDUAL_GATE:
        raise NonConvergenceError(
            "equation residual %.3e exceeds %.0e at step %g%s"
            % (res, _RESIDUAL_GATE, step, detail), last_norm=res)
    return replace(hf, ide_residual=res)


def h_d_sigma0(model, a, step=None) -> HFunction:
    """Exit function for the drift-only model (sigma = 0); step defaults
    to the solver step of a grid_step of 1e-3 (_solver_step)."""
    if model.sigma != 0.0:
        raise ValueError("h_d_sigma0 requires sigma = 0")
    return _exit(model, a, step)


def h_d_sigma_pos(model, a, step=None) -> HFunction:
    """Exit function for the diffusion-perturbed model (sigma > 0); step
    defaults to the solver step of a grid_step of 1e-3 (_solver_step)."""
    if model.sigma <= 0.0:
        raise ValueError("h_d_sigma_pos requires sigma > 0")
    return _exit(model, a, step)


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
    """Sup-norm equation residual of a constructed exit function, on its
    grid: the rerun check anyone can apply to any h, and a table's own
    certificate below d = inf. Its claim convolution reads h linearly
    between nodes, so on a coarse grid it measures that quadrature, not
    h; an h with exponents is certified in closed form instead.

    For sigma = 0 the derivative is re-taken by finite differences,
    making the check independent of how h was built; for sigma > 0 the
    carried analytic derivatives are used, because a second difference
    at the stiff rate rho + 2c/sigma^2 would only measure interpolation
    noise.
    """
    grid, xs = h.grid, _solver_nodes(h.a, h.step)
    hp = derivative(grid, 1).values if model.sigma == 0.0 else h.read(xs, 1)
    res = _generator_grid(model, grid.step, grid.values, hp, h.read(xs, 2))
    lo = max(2, len(res) // 100)
    return float(np.max(np.abs(res[lo:-2])))


def _whole_line(model, x, inside):
    """inside(x) on x >= 0 and inside(0) Phi_d(-x) below zero.

    From a deficit the surplus must climb back to 0 within the grace
    period, so a quantity worth inside(0) at 0 is worth
    inside(0) Phi_d(-x) at x < 0; inside(0) is read only where x has such
    points. Both h and the barrier value continue below zero this way.
    At sigma = 0 the drift cannot climb back from -c d or below in time,
    so the value there is zero without a transform; a diffusion can
    recover from any deficit.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.isnan(x_arr)):
        raise ValueError("x must be a number, got NaN")
    out = np.zeros_like(x_arr)
    pos = x_arr >= 0
    out[pos] = inside(x_arr[pos])
    reach = model.c * model.d if model.sigma == 0.0 else math.inf
    neg = (~pos) & (x_arr > -reach)
    if np.any(neg):
        # Phi_d from the Lambda the forcing memo holds
        out[neg] = inside(np.zeros(1))[0] * _route(model)[0].phi(-x_arr[neg])[0]
    return float(out[0]) if np.ndim(x) == 0 else out


def h_callable(model, h: HFunction):
    """Whole-line evaluator for an exit function.

    Inside [0, a] h is read by HFunction.read, which refuses a point above
    the barrier: the closed sum of exponentials where the route has
    exponents, else a table's node arrays read linearly. Below zero the
    value is h(0) times the recovery transform of the deficit, zero from
    -c d down at sigma = 0.
    """
    return lambda x: _whole_line(model, x, h.read)
