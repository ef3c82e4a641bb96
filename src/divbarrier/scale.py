"""The scale-function route at every grace period d: the exit function,
the recovery transform Phi_d and the w_d forcing, for either claim law
at every sigma. This is the one module that chooses a Phi_d route, and
the one that tells d = 0, 0 < d < inf and d = inf apart:
scale_ratio(model, d) picks the route once, and each route gives its
own Phi_d with its claim-count truncation K and error bound (phi).

The two end cases are closed for either claim law (EndRatio): at d = 0
Lambda is W itself, Phi_d(y) = 1{y = 0} and w_d = 0; at d = inf Lambda
is e^{rho x}, Phi_d(y) = e^{-rho y} and w_d = T_rho f, the claim law's
exact tail transform. What follows is the route at 0 < d < inf.

A route with exponents also gives the sup of the generator (Gamma - q) v
above the barrier (generator_above), so that valuation's closed HJB
report reads no claim law: ScaleRatio by the one-phase Exp(mu) algebra,
which EndRatio inherits at d = 0, where only Exp(mu) claims have
exponents, and EndRatio at d = inf as -sigma^2 rho / 2 for any claim
law.

Weighting each claim by r is the same as thinning the claims to rate
lam r and killing at rate kill = q + lam(1 - r), so with grace period
0 < d < inf the exit function is a ratio (Loeffen, Czarna & Palmowski
2013, Bernoulli 19(2); Lkabous, Czarna & Renaud 2017, IME 74)

    h(x) = Lambda(x) / Lambda(a),
    Lambda(x) = int W(x + z) z P(X_d in dz),

where W is the kill-scale function of the thinned process (zero below
0) and X_d = c d + sigma B_d - S_d, S_d the thinned claim total at
time d. From a deficit y the surplus creeps back up to 0, so
h(-y) = Phi_d(y) h(0) with Phi_d(y) = Lambda(-y) / Lambda(0).

For Exp(mu) claims (ScaleRatio) W is a sum of three exponentials
at sigma > 0 and of two at sigma = 0, where Q is quadratic,

    W(x) = sum_i c_i e^{t_i x},   c_i = (mu + t_i) / Q'(t_i),
    Q(s) = (sigma^2 s^2 / 2 + c s - lam - q)(mu + s) + lam r mu,

whose largest root t_1 is the Lundberg root rho, and

    Lambda(-y) = sum_i c_i M(t_i, y),
    M(t, y) = E[X_d e^{t (X_d - y)}; X_d > y].

On [0, a] Lambda(x) = sum_i c_i M(t_i, 0) e^{t_i x}, and the exit
function is that sum over Lambda(a), with ScaleRatio.weights (and W's
c_i at d = 0) taken as they are. Phi_d also enters through two numbers,
both closed in those weights:

- the continuation slope -Phi_d'(0+) = Lambda'(0) / Lambda(0);
- u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy
       = sum_i c_i mu / (mu + t_i) (M(t_i, 0) - M(-mu, 0)) / Lambda(0),
  so that w_d(x) = u(d) e^{-mu x} (ScaleRatio.w_reader).

At sigma > 0, given the claim total S_d = s, Y' = X_d - y is Gaussian, and
M = E[Y' e^{tY'}; Y' > 0] + y E[e^{tY'}; Y' > 0] is closed; S_d is an
atom e^{-lam r d} at 0 plus a Bessel-type density (_bessel_series_scaled).
So every (deficit, exponent) pair is one component of one vector
quadrature over s, stopped relative to its largest component; the
integrand is analytic in s, so nested Clenshaw-Curtis
(gridmath.adaptive_cc) meets the stop at a few hundred nodes:
the slope and u(d) take the exponents t_i and -mu at y = 0, and Phi_d
the t_i at a block of deficits headed by y = 0. The quadrature's first
call holds its first two levels, 129 nodes with s = 0 exactly among
them, which is where the atom's moment is read: off the Gaussian
moment that call takes there, not from a call of its own. The
integrand is elementwise in s and the nodes nest bitwise, so how the
nodes are batched into calls moves no bit of a moment.

At sigma = 0 X_d = c d - s is a point given S_d = s, so the moment is
X_d e^{t (X_d - y)} itself, on X_d >= y: W(0) = 1/c, and at y = c d
only the claim-free atom climbs back, just in time, so there
Phi_d = e^{-(lam + q) d}. Each deficit's claim totals run over
[0, (c d - y)+], mapped onto [0, 1] with a span per deficit in the same
vector quadrature; X_d - y is clipped at 0 there rather than cut by an
indicator, which would put a jump at every row's end and keep the
quadrature doubling to its node cap. Deficits past c d are 0 and join
no block.

Every moment carries the common factor e^{-kill d}, which leaves each ratio
unchanged: M(rho, 0) grows like e^{kill d} (E e^{rho X_d} = e^{kill d})
and would overflow from d near 300 on. Each exponent is summed before
it is taken, so no factor over- or underflows on its own.

For a claim table (TableRatio) both pieces live on the table's own
lattice z_j = j step. The table is read linearly between its nodes,
and model.rho is the root for that reading, for which T_rho f is
exact, so W is that reading's own scale function (_scale_w): the
d = 0 solution of the table's exit equation, which this module spells
for the exit function too (exit_equation), with w_d = 0. At sigma > 0
that is xi(0) = 0 and xi'(0) = 1, one renewal solve. Every W is one
tilted transform (gridmath.neumann_series), whose wrap-around bound
joins tail_bound. The density p of X_d is
the atom e^{-lam r d} plus the Poisson(lam r d)-weighted claim powers
f^{k*}, k <= K (K from _claim_cutoff), summed as one polynomial in one
tilted transform (gridmath.power_sum) of the density zero-padded to the
lattice's last node, so that no power is cut at the table end, each
smoothed by the
N(0, sigma^2 d) density of sigma B_d, and p' likewise by that
density's derivative, through one fft_convolve. Then by the trapezoid
rule on the lattice

    Lambda(k step) = step sum_j W_{j+k} z_j p_j,

one FFT correlation for every k at once: k = -m gives Phi_d at the
deficit m step, and k >= 0 the exit function on [0, a], read between
lattice points by the cubic through the nearest four (W is solved again,
once, when a barrier first needs it past c d + 12 sigma sqrt(d)). A
deficit between lattice points takes the law of X_d - e for its offset
e, one more smoothing. W' has a boundary
layer e^{-(rho + 2c/sigma^2) x} that the table step does not resolve,
so the slope is taken by parts,
Lambda'(0) = -int_0^inf W(z) (z p(z))' dz.

At sigma = 0 (bounded variation) X_d = c d - S_d is the atom
e^{-lam r d} at c d and, below it, the Poisson-weighted claim powers
reflected about c d; nothing lies above c d, so Phi_d is 0 past it. W is
the exit equation's d = 0 solution, xi(0) = 1, over c, with
W(0+) = 1/c (_scale_w). Two jumps need care for the trapezoid rule to
stay O(step^2) (_drift_law): W jumps from 0 to 1/c where X_d meets the
deficit, so that node takes half weight, and the density drops to 0 at
c d, where its trapezoid ends, closing an off-lattice c d with a cell
of its own. The atom and that cell's far end sit at c d, read by a
linear split of W between the nodes either side; at y = c d only the
atom is left. The sigma = 0 exit function reads neither the slope nor
ratio.

The exit functions' forcing w_d(x) = int_0^inf Phi_d(y) f(x + y) dy is
read on the same lattice (TableRatio.w_reader): Phi_d at every lattice
deficit, weighted by the trapezoid rule with Gregory's end weights at
y = 0 (and at sigma = 0 cut at c d like Lambda), is correlated with the
table density in one FFT.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, i1e, ndtr

from .gridmath import (GridFunction, adaptive_cc, convolve_exp, fft_convolve,
                       neumann_series, power_sum)

# relative stop of the moments' quadrature
_MOMENT_RTOL = 1e-13

# bound on the claim-count terms each tabulated claim sum leaves out
K_TAIL_TOL = 1e-12

# standard deviations of sigma B_d past which a table's law of X_d is
# cut: the Gaussian is below e^{-72} there
_SD_REACH = 12.0

# deficits per quadrature, so that its (s, y, t) arrays stay below 1 MB
# at the 129-2,049 nodes it takes
_BLOCK = 16

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ScaleRatio:
    """Lambda(x) = sum_j weights_j e^{t_j x} up to a positive factor, with
    the continuation slope Lambda'(0)/Lambda(0) and u(d), for the Exp(mu)
    claims of model at the grace period d."""

    t: np.ndarray
    weights: np.ndarray
    slope: float
    u: float
    model: object
    d: float

    def ratio(self, xs, a):
        """Lambda(xs) / Lambda(a): the exit function at barrier a."""
        return exp_sum(self.t, self.weights, xs)[0] / exp_sum(self.t, self.weights, a)[0]

    def phi(self, ys):
        """(Phi_d(y) = Lambda(-y)/Lambda(0) on the deficits ys >= 0, the
        claim-count truncation K = 0, a bound on the error).

        The bound is the moments' quadrature error: each block of deficits
        is one quadrature headed by y = 0, so its relative stop is taken
        against Lambda(0) and its Phi divides by its own Lambda(0). An
        error e in each moment moves Lambda by at most e sum |c_i| at every
        y, and so Phi by at most twice that over Lambda(0). At sigma = 0
        X_d <= c d, so deficits past c d are 0 and join no block.
        """
        model, d = self.model, self.d
        ys = np.asarray(ys, dtype=float)
        t, cw = _roots(model)
        live = np.nonzero(ys <= (model.c * d if model.sigma == 0.0 else math.inf))[0]
        vals, bound = np.zeros(len(ys)), 0.0
        for lo in range(0, len(live), _BLOCK):
            at = live[lo:lo + _BLOCK]
            m, err = _moments(model, d, t, np.append(0.0, ys[at]))
            lam = m @ cw
            vals[at] = lam[1:] / lam[0]
            bound = max(bound, 2.0 * err * float(np.sum(np.abs(cw)) / lam[0]))
        return vals, 0, bound

    def w_reader(self):
        """The forcing w_d(x) = u(d) e^{-mu x} as a reader of x >= 0."""
        u, mu = self.u, self.model.claims.mu
        return lambda x: u * np.exp(-mu * np.asarray(x, dtype=float))

    def generator_above(self, a, w, big_v, v0):
        """(s, top): the sup top over s >= 0 of (Gamma - q) v(a + s) and
        the s where it is taken, for the barrier value at a that is
        V h = V sum_i w_i e^{t_i x} on [0, a], given V = v(a) (v(0) at
        a = 0) and v0 = v(0).

        Above the barrier v(a + s) = s + V. A claim y <= s lands above the
        barrier, one in (s, s + a] lands on V h, which the Exp(mu) density
        integrates in closed form, and one past s + a lands below zero,
        where v(0) Phi_d gives v(0) u e^{-mu x}. So

            (Gamma - q) v(a + s) = alpha - kill s + beta e^{-mu s},
            alpha = c - lam r / mu - kill V,
            beta  = lam r [(1/mu - V) + e^{-mu a} (K1 + v(0) u)],
            K1    = mu V sum_i w_i (e^{(t_i + mu) a} - 1)/(t_i + mu),

        kill = q + lam (1 - r), and its sup is at s = 0 unless
        beta < -kill/mu, where it is at s* = log(-mu beta / kill) / mu.
        """
        model, t = self.model, self.t
        lam, c, r, mu = model.lam, model.c, model.r, model.claims.mu
        kill = model.q + lam * (1.0 - r)
        k1 = mu * big_v * float(np.sum(w * np.expm1((t + mu) * a) / (t + mu))) if a else 0.0
        beta = lam * r * ((1.0 / mu - big_v) + math.exp(-mu * a) * (k1 + v0 * self.u))
        s = math.log(-mu * beta / kill) / mu if beta < -kill / mu else 0.0
        return s, c - lam * r / mu - kill * big_v - kill * s + beta * math.exp(-mu * s)


class EndRatio(ScaleRatio):
    """Lambda at d = 0 or d = inf, for either claim law. At d = inf the
    exponent is rho with unit weight and the continuation slope rho; at
    d = 0 Lambda is W, with W's exponents and weights for Exp(mu) claims
    and none (t = None) for a table, and no slope: h(0) = 0 at sigma > 0.
    u is 0 at d = 0, where w_d = 0, and None at d = inf, where nothing
    reads it."""

    def phi(self, ys):
        """(Phi_d, K, bound) in closed form: 1{y = 0} at d = 0 and
        e^{-rho y} at d = inf, with K = 0 and no error."""
        ys = np.asarray(ys, dtype=float)
        if self.d == 0.0:
            return np.where(ys == 0.0, 1.0, 0.0), 0, 0.0
        return np.exp(-self.model.rho * ys), 0, 0.0

    def w_reader(self):
        """w_d as a reader of x >= 0: T_rho f at d = inf; at d = 0 zero,
        and so is its slope, read with order = 1 by a table's exit
        function, which has no exponents."""
        model = self.model
        if self.d == 0.0:
            return lambda x, order=0: np.zeros(np.shape(x))
        return lambda x: model.claims.tail_transform(model.rho, x)

    def generator_above(self, a, w, big_v, v0):
        """(s, top) as for ScaleRatio: at d = 0 by its algebra, since only
        Exp(mu) claims have exponents there. At d = inf it is (0,
        -sigma^2 rho / 2) for any claim law. There a* = 0 (h = e^{rho x}
        up to a factor, so h'' > 0) and v(s) = s + 1/rho on s >= 0, with
        v(0) e^{-rho y} at the deficit y. Since psi_r(rho) = q, that gives
        (Gamma - q) v(0) = -sigma^2 rho / 2, and its slope in s,
        -(lam + q) + lam r (F(s) + T_rho f(s)), is at most -kill < 0,
        because T_rho f <= 1 - F.
        """
        if self.d == 0.0:
            return super().generator_above(a, w, big_v, v0)
        return 0.0, -0.5 * self.model.sigma ** 2 * self.model.rho


def exp_sum(t, weights, xs, top=0):
    """sum_i weights_i t_i^k e^{t_i x} at the points xs (any shape), for
    k = 0, ..., top, stacked along a new first axis.

    Each row adds the exponents' terms one at a time, elementwise, so a
    point's value does not depend on the other points it is evaluated
    with, as it would through a BLAS product's blocking; the terms of all
    exponents are taken in one array, so a read at a few points costs a
    few numpy calls per row.
    """
    xs, t = np.asarray(xs, dtype=float), np.asarray(t, dtype=float)[:, None]
    terms = np.exp(t * xs.ravel())
    terms *= np.asarray(weights, dtype=float)[:, None]
    out = np.zeros((top + 1, xs.size))
    for row in out:
        for term in terms:
            row += term
        terms *= t
    return out.reshape((top + 1,) + xs.shape)


def exp_sum_at(t, weights, x, top=0):
    """exp_sum at the one point x, as a list of top + 1 floats.

    The same sums in the same order through math.exp, for the scalar
    loops that read a few exponents at one point at a time (a Newton
    step), where numpy's calls on 1-element arrays cost 25-75 us a read.
    """
    out = [0.0] * (top + 1)
    for ti, wi in zip(map(float, t), map(float, weights)):
        term = math.exp(x * ti) * wi
        for k in range(top + 1):
            out[k] += term
            term *= ti
    return out


def _roots(model):
    """The roots of Q and the weights c_i of W: t_1 = rho > 0 > t_2 > t_3
    at sigma > 0, where Q is cubic, and t_1 = rho > 0 > t_2 at sigma = 0,
    where it is quadratic.

    Q is deflated by its root rho; the others are the roots of the
    quotient, each taken in the form that does not cancel (at sigma = 0
    the quotient is linear, and the one left is -b2/b1).

    At sigma > 0, W(0) = sum_i c_i is 0, since sum_i p(t_i)/Q'(t_i) = 0
    for any p of degree below deg Q - 1. The last weight is taken as minus
    the sum of the others, so that a sum in this order, as exp_sum takes
    it, reads W(0) = 0 exactly and not to rounding.
    """
    c, mu, rho = model.c, model.claims.mu, model.rho
    s2 = 0.5 * model.sigma ** 2
    # Q(s) = (s - rho)(s2 s^2 + b1 s + b2)
    b1 = s2 * (mu + rho) + c
    b2 = c * mu - model.lam - model.q + rho * b1
    big = b1 + math.sqrt(b1 * b1 - 4.0 * s2 * b2)
    t = np.array([rho, -2.0 * b2 / big] + ([-big / (2.0 * s2)] if s2 else []))
    # Q'(t_i) = lead prod_{j != i} (t_i - t_j), the lead coefficient of Q
    # being s2, or c where Q is quadratic
    diff = np.subtract.outer(t, t)
    np.fill_diagonal(diff, 1.0)
    w = (mu + t) / ((s2 or c) * np.prod(diff, axis=1))
    return t, np.append(w[:2], -(w[0] + w[1])) if s2 else w


def _bessel_series_scaled(a, z, extra_exponent):
    """sum_{k>=1} a^k z^{k-1}/(k!(k-1)!) * e^{extra_exponent}.

    Equals sqrt(a/z) I_1(2 sqrt(a z)) e^{extra}; evaluated through the
    scaled Bessel function so the exponent never overflows. a >= 0 is a
    scalar, z an array >= 0 and extra_exponent an array that z
    broadcasts against: the amplitude is taken once per element of z.
    """
    s = a * z
    small = s < 1e-8
    w = np.where(small, 0.0, 2.0 * np.sqrt(s))
    amp = np.where(small, a * (1.0 + s / 2.0 + s * s / 12.0),
                   np.sqrt(a / np.where(small, 1.0, z)) * i1e(w))
    return amp * np.exp(w + extra_exponent)


def _claim_cutoff(s, scale):
    """(K, bound): the smallest K at or past the mode of s^k / k! with
    bound = scale * sum_{k>K} s^k / k! <= K_TAIL_TOL, for s, scale > 0.

    Past the mode every term ratio s / (k + 1) is at most s / (K + 2) < 1,
    so the tail is at most the geometric sum term_{K+1} / (1 - s/(K+2)).
    The terms are kept as logarithms, so neither s^k nor k! overflows.
    """
    K = max(1, math.floor(s))
    ln_s, ln_tol = math.log(s), math.log(K_TAIL_TOL / scale)
    ln_term = (K + 1) * ln_s - math.lgamma(K + 2)
    while ln_term - math.log1p(-s / (K + 2)) > ln_tol:
        K += 1
        ln_term += ln_s - math.log(K + 1)
    return K, scale * math.exp(ln_term) / (1.0 - s / (K + 2))


def exit_equation(model, xs, step, w, x0, p):
    """The exit equation of a claim table, given w_d at the grid
    xs = step * (0, 1, ..., n), as renewal equations
    xi = g + coeff (kernel * xi) with one kernel: (kernel, coeff, forcings).

    At sigma = 0 the equation is first order in xi, with xi(0) = x0, and
    one forcing g = x0 [zeta - (lam r / c) (zeta * w_d)], zeta = e^{rho x},
    with kernel T_rho f. At sigma > 0 the kernel is beta * T_rho f with
    beta = e^{-b1 x}, b1 = rho + 2c/sigma^2, coeff = 2 lam r / sigma^2,
    and the forcings are those of xi, xi' and xi'' for xi(0) = x0 and
    xi'(0) = p, the last two carrying the boundary terms kernel xi(0)
    and kernel' xi(0) + kernel p. With w = None, w_d = 0, the equation
    is W's (_scale_w), and the terms in w_d are scalar zeros, not
    convolutions of zeros. Exp(mu) claims never come here: their exit
    function is a sum of exponentials.
    """
    rho = model.rho
    trf = model.claims.tail_transform(rho, xs)
    erx = np.exp(rho * xs)
    if model.sigma == 0.0:
        coeff = model.lam * model.r / model.c
        # (zeta * w_d)(x) = int_0^x e^{rho(x - u)} w_d(u) du
        zw = 0.0 if w is None else convolve_exp(-rho, w, step)
        return trf, coeff, (x0 * (erx - coeff * zw),)
    sigma = model.sigma
    b1 = rho + 2.0 * model.c / (sigma * sigma)
    gam = 2.0 * model.lam * model.r / (sigma * sigma)
    beta = np.exp(-b1 * xs)
    kern = convolve_exp(b1, trf, step)
    # zb = zeta * beta and the same with w_d, with their derivatives
    zb = (erx - beta) / (rho + b1)
    dzb = (rho * erx + b1 * beta) / (rho + b1)
    d2zb = (rho * rho * erx - b1 * b1 * beta) / (rho + b1)
    if w is None:
        w = bw = zbw = 0.0
    else:
        bw = convolve_exp(b1, w, step)
        zbw = convolve_exp(-rho, bw, step)
    dzbw = bw + rho * zbw
    d2zbw = (w - b1 * bw) + rho * dzbw
    return kern, gam, (
        x0 * (b1 * zb + beta - gam * zbw) + p * zb,
        x0 * (b1 * dzb - b1 * beta - gam * dzbw + gam * kern) + p * dzb,
        x0 * (b1 * d2zb + b1 * b1 * beta - gam * d2zbw + gam * (trf - b1 * kern))
        + p * (d2zb + gam * kern))


def _scale_w(model, n, step):
    """(W on the lattice step * (0, ..., n), the log of a bound on its
    solve's wrap-around): the exit equation's solution with w = 0, at
    sigma > 0 from xi(0) = 0 and xi'(0) = 1, at sigma = 0 from xi(0) = 1
    and divided by c, so W(0+) = 1/c. model.rho is the root for the
    table's linear reading, for which T_rho f is exact, so W is that
    reading's own scale function."""
    xs = step * np.arange(n + 1)
    grid = GridFunction(0.0, n * step, step, xs)
    drift = model.sigma == 0.0
    kernel, coeff, forcings = exit_equation(model, xs, step, None, float(drift), 1.0)
    xi, log_alias = neumann_series(grid.with_values(kernel),
                                   grid.with_values(forcings[0]), coeff)
    if drift:
        return xi.values / model.c, log_alias - math.log(model.c)
    return xi.values, log_alias


class TableRatio:
    """Lambda at 0 < d < inf for a claim table on its lattice (see the
    module notes), with Phi_d (phi), the w_d forcing (w_reader) and the
    claim-count truncation K with the bound on what it leaves out of
    Phi_d; at sigma > 0 also the continuation slope Lambda'(0)/Lambda(0)
    and the exit function ratio(xs, a), which the sigma = 0 exit
    function does not read.

    K is the smallest count whose Poisson tail bounds the dropped claim
    density by max f e^{-lam r d} sum_{k>K} (lam r d)^k / k! everywhere.
    That moves Lambda(-y) and Lambda(0) by at most the same times
    int_0 W(z) z dz, and so Phi_d by at most twice that over Lambda(0);
    Lambda(0) is at least its claim-free part, e^{-lam r d} times
    int_0 W(z) z N(z; c d, sigma^2 d) dz, or c d W(c d) at sigma = 0, so
    e^{-lam r d} cancels. W increases, so at sigma = 0 the bound's scale
    is at most c d max f. The K powers are summed in one tilted transform
    (gridmath.power_sum), whose wrap-around moves the density by at most
    its reported aliasing bound; over max f e^{-lam r d}, in the same
    scale, that is at most K_TAIL_TOL and is added to tail_bound. W's
    solve (gridmath.neumann_series) moves W by at most its own
    wrap-around bound at every node, so Lambda(-y) and Lambda(0) by at
    most that times step sum |z p| (a deficit only shrinks the mass of
    z p above 0), and Phi_d by at most twice that over Lambda(0), which
    is added too.
    """

    # no exponents: the exit function is a renewal solve
    t = None

    def __init__(self, model, d):
        grid = model.claims.grid
        if model.c * d > grid.hi + 1e-9:
            raise ValueError("claim table too short for the c*d horizon; "
                             "extend the density grid")
        step, sd = grid.step, model.sigma * math.sqrt(d)
        self._model, self._step, self._sd, self._shift = model, step, sd, model.c * d
        # X_d <= c d + 12 sd, so Phi_d needs W and p on n + 1 nodes
        self._n = n = int(math.ceil((model.c * d + _SD_REACH * sd) / step))
        w, log_w = _scale_w(model, n, step)
        self._w = w
        z = step * np.arange(n + 1)
        wz = w * z
        if sd:
            gauss = self._gauss(0.0)
            floor = wz @ gauss[0]
        else:
            floor = self._shift * np.interp(self._shift, z, w) / step
        rate, fmax = model.lam * model.r * d, float(np.max(grid.values))
        scale = 2.0 * fmax * float(np.sum(wz)) / floor
        self.truncation_k, poisson = _claim_cutoff(rate, scale)
        self._atom = math.exp(-rate)
        # the claim density on the lattice's n + 1 nodes, zero past the
        # table end, so that no claim power is cut there
        self._table, top = grid, min(n, grid.n)
        f = np.pad(grid.values[:top + 1], (0, n - top))
        weights = [math.exp(k * math.log(rate) - math.lgamma(k + 1) - rate)
                   for k in range(1, self.truncation_k + 1)]
        dens, log_alias = power_sum(f, step, weights,
                                    math.log(K_TAIL_TOL * fmax / scale) - rate)
        self.tail_bound = poisson + scale / fmax * math.exp(log_alias + rate)
        if sd:
            # with the trapezoid's half weight at 0, reversed for the
            # correlation
            dens[0] *= 0.5
            self._claims_rev = step * dens[::-1]
            p, dp = self._law(gauss)
            self._zp, self._jump = z * p, np.zeros(n + 1)
            self._at_zero = step * float(w @ self._zp)
            self.slope = -step * float(w @ (p + z * dp)) / self._at_zero
        else:
            # _drift_law reads dens[i + 1] at i = N, which may be the last node
            self._dens = np.append(dens, 0.0)
            self._zp, self._jump = self._drift_law(0.0)
            self._at_zero = step * float(w @ self._zp)
        self.tail_bound += (2.0 * math.exp(log_w) * step * float(np.sum(np.abs(self._zp)))
                            / self._at_zero)

    def _gauss(self, e):
        """The N(c d - e, sigma^2 d) density and its derivative on the lattice."""
        u = self._step * np.arange(self._n + 1) - (self._shift - e)
        g = np.exp(-0.5 * (u / self._sd) ** 2) / (self._sd * _SQRT_2PI)
        return np.stack((g, -u / self._sd ** 2 * g))

    def _law(self, gauss):
        """The density of X_d - e and its derivative on the lattice, from
        _gauss(e)."""
        n, top = self._n, len(self._claims_rev) - 1
        return fft_convolve(self._claims_rev, gauss)[:, top:top + n + 1] + self._atom * gauss

    def _drift_law(self, e):
        """sigma = 0: (z p, jump) for Y = X_d - e step = c d - e step - S_d,
        z the value of X_d at each lattice node.

        p reads the claim density of S_d at c d - e step - z, between table
        nodes when c d - e step is off the lattice. Its trapezoid runs to
        the last node z_N below c d - e step, and the cell from z_N to it
        closes with its own trapezoid; that cell's far end and the atom
        e^{-lam r d} both sit at X_d = c d and are read by the linear split
        of W between z_N and z_{N+1}. W jumps from 0 to W(0+) where Y
        meets the deficit, so there the density's node takes half weight:
        Lambda(-(m + e) step) is _lambda's entry less jump[m]. At m = N
        the density's trapezoid is empty, and jump removes all of it.
        """
        step, dens = self._step, self._dens
        N, th = self._last_node(e)
        i = N - np.arange(N + 1)
        zp = np.zeros(self._n + 1)
        zp[:N + 1] = step * (np.arange(N + 1) + e) * ((1.0 - th) * dens[i] + th * dens[i + 1])
        jump = 0.5 * step * self._w[0] * zp
        zp[N] *= 0.5 * (1.0 + th)
        end = self._shift * (0.5 * th * dens[0] + self._atom / step)
        zp[N] += (1.0 - th) * end
        if th:
            zp[N + 1] += th * end
        return zp, jump

    def _last_node(self, e):
        """sigma = 0: (N, th) with c d - e step = (N + th) step, z_N the last
        lattice node at or below it; within 1e-9 steps of a node it is
        on that node."""
        s = self._shift / self._step - e
        N = int(math.floor(s + 1e-9))
        return N, max(s - N, 0.0)

    def _lambda(self, zp, w):
        """Lambda(k step) at entry n + k, for k from -n on, from z p and W
        on the lattice."""
        return self._step * fft_convolve(zp[::-1], w)

    def _phi_nodes(self, e):
        """Phi_d at the deficits (m + e) step, m = 0, ..., n, in one
        correlation."""
        step, n = self._step, self._n
        zp, jump = self._zp, self._jump
        if e and self._sd:
            zp = (step * (np.arange(n + 1) + e)) * self._law(self._gauss(e * step))[0]
        elif e:
            zp, jump = self._drift_law(e)
        return (self._lambda(zp, self._w[:n + 1])[n::-1] - jump) / self._at_zero

    def phi(self, ys):
        """(Phi_d(y) = Lambda(-y)/Lambda(0) on the deficits ys >= 0,
        truncation_k, tail_bound)."""
        ys = np.asarray(ys, dtype=float)
        m = np.floor(ys / self._step + 1e-9)
        offset = np.round(np.maximum(ys - m * self._step, 0.0) / self._step, 9)
        # at sigma = 0 X_d <= c d, so Phi_d is 0 past it
        live = m <= self._n if self._sd else ys <= self._shift
        out = np.zeros(len(ys))
        for e in np.unique(offset[live]):
            at = np.nonzero((offset == e) & live)[0]
            out[at] = self._phi_nodes(e)[m[at].astype(int)]
        return (np.where(ys == 0.0, 1.0, np.clip(out, 0.0, 1.0)), self.truncation_k,
                self.tail_bound)

    def w_reader(self):
        """The forcing w_d(x) = int_0^inf Phi_d(y) f(x + y) dy as a reader
        of x >= 0: on the table's nodes one correlation of the density
        with Phi_d at the lattice deficits times quadrature weights, read
        linearly between the nodes and zero past the table end. With
        order = 1 it reads the slope w_d', taken on the nodes by second
        order differences, in the same way.

        The weights are the trapezoid's, with the end weights
        (3/8, 7/6, 23/24) step at y = 0, where Phi_d is steepest. At
        sigma > 0 they run over the n + 1 lattice deficits, past which
        Phi_d is 0. At sigma = 0 Phi_d drops to 0 past c d: they stop
        at the last node z_N at or below it, and the cell from z_N to c d
        closes with its own trapezoid, as _drift_law does for Lambda. Its
        far end reads the density linearly between two nodes, and Phi_d
        there, where only the atom is left, is
        c d e^{-lam r d} W(0+) / Lambda(0). When c d spans fewer than three
        steps the plain trapezoid stays.
        """
        step = self._step
        N, th = (self._n, 0.0) if self._sd else self._last_node(0.0)
        phi = np.clip(self._phi_nodes(0.0)[:N + 1], 0.0, 1.0)
        phi[0] = 1.0
        wts = np.full(N + 1, step)
        wts[-1] = 0.5 * step
        if N >= 3:
            wts[:3] = step * np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
        else:
            wts[0] -= 0.5 * step
        kern = np.append(wts * phi, 0.0)
        if th:
            cell = 0.5 * th * step
            end = self._shift * self._atom * self._w[0] / self._at_zero
            kern[N] += cell * (phi[N] + (1.0 - th) * end)
            kern[N + 1] += cell * th * end
        # table[i] = sum_j kern[j] f[i + j]; the kernel is nonnegative, so
        # the correlation's rounding below 0 is clipped
        grid = self._table
        table = np.maximum(fft_convolve(kern[::-1], grid.values)[N + 1:N + 2 + grid.n], 0.0)
        tables = table, np.gradient(table, step, edge_order=2)
        return lambda x, order=0: np.interp(x, grid.x, tables[order], right=0.0)

    def ratio(self, xs, a):
        """Lambda(xs) / Lambda(a): the exit function at barrier a, read
        between lattice points by the cubic through the nearest four."""
        step, n = self._step, self._n
        top = int(math.ceil(a / step)) + 2
        # Lambda on [0, a] reads W up to a + c d + 12 sd: grow it once
        if len(self._w) < n + top + 1:
            self._w = _scale_w(self._model, n + top, step)[0]
        # Lambda(k step) at k = -1, ..., top
        lam = self._lambda(self._zp, self._w[:n + top + 1])[n - 1:n + top + 1]

        def read(x):
            u = np.asarray(x, dtype=float) / step
            k = np.minimum(np.floor(u), top - 2)
            t, k = u - k, k.astype(int)
            return (t * (t - 1.0) * ((t + 1.0) * lam[k + 3] - (t - 2.0) * lam[k]) / 6.0
                    + (t + 1.0) * (t - 2.0) * ((t - 1.0) * lam[k + 1] - t * lam[k + 2]) / 2.0)

        return read(xs) / read(a)


def _gauss_moment(t, m, sd, y):
    """E[(Y + y) e^{tY}; Y > 0] for Y ~ N(m, sd^2) as (exponent, factor),
    the moment being factor * e^{exponent}; t, m and y broadcast
    together."""
    x = (m + t * sd * sd) / sd
    pos = x >= 0.0
    # x clipped at 0 on each side, so that neither branch overflows; the
    # sign of a zero does not reach the factor
    xp, xn = np.maximum(x, 0.0), np.minimum(x, 0.0)
    expo = np.where(pos, t * m + 0.5 * (t * sd) ** 2, -0.5 * (m / sd) ** 2)
    # x < 0: the Gaussian's exponent cancels against e^{tm}, and Mills'
    # ratio is read through erfcx; the y term is y P(Y > 0) under the tilt
    nd, ex = ndtr(xp), erfcx(xn / -math.sqrt(2.0))
    factor = np.where(pos, sd * (xp * nd + np.exp(-0.5 * xp * xp) / _SQRT_2PI) + y * nd,
                      sd / _SQRT_2PI * (1.0 + xn * math.sqrt(0.5 * math.pi) * ex)
                      + y * (0.5 * ex))
    return expo, factor


def _moments(model, d, ts, ys):
    """e^{-kill d} E[X_d e^{t (X_d - y)}; X_d > y] (X_d >= y at sigma = 0)
    for each deficit y in ys (rows) and t in ts (columns), and the
    largest error estimate of their quadrature.

    The integrand's arrays are (deficit, t, node), the quadrature nodes
    last, so that every broadcast runs along them; each call returns
    one row per node, as adaptive_cc reads it."""
    lam, c, r, sigma, mu = model.lam, model.c, model.r, model.sigma, model.claims.mu
    kill = model.q + lam * (1.0 - r)
    rate, sd = lam * r * d, sigma * math.sqrt(d)
    shift = rate + kill * d
    ts = np.asarray(ts, dtype=float)[:, None]
    ys = np.asarray(ys, dtype=float)[:, None, None]

    def rows(values):
        return np.ascontiguousarray(values.reshape(-1, values.shape[-1]).T)

    if sd:
        atoms = []

        def integrand(s):
            # the claim total's density at s > 0 times the Gaussian moment of
            # X_d - y = c d - s - y + sigma B_d, in one exponent per
            # (deficit, t, node)
            expo, factor = _gauss_moment(ts, (c * d - s) - ys, sd, ys)
            dens = _bessel_series_scaled(rate * mu, s, expo - mu * s - shift)
            if s[-1] == 0.0:
                # s = 0 is exactly the first call's last node, where X_d
                # is the claim-free c d + sigma B_d: the atom's moment
                atoms.append(factor[..., -1] * np.exp(expo[..., -1] - shift))
            return rows(factor * dens)

        # X_d > y needs sigma B_d > s + y - c d; past 12 standard deviations
        # of the rho-tilted Gaussian that weight is below e^{-72}
        hi = c * d + model.rho * sd * sd + 12.0 * sd
        integral, err = adaptive_cc(integrand, 0.0, hi, _MOMENT_RTOL, relative=True)
        atom = atoms[0]
    else:
        # X_d = c d - s is a point: deficit y reads the claim totals on
        # [0, span], span = (c d - y)+, mapped onto [0, 1], and the atom
        # while X_d = c d >= y. m = X_d - y is clipped at 0, not cut by an
        # indicator, so the integrand stays smooth up to v = 1
        span = np.maximum(c * d - ys, 0.0)

        def integrand(v):
            s = v * span
            m = np.maximum(span - s, 0.0)
            dens = _bessel_series_scaled(rate * mu, s, ts * m - mu * s - shift)
            return rows(span * (m + ys) * dens)

        integral, err = adaptive_cc(integrand, 0.0, 1.0, _MOMENT_RTOL, relative=True)
        # span, not c d - y: past c d the exponent would overflow
        atom = (np.where(ys <= c * d, c * d, 0.0) * np.exp(ts * span - shift))[..., 0]
    return atom + np.reshape(integral, atom.shape), err


def scale_ratio(model, d):
    """Lambda at the grace period d, at any sigma: at d = 0 and d = inf
    an EndRatio; at 0 < d < inf for Exp(mu) claims a ScaleRatio (its
    exponents and weights, the continuation slope and u(d)), for a table
    a TableRatio. Each route reads its own Phi_d, with K and a bound
    (phi), so this is the module's one dispatch on the claim kind and on
    d = inf."""
    exp_claims = model.claims.kind == "exponential"
    if math.isinf(d):
        return EndRatio(np.array([model.rho]), np.ones(1), model.rho, None, model, d)
    if d == 0.0:
        return EndRatio(*(_roots(model) if exp_claims else (None, None)), None, 0.0, model, d)
    if not exp_claims:
        return TableRatio(model, d)
    mu = model.claims.mu
    t, cw = _roots(model)
    (m,), _ = _moments(model, d, np.append(t, -mu), [0.0])
    weights = cw * m[:-1]
    at_zero = float(np.sum(weights))
    u = float(np.sum(cw * mu / (mu + t) * (m[:-1] - m[-1]))) / at_zero
    return ScaleRatio(t, weights, float(t @ weights) / at_zero, u, model, d)
