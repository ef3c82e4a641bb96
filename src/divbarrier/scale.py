"""The scale-function route for exponential claims with a diffusion term:
the exit function and the recovery transform Phi_d.

Weighting each claim by r is the same as thinning the claims to rate
lam r and killing at rate kill = q + lam(1 - r), so with grace period
0 < d < inf the exit function is a ratio (Loeffen, Czarna & Palmowski
2013, Bernoulli 19(2); Lkabous, Czarna & Renaud 2017, IME 74)

    h(x) = Lambda(x) / Lambda(a),
    Lambda(x) = int W(x + z) z P(X_d in dz),

where W is the kill-scale function of the thinned process (zero below
0) and X_d = c d + sigma B_d - S_d, S_d the thinned claim total at
time d. For Exp(mu) claims W is a sum of three exponentials,

    W(x) = sum_i c_i e^{t_i x},   c_i = (mu + t_i) / Q'(t_i),
    Q(s) = (sigma^2 s^2 / 2 + c s - lam - q)(mu + s) + lam r mu,

whose largest root t_1 is the Lundberg root rho. From a deficit y the
surplus creeps back up to 0, so h(-y) = Phi_d(y) h(0), and

    Phi_d(y) = Lambda(-y) / Lambda(0),
    Lambda(-y) = sum_i c_i M(t_i, y),
    M(t, y) = E[X_d e^{t (X_d - y)}; X_d > y].

On [0, a] Lambda(x) = sum_i c_i M(t_i, 0) e^{t_i x}. The exit function
reads Phi_d through two numbers, both closed in those weights:

- the continuation slope -Phi_d'(0+) = Lambda'(0) / Lambda(0);
- u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy
       = sum_i c_i mu / (mu + t_i) (M(t_i, 0) - M(-mu, 0)) / Lambda(0),
  so that w_d(x) = u(d) e^{-mu x}.

Given the claim total S_d = s, Y' = X_d - y is Gaussian, and
M = E[Y' e^{tY'}; Y' > 0] + y E[e^{tY'}; Y' > 0] is closed; S_d is an
atom e^{-lam r d} at 0 plus a Bessel-type density (_bessel_series_scaled).
So every (deficit, exponent) pair is one component of one vector
Simpson quadrature over s, stopped relative to its largest component:
the slope and u(d) take the four exponents t_1, t_2, t_3, -mu at y = 0,
and Phi_d the three t_i at a block of deficits headed by y = 0. Every
moment carries the common factor e^{-kill d}, which leaves each ratio
unchanged: M(rho, 0) grows like e^{kill d} (E e^{rho X_d} = e^{kill d})
and would overflow from d near 300 on. Each exponent is summed before
it is taken, so no factor over- or underflows on its own.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, i1e, ndtr

from .gridmath import _adaptive_simpson

# relative stop of the moments' quadrature
_MOMENT_RTOL = 1e-13

# deficits per quadrature, so that its (s, y, t) arrays stay a few MB
_BLOCK = 16

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ScaleRatio:
    """Lambda(x) = sum_j weights_j e^{t_j x} up to a positive factor, with
    the continuation slope Lambda'(0)/Lambda(0) and u(d)."""

    t: np.ndarray
    weights: np.ndarray
    slope: float
    u: float

    def ratio(self, xs, a):
        """Lambda(xs) / Lambda(a): the exit function at barrier a."""
        xs = np.asarray(xs, dtype=float)
        at_a = float(np.exp(a * self.t) @ self.weights)
        return np.exp(np.multiply.outer(xs, self.t)) @ self.weights / at_a


def _roots(model):
    """The roots t_1 = rho > 0 > t_2 > t_3 of Q and the weights c_i of W.

    Q is deflated by its root rho; the other two are the roots of the
    quotient, each taken in the form that does not cancel.
    """
    c, mu, rho = model.c, model.claims.mu, model.rho
    s2 = 0.5 * model.sigma ** 2
    # Q(s) = (s - rho)(s2 s^2 + b1 s + b2)
    b1 = s2 * (mu + rho) + c
    b2 = c * mu - model.lam - model.q + rho * b1
    big = b1 + math.sqrt(b1 * b1 - 4.0 * s2 * b2)
    t2, t3 = -2.0 * b2 / big, -big / (2.0 * s2)
    t = np.array([rho, t2, t3])
    # Q'(t_i) = s2 prod_{j != i} (t_i - t_j)
    dq = s2 * np.array([(rho - t2) * (rho - t3), (t2 - rho) * (t2 - t3),
                        (t3 - rho) * (t3 - t2)])
    return t, (mu + t) / dq


def _bessel_series_scaled(a, z, extra_exponent):
    """sum_{k>=1} a^k z^{k-1}/(k!(k-1)!) * e^{extra_exponent}.

    Equals sqrt(a/z) I_1(2 sqrt(a z)) e^{extra}; evaluated through the
    scaled Bessel function so the exponent never overflows. a >= 0 is a
    scalar or an array shaped like z, z an array >= 0. extra_exponent is
    a scalar, an array shaped like z, or one with further trailing axes,
    along which the amplitude, taken once per node of z, is broadcast.
    """
    z = np.asarray(z, dtype=float)
    s = a * z
    small = s < 1e-8
    w = np.where(small, 0.0, 2.0 * np.sqrt(s))
    amp = np.where(small, a * (1.0 + s / 2.0 + s * s / 12.0),
                   np.sqrt(a / np.where(small, 1.0, z)) * i1e(w))
    trail = z.shape + (1,) * (np.ndim(extra_exponent) - z.ndim)
    return amp.reshape(trail) * np.exp(w.reshape(trail) + extra_exponent)


def _gauss_moment(t, m, sd, y):
    """E[(Y + y) e^{tY}; Y > 0] for Y ~ N(m, sd^2) as (exponent, factor),
    the moment being factor * e^{exponent}; t, m and y broadcast
    together."""
    x = (m + t * sd * sd) / sd
    pos = x >= 0.0
    xp, xn = np.where(pos, x, 0.0), np.where(pos, 0.0, x)
    expo = np.where(pos, t * m + 0.5 * (t * sd) ** 2, -0.5 * (m / sd) ** 2)
    # x < 0: the Gaussian's exponent cancels against e^{tm}, and Mills'
    # ratio is read through erfcx; the y term is y P(Y > 0) under the tilt
    nd, ex = ndtr(xp), erfcx(-xn / math.sqrt(2.0))
    factor = np.where(pos, sd * (xp * nd + np.exp(-0.5 * xp * xp) / _SQRT_2PI) + y * nd,
                      sd / _SQRT_2PI * (1.0 + xn * math.sqrt(0.5 * math.pi) * ex)
                      + y * (0.5 * ex))
    return expo, factor


def _moments(model, d, ts, ys):
    """e^{-kill d} E[X_d e^{t (X_d - y)}; X_d > y] for each deficit y in
    ys (rows) and t in ts (columns), and the largest error estimate of
    their quadrature."""
    lam, c, r, sigma, mu = model.lam, model.c, model.r, model.sigma, model.claims.mu
    kill = model.q + lam * (1.0 - r)
    rate, sd = lam * r * d, sigma * math.sqrt(d)
    shift = rate + kill * d
    ys = np.asarray(ys, dtype=float)[:, None]

    def integrand(s):
        # the claim total's density at s > 0 times the Gaussian moment of
        # X_d - y = c d - s - y + sigma B_d, in one exponent per
        # (node, deficit, t)
        expo, factor = _gauss_moment(ts, (c * d - s)[:, None, None] - ys, sd, ys)
        dens = _bessel_series_scaled(rate * mu, s, expo - mu * s[:, None, None] - shift)
        return (factor * dens).reshape(len(s), -1)

    expo, factor = _gauss_moment(ts, c * d - ys, sd, ys)
    atom = factor * np.exp(expo - shift)
    # X_d > y needs sigma B_d > s + y - c d; past 12 standard deviations
    # of the rho-tilted Gaussian that weight is below e^{-72}
    s_hi = c * d + model.rho * sd * sd + 12.0 * sd
    integral, err = _adaptive_simpson(integrand, 0.0, s_hi, _MOMENT_RTOL, relative=True)
    return atom + np.reshape(integral, atom.shape), err


def _require(model, d):
    if model.claims.kind != "exponential" or not model.sigma > 0.0 \
            or not 0.0 < d < math.inf:
        raise ValueError("the scale route needs exponential claims, sigma > 0 "
                         "and 0 < d < inf")


def scale_ratio(model) -> ScaleRatio:
    """Lambda's exponents and weights, the continuation slope and u(d),
    for Exp(mu) claims, sigma > 0 and 0 < d < inf."""
    _require(model, model.d)
    mu = model.claims.mu
    t, cw = _roots(model)
    (m,), _ = _moments(model, model.d, np.append(t, -mu), [0.0])
    weights = cw * m[:3]
    at_zero = float(np.sum(weights))
    u = float(np.sum(cw * mu / (mu + t) * (m[:3] - m[3]))) / at_zero
    return ScaleRatio(t, weights, float(t @ weights) / at_zero, u)


def phi(model, d, ys):
    """(Phi_d(y) = Lambda(-y)/Lambda(0) on the deficits ys >= 0, bound on
    its quadrature error), for Exp(mu) claims, sigma > 0 and 0 < d < inf.

    Each block of deficits is one quadrature headed by y = 0, so its
    relative stop is taken against Lambda(0) and its Phi divides by its
    own Lambda(0). An error e in each moment moves Lambda by at most
    e sum |c_i| at every y, and so Phi by at most twice that over
    Lambda(0).
    """
    _require(model, d)
    ys = np.asarray(ys, dtype=float)
    t, cw = _roots(model)
    vals, bound = np.empty(len(ys)), 0.0
    for lo in range(0, len(ys), _BLOCK):
        m, err = _moments(model, d, t, np.append(0.0, ys[lo:lo + _BLOCK]))
        lam = m @ cw
        vals[lo:lo + _BLOCK] = lam[1:] / lam[0]
        bound = max(bound, 2.0 * err * float(np.sum(np.abs(cw)) / lam[0]))
    return vals, bound
