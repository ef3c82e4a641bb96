"""The scale-function route to the exit function, for exponential claims
with a diffusion term.

Weighting each claim by r is the same as thinning the claims to rate
lam r and killing at rate kill = q + lam(1 - r), so with grace period
0 < d < inf the exit function is a ratio (Loeffen, Czarna & Palmowski
2013, Bernoulli 19(2); Lkabous, Czarna & Renaud 2017, IME 74)

    h(x) = Lambda(x) / Lambda(a),
    Lambda(x) = int W(x + z) z P(X_d in dz),

where W is the kill-scale function of the thinned process and
X_d = c d + sigma B_d - S_d, S_d the thinned claim total at time d.
For Exp(mu) claims W is a sum of three exponentials,

    W(x) = sum_i c_i e^{t_i x},   c_i = (mu + t_i) / Q'(t_i),
    Q(s) = (sigma^2 s^2 / 2 + c s - lam - q)(mu + s) + lam r mu,

whose largest root t_1 is the Lundberg root rho. So
Lambda(x) = sum_i c_i M(t_i) e^{t_i x} with the moments
M(t) = E[X_d e^{t X_d}; X_d > 0], and below zero Lambda(-y)/Lambda(0)
is the recovery transform Phi_d(y). The exit function reads Phi_d only
through two numbers, both closed in the weights:

- the continuation slope -Phi_d'(0+) = Lambda'(0) / Lambda(0);
- u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy
       = sum_i c_i mu / (mu + t_i) (M(t_i) - M(-mu)) / Lambda(0),
  so that w_d(x) = u(d) e^{-mu x}.

Given the claim total S_d = s, X_d is Gaussian and its moment is
closed; S_d is an atom e^{-lam r d} at 0 plus the Bessel-type density
of firstpassage._bessel_series_scaled. The four moments (t_1, t_2, t_3
and -mu) are one vector Simpson quadrature over s, stopped relative to
their size. Every moment carries the common factor e^{-kill d}, which
leaves both functionals unchanged: M(rho) grows like e^{kill d}
(E e^{rho X_d} = e^{kill d}) and would overflow from d near 300 on,
and each exponent is summed before it is taken, so no factor over- or
underflows on its own.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr

from .firstpassage import _adaptive_simpson, _bessel_series_scaled

# relative stop of the moments' quadrature
_MOMENT_RTOL = 1e-13

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


def _gauss_moment(t, m, sd):
    """E[Y e^{tY}; Y > 0] for Y ~ N(m, sd^2) as (exponent, factor), the
    moment being factor * e^{exponent}; t and m broadcast together."""
    x = (m + t * sd * sd) / sd
    pos = x >= 0.0
    xp, xn = np.where(pos, x, 0.0), np.where(pos, 0.0, x)
    expo = np.where(pos, t * m + 0.5 * (t * sd) ** 2, -0.5 * (m / sd) ** 2)
    # x < 0: the Gaussian's exponent cancels against e^{tm}, and Mills'
    # ratio is read through erfcx
    factor = np.where(pos, sd * (xp * ndtr(xp) + np.exp(-0.5 * xp * xp) / _SQRT_2PI),
                      sd / _SQRT_2PI * (1.0 + xn * math.sqrt(0.5 * math.pi)
                                        * erfcx(-xn / math.sqrt(2.0))))
    return expo, factor


def _moments(model, ts):
    """e^{-kill d} E[X_d e^{t X_d}; X_d > 0] for each t in ts."""
    lam, c, r, sigma, d, mu = (model.lam, model.c, model.r, model.sigma, model.d,
                               model.claims.mu)
    kill = model.q + lam * (1.0 - r)
    rate, sd = lam * r * d, sigma * math.sqrt(d)
    shift = rate + kill * d

    def integrand(s):
        # the claim total's density at s > 0 times the Gaussian moment of
        # X_d = c d - s + sigma B_d, in one exponent
        expo, factor = _gauss_moment(ts, (c * d - s)[:, None], sd)
        z = np.broadcast_to(s[:, None], expo.shape)
        return factor * _bessel_series_scaled(rate * mu, z, expo - mu * z - shift)

    expo, factor = _gauss_moment(ts, c * d, sd)
    atom = factor * np.exp(expo - shift)
    # X_d > 0 needs sigma B_d > s - c d; past 12 standard deviations of
    # the rho-tilted Gaussian that weight is below e^{-72}
    s_hi = c * d + model.rho * sd * sd + 12.0 * sd
    integral, _ = _adaptive_simpson(integrand, 0.0, s_hi, _MOMENT_RTOL, relative=True)
    return atom + integral


def scale_ratio(model) -> ScaleRatio:
    """Lambda's exponents and weights, the continuation slope and u(d),
    for Exp(mu) claims, sigma > 0 and 0 < d < inf."""
    if model.claims.kind != "exponential" or not model.sigma > 0.0 \
            or not 0.0 < model.d < math.inf:
        raise ValueError("the scale route needs exponential claims, sigma > 0 "
                         "and 0 < d < inf")
    mu = model.claims.mu
    t, cw = _roots(model)
    m = _moments(model, np.append(t, -mu))
    weights = cw * m[:3]
    at_zero = float(np.sum(weights))
    u = float(np.sum(cw * mu / (mu + t) * (m[:3] - m[3]))) / at_zero
    return ScaleRatio(t, weights, float(t @ weights) / at_zero, u)
