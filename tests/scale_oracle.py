"""Scale-function oracle for exponential claims with sigma > 0.

Independent of the solver: weighting each claim by r is the same as
thinning the claims to rate lam r and killing at rate lam (1 - r), so
the exit function is a ratio of the q-scale function W of the thinned
process (Loeffen, Czarna & Palmowski 2013, Bernoulli 19(2)):

    d = 0:    h(x) = W(x) / W(a)
    d > 0:    h(x) = Lambda(x) / Lambda(a),
              Lambda(x) = int_0^inf W(x + z) z P~(X_d in dz)

with X_d = c d + sigma B_d - S_d and claims at rate lam r. For claims
Exp(mu), W is a sum of three exponentials

    W(x) = sum_i (mu + t_i) / Q'(t_i) e^{t_i x},
    Q(s) = (sigma^2 s^2 / 2 + c s - lam - q)(mu + s) + lam r mu,

so Lambda'(0)/Lambda(0) = sum c_i t_i M_i / sum c_i M_i with
c_i = (mu + t_i) / Q'(t_i) and M_i = E[e^{t_i X_d} X_d; X_d > 0].
M_i is one integral over the claim total S_d of a Gaussian moment that
has a closed form.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfcx, ive, ndtr


def roots(lam, c, q, r, sigma, mu):
    """The three real roots t_i of Q and the weights c_i of W."""
    s2 = 0.5 * sigma * sigma
    # Q(s) = s2 s^3 + (s2 mu + c) s^2 + (c mu - lam - q) s - (lam + q) mu + lam r mu
    coeffs = [s2, s2 * mu + c, c * mu - lam - q, -(lam + q) * mu + lam * r * mu]
    t = np.sort(np.roots(coeffs).real)
    dq = np.polyval(np.polyder(coeffs), t)
    return t, (mu + t) / dq


def scale_w(t, w, x, order=0):
    """W (order 0) or its order-th derivative at x."""
    x = np.asarray(x, dtype=float)[..., None]
    return np.sum(w * t ** order * np.exp(t * x), axis=-1)


def w_curvature_root(t, w, lo, hi):
    """The zero of W'' on [lo, hi]: the optimal barrier at d = 0."""
    return brentq(lambda x: float(scale_w(t, w, x, 2)), lo, hi, xtol=1e-14)


def _gauss_moment(t, m, sigma):
    """int_0^inf z e^{t z} n(z; m, sigma^2) dz, without overflow."""
    x = (m + t * sigma * sigma) / sigma
    out = np.empty_like(m)
    pos = x >= 0
    xp = x[pos]
    npdf = np.exp(-0.5 * xp * xp) / math.sqrt(2.0 * math.pi)
    out[pos] = (np.exp(t * m[pos] + 0.5 * t * t * sigma * sigma)
                * sigma * (xp * ndtr(xp) + npdf))
    # x < 0: the exponents cancel to -m^2 / (2 sigma^2)
    xn, mn = x[~pos], m[~pos]
    base = np.exp(-0.5 * (mn / sigma) ** 2) / math.sqrt(2.0 * math.pi)
    out[~pos] = sigma * base * (1.0 + xn * math.sqrt(0.5 * math.pi)
                                * erfcx(-xn / math.sqrt(2.0)))
    return out


def exit_weights(lam, c, q, r, sigma, mu, d, s_step=1e-3):
    """(t_i, weights) with h(x) proportional to sum weights_i e^{t_i x}:
    c_i at d = 0, c_i M_i at d > 0 (Lambda(x) = sum c_i M_i e^{t_i x})."""
    t, w = roots(lam, c, q, r, sigma, mu)
    if d == 0:
        return t, w
    rate = lam * r * d
    # density of the claim total S_d on s > 0 (its atom at 0 is e^{-rate})
    s_hi = c * d + 12.0 * sigma * math.sqrt(d) + 60.0 / mu
    n = int(math.ceil(s_hi / s_step))
    n += n % 2
    s = np.linspace(0.0, s_hi, n + 1)
    arg = 2.0 * np.sqrt(rate * mu * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.exp(arg - rate - mu * s) * np.sqrt(rate * mu / s) * ive(1, arg)
    dens[0] = math.exp(-rate) * rate * mu
    simpson = np.ones(n + 1)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    simpson *= (s[1] - s[0]) / 3.0
    sd = sigma * math.sqrt(d)
    M = np.array([
        math.exp(-rate) * _gauss_moment(ti, np.array([c * d]), sd)[0]
        + float(np.sum(simpson * dens * _gauss_moment(ti, c * d - s, sd)))
        for ti in t])
    return t, w * M


def continuation_slope(lam, c, q, r, sigma, mu, d, s_step=1e-3):
    """Lambda'(0) / Lambda(0) at grace period d > 0: -Phi_d'(0+) in exact form."""
    t, wts = exit_weights(lam, c, q, r, sigma, mu, d, s_step)
    return float(scale_w(t, wts, 0.0, 1) / scale_w(t, wts, 0.0))
