"""Recovery-time densities and their discounted transform.

Starting from a deficit y > 0 (level -y), the surplus creeps back up
to zero because the drift is positive and jumps only point down. The
joint density of the recovery time and the number of claims on the
way is, for t > 0 and k claims,

    v_y(k, t) = (lam^k / k!) y t^{k-1} e^{-lam t}
                * (Gaussian(0, sigma^2 t) * f^{k*})(c t - y),

where f^{k*} is the k-fold claim-density convolution and the Gaussian
factor collapses to a point evaluation when sigma = 0. With sigma = 0
the claim-free passage is an atom of mass e^{-lam y / c} at t = y/c,
not a density.

The deadline transform weighs recoveries inside a window d:

    Phi_d(y) = sum_k r^k int_0^d e^{-q t} v_y(k, t) dt   (+ atom term).

At d = inf this collapses to e^{-rho y} with rho the adjusted
Lundberg root; at d = 0 it vanishes. For 0 < d < inf there is one route
per regime:

- sigma = 0, exponential claims: the whole k-sum resums through the
  Bessel-type series sum_{k>=1} a^k z^{k-1} / (k! (k-1)!) with
  a = r lam mu t, z = c t - y, which is entire in z, so the time
  quadrature of each deficit never sees a kink;
- a table at any sigma, and exponential claims at sigma > 0: no time
  integral at all; Phi_d(y) is Lambda(-y)/Lambda(0), read off the scale
  function (_phi_sigma_pos, which hands the model to scale.phi): for a
  table by one correlation of W with the law of X_d on the table's
  lattice, and for exponential claims by a moment quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from . import scale
from .gridmath import adaptive_cc


class AtomNotDensity(ValueError):
    """The sigma = 0, k = 0 passage is a point mass, not a density."""

    def __init__(self, message, t_atom=None, mass=None):
        super().__init__(message)
        self.t_atom = t_atom
        self.mass = mass


@dataclass(frozen=True)
class UpcrossTransform:
    y: float
    d: float
    value: float
    truncation_k: int
    tail_bound: float


_LEG_NODES, _LEG_WEIGHTS = roots_legendre(160)


def _gauss_quad(fun, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(_LEG_WEIGHTS, fun(mid + half * _LEG_NODES)))


def vy_density(model, y, k, t):
    """Density of recovery from deficit y at time t with k claims."""
    if y <= 0:
        raise ValueError("deficit y must be positive")
    if k < 0:
        raise ValueError("claim count k must be nonnegative")
    lam, c, sigma = model.lam, model.c, model.sigma
    if t <= 0:
        return 0.0
    if sigma == 0.0:
        if k == 0:
            raise AtomNotDensity(
                "claim-free recovery with sigma = 0 is a point mass of "
                "e^{-lam y/c} at t = y/c; use the integrated transform",
                t_atom=y / c,
                mass=math.exp(-lam * y / c),
            )
        z = c * t - y
        if z < 0:
            return 0.0
        fk = model.claims.conv_power(k, z)
        amp = math.exp(k * math.log(lam * t) - math.lgamma(k + 1) - lam * t)
        return amp * (y / t) * fk
    # diffusion branch: smear the k-fold claim density with the Gaussian
    sd = sigma * math.sqrt(t)
    if k == 0:
        return (y / (sd * math.sqrt(2.0 * math.pi) * t)
                * math.exp(-((y - c * t) ** 2) / (2.0 * sd * sd) - lam * t))

    def integrand(s):
        arg = c * t + sd * s - y
        dens = model.claims.conv_power(k, arg)
        return np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi) * dens

    # split at the support edge of f^{k*} so each panel is smooth
    s_edge = (y - c * t) / sd
    pieces = sorted({-8.0, 8.0, min(max(s_edge, -8.0), 8.0)})
    quad = 0.0
    for aa, bb in zip(pieces[:-1], pieces[1:]):
        if bb > aa:
            quad += _gauss_quad(integrand, aa, bb)
    amp = math.exp(k * math.log(lam * t) - math.lgamma(k + 1) - lam * t)
    return amp * (y / t) * quad


def _phi_sigma0_exp(model, d, y):
    """Deadline transform, sigma = 0, exponential claims (resummed)."""
    lam, c, q, r = model.lam, model.c, model.q, model.r
    mu = model.claims.mu
    t0 = y / c
    if t0 > d:
        return 0.0, 0.0
    atom = math.exp(-(lam + q) * t0)
    if d == t0:
        return atom, 0.0

    def fun(ts):
        zs = np.maximum(c * ts - y, 0.0)
        # one shared exponent keeps every factor in range
        extra = -mu * zs - (lam + q) * ts
        return (y / ts) * scale._bessel_series_scaled(r * lam * mu * ts, zs, extra)

    integral, err = adaptive_cc(fun, t0, d, tol=1e-12)
    return atom + float(integral), err


def _phi_sigma_pos(model, d, ys):
    """(Phi_d on the deficits ys >= 0, truncation K, tail bound) at
    0 < d < inf for a table at any sigma and for Exp(mu) claims at
    sigma > 0: Lambda(-y)/Lambda(0) off the scale function (scale.phi).
    The name keeps "sigma_pos" although tables at sigma = 0 come here
    too, because perfbench's tracer times this function by name."""
    return scale.phi(model, d, ys)


def _phi_table(model, d, ys):
    """(Phi_d on the deficits ys >= 0, truncation K, tail bound)."""
    if not d >= 0.0:
        raise ValueError("deadline d must be nonnegative, got %r" % (d,))
    if d == 0.0 or not np.any(ys > 0.0):
        return np.where(ys == 0.0, 1.0, 0.0), 0, 0.0
    if math.isinf(d):
        return np.exp(-model.rho * ys), 0, 0.0
    if model.sigma != 0.0 or model.claims.kind != "exponential":
        return _phi_sigma_pos(model, d, ys)
    vals, errs = np.ones_like(ys), [0.0]
    for i in np.nonzero(ys > 0.0)[0]:
        vals[i], err = _phi_sigma0_exp(model, d, ys[i])
        errs.append(err)
    return vals, 0, max(errs)


def upcross_transform(model, y, d) -> UpcrossTransform:
    """Discounted weight of recovering from deficit y within time d.

    E[e^{-q tau} r^{claims before tau}; tau <= d] for the first
    up-crossing time tau of level zero from -y.
    """
    if not y >= 0:
        raise ValueError("deficit y must be nonnegative")
    if d == math.inf and y > 0:
        # math.exp: np.exp can differ from it in the last bit
        value, K, tail = math.exp(-model.rho * y), 0, 0.0
    else:
        vals, K, tail = _phi_table(model, d, np.array([y], dtype=float))
        value = float(vals[0])
    return UpcrossTransform(y=y, d=d, value=value, truncation_k=K, tail_bound=tail)


def upcross_table(model, d, y_grid):
    """upcross_transform values on a whole grid of deficits.

    Shares the claim-count sum across deficits, which is what makes a
    table's grid-sized w_d integrals affordable: at every sigma a
    table's Lambda (scale.phi) sums the claim powers once into the law
    of X_d and reads every lattice deficit off one correlation, as
    upcross_transform does for its one deficit. Exponential claims take
    the resummed series per deficit at sigma = 0 and, at sigma > 0, one
    moment quadrature per block of deficits, with K = 0 and the
    quadrature's error bound as the tail bound.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if not np.all(y_grid >= 0):
        raise ValueError("deficits must be nonnegative")
    return _phi_table(model, d, y_grid)[0]
