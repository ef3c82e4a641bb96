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

There is one route for every model and every d, either claim law at
every sigma, and no time integral: Phi_d(y) is Lambda(-y)/Lambda(0),
read off the scale function (_phi_sigma_pos, which takes the route
scale.scale_ratio(model, d) gives and reads its phi). At d = inf that
collapses to e^{-rho y} with rho the adjusted Lundberg root, and at
d = 0 it vanishes for y > 0; in between it is for a table one
correlation of W with the law of X_d on the table's lattice, and for
exponential claims a moment quadrature over the claim total. This
module reads no claim kind and tells no d apart (it only refuses
d < 0); scale does both.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from . import scale


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


@lru_cache(maxsize=1)
def _legendre():
    """The 160 Gauss-Legendre nodes and weights, taken on first use:
    roots_legendre loads scipy.linalg, which no import of the library
    needs."""
    return roots_legendre(160)


def _gauss_quad(fun, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes, weights = _legendre()
    return half * float(np.dot(weights, fun(mid + half * nodes)))


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


def _phi_sigma_pos(model, d, ys):
    """(Phi_d on the deficits ys >= 0, truncation K, tail bound) at every
    d >= 0 for either claim law at any sigma: Lambda(-y)/Lambda(0) off
    the route scale.scale_ratio gives. The name keeps "sigma_pos" although
    every model at sigma = 0 comes here too, because perfbench's tracer
    times this function by name."""
    return scale.scale_ratio(model, d).phi(ys)


def _phi_table(model, d, ys):
    """(Phi_d on the deficits ys >= 0, truncation K, tail bound); Phi_d(0)
    is 1 without a transform."""
    if not d >= 0.0:
        raise ValueError("deadline d must be nonnegative, got %r" % (d,))
    if not np.any(ys > 0.0):
        return np.where(ys == 0.0, 1.0, 0.0), 0, 0.0
    return _phi_sigma_pos(model, d, ys)


def upcross_transform(model, y, d) -> UpcrossTransform:
    """Discounted weight of recovering from deficit y within time d.

    E[e^{-q tau} r^{claims before tau}; tau <= d] for the first
    up-crossing time tau of level zero from -y.
    """
    if not y >= 0:
        raise ValueError("deficit y must be nonnegative")
    vals, K, tail = _phi_table(model, d, np.array([y], dtype=float))
    return UpcrossTransform(y=y, d=d, value=float(vals[0]), truncation_k=K, tail_bound=tail)


def upcross_table(model, d, y_grid):
    """upcross_transform values on a whole grid of deficits.

    Shares the claim-count sum across deficits, which is what makes a
    table's grid-sized w_d integrals affordable: at every sigma a
    table's Lambda (scale.TableRatio) sums the claim powers once into
    the law of X_d and reads every lattice deficit off one correlation,
    as upcross_transform does for its one deficit. Exponential claims take
    one moment quadrature per block of deficits at every sigma, with
    K = 0 and the quadrature's error bound as the tail bound.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if not np.all(y_grid >= 0):
        raise ValueError("deficits must be nonnegative")
    return _phi_table(model, d, y_grid)[0]
