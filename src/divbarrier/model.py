"""Model parameters and the claim-size distribution abstraction.

The surplus process is x + c t - (compound Poisson, rate lam) + sigma B_t.
Dividends above a barrier are discounted by e^{-q t} and by r per claim
that has already occurred; d is the Parisian grace period. Everything
downstream is a pure function of a ValidatedModel, which also keeps
the one constant every layer reads, the adjusted Lundberg root rho,
solved on first read.

The claim law enters only through its density f, and each claim class
answers for how it stores f. Besides density, cdf, mean, laplace and
conv_power, both classes offer the same six members:

- reach: a claim size beyond which the mass is negligible;
- survival(y): the mass P(C > y) above y;
- sample(rng, n): n independent claim draws;
- tail_transform(rho, xs): T_rho f(x) = int_x^inf e^{-rho(u-x)} f(u) du
  at any points xs >= 0, exact (for a table, exact for its linear
  reading between the nodes);
- convolve_grid(values, step): the trapezoid convolution f * g of g
  sampled on [0, x] at that step;
- density_slope(xs, step): f' on a uniform grid.

A table is read one way everywhere: linearly between its nodes and zero
past its end. Its laplace (so the model's Lundberg root) and its
tail_transform are both exact for that reading.

Code outside this module reads the `kind` attribute (and mu) where
exponential claims allow a closed-form algorithm: the scale route
(scale: Lambda by roots and a moment quadrature, at every sigma, which
also gives the u(d) e^{-mu x} forcing), the one place a model's Phi_d
route is chosen; the exit function as a sum of exponentials over the
roots of Q, with the scale route's weights, in place of a renewal solve
(hfun); and the closed series
of expmodel. One module besides this one reads how a
table is stored, `claims.grid` on its nodes, so that everything read
off Phi_d runs on the table's own lattice: scale's TableRatio, which
sums the claim powers into the law of X_d at every sigma in one
transform (gridmath.power_sum) of the density alone, and integrates
Phi_d against the density into the w_d forcing. The cached powers
`_power_values(k)` serve conv_power only.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gridmath import (GridFunction, _exp_panel_coeffs, _trapezoid_convolver, convolve_exp,
                       convolve_values, dickson_at, trapezoid)
from .lundberg import lundberg_root


class ModelError(ValueError):
    pass


class NonPositivePremium(ModelError):
    pass


class NegativeLoading(ModelError):
    pass


class RNotInUnitInterval(ModelError):
    pass


class InvalidParameter(ModelError):
    pass


@dataclass(frozen=True)
class ModelParams:
    lam: float          # claim arrival rate
    c: float            # premium rate
    sigma: float        # diffusion volatility
    q: float            # time discount rate
    r: float            # per-claim discount factor, in (0, 1]
    d: float            # Parisian delay (math.inf allowed)


def exp_conv_power(mu, n, x):
    """n-fold self-convolution of an exponential(mu) density.

    mu^n x^{n-1} e^{-mu x} / (n-1)!. n = 0 is a point mass at zero and
    must be special-cased by the caller.
    """
    if n < 1:
        raise ValueError("n = 0 is the point mass at zero; handle it separately")
    x = np.asarray(x, dtype=float)
    xo = np.maximum(x, 0.0)
    # (n-1) log x is -inf at x = 0 for n > 1; the n = 1 density has no x
    # factor. x < 0 is read at 0 and x = +inf (where -inf + inf is nan)
    # as it comes, then both are masked to the density's limit 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = (n - 1) * np.log(xo) if n > 1 else 0.0
        dens = np.exp(n * math.log(mu) - math.lgamma(n) - mu * xo + lx)
    out = np.where((x >= 0) & (x < math.inf), dens, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


class ExponentialClaims:
    """Exponential claim sizes with rate mu (mean 1/mu)."""

    kind = "exponential"

    def __init__(self, mu):
        if not 0 < mu < math.inf:
            raise InvalidParameter("claim rate mu must be positive and finite")
        self.mu = float(mu)
        self.reach = 40.0 / self.mu  # mass e^{-40} beyond

    @property
    def mean(self):
        return 1.0 / self.mu

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, self.mu * np.exp(-self.mu * np.maximum(x, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, -np.expm1(-self.mu * np.maximum(x, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def laplace(self, s):
        return self.mu / (self.mu + s)

    def conv_power(self, n, x):
        return exp_conv_power(self.mu, n, x)

    def survival(self, y):
        return math.exp(-self.mu * max(y, 0.0))

    def sample(self, rng, n):
        return rng.exponential(1.0 / self.mu, n)

    def tail_transform(self, rho, xs):
        return self.mu / (rho + self.mu) * np.exp(-self.mu * np.asarray(xs, dtype=float))

    def convolve_grid(self, values, step):
        return self.mu * convolve_exp(self.mu, values, step)

    def density_slope(self, xs, step):
        return -self.mu ** 2 * np.exp(-self.mu * xs)

    def key(self):
        return ("exp", self.mu)


class TabulatedClaims:
    """Claim density on a uniform grid [0, x_max].

    Density, convolution powers and CDF are node tables read linearly
    between the nodes. The density and its powers are zero below 0 and
    above x_max; the CDF (trapezoid sums of the density) is zero below
    0 and saturates at the table mass above x_max. Powers come from
    repeated grid convolution, are clipped at 0 and are cached.
    """

    kind = "tabulated"

    def __init__(self, grid: GridFunction):
        if abs(grid.lo) > 1e-12:
            raise InvalidParameter("tabulated density must start at 0")
        if not np.all(grid.values >= -1e-12):
            raise InvalidParameter("tabulated density has negative or nan values")
        mass = grid.trapz()
        if abs(mass - 1.0) > 1e-8:
            raise InvalidParameter("tabulated density mass %.3e is not 1" % mass)
        # the density must have decayed by the grid end
        if grid.values[-1] * grid.step > 1e-10:
            raise InvalidParameter("mass beyond the grid end is not negligible")
        self.grid = grid
        self.reach = grid.hi
        self._powers = {1: grid.values}
        v = grid.values
        self._cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * grid.step)))
        # inverse-CDF nodes for sampling, with flat stretches collapsed
        # so interp inverts cleanly
        cdf = self._cum / self._cum[-1]
        keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
        self._inverse_cdf = (cdf[keep], grid.x[keep])

    @property
    def mean(self):
        return float(trapezoid(self.grid.x * self.grid.values, dx=self.grid.step))

    def _read(self, table, x, right=0.0):
        out = np.interp(x, self.grid.x, table, left=0.0, right=right)
        return float(out) if out.ndim == 0 else out

    def density(self, x):
        return self._read(self.grid.values, x)

    def cdf(self, x):
        return self._read(self._cum, x, right=self._cum[-1])

    def laplace(self, s):
        # the linear reading's transform, panel by panel: the node at each
        # panel's left end takes A, the one at its right end B, both
        # scaled by e^{-s x} at the left end; the trapezoid mass at s = 0.
        # einsum, not a BLAS dot, whose summation order follows the BLAS
        # thread count
        v = self.grid.values
        A, B = _exp_panel_coeffs(s, self.grid.step)
        e = np.exp(-s * self.grid.x[:-1])
        return float(A * np.einsum("i,i", e, v[:-1]) + B * np.einsum("i,i", e, v[1:]))

    @cached_property
    def _convolve_density(self):
        """convolve_values(density, ., step) on one transform of the
        density, kept for every power."""
        return _trapezoid_convolver(self.grid.values, self.grid.step)

    def _power_values(self, n):
        # powers 1..max are cached; build the missing ones in order. Each
        # is a density, so the FFT's rounding noise below 0 is clipped
        for k in range(len(self._powers) + 1, n + 1):
            self._powers[k] = np.maximum(self._convolve_density(self._powers[k - 1]), 0.0)
        return self._powers[n]

    def conv_power(self, n, x):
        if n < 1:
            raise ValueError("n = 0 is the point mass at zero; handle it separately")
        return self._read(self._power_values(n), x)

    def survival(self, y):
        return max(0.0, 1.0 - self.cdf(y))

    def sample(self, rng, n):
        return np.interp(rng.random(n), *self._inverse_cdf)

    def tail_transform(self, rho, xs):
        return dickson_at(rho, self.grid, xs)

    def convolve_grid(self, values, step):
        return convolve_values(self.density(step * np.arange(len(values))), values, step)

    def density_slope(self, xs, step):
        return np.gradient(self.density(xs), step)

    def key(self):
        return ("tab", self.grid.lo, self.grid.hi, self.grid.step,
                hash(self.grid.values.tobytes()))


@dataclass(frozen=True)
class ValidatedModel:
    params: ModelParams
    claims: object
    theta: float

    @property
    def lam(self):
        return self.params.lam

    @property
    def c(self):
        return self.params.c

    @property
    def sigma(self):
        return self.params.sigma

    @property
    def q(self):
        return self.params.q

    @property
    def r(self):
        return self.params.r

    @property
    def d(self):
        return self.params.d

    @cached_property
    def rho(self):
        """The adjusted Lundberg root, psi_r(rho) = q, solved on first read.

        Every exit function, deadline transform and closed series of the
        model reads this one value; lundberg_root gives its residual.
        """
        return lundberg_root(self).rho

    def key(self):
        p = self.params
        return (p.lam, p.c, p.sigma, p.q, p.r, p.d) + self.claims.key()


def validate(params: ModelParams, dist) -> ValidatedModel:
    """Check parameter invariants and compute the safety loading."""
    if params.c <= 0:
        raise NonPositivePremium("premium rate c must be positive")
    if params.lam <= 0:
        raise InvalidParameter("arrival rate must be positive")
    if params.sigma < 0:
        raise InvalidParameter("volatility must be nonnegative")
    if params.q <= 0:
        raise InvalidParameter("discount rate must be positive")
    if not (0.0 < params.r <= 1.0):
        raise RNotInUnitInterval("r must lie in (0, 1]")
    if params.d < 0:
        raise InvalidParameter("Parisian delay must be nonnegative")
    for name in ("lam", "c", "sigma", "q"):
        if not math.isfinite(getattr(params, name)):
            raise InvalidParameter("%s must be finite" % name)
    if math.isnan(params.d):
        raise InvalidParameter("Parisian delay must be a number (inf is allowed)")
    mean_claim = dist.mean
    if mean_claim <= 0:
        raise InvalidParameter("claim mean must be positive")
    theta = params.c / (params.lam * mean_claim) - 1.0
    if theta <= 0:
        raise NegativeLoading(
            "net profit condition violated: c = %.6g <= lam * E[C] = %.6g"
            % (params.c, params.lam * mean_claim)
        )
    return ValidatedModel(params=params, claims=dist, theta=theta)


@lru_cache(maxsize=16)
def _exp_table_cached(mu, step, x_max):
    x = np.arange(round(x_max / step) + 1) * step
    vals = mu * np.exp(-mu * x)
    return GridFunction(lo=0.0, hi=x_max, step=step, values=vals)


def tabulated_exponential(mu, step=1e-3, x_max=30.0):
    """An exponential density sampled onto a grid, for the general
    pipeline; mass beyond x_max must be negligible."""
    if math.exp(-mu * x_max) > 1e-10:
        raise InvalidParameter("x_max too small for the requested mu")
    g = _exp_table_cached(float(mu), float(step), float(x_max))
    vals = g.values / (trapezoid(g.values, dx=g.step))  # renormalize grid mass
    return TabulatedClaims(GridFunction(lo=0.0, hi=x_max, step=step, values=vals))
