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
- sigma = 0, tabulated claims: the claim-count sum on the table's own
  nodes (_phi_sigma0_tab);
- sigma > 0, either claim law: no time integral at all; Phi_d(y) is
  Lambda(-y)/Lambda(0), read off the scale function (_phi_sigma_pos,
  which hands the model to scale.phi): by a moment quadrature for
  exponential claims, and for a table by one correlation of W with the
  law of X_d on the table's lattice.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from . import scale
from .gridmath import _adaptive_simpson, trapezoid
from .scale import K_TAIL_TOL, _claim_cutoff


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

    integral, err = _adaptive_simpson(fun, t0, d, tol=1e-12)
    return atom + float(integral), err


def _phi_sigma0_tab(model, d, y_arr):
    """Deadline transform, sigma = 0, tabulated claims, many y at once.

    Works in the overshoot variable z = c t - y so the k-fold tables
    are read exactly at their own nodes: for each deficit y the
    trapezoid rule runs over the table nodes z_0..z_J below
    z_end = c d - y, plus a last partial panel to z_end where the
    powers are read linearly. The integrand is

        (y / (z + y)) e^{-(lam + q) t} sum_{k=1}^K (r lam t)^k / k! f^{k*}(z)

    with t = (z + y) / c. K comes from _claim_cutoff(lam r d, c d max f):
    t <= d, y / (z + y) <= 1, a convolution power never exceeds max f and
    z runs over at most c d, so the terms past K add at most the returned
    tail bound. Two routes compute the claim-count sum:

    - per deficit, the K-term Poisson recursion over that deficit's
      J + 1 nodes, about K * sum_y (J_y + 1) vector operations;
    - factored, for all deficits at once. With a = r lam / c and
      b = (lam + q) / c the binomial theorem splits every term,
      e^{-b(z + y)} (a(z + y))^k / k! = sum_{i+m=k} U_i(y) V_m(z), with
      U_i(y) = e^{-by} (ay)^i / i! and V_m(z) = e^{-bz} (az)^m / m!,
      so the sum is sum_i U_i(y) B_i(z) with
      B_i(z) = sum_m V_m(z) f^{(i+m)*}(z). Building B takes about
      K^2 (J_max + 1) vector operations; the product U B is one BLAS
      call per block of deficits, and only y / (z + y) and the
      trapezoid weights stay per (y, z) pair. Every term is
      nonnegative, so nothing cancels.

    The factored route runs when building B costs fewer operations than
    the recursions it replaces, which is the case for a whole deficit
    grid and not for a few deficits.
    """
    lam, c, q, r = model.lam, model.c, model.q, model.r
    claims = model.claims
    grid = claims.grid
    dz = grid.step
    if c * d - np.min(y_arr[y_arr > 0], initial=np.inf) > grid.hi + 1e-9:
        raise ValueError("claim table too short for the c*d horizon; "
                         "extend the density grid")
    maxf = float(np.max(grid.values))
    K, tail_bound = _claim_cutoff(lam * r * d, c * maxf * d)
    # built in order, so each call makes at most one new power
    powers = [claims._power_values(k) for k in range(1, K + 1)]

    out = np.where(y_arr == 0.0, 1.0, 0.0)
    live = np.nonzero((y_arr > 0.0) & (y_arr / c <= d))[0]
    for idx in live:
        # the claim-free passage: an atom at t = y / c
        out[idx] = math.exp(-(lam + q) * (y_arr[idx] / c))
    z_end = c * d - y_arr
    inside = live[z_end[live] > 0.0]
    last = np.minimum(np.floor(z_end[inside] / dz + 1e-12), grid.n - 1).astype(int)
    # K^2 (J_max + 1) operations to build B against K (J_y + 1) per deficit
    if len(inside) and K * (last.max() + 1) < np.sum(last + 1):
        out[inside] += _factored_sums(model, d, powers, y_arr[inside], last)
    else:
        for idx, J in zip(inside, last):
            out[idx] += _one_deficit(model, powers, y_arr[idx], z_end[idx], J)
    return out, K, float(tail_bound)


def _last_panel(grid, z_end, J):
    """Fraction of a step from node J to z_end, or 0 without a last panel."""
    if z_end > grid.x[J] + 1e-12 and J + 1 <= grid.n - 1:
        return (z_end - grid.x[J]) / grid.step
    return 0.0


def _one_deficit(model, powers, y, z_end, J):
    """The claim integral of Phi_d(y) by the K-term Poisson recursion."""
    lam, c, q, r = model.lam, model.c, model.q, model.r
    grid = model.claims.grid
    zs = grid.x[: J + 1]
    frac = _last_panel(grid, z_end, J)
    if frac:
        zs = np.append(zs, z_end)
        Fs = np.vstack([p[: J + 2] for p in powers])
        Fs[:, J + 1] = Fs[:, J] * (1 - frac) + Fs[:, J + 1] * frac
    else:
        Fs = np.vstack([p[: J + 1] for p in powers])
    ts = (zs + y) / c
    base = (y / ts) * np.exp(-(lam + q) * ts) / c
    wk = r * lam * ts
    acc = wk * Fs[0]
    for k in range(2, len(powers) + 1):
        wk = wk * (r * lam * ts) / k
        acc = acc + wk * Fs[k - 1]
    return float(trapezoid(base * acc, zs))


# deficits per U B product, so the block's (y, z) arrays stay a few MB
_BLOCK = 16


def _factored_sums(model, d, powers, ys, last):
    """The claim integrals of Phi_d(ys) by the factored sum."""
    lam, c, q, r = model.lam, model.c, model.q, model.r
    grid = model.claims.grid
    K = len(powers)
    a, b = r * lam / c, (lam + q) / c
    n_z = min(int(last.max()) + 2, grid.n)
    zs = grid.x[:n_z]
    # B_i(z) = sum_m V_m(z) f^{(i+m)*}(z) for i = 0..K; f^{0*} is the atom
    B = np.zeros((K + 1, n_z))
    v = np.exp(-b * zs)
    for m in range(K + 1):
        if m:
            v = v * (a * zs) / m
        for i in range(max(1 - m, 0), K + 1 - m):
            B[i] += v * powers[i + m - 1][:n_z]
    U = np.empty((len(ys), K + 1))
    U[:, 0] = np.exp(-b * ys)
    for i in range(1, K + 1):
        U[:, i] = U[:, i - 1] * (a * ys) / i
    # every last panel ends at t = d: one claim-count sum serves them all
    at_d = np.zeros(n_z)
    wk = math.exp(-(lam + q) * d) / (c * d)
    for k, p in enumerate(powers, 1):
        wk *= r * lam * d / k
        at_d += wk * p[:n_z]
    z_end = c * d - ys
    out = np.empty(len(ys))
    for lo in range(0, len(ys), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        n_cols = int(last[blk].max()) + 1
        ratio = zs[:n_cols] + ys[blk, None]
        np.divide(ys[blk, None], ratio, out=ratio)
        dens = U[blk] @ B[:, :n_cols]
        dens *= ratio
        for row, (y, J, ze) in enumerate(zip(ys[blk], last[blk], z_end[blk])):
            f = dens[row, : J + 1]
            val = grid.step * (np.sum(f) - 0.5 * (f[0] + f[J]))
            frac = _last_panel(grid, ze, J)
            if frac:
                f_end = y * ((1 - frac) * at_d[J] + frac * at_d[J + 1])
                val += 0.5 * (ze - zs[J]) * (f[J] + f_end)
            out[lo + row] = val
    return out


def _phi_sigma_pos(model, d, ys):
    """(Phi_d on the deficits ys >= 0, truncation K, tail bound) at
    sigma > 0 and 0 < d < inf, for either claim law: Lambda(-y)/Lambda(0)
    off the scale function (scale.phi)."""
    return scale.phi(model, d, ys)


def _phi_table(model, d, ys):
    """(Phi_d on the deficits ys >= 0, truncation K, tail bound)."""
    if not d >= 0.0:
        raise ValueError("deadline d must be nonnegative, got %r" % (d,))
    if d == 0.0 or not np.any(ys > 0.0):
        return np.where(ys == 0.0, 1.0, 0.0), 0, 0.0
    if math.isinf(d):
        return np.exp(-model.rho * ys), 0, 0.0
    if model.sigma != 0.0:
        return _phi_sigma_pos(model, d, ys)
    if model.claims.kind != "exponential":
        return _phi_sigma0_tab(model, d, ys)
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
    table's grid-sized w_d integrals affordable. At sigma = 0 that is
    the factored sum of _phi_sigma0_tab, one matrix product per block of
    deficits; a few deficits, where building the factors costs more
    than it saves, take the per-deficit recursion instead, as
    upcross_transform does. At sigma > 0 (scale.phi) a table's Lambda
    sums the claim powers once into the law of X_d and reads every
    lattice deficit off one correlation, and exponential claims take
    one moment quadrature per block of deficits, with K = 0 and the
    quadrature's error bound as the tail bound.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if not np.all(y_grid >= 0):
        raise ValueError("deficits must be nonnegative")
    return _phi_table(model, d, y_grid)[0]
