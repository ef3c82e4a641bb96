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
Lundberg root; at d = 0 it vanishes. Exponential claims admit a
resummation of the whole k-sum through the Bessel-type series
sum_{k>=1} a^k z^{k-1} / (k! (k-1)!) with a = r lam mu t, z = c t - y,
which is entire in z, so quadrature never sees a kink.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import i1e, roots_legendre

from .gridmath import trapezoid
from .lundberg import lundberg_root

K_TAIL_TOL = 1e-12


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


def _bessel_series_scaled(a, z, extra_exponent):
    """sum_{k>=1} a^k z^{k-1}/(k!(k-1)!) * e^{extra_exponent}.

    Equals sqrt(a/z) I_1(2 sqrt(a z)) e^{extra}; evaluated through the
    scaled Bessel function so the exponent never overflows. a >= 0 is a
    scalar or an array shaped like z, z an array >= 0, extra_exponent
    scalar or array.
    """
    z = np.asarray(z, dtype=float)
    extra = np.broadcast_to(np.asarray(extra_exponent, dtype=float), z.shape)
    per_node = np.ndim(a) > 0
    s = a * z
    out = np.empty_like(z)
    small = s < 1e-8
    if np.any(small):
        ss = s[small]
        out[small] = (a[small] if per_node else a) \
            * (1.0 + ss / 2.0 + ss * ss / 12.0) * np.exp(extra[small])
    big = ~small
    if np.any(big):
        w = 2.0 * np.sqrt(s[big])
        out[big] = np.sqrt((a[big] if per_node else a) / z[big]) * i1e(w) \
            * np.exp(w + extra[big])
    return out


def _count_cutoff(s, tol):
    """Smallest K with sum_{k>K} s^k / k! < tol (crude, conservative)."""
    if s <= 0:
        return 1
    k = 1
    term = s
    # walk past the mode, then accumulate the remainder until it dies
    while term > tol or k < s:
        k += 1
        term *= s / k
        if k > 10000:
            break
    # geometric bound on the remainder beyond k
    ratio = s / (k + 1)
    tail = term * ratio / (1.0 - ratio) if ratio < 1 else math.inf
    while tail >= tol and k <= 10000:
        k += 1
        term *= s / k
        ratio = s / (k + 1)
        tail = term * ratio / (1.0 - ratio) if ratio < 1 else math.inf
    return k


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


def _adaptive_simpson(fun, lo, hi, tol, n0=64, n_cap=1 << 19):
    """Composite Simpson with panel doubling; fun maps arrays to arrays."""
    if hi <= lo:
        return 0.0, 0.0
    n = n0
    prev = None
    while True:
        xs = np.linspace(lo, hi, n + 1)
        ys = fun(xs)
        h = (hi - lo) / n
        s = (h / 3.0) * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1:-1:2])
                         + 2.0 * np.sum(ys[2:-2:2]))
        if prev is not None:
            err = abs(s - prev) / 15.0
            if err < tol or n >= n_cap:
                return float(s), float(err)
        prev = s
        n *= 2


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
        return (y / ts) * _bessel_series_scaled(r * lam * mu * ts, zs, extra)

    integral, err = _adaptive_simpson(fun, t0, d, tol=1e-12)
    return atom + integral, err


def _phi_sigma0_tab(model, d, y_arr):
    """Deadline transform, sigma = 0, tabulated claims, many y at once.

    Works in the overshoot variable z = c t - y so the k-fold tables
    are read exactly at their own nodes.
    """
    lam, c, q, r = model.lam, model.c, model.q, model.r
    claims = model.claims
    grid = claims.grid
    dz = grid.step
    if c * d - np.min(y_arr[y_arr > 0], initial=np.inf) > grid.hi + 1e-9:
        raise ValueError("claim table too short for the c*d horizon; "
                         "extend the density grid")
    maxf = float(np.max(grid.values))
    K = _count_cutoff(lam * r * d, K_TAIL_TOL)
    while _tail_sum(lam * r * d, K) * c * maxf * d > K_TAIL_TOL and K < 10000:
        K += 5
    tail_bound = _tail_sum(lam * r * d, K) * c * maxf * d
    F = np.vstack([claims._power_values(k) for k in range(1, K + 1)])

    out = np.zeros_like(y_arr, dtype=float)
    for idx, y in enumerate(y_arr):
        if y == 0.0:
            out[idx] = 1.0
            continue
        t0 = y / c
        if t0 > d:
            out[idx] = 0.0
            continue
        val = math.exp(-(lam + q) * t0)
        z_end = c * d - y
        if z_end > 0:
            J = int(math.floor(z_end / dz + 1e-12))
            J = min(J, grid.n - 1)
            zs = grid.x[: J + 1]
            Fs = F[:, : J + 1]
            if z_end > zs[-1] + 1e-12 and J + 1 <= grid.n - 1:
                frac = (z_end - zs[-1]) / dz
                zs = np.append(zs, z_end)
                Fs = np.hstack([Fs, (F[:, J:J + 1] * (1 - frac)
                                     + F[:, J + 1:J + 2] * frac)])
            ts = (zs + y) / c
            base = (y / ts) * np.exp(-(lam + q) * ts) / c
            # claim-count sum via the Poisson-term recursion
            wk = r * lam * ts
            acc = wk * Fs[0]
            for k in range(2, K + 1):
                wk = wk * (r * lam * ts) / k
                acc = acc + wk * Fs[k - 1]
            val += float(trapezoid(base * acc, zs))
        out[idx] = val
    return out, K, float(tail_bound)


def _tail_sum(s, K):
    """sum_{k>K} s^k / k! (no e^{-s} factor; conservative)."""
    if s <= 0:
        return 0.0
    ln_term = (K + 1) * math.log(s) - math.lgamma(K + 2)
    term = math.exp(ln_term)
    ratio = s / (K + 2)
    if ratio >= 1.0:
        # sum the slow head explicitly
        total, k, t = 0.0, K + 1, term
        while t > 1e-300 and k < K + 10000:
            total += t
            k += 1
            t *= s / k
        return total
    return term / (1.0 - ratio)


def _phi_sigma_pos(model, d, y_arr):
    """Deadline transform for sigma > 0 via the complement

        Phi_d(y) = e^{-rho y} - int_d^inf e^{-qt} sum_k r^k v_y(k,t) dt,

    sharing the smeared claim-sum across every y at each time node.
    """
    lam, c, q, r, sigma = model.lam, model.c, model.q, model.r, model.sigma
    rho = lundberg_root(model).rho
    y_arr = np.asarray(y_arr, dtype=float)
    closed = np.exp(-rho * y_arr)
    if d == 0.0:
        return np.where(y_arr == 0.0, 1.0, 0.0), 0, 0.0

    kill = q + lam * (1.0 - r)
    dz = min(2e-2, sigma * math.sqrt(d) / 10.0)
    dz = max(dz, 1e-3)
    tab = model.claims.kind == "tabulated"
    if tab:
        K = _count_cutoff(lam * r * (d + 60.0 / max(kill, 1e-6)), K_TAIL_TOL)
        K = min(K, 400)
    else:
        K = 0

    def claim_sum(t, zs):
        """e^{-lam t} sum_{k>=1} (r lam t)^k / k! f^{k*}(z) on the grid."""
        if not tab:
            a = r * lam * model.claims.mu * t
            return _bessel_series_scaled(a, zs, -model.claims.mu * zs - lam * t)
        wk = np.exp(-lam * t) * r * lam * t
        acc = wk * model.claims.conv_power(1, zs)
        for k in range(2, K + 1):
            wk = wk * (r * lam * t) / k
            if wk < 1e-300:
                break
            acc = acc + wk * model.claims.conv_power(k, zs)
        return acc

    def rate_at(ts):
        """Vector over y of e^{-qt} sum_k r^k v_y(k,t), one t at a time."""
        rows = np.empty((len(ts), len(y_arr)))
        for i, t in enumerate(ts):
            sd = sigma * math.sqrt(t)
            L = int(math.ceil(8.0 * sd / dz))
            M = int(math.ceil((c * t + (L + 2) * dz) / dz))
            zs = dz * np.arange(M + 1)
            gz = claim_sum(t, zs)
            xs = dz * (np.arange(2 * L + 1) - L)
            kern = np.exp(-0.5 * (xs / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
            conv = fftconvolve(kern, gz)
            w_grid = dz * (np.arange(len(conv)) - L)
            hv = dz * conv
            # trapezoid end fix at z = 0 where the claim sum is finite
            hv -= 0.5 * dz * gz[0] * np.exp(-0.5 * (w_grid / sd) ** 2) \
                / (sd * math.sqrt(2 * math.pi))
            # the claim-free Gaussian point mass at z = 0
            hv += math.exp(-lam * t) * np.exp(-0.5 * (w_grid / sd) ** 2) \
                / (sd * math.sqrt(2 * math.pi))
            w_need = c * t - y_arr
            vals = np.interp(w_need, w_grid, hv, left=0.0, right=0.0)
            pos = y_arr > 0
            rows[i, pos] = math.exp(-q * t) * (y_arr[pos] / t) * vals[pos]
            rows[i, ~pos] = 0.0
        return rows

    total = np.zeros_like(y_arr)
    chunk = max(0.5, 2.0 / max(kill, 1e-6))
    t_lo = d
    tail_est = math.inf
    for _ in range(200):
        n = 32
        ts = np.linspace(t_lo, t_lo + chunk, n + 1)
        rows = rate_at(ts)
        h = chunk / n
        piece = (h / 3.0) * (rows[0] + rows[-1] + 4.0 * rows[1:-1:2].sum(axis=0)
                             + 2.0 * rows[2:-2:2].sum(axis=0))
        total += piece
        t_lo += chunk
        decay = math.exp(-kill * chunk)
        tail_est = float(np.max(piece)) * decay / max(1e-300, 1.0 - decay)
        if tail_est < 1e-13:
            break
    vals = np.clip(closed - total, 0.0, 1.0)
    vals = np.where(y_arr == 0.0, 1.0, vals)
    # the remainder estimate is signed; the bound is its size
    return vals, K, abs(tail_est)


def _phi_table(model, d, ys):
    """(Phi_d on the deficits ys >= 0, truncation K, tail bound)."""
    if not d >= 0.0:
        raise ValueError("deadline d must be nonnegative, got %r" % (d,))
    if d == 0.0 or not np.any(ys > 0.0):
        return np.where(ys == 0.0, 1.0, 0.0), 0, 0.0
    if math.isinf(d):
        return np.exp(-lundberg_root(model).rho * ys), 0, 0.0
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
        value, K, tail = math.exp(-lundberg_root(model).rho * y), 0, 0.0
    else:
        vals, K, tail = _phi_table(model, d, np.array([y], dtype=float))
        value = float(vals[0])
    return UpcrossTransform(y=y, d=d, value=value, truncation_k=K, tail_bound=tail)


def upcross_table(model, d, y_grid):
    """upcross_transform values on a whole grid of deficits.

    Shares the per-time claim-sum work across deficits, which is what
    makes grid-sized w_d integrals affordable.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if not np.all(y_grid >= 0):
        raise ValueError("deficits must be nonnegative")
    return _phi_table(model, d, y_grid)[0]
