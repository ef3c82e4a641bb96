"""Uniform-grid function arithmetic.

Everything downstream (transform tails, renewal solves, residual
checks) runs on functions sampled on a uniform grid, and this module
holds the one copy of each grid primitive the others use:

- fft_convolve, the only FFT convolution: the full linear convolution
  along the last axis, batched over the leading axes. convolve_values
  (the trapezoid f * g) and a table's scale route (the Gaussian smear
  of the law of X_d and the correlation of W with it) both run through
  it, at every size, and a kernel convolved again and again (a table's
  density for its claim powers) is transformed once;
- power_sum, a weighted sum of a density's trapezoid convolution
  powers (a table's Poisson-weighted claim powers) as one polynomial in
  one exponentially tilted transform, and neumann_series, the
  trapezoid renewal solve, as one quotient in one; both bound their
  wrap-around the same way (_tilt);
- convolve_exp, the only exponential-panel recurrence: integrals
  weighted by e^{-b u} on panels that integrate the exponential exactly
  against piecewise-linear data, so stiff rates do not poison the error
  term. With the rate negated, convolve_exp(-b, S) is the growing
  integral int_0^x e^{b(x-u)} S(u) du, and on reversed nodes it is
  dickson_at's backward tail;
- adaptive_cc, nested Clenshaw-Curtis quadrature of an analytic
  integrand (the scale-function moments, the sigma = 0 Bessel series),
  which doubles its nodes until a relative or absolute stop, with its
  weights from one FFT each (_cc_weights, memoized per node count).

Other quadrature is trapezoid. Both first-order recurrences,
convolve_exp's panel sum and each pole of neumann_series_exp, run
through _recurrence, which takes y[i] = E y[i-1] + u[i] in closed form
as E^i cumsum(u E^-i): one exp (memoized for the last few rates and
lengths) and one cumsum per call, in blocks that keep the powers of E
in range.

A renewal equation xi = forcing + coeff (kernel * xi) is solved two
ways, chosen in solve_renewal, each the exact sum of the whole Neumann
series of its discrete equation in one pass (both names are bound by
the benchmark's tracer, perfbench/tracer.py). A kernel that is a
mixture of m exponentials makes the panel equation a linear recursion
of order m, solved by one filter pass (neumann_series_exp); any other
kernel's trapezoid equation is a discrete convolution equation,
solved by one division in one exponentially tilted transform
(neumann_series). The growth of the solution sets the tilt, and a
bound on the solution sets the transform length.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy import fft as sp_fft

try:
    trapezoid = np.trapezoid
except AttributeError:          # numpy < 2.0
    trapezoid = np.trapz


class NonConvergenceError(RuntimeError):
    """A solve left its range or failed its gate; last_norm is the size
    that failed, when there is one."""

    def __init__(self, message, last_norm=None):
        super().__init__(message)
        self.last_norm = last_norm


@dataclass(frozen=True)
class GridFunction:
    lo: float
    hi: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        n = (self.hi - self.lo) / self.step
        if abs(n - round(n)) > 1e-9:
            raise ValueError("(hi-lo)/step is not an integer")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) != round(n) + 1:
            raise ValueError("values length does not match the grid")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values) - 1

    @cached_property
    def x(self):
        """The nodes, built on first use and shared read-only."""
        x = self.lo + self.step * np.arange(len(self.values))
        x.flags.writeable = False
        return x

    def same_grid(self, other):
        return (
            abs(self.lo - other.lo) < 1e-12
            and abs(self.hi - other.hi) < 1e-12
            and abs(self.step - other.step) < 1e-15
        )

    def with_values(self, values):
        return replace(self, values=np.asarray(values, dtype=float))

    def interp(self, x):
        return np.interp(x, self.x, self.values)

    def trapz(self):
        return float(trapezoid(self.values, dx=self.step))


def _require_zero_lo(g):
    if abs(g.lo) > 1e-12:
        raise ValueError("operation requires a grid starting at 0")


def _fft_convolver(f, n_g):
    """g -> fft_convolve(f, g) for any g with n_g points along the last
    axis, with f transformed once."""
    n = f.shape[-1] + n_g - 1
    m = sp_fft.next_fast_len(n, True)
    f_hat = sp_fft.rfft(f, m)
    return lambda g: sp_fft.irfft(f_hat * sp_fft.rfft(g, m), m)[..., :n]


def fft_convolve(f, g):
    """Full linear convolution of f and g along the last axis, batched
    over the leading axes (which broadcast), by real FFTs at a fast
    length."""
    return _fft_convolver(f, g.shape[-1])(g)


@lru_cache(maxsize=None)
def _cc_weights(n):
    """Clenshaw-Curtis weights of the n + 1 nodes cos(k pi / n) on
    [-1, 1], by Waldvogel's FFT (BIT 46, 2006): the inverse transform of
    the moments 2 / (1 - k^2) of the even Chebyshev polynomials, the end
    weights halved. Read-only, since they are memoized per n."""
    c = 2.0 / (1.0 - np.arange(0, n + 1, 2, dtype=float) ** 2)
    w = np.append(sp_fft.irfft(c[:n // 2 + 1], n), 0.0)
    w[0] = w[-1] = 0.5 * w[0]
    w.flags.writeable = False
    return w


def adaptive_cc(fun, lo, hi, tol, n0=64, n_cap=1 << 19, relative=False):
    """Clenshaw-Curtis quadrature with node doubling; fun maps an array
    of nodes to an array of values, or to one row of values per node for
    a vector integrand.

    The n + 1 nodes cos(k pi / n), mapped to [lo, hi], nest: taken as
    sin(pi (n - 2k) / 2n), the nodes at 2n with k even are those at n,
    bitwise, so a doubling keeps them and evaluates fun only at the n
    new odd nodes, and every node is evaluated once. On an analytic
    integrand the rule converges geometrically (Trefethen, SIAM Review
    50, 2008), so S_n's error |S_2n - S_n| bounds S_2n's. Each
    component's estimate is that, floored at the rounding of the
    weighted sum, sqrt(n) eps sum |w f| (n roundings of random sign), so
    it is never 0. It stops when every estimate is below tol, or, when
    relative, below tol times the largest |S_2n|. Returns the integral
    and the largest estimate.
    """
    if hi <= lo:
        return 0.0, 0.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = n0
    ys = fun(mid + half * np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n)))
    prev = None
    while True:
        # einsum, not a BLAS product, whose summation order follows the
        # BLAS thread count
        w = half * _cc_weights(n)
        s = np.einsum("i,i...->...", w, ys)
        if prev is not None:
            floor = np.einsum("i,i...->...", w, abs(ys)) * math.sqrt(n) * np.finfo(float).eps
            err = float(np.max(np.maximum(abs(s - prev), floor)))
            if err < (tol * float(np.max(abs(s))) if relative else tol) or n >= n_cap:
                return s, err
        prev = s
        n *= 2
        # the new odd nodes go between the n/2 + 1 nodes kept
        new = fun(mid + half * np.sin(np.pi * np.arange(n - 2, -n, -4) / (2 * n)))
        ys = np.insert(new, np.arange(n // 2 + 1), ys, axis=0)


def _trapezoid_convolver(f, step):
    """g -> convolve_values(f, g, step), with f's spectrum taken once for
    every g (a table's claim powers, built one on another)."""
    n = len(f)
    conv = _fft_convolver(f, n)

    def apply(g):
        g = g[:n]
        out = step * (conv(g)[:n] - 0.5 * f[0] * g - 0.5 * f * g[0])
        out[0] = 0.0
        return out
    return apply


def convolve_values(f, g, step):
    """Trapezoid (f*g) for arrays sampled on the same [0, hi] grid; g
    may run past f's end, and only its first len(f) nodes are read."""
    return _trapezoid_convolver(f, step)(g)


# exponent of power_sum's tilt at the last node: untilting scales the
# transform's rounding by up to e^{_TILT}, about 3e3, which keeps the
# sum within ~2e-13 of its largest value
_TILT = 8.0


def _tilt(n, theta, decay, log_peak, log_tol):
    """(e^{-theta j} on n nodes, the transform length M, the log of a
    bound on the wrap-around) for data tilted by e^{-theta j} whose
    untilted result is at most e^{log_peak} on the n nodes and grows
    past them at most at rate theta - decay >= 0.

    A length-M transform wraps node i + l M back onto node i, and
    untilting weights it by e^{-theta l M}, so the wrap-around is at
    most e^{log_peak} q / (1 - q), q = e^{-decay M}. M is the shortest
    fast length, at least n, that keeps this at most e^{log_tol}; both
    are logarithms so that a tolerance below the double range still
    sets M.
    """
    m = sp_fft.next_fast_len(max(n, math.ceil((log_peak - log_tol) / decay)), True)
    return (np.exp(-theta * np.arange(n)), m,
            log_peak - decay * m - math.log1p(-math.exp(-decay * m)))


def power_sum(f, step, weights, log_tol):
    """(sum_k weights[k-1] f^{*k} on f's nodes, clipped at 0, and the log
    of a bound on its aliasing error, at most log_tol), f^{*k} being the
    trapezoid powers of repeated convolve_values(f, ., step): f^{*1} = f.

    With a = step f, a[0] halved, and b = step f, b[0] = 0, the trapezoid
    rule gives f^{*2} = b (*) f and, as f^{*k}(0) = 0 for k >= 2,
    f^{*k} = a (*) f^{*(k-1)} for k >= 3, (*) the discrete convolution.
    The transforms of b and f are A - a[0] and (A + a[0]) / step, so
    sum_{k>=2} weights[k-1] f^{*k} is the inverse transform of
    (A^2 - a[0]^2) / step P(A), P(A) = sum_{k>=2} weights[k-1] A^{k-2}
    by Horner, from one real FFT of a, tilted by e^{-theta j} with
    theta = _TILT / n on n nodes. Each f^{*k} is at most
    sum|b| sum|a|^{k-2} max|f| at every node, past the grid too, so the
    wrap-around (_tilt) is at most that, summed against |weights|,
    times q / (1 - q), q = e^{-theta M}; log_tol may lie below the
    double range (Poisson weights that all carry e^{-rate} at a large
    rate).
    """
    f = np.asarray(f, dtype=float)
    out = weights[0] * f
    log_alias = -math.inf
    if len(weights) > 1:
        n = len(f)
        a = step * f
        a[0] *= 0.5
        a0, sum_a = a[0], float(np.sum(np.abs(a)))
        # the weighted powers k >= 2 are at most sum|b| max|f| times
        # sum_k |weights[k-1]| sum|a|^{k-2} at any node
        poly = 0.0
        for w in weights[:0:-1]:
            poly = poly * sum_a + abs(w)
        log_peak = math.log((sum_a - abs(a0)) * float(np.max(np.abs(f))) * poly)
        theta = _TILT / n
        tilt, m, log_alias = _tilt(n, theta, theta, log_peak, log_tol)
        spec = sp_fft.rfft(a * tilt, m)
        acc = np.full(len(spec), weights[-1], dtype=complex)
        for w in weights[-2:0:-1]:
            acc *= spec
            acc += w
        acc *= (spec * spec - a0 * a0) / step
        out += sp_fft.irfft(acc, m)[:n] / tilt
    return np.maximum(out, 0.0), log_alias


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """(f*g)(x) = int_0^x f(x-y) g(y) dy on the common grid."""
    if not f.same_grid(g):
        raise ValueError("grid mismatch in convolve")
    _require_zero_lo(f)
    return f.with_values(convolve_values(f.values, g.values, f.step))


def _exp_panel_coeffs(b, step):
    """A = int_0^D e^{-bt}(1-t/D) dt, B = int_0^D e^{-bt} t/D dt."""
    z = b * step
    if abs(z) < 1e-4:
        # series in z, good to ~1e-18 relative at |z|=1e-4
        A = step * (0.5 - z / 6.0 + z * z / 24.0 - z ** 3 / 120.0)
        B = step * (0.5 - z / 3.0 + z * z / 8.0 - z ** 3 / 30.0)
        return A, B
    em1 = -np.expm1(-z)          # 1 - e^{-z}
    E = np.exp(-z)
    B = (em1 - z * E) / (b * b * step)
    A = em1 / b - B
    return A, B


# largest |Re log E| times block length in _recurrence: the powers of E
# it scales by stay within e^{+-150}
_SPAN = 300.0


@lru_cache(maxsize=16)
def _powers(log_e, size):
    """E^k for k = -(size // 2), ..., size - size // 2 - 1, by one exp of
    log E times the centred ramp. Read-only, since the last few are
    memoized (a solve runs the same rate on the same grid several
    times)."""
    p = np.arange(-(size // 2), size - size // 2, dtype=float) * log_e
    np.exp(p, out=p)
    p.flags.writeable = False
    return p


def _recurrence(E, u):
    """y[i] = E y[i-1] + u[i] from y[-1] = 0, computed in place on u and
    returned (as a complex copy when E is complex and u is not).

    Closed form y = E^i cumsum(u E^-i), with the powers centred on the
    block (any constant factor cancels), so the scaled sum stays within
    e^150 of the data: only data past about 1e243 overflows, and only
    data below about 1e-243 loses digits. Where |Re log E| n would pass
    _SPAN the nodes run in blocks of at most _SPAN / |Re log E|, each
    started by u[j] += E y[j-1], which keeps a growing E, a stiff rate
    or a complex pole in range. E = 0 leaves u as it is.
    """
    if isinstance(E, complex) or E < 0:
        log_e = np.log(complex(E))
        if u.dtype.kind != "c":
            u = u.astype(complex)
    elif E == 0:
        return u
    else:
        log_e = math.log(E)
    n = len(u)
    rate = abs(log_e.real)
    size = max(1, int(_SPAN / rate)) if rate * n > _SPAN else n
    p = _powers(log_e, size)
    for j in range(0, n, size):
        block = u[j:j + size]
        if j:
            block[0] += E * u[j - 1]
        q = p[:len(block)]
        block /= q
        np.cumsum(block, out=block)
        block *= q
    return u


def convolve_exp(b, values, step):
    """W[i] = int_0^{x_i} e^{-b u} S(x_i - u) du, exact for linear S.

    Recurrence W[i] = e^{-b step} W[i-1] + A S[i] + B S[i-1], O(n), for
    either sign of b.
    """
    A, B = _exp_panel_coeffs(b, step)
    S = np.asarray(values, dtype=float)
    u = np.empty(len(S))
    u[0] = 0.0
    u[1:] = A * S[1:] + B * S[:-1]
    return _recurrence(np.exp(-b * step), u)


def dickson(rho, g: GridFunction) -> GridFunction:
    """Tail transform T_rho g(x) = int_x^inf e^{-rho(u-x)} g(u) du on g's
    own nodes, by dickson_at; the grid must carry essentially all of g's
    mass (|g(hi)| below 1e-8).
    """
    _require_zero_lo(g)
    if abs(g.values[-1]) > 1e-8:
        raise ValueError("tail of g is not negligible at the grid end")
    return g.with_values(dickson_at(rho, g, g.x))


def dickson_at(rho, g: GridFunction, x):
    """T_rho g at points x >= lo, for g read linearly between its nodes
    and zero beyond hi; exact for that reading.

    Backward recursion over whole panels with exponential weights,
    T_i = A g_i + B g_{i+1} + e^{-rho step} T_{i+1}, which is
    convolve_exp run on the reversed nodes. A point x in panel
    i then adds its partial panel to the next node: with d = x_{i+1} - x
    and s the panel's slope, T(x) = e^{-rho d} T_{i+1}
    + g(x) int_0^d e^{-rho t} dt + s int_0^d t e^{-rho t} dt.
    """
    if rho <= 0:
        raise ValueError("tilt rate must be positive")
    step, v = g.step, g.values
    T = convolve_exp(rho, v[::-1], step)[::-1]

    x = np.asarray(x, dtype=float)
    xc = np.clip(x, g.lo, g.hi)
    i = np.minimum(np.floor((xc - g.lo) / step).astype(int), len(v) - 2)
    d = np.clip(g.x[i + 1] - xc, 0.0, None)
    e = np.exp(-rho * d)
    e0 = -np.expm1(-rho * d) / rho       # int_0^d e^{-rho t} dt
    e1 = (e0 - d * e) / rho              # int_0^d t e^{-rho t} dt
    slope = (v[i + 1] - v[i]) / step
    out = e * T[i + 1] + np.interp(xc, g.x, v) * e0 + slope * e1
    return np.where(x > g.hi, 0.0, out)


def dickson_commutation_residual(s, r, g: GridFunction) -> float:
    """Max grid deviation in T_s T_r g = (T_s g - T_r g)/(r - s)."""
    if s == r:
        raise ValueError("identity undefined at s = r")
    lhs = dickson(s, dickson(r, g)).values
    rhs = (dickson(s, g).values - dickson(r, g).values) / (r - s)
    return float(np.max(np.abs(lhs - rhs)))


def derivative(g: GridFunction, order: int) -> GridFunction:
    """Second-order finite differences, one-sided at the ends."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    v = g.values
    if len(v) < 5:
        raise ValueError("grid too short to differentiate")
    h = g.step
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    else:
        out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return g.with_values(out)


# exponent of a renewal solve's tilt at the last node, past the
# solution's own growth: untilting scales the transforms' rounding by up
# to e^{_SOLVE_TILT}, about 4e2, which keeps the solution within ~6e-14
# of its largest value (power_sum's e^{_TILT} would leave ~3e-13), at a
# length of about 5.5 n
_SOLVE_TILT = 6.0

# wrap-around a renewal solve allows, relative to its solution's largest
# value: below the rounding above
_SOLVE_RTOL = 1e-14

# sup-norm past which a renewal solution is refused: every equation the
# library solves contracts, so a solution this large means it does not
_SOLVE_CAP = 1e80


def neumann_series(kernel: GridFunction, forcing: GridFunction, coeff):
    """(xi, log of a bound on its wrap-around) for the trapezoid renewal
    equation xi = forcing + coeff (kernel * xi), xi(0) = forcing(0): the
    sum of its whole Neumann series, in one tilted transform.

    With a = coeff step kernel, a[0] halved, and
    g = forcing - coeff step forcing[0] kernel / 2, the equation is
    xi = g + a (*) xi on every node, (*) the discrete convolution, so xi
    is the inverse transform of G / (1 - A), G and A the transforms of g
    and a tilted by e^{-theta j}. theta is _SOLVE_TILT / n past theta_0,
    the largest of the forcing's growth rate (its sup-norm's, from the
    first half of the grid to the second), the kernel's (the root of
    s(t) = sum_j |a_j| e^{-t j} = 1) and 0, so the tilted solution
    decays. At any t with s(t) < 1 the tilted sup-norm contracts, so
    |xi_j| <= B e^{t j} on every node, past the grid too (g and a zero
    there), B = max_j |g_j| e^{-t j} / (1 - s(t)); t is theta_0, or
    halfway to theta where the kernel sets theta_0 (s = 1 there). That
    bound at the last node sets the length (_tilt) against
    _SOLVE_RTOL max|g| / (1 + sum|a|), which is at most
    _SOLVE_RTOL max|xi|. Raises NonConvergenceError when the data are
    not finite, when |a[0]| >= 1, where no such t exists, or when the
    solution passes _SOLVE_CAP or the double range.
    """
    if coeff < 0:
        raise ValueError("coeff must be nonnegative")
    if not kernel.same_grid(forcing):
        raise ValueError("grid mismatch in neumann_series")
    f, n = forcing.values, len(forcing.values)
    a = coeff * kernel.step * kernel.values
    a[0] *= 0.5
    g = f - 0.5 * coeff * kernel.step * f[0] * kernel.values
    g_max, abs_a = float(np.max(np.abs(g))), np.abs(a)
    if not g_max:
        return forcing.with_values(np.zeros(n)), -math.inf
    if abs_a[0] >= 1.0:
        raise NonConvergenceError("the kernel's trapezoid weight at 0 is %g, not below 1"
                                  % abs_a[0])
    j = np.arange(n)

    def contraction(t):
        # (e^{-t j}, s(t)), summed pairwise: a BLAS dot's order, and so
        # its last bits, follow the thread count
        tilt_t = np.exp(-t * j)
        return tilt_t, float(np.sum(abs_a * tilt_t))

    half = max(n // 2, 1)
    lo, hi = np.max(np.abs(g[:half])), np.max(np.abs(g[half:]), initial=0.0)
    theta0 = max(math.log(hi / lo) / half if lo and hi else 0.0, 0.0)
    tilt_b, s = contraction(theta0)
    if not math.isfinite(g_max + s):
        raise NonConvergenceError("renewal kernel or forcing is not finite")
    theta_b = theta0
    if s >= 1.0:
        # Newton on the convex, decreasing log s, from the left of its root
        while True:
            move = math.log(s) * s / float(np.sum(j * abs_a * tilt_b))
            theta0 += move
            tilt_b, s = contraction(theta0)
            if move < 1e-3 / n:
                break
        theta_b = theta0 + 0.5 * _SOLVE_TILT / n
        tilt_b, s = contraction(theta_b)
    theta = theta0 + _SOLVE_TILT / n
    log_peak = math.log(float(np.max(np.abs(g) * tilt_b)) / (1.0 - s)) + theta_b * (n - 1)
    log_tol = math.log(_SOLVE_RTOL * g_max / (1.0 + float(np.sum(abs_a))))
    tilt, m, log_alias = _tilt(n, theta, theta - theta_b, log_peak, log_tol)
    spec = sp_fft.rfft(a * tilt, m)
    np.subtract(1.0, spec, out=spec)
    xi = sp_fft.rfft(g * tilt, m)
    xi /= spec
    with np.errstate(over="ignore", invalid="ignore"):
        xi = sp_fft.irfft(xi, m, overwrite_x=True)[:n] / tilt
    xi[0] = f[0]
    xi_max = float(np.max(np.abs(xi)))
    if not xi_max <= _SOLVE_CAP:
        raise NonConvergenceError("renewal solution passed %g" % _SOLVE_CAP, last_norm=xi_max)
    return forcing.with_values(xi), log_alias


def _roots(coeffs):
    """Roots of a real polynomial, highest power first: closed forms up
    to degree 2 (the stable quadratic formula), else np.roots."""
    if len(coeffs) == 2:
        return np.array([-coeffs[1] / coeffs[0]])
    if len(coeffs) != 3:
        return np.roots(coeffs)
    a, b, c = coeffs
    half = -0.5 * (b + math.copysign(1.0, b) * np.emath.sqrt(b * b - 4.0 * a * c))
    return np.array([half / a, c / half if half else 0.0])


def neumann_series_exp(rates, weights, forcing: GridFunction, coeff):
    """xi = forcing + coeff (kernel * xi) for the mixture of exponentials
    kernel(x) = sum_j weights[j] e^{-rates[j] x} on exponential panels,
    xi = forcing + coeff sum_j weights[j] convolve_exp(rates[j], xi, step),
    solved exactly: the whole Neumann series of that discrete equation
    in one filter pass.

    With E_j = e^{-rates[j] step} and convolve_exp's panel weights
    (A_j, B_j), the equation is the rational filter
    G(z) = (1/lead) prod_j (1 - E_j/z) / (1 - p_j/z),
    lead = 1 - coeff sum_j weights[j] A_j, applied to the forcing less
    convolve_exp's zero start, coeff forcing[0] sum_j weights[j] A_j E_j^i.
    Each pole runs as one section: the zero's tap x[i] - E_j x[i-1] as
    one shifted subtraction, then _recurrence with the pole. The poles
    p_j = 1 - step lam_j come from the roots lam_j of the characteristic
    polynomial in lam = (1 - p)/step, whose coefficients are O(rate)
    and built from expm1, never from the z-polynomial, whose roots
    crowd within O(rate step) of 1. O(n) per rate; a solution that
    leaves the double range raises NonConvergenceError.
    """
    step, f = forcing.step, forcing.values
    rates = np.asarray(rates, dtype=float)
    cw = coeff * np.asarray(weights, dtype=float)
    A, B = np.array([_exp_panel_coeffs(b, step) for b in rates]).T
    # at z = 1 - step lam, z - E_j = step (e_j - lam) with e_j = (1 - E_j)/step,
    # so the poles solve prod_j (lam - e_j)
    #     + sum_j cw_j ((A_j + B_j)/step - A_j lam) prod_{k != j} (lam - e_k) = 0
    e = -np.expm1(-rates * step) / step
    poly = np.poly(e)
    for j in range(len(e)):
        poly = poly + cw[j] * np.convolve([-A[j], (A[j] + B[j]) / step],
                                          np.poly(np.delete(e, j)))
    ramp = np.arange(len(f))
    with np.errstate(under="ignore"):
        start = sum(w * np.exp(-b * step * ramp) for b, w in zip(rates, cw * A))
    x = f - f[0] * start
    with np.errstate(over="ignore", invalid="ignore"):
        for b, lam in zip(np.sort(rates), np.sort(_roots(poly))):
            x[1:] -= math.exp(-b * step) * x[:-1]
            x = _recurrence(1.0 - step * lam, x)
        xi = np.real(x) / (1.0 - cw @ A)
    if not np.all(np.isfinite(xi)):
        raise NonConvergenceError("solution left the double range",
                                  last_norm=float(np.max(np.abs(xi))))
    return forcing.with_values(xi)


def solve_renewal(grid, kernel, forcing, coeff, mix=None):
    """xi = forcing + coeff (kernel * xi) on the grid, as values.

    A kernel that is a mixture of exponentials, mix = (rates, weights),
    is solved exactly on exponential panels, one O(n) filter pass; any
    other kernel on trapezoid panels in one tilted transform
    (neumann_series), whose wrap-around bound is dropped here: the
    callers certify their solution by its equation residual.
    """
    forcing = grid.with_values(forcing)
    if mix is not None:
        return neumann_series_exp(*mix, forcing, coeff).values
    return neumann_series(grid.with_values(kernel), forcing, coeff)[0].values


def volterra_march(kernel: GridFunction, forcing: GridFunction, coeff) -> GridFunction:
    """Second-kind Volterra solve of xi = forcing + coeff (kernel*xi).

    Left-to-right trapezoid marching, n^2/2 multiply-adds on n nodes.
    No solver calls it: it is the independent reference the tests
    check both renewal solvers against.
    """
    if not kernel.same_grid(forcing):
        raise ValueError("grid mismatch in volterra_march")
    k = kernel.values
    f = forcing.values
    h = kernel.step
    n = len(f)
    xi = np.empty(n)
    xi[0] = f[0]
    denom = 1.0 - coeff * h * 0.5 * k[0]
    if abs(denom) < 1e-14:
        raise NonConvergenceError("marching pivot vanished")
    for i in range(1, n):
        s = 0.5 * k[i] * xi[0]
        if i > 1:
            s += float(np.dot(k[1:i][::-1], xi[1:i]))
        xi[i] = (f[i] + coeff * h * s) / denom
    return forcing.with_values(xi)
