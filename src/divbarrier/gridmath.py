"""Uniform-grid function arithmetic.

Everything downstream (transform tails, convolution series, residual
checks) runs on functions sampled on a uniform grid. Quadrature is
trapezoid throughout, with one refinement: integrals weighted by an
exponential factor e^{-b u} use panels that integrate the exponential
exactly against piecewise-linear data, so stiff rates do not poison
the error term. Linear recurrences are evaluated with lfilter, which
computes the same sums a Python loop would, in C.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.signal import fftconvolve, lfilter

try:
    trapezoid = np.trapezoid
except AttributeError:          # numpy < 2.0
    trapezoid = np.trapz


class NonConvergenceError(RuntimeError):
    """A truncated series failed to meet its tolerance."""

    def __init__(self, message, last_norm=None, terms=None):
        super().__init__(message)
        self.last_norm = last_norm
        self.terms = terms


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


def convolve_values(f, g, step):
    """Trapezoid (f*g) for arrays sampled on the same [0, hi] grid."""
    if len(f) + len(g) > 8192:
        full = fftconvolve(f, g)[: len(f)]
    else:
        full = np.convolve(f, g)[: len(f)]
    out = step * (full - 0.5 * f[0] * g[: len(f)] - 0.5 * f[: len(f)] * g[0])
    out[0] = 0.0
    return out


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


def cumexp(b, values, step):
    """C[i] = int_0^{x_i} e^{-b u} S(u) du for S piecewise linear."""
    A, B = _exp_panel_coeffs(b, step)
    S = np.asarray(values, dtype=float)
    i = np.arange(len(S) - 1)
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(-b * step * i)
    panels = w * (A * S[:-1] + B * S[1:])
    out = np.empty(len(S))
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


def convolve_exp(b, values, step):
    """W[i] = int_0^{x_i} e^{-b u} S(x_i - u) du, exact for linear S.

    Recurrence W[i] = e^{-b step} W[i-1] + A S[i] + B S[i-1], O(n).
    """
    A, B = _exp_panel_coeffs(b, step)
    S = np.asarray(values, dtype=float)
    E = np.exp(-b * step)
    u = np.empty(len(S))
    u[0] = 0.0
    u[1:] = A * S[1:] + B * S[:-1]
    return lfilter([1.0], [1.0, -E], u)


def dickson(rho, g: GridFunction) -> GridFunction:
    """Tail transform T_rho g(x) = int_x^inf e^{-rho(u-x)} g(u) du.

    Backward recursion with trapezoid panels; the grid must carry
    essentially all of g's mass (|g(hi)| below 1e-8).
    """
    if rho < 0:
        raise ValueError("negative tilt rate")
    _require_zero_lo(g)
    if abs(g.values[-1]) > 1e-8:
        raise ValueError("tail of g is not negligible at the grid end")
    step = g.step
    E = np.exp(-rho * step)
    v = g.values
    p = 0.5 * step * (v[:-1] + E * v[1:])   # panel i: [x_i, x_i + step]
    u = np.empty(len(v))
    u[0] = 0.0
    u[1:] = p[::-1]
    T = lfilter([1.0], [1.0, -E], u)[::-1]
    return g.with_values(T)


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


N_MAX_TERMS = 200


def _series(apply_kernel, forcing: GridFunction, tol):
    """forcing + K forcing + K^2 forcing + ... for K = apply_kernel,
    truncated once a term's sup-norm falls below tol."""
    term = forcing.values.copy()
    acc = term.copy()
    last = float(np.max(np.abs(term)))
    for n in range(1, N_MAX_TERMS + 1):
        term = apply_kernel(term)
        last = float(np.max(np.abs(term)))
        if not np.isfinite(last) or last > 1e80:
            raise NonConvergenceError("series diverged", last_norm=last, terms=n)
        acc += term
        if last < tol:
            return forcing.with_values(acc)
    raise NonConvergenceError(
        "series did not reach tolerance after %d terms" % N_MAX_TERMS,
        last_norm=last, terms=N_MAX_TERMS,
    )


def neumann_series(kernel: GridFunction, forcing: GridFunction, coeff, tol=1e-12):
    """Sum_n coeff^n kernel^{*n} * forcing, truncated at sup-norm tol.

    Solves xi = coeff * kernel * xi + forcing when the series
    contracts; otherwise raises and callers fall back to marching.
    """
    if coeff < 0:
        raise ValueError("coeff must be nonnegative")
    if not kernel.same_grid(forcing):
        raise ValueError("grid mismatch in neumann_series")
    return _series(
        lambda term: coeff * convolve_values(kernel.values, term, kernel.step),
        forcing, tol)


def neumann_series_exp(rates, weights, forcing: GridFunction, coeff, tol=1e-12):
    """Neumann series for a kernel that is a mixture of exponentials.

    kernel(x) = sum_j weights[j] e^{-rates[j] x}; every convolution in
    the series is done with exponential panels, O(n) per term, so stiff
    rates cost nothing in accuracy.
    """
    step = forcing.step

    def apply_kernel(term):
        nxt = np.zeros_like(term)
        for b, w in zip(rates, weights):
            nxt += w * convolve_exp(b, term, step)
        return coeff * nxt

    return _series(apply_kernel, forcing, tol)


def volterra_march(kernel: GridFunction, forcing: GridFunction, coeff) -> GridFunction:
    """Second-kind Volterra solve of xi = forcing + coeff (kernel*xi).

    Left-to-right trapezoid marching; independent of the series route
    and usable when the series does not contract.
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
