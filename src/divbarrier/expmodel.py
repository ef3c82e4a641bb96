"""Closed forms for exponential claims with no diffusion term.

With claim density mu e^{-mu x} and sigma = 0 the two-sided-exit
function has an explicit convolution series. Writing b = rho + mu,
I_n(x) = int_0^x y^{n-1} e^{-b y} dy and
cf_n = (lam r mu)^n / ((n-1)! c^n b^n), the no-delay function is

    theta(x) = e^{rho x} + sum_n cf_n e^{rho x} I_n(x)

and the delayed one (grace period d > 0) is

    varrho(x) = e^{rho x} - kappa (e^{rho x} - e^{-mu x})
              + sum_n cf_n [ (1-kappa) e^{rho x} I_n(x)
                             + kappa x^n e^{-mu x} / n ],

kappa = lam r u(d) / (c b), where u(d) is the reach-back weight

    u(d) = sum_{k>=0} r^k lam^k (mu c)^{k+1} / (k! (k+1)!)
           * int_0^d t^{2k} e^{-(lam+q+mu*c) t} dt.

The k = 0 term is the no-claim recovery mass; dropping it is a known
way to get this series wrong (see the acceptance-test diagnostics).
Inner integrals reduce to regularized lower incomplete gammas at
integer order, P(n, z) = sum_{m>=n} e^{-z} z^m / m!, read from
scipy.special.gammainc; all power sums run in plain recursions with
nonnegative terms. Each series stops where its own bound on the terms
left out falls below SERIES_TOL, with no term cap.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

SERIES_TOL = 1e-14


@dataclass(frozen=True)
class ExpClosedForms:
    mu: float
    rho: float
    u_d: float
    series_truncation: int
    tail_bound: float


def _require_exp_sigma0(model):
    if model.claims.kind != "exponential":
        raise ValueError("closed forms require exponential claims")
    if model.sigma != 0:
        raise ValueError("closed forms require sigma = 0")


def u_of_d(model, d):
    """Reach-back weight of the below-zero continuation at level 0."""
    return _u_closed(model, d).u_d


def _u_closed(model, d) -> ExpClosedForms:
    _require_exp_sigma0(model)
    mu = model.claims.mu
    lam, c, q, r = model.lam, model.c, model.q, model.r
    rho = model.rho
    if d < 0:
        raise ValueError("negative delay")
    if d == 0:
        return ExpClosedForms(mu=mu, rho=rho, u_d=0.0, series_truncation=0, tail_bound=0.0)
    if math.isinf(d):
        # Phi_inf(y) = e^{-rho y}, so u = int_0^inf e^{-rho y} mu e^{-mu y} dy
        return ExpClosedForms(mu=mu, rho=rho, u_d=mu / (mu + rho),
                              series_truncation=0, tail_bound=0.0)
    gam = lam + q + mu * c
    # amplitude k+1 over amplitude k is (r lam mu c / gam^2) 2(2k+1)/(k+2),
    # below ratio, which q > 0 keeps below 1; P(2k+1, gam d) falls with k,
    # so term * ratio / (1 - ratio) bounds every term left out
    ratio = 4.0 * r * lam * mu * c / (gam * gam)
    ln_rlam, ln_muc, ln_gam = math.log(r * lam), math.log(mu * c), math.log(gam)
    total = 0.0
    k = 0
    while True:
        ln_t = (k * ln_rlam + (k + 1) * ln_muc + math.lgamma(2 * k + 1)
                - math.lgamma(k + 1) - math.lgamma(k + 2) - (2 * k + 1) * ln_gam)
        term = math.exp(ln_t) * float(gammainc(2 * k + 1, gam * d))
        total += term
        tail = term * ratio / (1.0 - ratio)
        if tail < SERIES_TOL:
            break
        k += 1
    return ExpClosedForms(mu=mu, rho=rho, u_d=total,
                          series_truncation=k + 1, tail_bound=tail)


def _series_eval(model, x, kappa):
    """Value and first two derivatives of the exit series at x (array ok).

    kappa = 0 gives theta; kappa from u(d) gives varrho. Everything is
    term-wise per the series displays in the module docstring.
    """
    _require_exp_sigma0(model)
    mu = model.claims.mu
    lam, c, r = model.lam, model.c, model.r
    rho = model.rho
    b = rho + mu
    alpha = lam * r * mu / (c * b)       # cf_1; cf_n = alpha^n / (n-1)!
    w = alpha / b                        # cf_n * Gamma(n)/b^n = w^n

    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("series defined for x >= 0")

    # enough terms that the bound w^n P(n, b x) / (1 - w) on the rest of
    # sum_n w^n P(n, b x) and the term (alpha x)^n / n! are below
    # tolerance; w < 1, as the Lundberg equation gives q <= c rho
    xm = float(np.max(x)) if len(x) else 0.0
    ln_ax, ln_tol = math.log(alpha * max(xm, 1.0)), math.log(SERIES_TOL)
    nmax = 30
    while (w ** nmax * gammainc(nmax, b * xm) / (1.0 - w) > SERIES_TOL
           or nmax * ln_ax - math.lgamma(nmax + 1) > ln_tol):
        nmax += 10

    P = gammainc(np.arange(1, nmax + 1)[:, None], b * x)   # P(n, bx), one row per n
    wn = w ** np.arange(1, nmax + 1)
    sumWP = np.tensordot(wn, P, axes=(0, 0))        # sum_n w^n P(n, bx)

    # S_a = sum cf_n x^{n-1}; S_b = sum cf_n (n-1) x^{n-2}; S_c = sum cf_n x^n / n
    t = np.full_like(x, alpha)                      # n = 1 term of S_a
    Sa = t.copy()
    Sb = np.zeros_like(x)
    u = alpha * x                                   # n = 1 term of S_c
    Sc = u.copy()
    v = np.full_like(x, alpha * alpha)              # n = 2 term of S_b
    Sb += v
    for n in range(2, nmax + 1):
        t = t * alpha * x / (n - 1)
        Sa += t
        u = u * alpha * x / n
        Sc += u
        if n >= 3:
            v = v * alpha * x / (n - 2)
            Sb += v

    erx = np.exp(rho * x)
    emx = np.exp(-mu * x)
    ok = 1.0 - kappa

    val = ok * erx * (1.0 + sumWP) + kappa * emx * (1.0 + Sc)
    d1 = ok * rho * erx * (1.0 + sumWP) - kappa * mu * emx \
        + emx * Sa - kappa * mu * emx * Sc
    d2 = ok * rho * rho * erx * (1.0 + sumWP) + kappa * mu * mu * emx \
        + (ok * rho - mu - kappa * mu) * emx * Sa + emx * Sb \
        + kappa * mu * mu * emx * Sc
    return val, d1, d2


def vartheta(model, x):
    """No-delay exit series theta(x)."""
    v, _, _ = _series_eval(model, x, 0.0)
    return float(v[0]) if np.ndim(x) == 0 else v


def _kappa(model, d):
    mu = model.claims.mu
    rho = model.rho
    return model.lam * model.r * u_of_d(model, d) / (model.c * (rho + mu))


def varrho(model, x, d):
    """Delayed exit series varrho(x) for grace period d > 0."""
    if d <= 0:
        raise ValueError("varrho needs d > 0; use vartheta at d = 0")
    v, _, _ = _series_eval(model, x, _kappa(model, d))
    return float(v[0]) if np.ndim(x) == 0 else v


def exp_series(model, x, d):
    """(value, d1, d2) of the exit series for delay d (0 allowed).

    Each is an array, of length one for a scalar x.
    """
    kap = 0.0 if d == 0 else _kappa(model, d)
    return _series_eval(model, x, kap)


def exp_optimal_barrier(model, d, a_max=5.0, scan_step=1e-3):
    """Barrier from the closed forms: smallest interior zero of the
    second derivative, else the boundary argmin of the first.

    Returns (a_star, boundary, alternatives).
    """
    kap = 0.0 if d == 0 else _kappa(model, d)

    def d2(xx):
        _, _, v2 = _series_eval(model, xx, kap)
        return v2

    xs = np.arange(0.0, a_max + scan_step / 2, scan_step)
    vals = d2(xs)
    roots = []
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        lo, hi = xs[i], xs[i + 1]
        flo = vals[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = float(d2(np.array([mid]))[0])
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-12:
                break
        roots.append(0.5 * (lo + hi))
    exact_hits = [float(xs[i]) for i in np.nonzero(vals == 0.0)[0] if xs[i] > 0]
    roots = sorted(set(roots + exact_hits))
    if roots:
        return roots[0], False, roots
    # no interior zero: boundary optimum at the argmin of the slope
    _, d1vals, _ = _series_eval(model, xs, kap)
    j = int(np.argmin(d1vals))
    if j == len(xs) - 1:
        raise ValueError("slope argmin at the right edge; enlarge a_max")
    return float(xs[j]), True, []


def exp_value_function(model, d, x, barrier=None, a_max=5.0):
    """Barrier-strategy value from the closed forms.

    Picks the barrier from the series curvature unless one is forced.
    Below the barrier v = series(x)/series'(a); above it the value
    grows with slope one.
    """
    if barrier is None:
        a, _, _ = exp_optimal_barrier(model, d, a_max=a_max)
    else:
        a = float(barrier)
    va_arr, d1a, _ = exp_series(model, np.array([a]), d)
    slope = float(d1a[0])
    if slope <= 0:
        raise ValueError("degenerate barrier slope")
    va = float(va_arr[0]) / slope
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)
    below = x_arr <= a
    if np.any(below):
        vb, _, _ = exp_series(model, x_arr[below], d)
        out[below] = vb / slope
    out[~below] = x_arr[~below] - a + va
    return float(out[0]) if np.ndim(x) == 0 else out
