"""Root of the fundamental equation governing first-passage transforms.

psi_r(s) = sigma^2 s^2 / 2 + c s - lam + lam r fhat(s) is convex on
[0, inf) with psi_r(0) = lam(r-1) <= 0 < q, so psi_r(s) = q has a
unique nonnegative root rho. Downstream series are exponentially
sensitive to rho, so the solve targets the equation residual, not the
argument.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class LundbergRoot:
    rho: float
    residual: float
    iterations: int


def psi_r(model, alpha):
    p = model.params
    return 0.5 * p.sigma ** 2 * alpha * alpha + p.c * alpha - p.lam \
        + p.lam * p.r * model.claims.laplace(alpha)


RESIDUAL_TOL = 1e-12


def lundberg_root(model) -> LundbergRoot:
    """Unique nonnegative root of psi_r(s) = q, |residual| <= 1e-12.

    Bracket by doubling, then safeguarded Newton (numeric slope) with
    bisection fallback whenever a step leaves the bracket.
    """
    q = model.params.q

    def g(s):
        return psi_r(model, s) - q

    lo, glo = 0.0, g(0.0)
    if glo > 0:
        raise RuntimeError("defensive: psi_r(0) - q should be negative for a valid model")
    hi = 1.0
    it = 0
    while g(hi) < 0:
        hi *= 2.0
        it += 1
        if hi > 1e12:
            raise RuntimeError("defensive: no sign change found while bracketing")
    s = 0.5 * (lo + hi)
    for _ in range(200):
        it += 1
        gs = g(s)
        if abs(gs) <= RESIDUAL_TOL:
            return LundbergRoot(rho=s, residual=gs, iterations=it)
        if gs > 0:
            hi = s
        else:
            lo = s
        # numeric slope on a scale tied to the bracket
        h = max(1e-9, 1e-7 * (hi - lo))
        slope = (g(s + h) - g(s - h)) / (2 * h)
        if slope > 0:
            step = s - gs / slope
        else:
            step = 0.5 * (lo + hi)
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        s = step
    gs = g(s)
    if abs(gs) <= 10 * RESIDUAL_TOL:
        return LundbergRoot(rho=s, residual=gs, iterations=it)
    raise RuntimeError("root refinement stalled; residual %.3e" % gs)
