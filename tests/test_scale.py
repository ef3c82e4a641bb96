"""The scale route for exponential claims at sigma > 0 and 0 < d < inf.

scale.scale_ratio gives Lambda's exponents and weights, the
continuation slope Lambda'(0)/Lambda(0) and
u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy. They are checked against
scale_oracle.py, an independent copy of the formulas on a fixed Simpson
grid; against the Phi grid route the diffusion solver used before (Phi_d
from upcross_table on the 2e-2 deficit grid, the 3rd-order stencil for
the slope and a Simpson sum for u); and far out in d, where the
unscaled moments would overflow, against the d = inf limits rho and
mu / (mu + rho).
"""

import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import scale
from divbarrier.firstpassage import upcross_table
from divbarrier.gridmath import simpson_weights

from conftest import make_model
import scale_oracle


def _oracle(d):
    return scale_oracle.exit_weights(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, d, s_step=2.5e-4)


@pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 1.0, 2.0])
def test_matches_the_oracle(d):
    # measured within 1e-15 on the slope
    route = scale.scale_ratio(make_model(d, sigma=0.5))
    t, wts = _oracle(d)
    lam_0, lam_1 = (float(scale_oracle.scale_w(t, wts, 0.0, k)) for k in (0, 1))
    slope = lam_1 / lam_0
    assert abs(route.slope - slope) < 1e-12
    np.testing.assert_allclose(np.sort(route.t), t, rtol=1e-12)
    xs = np.linspace(0.0, 1.5, 31)
    want = scale_oracle.scale_w(t, wts, xs) / scale_oracle.scale_w(t, wts, 1.5)
    assert np.max(np.abs(route.ratio(xs, 1.5) - want)) < 1e-12


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 50.0])
def test_matches_the_phi_grid_route(d):
    # the slope and u(d) the solver read off the Phi grid before the scale
    # route; measured 6.4e-8 / 1.0e-7 at d = 0.5 and at most 7.1e-9 from
    # d = 1 to 50, the grid's own error
    m = make_model(d, sigma=0.5)
    step = 2e-2
    ys = np.arange(0.0, m.claims.reach + step / 2, step)
    phi = upcross_table(m, d, ys)
    slope = float(np.array([11.0, -18.0, 9.0, -2.0]) / 6.0 @ phi[:4]) / step
    u = float(simpson_weights(len(ys), step) @ (phi * np.exp(-ys)))
    route = scale.scale_ratio(m)
    assert abs(route.slope - slope) < 2e-7
    assert abs(route.u - u) < 2e-7


@pytest.mark.parametrize("d", [190.0, 1000.0])
def test_long_clock_reaches_the_infinite_limit(d):
    # taken one by one, the Gaussian moment's factor e^{rho c d}
    # overflows from d near 190 and the atom e^{-lam r d} underflows from
    # d near 93; M(rho) itself grows like e^{(q + lam(1 - r)) d}
    m = make_model(d, sigma=0.5)
    route = scale.scale_ratio(m)
    assert route.slope == pytest.approx(m.rho, rel=1e-12)
    assert route.u == pytest.approx(1.0 / (1.0 + m.rho), rel=1e-12)


@pytest.mark.parametrize("sigma,d,claims", [(0.0, 1.0, "exp"), (0.5, 0.0, "exp"),
                                            (0.5, math.inf, "exp"), (0.5, 1.0, "tab")])
def test_other_models_are_refused(sigma, d, claims):
    dist = (db.tabulated_exponential(1.0, step=1e-2) if claims == "tab"
            else db.ExponentialClaims(1.0))
    m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d), dist)
    with pytest.raises(ValueError):
        scale.scale_ratio(m)
