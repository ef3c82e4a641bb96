"""The scale route at sigma > 0 and 0 < d < inf.

scale.scale_ratio gives Lambda's exponents and weights, the
continuation slope Lambda'(0)/Lambda(0) and
u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy. They are checked against
scale_oracle.py, an independent copy of the formulas on a fixed Simpson
grid, which also gives Phi_d(y) = Lambda(-y)/Lambda(0) below zero and
u(d) from its own moments; and far out in d, where the unscaled moments
would overflow, against the d = inf limits rho and mu / (mu + rho).
scale.phi, which upcross_table reads for these models, is checked
against the oracle's Phi_d and across the seams of its deficit blocks.

For a claim table scale_ratio gives a TableRatio, built from W (the
exit equation's d = 0 solution on the table's lattice) and the law of
X_d there; it is checked against the same oracle on an Exp(1) table.
At sigma = 0 a table takes the same TableRatio; tests/test_firstpassage.py
checks it against the Exp(1) route.
"""

import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import scale
from divbarrier.firstpassage import upcross_table

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
def test_phi_matches_the_oracle(d):
    # Phi_d = Lambda(-y)/Lambda(0) at a deficit near 0, one inside the
    # drift reach c d and one past it, and u(d), against the oracle's
    # fixed Simpson grid; measured within 1.5e-14 at an s step of 2e-3
    # (2e-2 at d = 50, where S_d spreads over hundreds)
    m = make_model(d, sigma=0.5)
    ys = np.array([0.02, 1.0, m.c * d + 0.3])
    s_step = 2e-3 * max(1.0, d / 5.0)
    args = (10.0, 15.0, 0.1, 0.8, 0.5, 1.0, d)
    want = scale_oracle.recovery(*args, ys, s_step=s_step)
    assert np.max(np.abs(upcross_table(m, d, ys) - want)) < 1e-12
    u = scale_oracle.recovery_weight(*args, s_step=s_step)
    assert abs(scale.scale_ratio(m).u - u) < 1e-12


def test_blocks_do_not_change_the_answer():
    # a grid is cut into blocks of scale._BLOCK deficits, each its own
    # quadrature headed by y = 0; one deficit alone is a block of one
    m = make_model(0.4, sigma=0.5)
    ys = np.linspace(0.0, 8.0, 2 * scale._BLOCK + 9)
    grid, k, bound = scale.phi(m, 0.4, ys)
    assert k == 0 and 0.0 < bound < 1e-12
    for i in (1, scale._BLOCK - 1, scale._BLOCK, 2 * scale._BLOCK, len(ys) - 1):
        one, _, one_bound = scale.phi(m, 0.4, ys[i:i + 1])
        assert abs(one[0] - grid[i]) <= bound + one_bound, ys[i]


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
                                            (0.5, math.inf, "exp"), (0.0, 0.0, "tab")])
def test_other_models_are_refused(sigma, d, claims):
    dist = (db.tabulated_exponential(1.0, step=1e-2) if claims == "tab"
            else db.ExponentialClaims(1.0))
    m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d), dist)
    with pytest.raises(ValueError):
        scale.scale_ratio(m)


@pytest.mark.parametrize("d", [0.05, 1.0])
def test_table_matches_the_oracle(tab_dist, d):
    # the 1e-3 Exp(1) table against the oracle's Exp(1) Lambda: measured
    # slope 2.8e-6 and 2.9e-8 off, Phi_d 2.3e-5 and 7.3e-8, h on [0, 0.8]
    # 3.5e-7 and 2.6e-8; all O(step^2)
    m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, d), tab_dist)
    table = scale.scale_ratio(m)
    assert isinstance(table, scale.TableRatio)
    args = (10.0, 15.0, 0.1, 0.8, 0.5, 1.0, d)
    t, wts = scale_oracle.exit_weights(*args, s_step=2.5e-4)
    slope = float(scale_oracle.scale_w(t, wts, 0.0, 1) / scale_oracle.scale_w(t, wts, 0.0))
    assert abs(table.slope - slope) < 5e-6
    ys = np.array([0.02, 0.5, 1.0, m.c * d + 0.3])
    want = scale_oracle.recovery(*args, ys, s_step=2e-3)
    assert np.max(np.abs(table.phi(ys) - want)) < 5e-5
    xs = np.linspace(0.0, 0.8, 801)
    want = scale_oracle.scale_w(t, wts, xs) / scale_oracle.scale_w(t, wts, 0.8)
    assert np.max(np.abs(table.ratio(xs, 0.8) - want)) < 1e-6


def test_table_w_is_the_scale_function(tab_dist):
    # W is the exit equation's d = 0 solution (xi(0) = 0, xi'(0) = 1) on
    # the table's lattice, by the kernel and forcing h_d_sigma_pos
    # solves; against the oracle's W on [0, 2], measured 8.3e-7 off
    m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 0.0), tab_dist)
    w = scale._scale_w(m, 2000, 1e-3)
    t, wts = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, 0.5, 1.0)
    want = scale_oracle.scale_w(t, wts, 1e-3 * np.arange(2001))
    assert w[0] == 0.0
    assert np.max(np.abs(w / w[-1] - want / want[-1])) < 2e-6
