"""The scale route at every d.

At d = 0 and d = inf scale_ratio gives the closed EndRatio for either
claim law: its exponents and weights (W's roots for Exp(mu) claims at
d = 0, none for a table; rho with unit weight at d = inf), slope, Phi_d
and w_d (with its slope at d = 0) are checked against their closed
forms. The rest of this file is the route at 0 < d < inf.

scale.scale_ratio gives Lambda's exponents and weights, the
continuation slope Lambda'(0)/Lambda(0) and
u(d) = int_0^inf Phi_d(y) mu e^{-mu y} dy. They are checked against
scale_oracle.py, an independent copy of the formulas on a fixed Simpson
grid, which also gives Phi_d(y) = Lambda(-y)/Lambda(0) below zero and
u(d) from its own moments; and far out in d, where the unscaled moments
would overflow, against the d = inf limits rho and mu / (mu + rho).
scale.phi, which upcross_table reads for these models, is checked
against the oracle's Phi_d and across the seams of its deficit blocks.

Exp(mu) claims at sigma = 0 take the same route: given S_d, X_d is a
point, so each deficit's moments run over the claim totals below
c d - y. There u(d) is checked against expmodel's closed series and its
d = inf limit, the quadrature's node count on a long deficit grid, and
Phi_d at the drift reach c d, where only the claim-free atom is left.

For a claim table scale_ratio gives a TableRatio, built from W (the
exit equation's d = 0 solution on the table's lattice) and the law of
X_d there; it is checked against the same oracle on an Exp(1) table.
At sigma = 0 a table takes the same TableRatio; tests/test_firstpassage.py
checks it against the Exp(1) route. W carries the table's Lundberg
residual at rho, so at sigma > 0 too Phi_d sits at the lattice's own
distance from the Exp(1) route. A table's Poisson-weighted claim
powers, summed in one tilted transform (gridmath.power_sum), are checked
against the per-power loop of cached convolutions they replace.
"""

import functools
import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import expmodel, gridmath, hfun, scale
from divbarrier.firstpassage import upcross_table, upcross_transform
from divbarrier.gridmath import power_sum

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


@pytest.mark.parametrize("d,most", [(0.05, 257), (1.0, 257), (2.0, 257), (1000.0, 2049)])
def test_moments_take_a_few_hundred_nodes(monkeypatch, d, most):
    # the moments' integrand is analytic in the claim total, so
    # Clenshaw-Curtis meets the 1e-13 relative stop at 129-257 nodes,
    # where composite Simpson took 4,097-8,193 (2,049 at d = 1000,
    # against Simpson's 1,025); slope and u(d) against the oracle's
    # fixed Simpson grid, at the grid step that resolves S_d at d = 0.05
    nodes = []

    def counted(fun, *args, **kwargs):
        return gridmath.adaptive_cc(lambda s: nodes.append(len(s)) or fun(s), *args, **kwargs)

    monkeypatch.setattr(scale, "adaptive_cc", counted)
    route = scale.scale_ratio(make_model(d, sigma=0.5))
    assert 0 < sum(nodes) <= most
    if d < 1000.0:
        t, wts = _oracle(d)
        lam_0, lam_1 = (float(scale_oracle.scale_w(t, wts, 0.0, k)) for k in (0, 1))
        assert abs(route.slope - lam_1 / lam_0) < 1e-12
        u = scale_oracle.recovery_weight(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, d, s_step=2.5e-4)
        assert abs(route.u - u) < 1e-12


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


@pytest.mark.parametrize("d", [0.05, 2.0])
def test_drift_only_u_matches_the_closed_series(d):
    # at sigma = 0 X_d = c d - S_d is a point given S_d, and u(d) comes
    # from the same moments; expmodel's closed series is the oracle
    m = make_model(d)
    assert abs(scale.scale_ratio(m).u - expmodel.u_of_d(m, d)) < 1e-14


def test_drift_only_long_clock_reaches_the_infinite_limit():
    # measured 1.1e-16 off mu / (mu + rho) at d = 1000, where the closed
    # series is 9.7e-15 off
    m = make_model(1000.0)
    assert abs(scale.scale_ratio(m).u - 1.0 / (1.0 + m.rho)) < 1e-15


@pytest.mark.parametrize("d", [0.0533, 0.40002, 2.0, 50.0])
def test_drift_only_blocks_take_a_few_hundred_nodes(monkeypatch, d):
    # each deficit's claim totals run over [0, c d - y], mapped onto
    # [0, 1]; X_d - y is clipped at 0 there, not cut by an indicator,
    # which would put a jump at the end of every row and run each block
    # to the 2^19-node cap. Measured 129 nodes at d <= 2, 257 at d = 50
    blocks = []

    def counted(fun, *args, **kwargs):
        nodes = []
        out = gridmath.adaptive_cc(lambda s: nodes.append(len(s)) or fun(s), *args, **kwargs)
        blocks.append(sum(nodes))
        return out

    monkeypatch.setattr(scale, "adaptive_cc", counted)
    ys = np.arange(0.0, 30.0 + 1e-2, 2e-2)
    vals, k, bound = scale.phi(make_model(d), d, ys)
    live = int(np.sum(ys <= 15.0 * d))
    assert len(blocks) == -(-live // scale._BLOCK)
    assert 0 < max(blocks) <= 257
    assert k == 0 and 0.0 < bound < 1e-12 and np.all(vals[live:] == 0.0)


@pytest.mark.parametrize("d", [0.4, 2.0])
def test_drift_only_kink_at_the_drift_reach(d):
    # at y = c d only the claim-free atom climbs back, just in time:
    # e^{-(lam + q) d}; one ulp past c d nothing does. scale_oracle cuts
    # at X_d > y and reads 0 at y = c d, so it is not compared here
    m = make_model(d)
    cd = m.c * d
    at = upcross_transform(m, cd, d).value
    assert abs(at / math.exp(-(m.lam + m.q) * d) - 1.0) < 1e-14
    assert upcross_transform(m, float(np.nextafter(cd, math.inf)), d).value == 0.0


def _end_model(sigma, d, claims):
    dist = (db.tabulated_exponential(1.0, step=1e-2) if claims == "tab"
            else db.ExponentialClaims(1.0))
    return db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d), dist)


@pytest.mark.parametrize("claims", ["exp", "tab"])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_infinite_clock_route_is_closed(sigma, claims):
    # Lambda = e^{rho x}: one exponent rho with unit weight, slope rho,
    # Phi_d = e^{-rho y}, and w_d = T_rho f
    m = _end_model(sigma, math.inf, claims)
    route = scale.scale_ratio(m)
    assert isinstance(route, scale.EndRatio)
    assert list(route.t) == [m.rho] and list(route.weights) == [1.0]
    assert route.slope == m.rho
    ys = np.array([0.0, 0.3, 2.5])
    assert np.array_equal(route.phi(ys), np.exp(-m.rho * ys))
    assert scale.phi(m, math.inf, ys)[1:] == (0, 0.0)
    xs = np.array([0.0, 0.0137, 0.5, 4.0])
    assert np.array_equal(route.w_reader()(xs), m.claims.tail_transform(m.rho, xs))


@pytest.mark.parametrize("claims", ["exp", "tab"])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_no_delay_route_is_closed(sigma, claims):
    # Lambda = W: W's roots and weights for Exp(mu) claims, none for a
    # table, whose W is a renewal solve; no continuation slope,
    # Phi_d = 1{y = 0} and w_d = 0 with slope 0
    m = _end_model(sigma, 0.0, claims)
    route = scale.scale_ratio(m)
    assert isinstance(route, scale.EndRatio) and route.slope is None
    if claims == "exp":
        t, wts = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, sigma, 1.0)
        order = np.argsort(route.t)
        np.testing.assert_allclose(route.t[order], t, rtol=1e-12)
        np.testing.assert_allclose(route.weights[order], wts, rtol=1e-10)
    else:
        assert route.t is None and route.weights is None
    ys = np.array([0.0, 1e-9, 0.3])
    assert list(route.phi(ys)) == [1.0, 0.0, 0.0]
    assert scale.phi(m, 0.0, ys)[1:] == (0, 0.0)
    xs = np.array([0.0, 0.5, 4.0])
    read = route.w_reader()
    assert np.array_equal(read(xs), np.zeros(3)) and np.array_equal(read(xs, 1), np.zeros(3))


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
    # solves; against the oracle's W on [0, 2], measured 8.5e-7 off
    m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 0.0), tab_dist)
    w, _ = scale._scale_w(m, 2000, 1e-3)
    t, wts = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, 0.5, 1.0)
    want = scale_oracle.scale_w(t, wts, 1e-3 * np.arange(2001))
    assert w[0] == 0.0
    assert np.max(np.abs(w / w[-1] - want / want[-1])) < 2e-6


@pytest.mark.parametrize("sigma,step", [(0.0, 1e-3), (0.5, 1e-4)])
def test_table_w_is_the_exit_solve_at_no_delay(tab_dist, sigma, step):
    # the exit function at d = 0 and W solve one exit equation, so h is
    # W/W(a) on the same grid (measured 1.1e-16 at sigma = 0, 0 at 0.5)
    m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, 0.0), tab_dist)
    h = (hfun.h_d_sigma0 if sigma == 0.0 else hfun.h_d_sigma_pos)(m, 1.0, step)
    assert h.grid.step == step
    w, _ = scale._scale_w(m, len(h.grid.values) - 1, step)
    assert np.max(np.abs(h.grid.values - w / w[-1])) <= 1e-15


@functools.lru_cache(maxsize=None)
def _table(mu, step):
    # one table per (mu, step), so its cached powers serve every d
    return db.tabulated_exponential(mu, step=step)


@pytest.mark.parametrize("step", [1e-2, 1e-3])
def test_table_w_grows_at_the_linear_readings_rate(step):
    # model.rho is the root of the table's linear reading, the one T_rho f
    # is exact for, so W grows at the Exp(1) rate; and at sigma 0.5, d = 2
    # the claim total passes the table end at 30 (c d + 12 sigma sqrt(d)
    # is 38.5), so its law needs the claim powers past it. Measured 3.1e-9
    # (1e-2 table) and 1.1e-11 (1e-3 table). A trapezoid root without a
    # kernel patch for it put Phi_d up to 3.9e-6 off, and powers cut at
    # the table end 2.5e-7 off, while tail_bound read 1.8e-12
    ys = np.array([0.3, 0.5, 1.0, 2.0])
    params = db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 2.0)
    table = db.validate(params, _table(1.0, step))
    exact = db.validate(params, db.ExponentialClaims(1.0))
    gap = np.max(np.abs(upcross_table(table, 2.0, ys) - upcross_table(exact, 2.0, ys)))
    assert gap < 1e-8


@pytest.mark.parametrize("mu,step", [(1.0, 1e-3), (1.15, 1e-3), (1.0, 1e-2), (1.15, 1e-2)])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("d", [0.05, 0.4, 2.0])
def test_table_claim_sum_matches_the_per_power_loop(mu, step, sigma, d):
    # the K Poisson-weighted claim powers on the table nodes TableRatio
    # reads, against sum_k w_k f^{*k} over the cached powers; measured
    # within 2.4e-13 of the sum's largest value. The tolerance is
    # TableRatio's for a scale of 100, tighter than these models' (0.7
    # to 78)
    dist = _table(mu, step)
    m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d), dist)
    table = scale.TableRatio(m, d)
    rate, top = m.lam * m.r * d, min(table._n, dist.grid.n)
    weights = [math.exp(k * math.log(rate) - math.lgamma(k + 1) - rate)
               for k in range(1, table.truncation_k + 1)]
    want = sum(w * dist._power_values(k)[:top + 1] for k, w in enumerate(weights, 1))
    f, fmax = dist.grid.values[:top + 1], float(np.max(dist.grid.values))
    log_tol = math.log(scale.K_TAIL_TOL * fmax / 100.0) - rate
    got, log_alias = power_sum(f, step, weights, log_tol)
    assert log_alias <= log_tol
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    # a tolerance of e^{700} cuts the length to the shortest fast one past
    # the nodes, and the wrap-around shows, within its reported bound
    short, log_alias = power_sum(f, step, weights, 700.0)
    gap = np.max(np.abs(short - want))
    assert 1e-9 * np.max(want) < gap <= math.exp(log_alias)
