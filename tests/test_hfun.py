"""Exit-function construction on the solver grid.

For exponential claims with sigma = 0 the general pipeline must land
on the closed series ratios, which is the main correctness anchor:

    h(x) = theta(x) / theta(a)              at d = 0
    h(x) = varrho(x; d) / varrho(a; d)      at d > 0

With sigma > 0 the scale-function oracle in scale_oracle.py pins the
construction: h = e^{-rho (a - x)} at d = inf, W(x)/W(a) at d = 0,
and at d = 1 the slope at 0 is Lambda'(0)/Lambda(0). The certificate
(equation residual and interface mismatch) must sit far below the
acceptance floor at the imposed slope and blow through it when that
slope is perturbed.
"""

import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import expmodel, firstpassage, hfun
from divbarrier.gridmath import GridFunction, NonConvergenceError
from divbarrier.hfun import (
    HFunction,
    h_callable,
    h_d_sigma0,
    h_d_sigma_pos,
    ide_residual,
    w_d,
)
from divbarrier.lundberg import lundberg_root

from conftest import make_model
import scale_oracle

U_2 = 0.8032410060529585
A = 0.7693


class TestSigma0ClosedFormAgreement:
    def test_no_delay_ratios(self, m_d0):
        h = h_d_sigma0(m_d0, A, step=1e-4)
        xs = h.grid.x
        za = expmodel.vartheta(m_d0, A)
        assert np.max(np.abs(h.grid.values - expmodel.vartheta(m_d0, xs) / za)) < 1e-8
        _, th1, th2 = expmodel.exp_series(m_d0, xs, 0.0)
        assert np.max(np.abs(h.hp.values - th1 / za)) < 1e-8
        assert np.max(np.abs(h.hpp.values - th2 / za)) < 1e-7

    def test_delay_two_ratios(self, m_d2):
        h = h_d_sigma0(m_d2, A, step=1e-4)
        xs = h.grid.x
        za = expmodel.varrho(m_d2, A, 2.0)
        assert np.max(np.abs(h.grid.values
                             - expmodel.varrho(m_d2, xs, 2.0) / za)) < 1e-6
        assert np.max(np.abs(h.hp.values
                             - expmodel.exp_series(m_d2, xs, 2.0)[1] / za)) < 1e-6

    def test_normalization_and_residual(self, m_d0):
        h = h_d_sigma0(m_d0, A, step=1e-4)
        assert h.grid.values[-1] == 1.0
        assert h.a == A
        assert h.xi_prime_zero is None
        assert h.ide_residual < 1e-7
        assert ide_residual(m_d0, h) == pytest.approx(h.ide_residual, rel=1e-9)

    def test_grid_snaps_to_barrier(self, m_d0):
        h = h_d_sigma0(m_d0, 0.77777, step=1e-4)
        assert h.grid.hi == pytest.approx(0.77777, abs=1e-12)

    def test_requires_flat_volatility_and_positive_barrier(self, m_d0):
        with pytest.raises(ValueError):
            h_d_sigma0(make_model(0.0, sigma=0.5), A)
        with pytest.raises(ValueError):
            h_d_sigma0(m_d0, 0.0)

    def test_coarse_step_residual_is_gated(self, m_d0):
        # at step 0.1 the equation residual is ~1e-2, far above the gate
        with pytest.raises(NonConvergenceError) as info:
            h_d_sigma0(m_d0, A, step=0.1)
        assert info.value.last_norm > 1e-4

    def test_tabulated_matches_exponential(self, tab_dist):
        for d in (0.0, 2.0):
            mt = db.validate(
                db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d), tab_dist)
            me = make_model(d)
            ht = h_d_sigma0(mt, A, step=2e-4)
            he = h_d_sigma0(me, A, step=2e-4)
            assert np.max(np.abs(ht.grid.values - he.grid.values)) < 1e-6
            assert np.max(np.abs(ht.hp.values - he.hp.values)) < 1e-6


class TestReachBackForcing:
    def test_no_delay_vanishes(self, m_d0):
        xs = np.linspace(0.0, 2.0, 9)
        assert np.all(w_d(m_d0, xs) == 0.0)

    def test_exponential_shape(self, m_d2):
        assert w_d(m_d2, 0.0) == pytest.approx(U_2, abs=1e-12)
        xs = np.array([0.0, 0.4, 1.1])
        np.testing.assert_allclose(
            w_d(m_d2, xs), U_2 * np.exp(-xs), rtol=1e-12)

    def test_rejects_negative_argument(self, m_d2):
        with pytest.raises(ValueError):
            w_d(m_d2, -0.1)

    def test_tabulated_route_matches_closed_form(self, tab_dist):
        mt = db.validate(
            db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 2.0), tab_dist)
        xs = np.linspace(0.0, 0.7693, 40)
        got = w_d(mt, xs)
        assert np.max(np.abs(got - U_2 * np.exp(-xs))) < 2e-7


class TestResidualDetector:
    def test_constant_input_is_rejected(self, m_d0):
        # a flat "exit function" violates the equation by at least
        # (lam + q - lam r) once the claim convolution saturates
        n = 2000
        step = A / n
        ones = GridFunction(0.0, A, step, np.ones(n + 1))
        zeros = ones.with_values(np.zeros(n + 1))
        fake = HFunction(grid=ones, hp=zeros, hpp=zeros, a=A,
                         xi_prime_zero=None, ide_residual=0.0)
        res = ide_residual(m_d0, fake)
        assert (10.1 - 8.0) * 0.99 <= res <= 10.1 * 1.01


class TestSigmaPositive:
    def test_infinite_clock_sentinel(self):
        m = make_model(math.inf, sigma=0.5)
        rho = lundberg_root(m).rho
        h = h_d_sigma_pos(m, 1.0, step=1e-5)
        want = np.exp(-rho * (1.0 - h.grid.x))
        assert np.max(np.abs(h.grid.values - want)) < 1e-6
        assert h.ide_residual < 1e-6

    def test_finite_clock_residual(self):
        m = make_model(1.0, sigma=0.5)
        h = h_d_sigma_pos(m, 1.0, step=1e-5)
        assert h.ide_residual < 1e-6
        assert h.xi_prime_zero is not None and h.xi_prime_zero > 0
        assert h.grid.values[-1] == 1.0
        # monotone increasing exit weight
        assert np.all(np.diff(h.grid.values) > 0)

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_imposed_slope_is_certified(self, monkeypatch, factor):
        # every slope solves the equation on (0, a); only the interface
        # check against the continuation can reject a wrong one
        m = make_model(1.0, sigma=0.5)
        h = h_d_sigma_pos(m, 1.0, step=1e-5)
        assert h.ide_residual < 1e-6
        p = h.xi_prime_zero
        monkeypatch.setattr(hfun, "_continuation_slope", lambda model: factor * p)
        with pytest.raises(NonConvergenceError) as info:
            h_d_sigma_pos(m, 1.0, step=1e-5)
        assert info.value.last_norm > 1e-4

    def test_guards(self, m_d0):
        with pytest.raises(ValueError):
            h_d_sigma_pos(m_d0, 1.0)
        m = make_model(1.0, sigma=0.5)
        with pytest.raises(ValueError):
            h_d_sigma_pos(m, -1.0)


class TestScaleFunctionOracle:
    """sigma = 0.5, exponential claims, against scale_oracle."""

    T, WT = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, 0.5, 1.0)

    @pytest.mark.parametrize("claims", ["exp", "tab"])
    def test_infinite_clock_derivatives(self, claims):
        dist = (db.tabulated_exponential(1.0, step=1e-2) if claims == "tab"
                else db.ExponentialClaims(1.0))
        m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, math.inf), dist)
        rho = lundberg_root(m).rho
        h = h_d_sigma_pos(m, 0.5, step=1e-4)
        want = np.exp(-rho * (0.5 - h.grid.x))
        assert np.max(np.abs(h.grid.values - want)) < 1e-7
        assert np.max(np.abs(h.hp.values - rho * want)) < 1e-6
        assert np.max(np.abs(h.hpp.values - rho * rho * want)) < 1e-6

    def test_no_delay_is_scale_function_ratio(self):
        m = make_model(0.0, sigma=0.5)
        h = h_d_sigma_pos(m, 0.5, step=1e-4)
        wx = scale_oracle.scale_w(self.T, self.WT, h.grid.x)
        assert h.grid.values[0] == 0.0
        assert h.xi_prime_zero is None
        assert np.max(np.abs(h.grid.values - wx / wx[-1])) < 1e-7

    def test_no_delay_optimal_barrier(self):
        m = make_model(0.0, sigma=0.5)
        sol = db.optimal_barrier(m, a_max=2.0, grid_step=2e-5)
        want = scale_oracle.w_curvature_root(self.T, self.WT, 0.1, 2.0)
        assert want == pytest.approx(0.785978, abs=1e-6)
        assert abs(sol.a_star - want) < 5e-4
        assert not sol.boundary
        assert sol.hjb_report.passed
        assert sol.value(0.0) == 0.0

    def test_unit_clock_boundary_value(self):
        slope = scale_oracle.continuation_slope(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, 1.0)
        assert slope == pytest.approx(0.24474564, abs=1e-8)
        sol = db.optimal_barrier(make_model(1.0, sigma=0.5), a_max=2.0)
        assert sol.boundary and sol.a_star == 0.0
        assert sol.value(0.0) == pytest.approx(1.0 / slope, rel=1e-4)

    def test_one_transform_per_optimal_barrier(self, monkeypatch):
        # the continuation slope, the w_d forcing and the certificate all
        # read the one memoized Phi grid
        monkeypatch.setattr(hfun, "_CACHE", {})
        calls = []
        real = firstpassage._phi_sigma_pos

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(firstpassage, "_phi_sigma_pos", counted)
        # a module that imported the name itself is counted too
        monkeypatch.setattr(hfun, "_phi_sigma_pos", counted, raising=False)
        db.optimal_barrier(make_model(1.0, sigma=0.5), a_max=2.0)
        assert len(calls) == 1


class TestWholeLineEvaluator:
    def test_inside_matches_grid(self, m_d2):
        h = h_d_sigma0(m_d2, A, step=1e-3)
        fun = h_callable(m_d2, h)
        xs = np.array([0.0, 0.2, 0.6, A])
        np.testing.assert_allclose(fun(xs), h.grid.interp(xs), rtol=1e-12)

    def test_above_barrier_rejected(self, m_d2):
        h = h_d_sigma0(m_d2, A, step=1e-3)
        fun = h_callable(m_d2, h)
        with pytest.raises(ValueError):
            fun(A + 0.1)

    def test_negative_side_continuation(self, m_d2):
        h = h_d_sigma0(m_d2, A, step=1e-3)
        fun = h_callable(m_d2, h)
        x = -0.4
        want = h.grid.values[0] * db.upcross_transform(m_d2, 0.4, 2.0).value
        assert fun(x) == pytest.approx(want, rel=1e-10)
        # beyond the kinematic reach of the grace period: dead
        assert fun(-(15.0 * 2.0) - 1.0) == 0.0

    def test_no_delay_negative_side_is_zero(self, m_d0):
        h = h_d_sigma0(m_d0, A, step=1e-3)
        fun = h_callable(m_d0, h)
        assert fun(-0.01) == 0.0
        assert fun(np.array([-0.5, 0.1]))[0] == 0.0
