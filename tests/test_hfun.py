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
from divbarrier import expmodel, firstpassage, gridmath, hfun, model
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

    def test_infinite_clock_on_a_table(self):
        # at d = inf the forcing is T_rho f itself, as on the solver grid,
        # so h = e^{-rho (a - x)} up to the solver's own error
        m = db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, math.inf),
                        db.tabulated_exponential(1.0, step=1e-2))
        rho = lundberg_root(m).rho
        h = h_d_sigma0(m, 0.5, step=1e-4)
        assert np.max(np.abs(h.grid.values - np.exp(-rho * (0.5 - h.grid.x)))) < 1e-10
        assert ide_residual(m, h) == h.ide_residual < 1e-4

    def test_no_delay_is_scale_function_ratio(self, m_d0):
        # at sigma = 0 the oracle's W has two exponentials
        t, wt = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, 0.0, 1.0)
        assert len(t) == 2
        h = h_d_sigma0(m_d0, A, step=1e-4)
        wa = scale_oracle.scale_w(t, wt, A)
        for k, got in enumerate((h.grid, h.hp, h.hpp)):
            want = scale_oracle.scale_w(t, wt, h.grid.x, k) / wa
            assert np.max(np.abs(got.values - want)) < 2e-11

    @pytest.mark.parametrize("d", [0.5, 2.0, math.inf])
    def test_delayed_series_ratios(self, d):
        m = make_model(d)
        h = h_d_sigma0(m, A, step=1e-4)
        series = expmodel.exp_series(m, h.grid.x, d)
        for got, want in zip((h.grid, h.hp, h.hpp), series):
            assert np.max(np.abs(got.values - want / series[0][-1])) < 5e-11

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

    def test_infinite_clock_is_the_tail_transform(self):
        # at d = inf w_d is T_rho f at any point, read here off T_rho f
        # on a 1e-5 grid
        m = _tab_model(1e-2, math.inf)
        rho = lundberg_root(m).rho
        xs = np.array([0.0, 0.005, 0.0137, 0.25, 1.5])
        grid = 1e-5 * np.arange(150001)
        want = m.claims.tail_transform(rho, grid)[np.rint(xs / 1e-5).astype(int)]
        assert np.max(np.abs(w_d(m, xs) - want)) < 1e-10
        me = make_model(math.inf)
        rho = lundberg_root(me).rho
        assert np.array_equal(w_d(me, xs), 1.0 / (rho + 1.0) * np.exp(-xs))

    def test_tabulated_route_matches_closed_form(self, tab_dist):
        mt = db.validate(
            db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 2.0), tab_dist)
        xs = np.linspace(0.0, 0.7693, 40)
        got = w_d(mt, xs)
        assert np.max(np.abs(got - U_2 * np.exp(-xs))) < 2e-7


def _tab_model(step, d):
    return db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d),
                       db.tabulated_exponential(1.0, step=step))


class TestForcingNodeTable:
    """Tabulated w_d at finite d is one read of a node table built once
    per model, against the per-deficit quadrature it replaced. The table
    is read directly, so d = inf (where w_d is T_rho f) checks it too."""

    @staticmethod
    def _per_deficit(model, xs):
        # Simpson weights times Phi times the density read at x + y,
        # one deficit at a time
        phi = hfun._phi_grid(model)[0]
        ys = np.arange(0.0, model.claims.reach + hfun._PHI_STEP / 2, hfun._PHI_STEP)
        wts = hfun._simpson_weights(len(ys), hfun._PHI_STEP)
        out = np.zeros_like(xs)
        for j in np.nonzero(phi)[0]:
            out += wts[j] * phi[j] * model.claims.density(xs + ys[j])
        return out

    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    @pytest.mark.parametrize("d", [0.5, 2.0, math.inf])
    def test_matches_per_deficit_quadrature(self, step, d):
        # off the table nodes and past the table end at 30
        m = _tab_model(step, d)
        xs = np.linspace(0.0, 31.0, 3001)
        table = hfun._phi_grid(m)[1]
        assert np.max(np.abs(table(xs) - self._per_deficit(m, xs))) < 1e-13
        if not math.isinf(d):
            assert np.array_equal(w_d(m, xs), table(xs))

    def test_step_off_the_deficit_grid(self):
        # 3e-3 does not divide the 2e-2 deficit step: two taps per
        # deficit, exact at the nodes, O(step^2) between them
        xs = np.linspace(0.0, 10.3, 5001)
        got = w_d(_tab_model(3e-3, 2.0), xs)
        assert np.max(np.abs(got - U_2 * np.exp(-xs))) < 1e-6

    def test_reads_no_density_after_a_solve(self, monkeypatch):
        m = _tab_model(1e-2, 2.0)
        db.optimal_barrier(m, a_max=2.0)
        reads = []
        density = db.TabulatedClaims.density

        def counted(self, x):
            reads.append(np.size(x))
            return density(self, x)

        monkeypatch.setattr(db.TabulatedClaims, "density", counted)
        assert w_d(m, np.linspace(0.0, 10.3, 50001)).shape == (50001,)
        assert reads == []


class TestRenewalRoute:
    """At sigma = 0 the kernel T_rho f of Exp(mu) claims is one
    exponential, summed with exponential panels; a table keeps the FFT
    Neumann series."""

    NAMES = ("neumann_series", "neumann_series_exp", "convolve_values")

    def _spy(self, monkeypatch):
        calls = []

        def counted(name, real):
            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spy

        for name in self.NAMES:
            spy = counted(name, getattr(gridmath, name))
            for mod in (gridmath, hfun, model):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, spy)
        return calls

    @pytest.mark.parametrize("d", [0.0, 2.0, math.inf])
    def test_exponential_claims_use_exponential_panels(self, monkeypatch, d):
        calls = self._spy(monkeypatch)
        db.optimal_barrier(make_model(d), a_max=2.0)
        assert "neumann_series_exp" in calls
        assert "neumann_series" not in calls
        assert "convolve_values" not in calls

    def test_tabulated_claims_use_the_fft_series(self, monkeypatch):
        calls = self._spy(monkeypatch)
        db.optimal_barrier(_tab_model(1e-2, 0.0), a_max=2.0)
        assert "neumann_series" in calls
        assert "neumann_series_exp" not in calls


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

    @pytest.mark.parametrize("claims,d", [("exp", 1.0), ("exp", 2.0),
                                          ("exp", math.inf), ("tab", math.inf)])
    def test_certificate_covers_the_rerun_check(self, claims, d):
        # the reported residual is ide_residual on the returned h, raised
        # to the interface mismatch at 0 only where that is larger
        dist = (db.tabulated_exponential(1.0, step=1e-2) if claims == "tab"
                else db.ExponentialClaims(1.0))
        m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, d), dist)
        h = h_d_sigma_pos(m, 0.5, step=1e-4)
        check = ide_residual(m, h)
        assert h.ide_residual >= check
        # sigma^2/2 times the gap between h'(0+) and h(0) times the
        # lower-order continuation slope
        slope = hfun._phi_slope(m, hfun._SLOPE_2)
        mismatch = 0.125 * abs(hfun._extrap_zero(h.hp.values) - h.grid.values[0] * slope)
        if mismatch < check * (1.0 - 1e-6):
            assert h.ide_residual == check
        else:
            assert h.ide_residual == pytest.approx(mismatch, rel=1e-6)

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
