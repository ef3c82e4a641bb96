"""Exit-function construction on the solver grid.

For exponential claims with sigma = 0 the general pipeline must land
on the closed series ratios, which is the main correctness anchor:

    h(x) = theta(x) / theta(a)              at d = 0
    h(x) = varrho(x; d) / varrho(a; d)      at d > 0

With sigma > 0 the scale-function oracle in scale_oracle.py pins the
construction: h = e^{-rho (a - x)} at d = inf, W(x)/W(a) at d = 0,
and at finite d the slope at 0 is Lambda'(0)/Lambda(0), down to
d = 0.05 where a Phi grid's stencil was off, for exponential claims and
for a table alike. A table's certificate (equation residual, raised to
the cross-route gap to Lambda(x)/Lambda(a) at finite d and to the slope
mismatch at 0 at d = 0 and d = inf) must sit far below the acceptance
floor at the imposed slope and blow through it when that slope is
perturbed. For Exp(1) claims h is a sum of exponentials at every sigma,
with the scale route's weights, and no equation is solved.
"""

import dataclasses
import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import expmodel, firstpassage, gridmath, hfun, model, scale
from divbarrier.gridmath import NonConvergenceError
from divbarrier.hfun import (
    HFunction,
    h_callable,
    h_d_sigma0,
    h_d_sigma_pos,
    ide_residual,
    w_d,
)
from divbarrier.lundberg import lundberg_root, psi_r

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
        assert np.max(np.abs(h.read(xs, 1) - th1 / za)) < 1e-8
        assert np.max(np.abs(h.read(xs, 2) - th2 / za)) < 1e-7

    def test_delay_two_ratios(self, m_d2):
        h = h_d_sigma0(m_d2, A, step=1e-4)
        xs = h.grid.x
        za = expmodel.varrho(m_d2, A, 2.0)
        assert np.max(np.abs(h.grid.values
                             - expmodel.varrho(m_d2, xs, 2.0) / za)) < 1e-6
        assert np.max(np.abs(h.read(xs, 1)
                             - expmodel.exp_series(m_d2, xs, 2.0)[1] / za)) < 1e-6

    def test_normalization_and_residual(self, m_d0):
        h = h_d_sigma0(m_d0, A, step=1e-4)
        assert h.grid.values[-1] == 1.0
        assert h.a == A
        assert h.xi_prime_zero is None
        # the closed certificate, and the grid rerun anyone can apply
        assert h.ide_residual <= 1e-12
        assert ide_residual(m_d0, h) < 1e-7

    def test_grid_snaps_to_barrier(self, m_d0):
        h = h_d_sigma0(m_d0, 0.77777, step=1e-4)
        assert h.grid.hi == pytest.approx(0.77777, abs=1e-12)

    def test_requires_flat_volatility_and_positive_barrier(self, m_d0):
        with pytest.raises(ValueError):
            h_d_sigma0(make_model(0.0, sigma=0.5), A)
        with pytest.raises(ValueError):
            h_d_sigma0(m_d0, 0.0)

    def test_coarse_step_residual_is_gated(self):
        # a table is solved on its grid: at step 0.1 its equation residual
        # is ~1e-2 (measured 1.02e-2), far above the gate
        with pytest.raises(NonConvergenceError) as info:
            h_d_sigma0(_tab_model(1e-2, 0.0), A, step=0.1)
        assert info.value.last_norm > 1e-4

    def test_infinite_clock_on_a_table(self):
        # at d = inf the forcing is T_rho f itself, as on the solver grid,
        # so h = e^{-rho (a - x)} up to the solver's own error
        m = db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, math.inf),
                        db.tabulated_exponential(1.0, step=1e-2))
        rho = lundberg_root(m).rho
        h = h_d_sigma0(m, 0.5, step=1e-4)
        assert np.max(np.abs(h.grid.values - np.exp(-rho * (0.5 - h.grid.x)))) < 1e-10
        assert h.ide_residual <= 1e-12
        assert ide_residual(m, h) < 1e-4

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_infinite_clock_on_a_table_is_closed(self, monkeypatch, sigma):
        # at d = inf the route's one exponent is rho for any claim law,
        # since T_rho f is exact: h is e^{rho (x - a)} to rounding, and no
        # renewal equation is solved
        monkeypatch.setattr(hfun, "neumann_series", None)
        m = _tab_model(1e-2, math.inf, sigma)
        h = (h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos)(m, 0.5, step=1e-4)
        want = np.exp(m.rho * (h.grid.x - 0.5))
        for k in range(3):
            assert np.max(np.abs(h.read(h.grid.x, k) - m.rho ** k * want)) < 1e-14
        # certified in closed form: K(rho) = 0 and no tail row
        assert h.ide_residual <= 1e-12

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_infinite_clock_residual_on_a_table(self, sigma):
        # rho is the root of the table's linear reading, for which T_rho f
        # is exact, so e^{rho x} solves the equation the residual checks:
        # measured 5.9e-9 and 1.7e-9 on the 1e-2 table. A trapezoid root
        # left 2.9e-5, which scaled with the table step squared
        m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, math.inf),
                        db.tabulated_exponential(1.0, step=1e-2))
        h = (h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos)(m, 0.5, step=1e-4)
        assert ide_residual(m, h) <= 1e-8

    def test_no_delay_is_scale_function_ratio(self, m_d0):
        # at sigma = 0 the oracle's W has two exponentials
        t, wt = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, 0.0, 1.0)
        assert len(t) == 2
        h = h_d_sigma0(m_d0, A, step=1e-4)
        wa = scale_oracle.scale_w(t, wt, A)
        for k in range(3):
            want = scale_oracle.scale_w(t, wt, h.grid.x, k) / wa
            assert np.max(np.abs(h.read(h.grid.x, k) - want)) < 2e-11

    @pytest.mark.parametrize("d", [0.5, 2.0, math.inf])
    def test_delayed_series_ratios(self, d):
        m = make_model(d)
        h = h_d_sigma0(m, A, step=1e-4)
        series = expmodel.exp_series(m, h.grid.x, d)
        for k, want in enumerate(series):
            assert np.max(np.abs(h.read(h.grid.x, k) - want / series[0][-1])) < 5e-11

    def test_tabulated_matches_exponential(self, tab_dist):
        for d in (0.0, 2.0):
            mt = db.validate(
                db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d), tab_dist)
            me = make_model(d)
            ht = h_d_sigma0(mt, A, step=2e-4)
            he = h_d_sigma0(me, A, step=2e-4)
            assert np.max(np.abs(ht.grid.values - he.grid.values)) < 1e-6
            assert np.max(np.abs(ht.read(ht.grid.x, 1) - he.read(he.grid.x, 1))) < 1e-6


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

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        # past hfun._CACHE_SIZE models the oldest entry goes, and the
        # entries stay (model.key(), ...) tuples in a dict
        monkeypatch.setattr(hfun, "_CACHE", {})
        models = [make_model(d) for d in np.linspace(0.1, 0.2, hfun._CACHE_SIZE + 3)]
        for i, m in enumerate(models):
            w_d(m, 0.0)
            assert len(hfun._CACHE) == min(i + 1, hfun._CACHE_SIZE)
        keep = [m.key() for m in models[-hfun._CACHE_SIZE:]]
        assert [k[0] for k in hfun._CACHE] == keep

    def test_tabulated_route_matches_closed_form(self, tab_dist):
        mt = db.validate(
            db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 2.0), tab_dist)
        xs = np.linspace(0.0, 0.7693, 40)
        got = w_d(mt, xs)
        assert np.max(np.abs(got - U_2 * np.exp(-xs))) < 2e-7


def _tab_model(step, d, sigma=0.0):
    return db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d),
                       db.tabulated_exponential(1.0, step=step))


class TestForcingNodeTable:
    """Tabulated w_d at finite d is one read of a node table that the
    model's TableRatio builds once, on the table's own lattice, against
    the Exp(1) forcing u(d) e^{-x} the table was sampled from. The floor
    is the table's own renormalization, f / (1 + step^2 / 12): 6.6e-8 to
    1.2e-7 on the 1e-3 table, growing as d falls."""

    XS = np.linspace(0.0, 31.0, 3001)   # off the nodes and past the end at 30

    @staticmethod
    def _gap(step, sigma, d):
        params = db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d)
        table = db.validate(params, db.tabulated_exponential(1.0, step=step))
        exact = db.validate(params, db.ExponentialClaims(1.0))
        xs = TestForcingNodeTable.XS
        return float(np.max(np.abs(w_d(table, xs) - w_d(exact, xs))))

    # 15 x 0.03 lands 4e-17 below the node at 0.45; read as off it, the
    # cell up to c d would be a whole step long and w_d 2.3e-4 off
    @pytest.mark.parametrize("d", [0.02, 0.03, 0.1, 0.5, 2.0])
    def test_flat_matches_exponential(self, d):
        # Phi_d drops to 0 past c d; a Simpson rule on a deficit grid of
        # its own straddled that drop and put w_d 1.1e-3 off at d = 0.1
        assert self._gap(1e-3, 0.0, d) < 2e-7

    @pytest.mark.parametrize("d", [1.0, 2.0])
    def test_diffusion_matches_exponential(self, d):
        # measured 6.9e-8 and 6.7e-8
        assert self._gap(1e-3, 0.5, d) < 2e-7

    def test_step_off_the_deficit_grid(self):
        # 3e-3 does not divide the 2e-2 deficit step w_d was once summed
        # on; the lattice is now the table's own. Measured 6.0e-7
        assert self._gap(3e-3, 0.0, 2.0) < 1e-6

    @pytest.mark.parametrize("d", [5e-4, 1e-3, 1.5e-3])
    def test_drift_reach_shorter_than_three_steps(self, d):
        # c d is 0.75, 1.5 and 2.25 steps of the 1e-2 table: the end
        # weights at 0 need three nodes, so the plain trapezoid stays;
        # measured 1.1e-7 to 3.3e-7
        assert self._gap(1e-2, 0.0, d) < 5e-7

    @pytest.mark.parametrize("grid_step", [2e-4, 1e-4])
    @pytest.mark.parametrize("d", [0.01, 0.03])
    def test_flat_barrier_matches_exponential(self, tab_dist, d, grid_step):
        # h'' reads w_d' off the node table's second-order slope; finite
        # differences of w_d's linear reading put a* 3.0e-5 (d = 0.01) and
        # 2.7e-4 (d = 0.03) off the Exp(1) a* at these steps. Measured
        # 1.9e-7 and 3.5e-7
        params = db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d)
        got, want = (db.optimal_barrier(db.validate(params, dist), a_max=2.0,
                                        grid_step=grid_step).a_star
                     for dist in (tab_dist, db.ExponentialClaims(1.0)))
        assert abs(got - want) < 1e-6

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


def _one_percent_loaded(dist):
    # 1% safety loading, q = 1e-4, r = 1: the renewal kernel's mass
    # 1 - kill/(c rho) is 0.989: at a = 150 its Neumann series, summed
    # term by term, would take 240 terms
    return db.validate(db.ModelParams(10.0, 10.1, 0.0, 1e-4, 1.0, 0.0), dist)


class TestRenewalRoute:
    """For Exp(mu) claims the exit function is a sum of exponentials over
    the roots of Q, and no renewal equation is solved; a table's is
    solved in one tilted FFT (neumann_series). The solve is exact for
    its discrete equation, however slowly the equation contracts, and
    nothing marches."""

    NAMES = ("neumann_series", "neumann_series_exp", "convolve_values",
             "volterra_march")

    def _spy(self, monkeypatch):
        calls = []
        self.last = {}

        def counted(name, real):
            def spy(*args, **kwargs):
                calls.append(name)
                self.last[name] = args
                return real(*args, **kwargs)
            return spy

        for name in self.NAMES:
            spy = counted(name, getattr(gridmath, name))
            for mod in (gridmath, hfun, model, scale):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, spy)
        return calls

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("d", [0.0, 2.0, math.inf])
    def test_exponential_claims_solve_no_renewal_equation(self, monkeypatch, sigma, d):
        calls = self._spy(monkeypatch)
        db.optimal_barrier(make_model(d, sigma=sigma), a_max=2.0)
        assert "neumann_series" not in calls
        assert "neumann_series_exp" not in calls
        assert "convolve_values" not in calls

    def test_tabulated_claims_use_the_fft_series(self, monkeypatch):
        calls = self._spy(monkeypatch)
        db.optimal_barrier(_tab_model(1e-2, 0.0), a_max=2.0)
        assert "neumann_series" in calls
        assert "neumann_series_exp" not in calls

    def test_slow_contraction_runs_to_tolerance(self):
        m = _one_percent_loaded(db.ExponentialClaims(1.0))
        h = h_d_sigma0(m, 150.0, step=1e-2)
        xi = expmodel.exp_series(m, h.grid.x, 0.0)[0]
        assert np.max(np.abs(h.grid.values - xi / xi[-1])) < 1e-7

    def test_slow_contraction_on_a_table_does_not_march(self, monkeypatch):
        calls = self._spy(monkeypatch)
        m = _one_percent_loaded(db.tabulated_exponential(1.0, step=1e-2, x_max=40.0))
        h = h_d_sigma0(m, 150.0, step=1e-2)
        assert "volterra_march" not in calls
        # the march of the same renewal equation is the independent check
        kernel, forcing, coeff = self.last["neumann_series"]
        ref = gridmath.volterra_march(kernel, forcing, coeff).values
        np.testing.assert_allclose(h.grid.values, ref / ref[-1], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gap", [0.0, 1e-9, 3e-8, 3e-3])
    def test_diffusion_rates_that_nearly_coincide(self, monkeypatch, gap):
        # sigma = 6, c = 15: b1 = rho + 2c/sigma^2 meets the claim rate
        # mu = 1 at rho = 1/6, where a two-rate renewal kernel's weights
        # +-1/(b1 - mu) cancel; the roots of Q stay apart, and the sum of
        # exponentials needs no renewal solve
        dist = db.ExponentialClaims(1.0)
        base = db.validate(db.ModelParams(10.0, 15.0, 6.0, 0.1, 1.0, math.inf), dist)
        q = psi_r(base, 1.0 / 6.0 + gap)
        m = db.validate(db.ModelParams(10.0, 15.0, 6.0, q, 1.0, math.inf), dist)
        calls = self._spy(monkeypatch)
        h = h_d_sigma_pos(m, 1.0, step=1e-5)
        assert calls == []
        assert np.max(np.abs(h.grid.values - np.exp(-m.rho * (1.0 - h.grid.x)))) < 1e-9


class TestResidualDetector:
    def test_constant_input_is_rejected(self, m_d0):
        # a flat "exit function" violates the equation by at least
        # (lam + q - lam r) once the claim convolution saturates
        n = 2000
        nodes = np.zeros((3, n + 1))
        nodes[0] = 1.0
        fake = HFunction(a=A, step=A / n, xi_prime_zero=None, ide_residual=0.0,
                         nodes=nodes)
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
        # a table's exit equation is solved with the slope at 0 imposed:
        # every slope solves it on (0, a), and only the interface check
        # against the continuation can reject a wrong one (measured
        # 2.05e-4 at 0.9 and 1.1 times the slope). The slope is the memo
        # route's, scaled here in place
        dist = db.tabulated_exponential(1.0, step=1e-2)
        m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 1.0), dist)
        h = h_d_sigma_pos(m, 1.0, step=1e-4)
        assert h.ide_residual < 1e-6
        route = hfun._route(m)[0]
        assert h.xi_prime_zero == route.slope
        monkeypatch.setattr(route, "slope", factor * route.slope)
        with pytest.raises(NonConvergenceError) as info:
            h_d_sigma_pos(m, 1.0, step=1e-4)
        assert info.value.last_norm > 1e-4

    @pytest.mark.parametrize("d", [0.05, 1.0])
    def test_exponential_claims_take_the_scale_weights(self, d):
        # for Exp(mu) claims h is Lambda(x)/Lambda(a) with the weights of
        # the scale route, not a solve for them (measured 2.2e-16 off)
        m = make_model(d, sigma=0.5)
        h = h_d_sigma_pos(m, 1.0, step=1e-5)
        want = scale.scale_ratio(m, m.d).ratio(h.grid.x, 1.0)
        assert np.max(np.abs(h.grid.values - want)) <= 1e-15

    @pytest.mark.parametrize("claims,d", [("exp", 1.0), ("exp", 2.0), ("exp", math.inf),
                                          ("tab", 1.0), ("tab", math.inf)])
    def test_certificate_covers_the_rerun_check(self, claims, d):
        # a table's reported residual is ide_residual on the returned h,
        # raised to its interface term only where that is larger: at
        # finite d the cross-route gap to Lambda(x)/Lambda(a). An h read
        # off the route's exponents (exponential claims, and a table at
        # d = inf) is certified in closed form instead, to rounding
        dist = (db.tabulated_exponential(1.0, step=1e-2) if claims == "tab"
                else db.ExponentialClaims(1.0))
        m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, d), dist)
        h = h_d_sigma_pos(m, 0.5, step=1e-4)
        if claims == "exp" or math.isinf(d):
            assert h.t is not None and h.ide_residual <= 1e-12
            return
        check = ide_residual(m, h)
        assert h.ide_residual >= check
        term = np.max(np.abs(h.grid.values - scale.scale_ratio(m, m.d).ratio(h.grid.x, 0.5)))
        if term < check * (1.0 - 1e-6):
            assert h.ide_residual == check
        else:
            assert h.ide_residual == pytest.approx(term, rel=1e-6)

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
        assert np.max(np.abs(h.read(h.grid.x, 1) - rho * want)) < 1e-6
        assert np.max(np.abs(h.read(h.grid.x, 2) - rho * rho * want)) < 1e-6

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

    @pytest.mark.parametrize("d", [1.0, 2.0])
    def test_finite_clock_is_the_lambda_ratio(self, d):
        # h = Lambda(x)/Lambda(a) with Lambda from exit_weights, which never
        # calls the solver; measured 1.1e-9 / 3.5e-9 / 5.1e-7 (h / h' / h'')
        # at d = 1 and 3.7e-10 / 5.5e-9 / 5.8e-7 at d = 2
        t, wts = scale_oracle.exit_weights(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, d,
                                           s_step=2.5e-4)
        h = h_d_sigma_pos(make_model(d, sigma=0.5), 1.0, step=1e-5)
        lam_a = scale_oracle.scale_w(t, wts, 1.0)
        for order, tol in ((0, 5e-9), (1, 2e-8), (2, 2e-6)):
            want = scale_oracle.scale_w(t, wts, h.grid.x, order) / lam_a
            assert np.max(np.abs(h.read(h.grid.x, order) - want)) < tol

    def test_unit_clock_boundary_value(self):
        slope = scale_oracle.continuation_slope(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, 1.0)
        assert slope == pytest.approx(0.24474564, abs=1e-8)
        sol = db.optimal_barrier(make_model(1.0, sigma=0.5), a_max=2.0)
        assert sol.boundary and sol.a_star == 0.0
        assert sol.value(0.0) == pytest.approx(1.0 / slope, rel=1e-4)

    @staticmethod
    def _small_clock(d):
        """Lambda's (t, weights) at grace period d, and its barrier: the
        first zero of Lambda'' on (0, 2], or 0 where there is none."""
        t, wts = scale_oracle.exit_weights(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, d,
                                           s_step=2.5e-4)
        xs = np.linspace(0.0, 2.0, 2001)
        curv = scale_oracle.scale_w(t, wts, xs, 2)
        flips = np.nonzero(np.sign(curv[:-1]) * np.sign(curv[1:]) < 0)[0]
        if not len(flips):
            return t, wts, 0.0
        i = flips[0]
        return t, wts, scale_oracle.w_curvature_root(t, wts, xs[i], xs[i + 1])

    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2])
    def test_small_clock_slope(self, d):
        # the Phi grid's stencil slope was 1.4e-4, 3.3e-5 and 3.3e-6 off
        want = scale_oracle.continuation_slope(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, d,
                                               s_step=2.5e-4)
        h = h_d_sigma_pos(make_model(d, sigma=0.5), 0.5, step=1e-4)
        assert abs(h.xi_prime_zero - want) < 2e-6

    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2])
    def test_small_clock_barrier_value(self, d):
        # v(0) = Lambda(0)/Lambda'(a*); the Phi grid route was 2.6e-2,
        # 4.7e-3 and 1.1e-5 off, each with a passing HJB report
        t, wts, a_star = self._small_clock(d)
        sol = db.optimal_barrier(make_model(d, sigma=0.5), a_max=2.0)
        want = float(scale_oracle.scale_w(t, wts, 0.0)
                     / scale_oracle.scale_w(t, wts, a_star, 1))
        assert sol.value(0.0) == pytest.approx(want, rel=1e-5)
        assert sol.hjb_report.passed

    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2])
    def test_small_clock_barrier(self, d):
        # the Lambda'' root is 0.0525 and 0.0089 at d = 0.05 and 0.1, where
        # the Phi grid route gave 0.0500 and 0.0204; none at d = 0.2
        _, _, want = self._small_clock(d)
        sol = db.optimal_barrier(make_model(d, sigma=0.5), a_max=2.0)
        assert abs(sol.a_star - want) < 5e-4
        assert sol.boundary == (want == 0.0)

    @pytest.mark.parametrize("d", [0.0, 0.05, 0.1])
    def test_barrier_is_the_closed_curvature_root(self, d):
        # at the default grid_step; the parabola through three scan nodes
        # was 3.6e-7 and 4.3e-7 off at d = 0.05 and 0.1
        if d:
            _, _, want = self._small_clock(d)
        else:
            want = scale_oracle.w_curvature_root(self.T, self.WT, 0.1, 2.0)
        sol = db.optimal_barrier(make_model(d, sigma=0.5), a_max=2.0)
        assert abs(sol.a_star - want) < 1e-9
        assert sol.hjb_report.passed

    def test_one_transform_per_optimal_barrier(self, monkeypatch):
        # with a table the continuation slope, the w_d forcing and the
        # certificate all read the one memoized TableRatio, which reads
        # its Phi grid off the same Lambda, and so does the value below
        # zero, on the lattice or off it; no other Phi_d is taken. At
        # sigma = 0 the forcing and the value below zero read it too
        monkeypatch.setattr(hfun, "_CACHE", {})
        builds, phis = [], []

        class Counted(scale.TableRatio):
            def __init__(self, *args):
                builds.append(args[1])
                super().__init__(*args)

        def counted(*args):
            phis.append(args[1])
            return real(*args)

        real = firstpassage._phi_sigma_pos
        monkeypatch.setattr(scale, "TableRatio", Counted)
        monkeypatch.setattr(firstpassage, "_phi_sigma_pos", counted)
        tab = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 1.0),
                          db.tabulated_exponential(1.0, step=1e-2))
        sol = db.optimal_barrier(tab, a_max=2.0)
        assert builds == [1.0] and phis == []
        sol.value(np.array([-0.4, -0.41]))
        assert builds == [1.0] and phis == []
        db.optimal_barrier(make_model(1.0, sigma=0.5), a_max=2.0)
        assert builds == [1.0] and phis == []
        twin = db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 2.0),
                           db.tabulated_exponential(1.0, step=1e-2))
        db.optimal_barrier(twin, a_max=2.0).value(np.array([-0.4, -0.41]))
        assert builds == [1.0, 2.0] and phis == []


class TestScaleOracleWithoutDiffusion:
    """sigma = 0 and Exp(1) claims against scale_oracle: h is
    Lambda(x)/Lambda(a), Lambda from the two-exponential W and the point
    law of X_d = c d - S_d. h_d_sigma0 borrows u(d) from expmodel's
    closed form; the oracle computes neither."""

    @pytest.mark.parametrize("d", [0.5, 2.0])
    def test_exit_function_is_the_lambda_ratio(self, d):
        # measured 9.8e-12 and 1.0e-11 at step 1e-4
        t, wts = scale_oracle.exit_weights(10.0, 15.0, 0.1, 0.8, 0.0, 1.0, d)
        h = h_d_sigma0(make_model(d), A, step=1e-4)
        want = scale_oracle.scale_w(t, wts, h.grid.x) / scale_oracle.scale_w(t, wts, A)
        assert np.max(np.abs(h.grid.values - want)) < 1e-10


class TestExponentialBasis:
    """For Exp(1) claims h, h' and h'' are sums of exponentials over the
    roots of Q, with weights from one small linear solve; the oracle's
    come from its own roots and moment quadrature (at d = inf h is
    e^{rho (x - a)})."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.05, 1.0, math.inf])
    def test_matches_the_scale_oracle(self, sigma, d):
        # measured at most 2.0e-11 (h'' at sigma = 0.5, d = 0); the
        # renewal solve it replaced was 1.5e-8 to 4.6e-4 off at sigma = 0.5
        a = 0.5
        h = (h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos)(make_model(d, sigma=sigma),
                                                            a, step=1e-4)
        # h(a) = 1 and, at sigma > 0, d = 0, h(0) = 0 exactly, not to rounding
        assert h.grid.values[-1] == 1.0
        if sigma > 0.0 and d == 0.0:
            assert h.grid.values[0] == 0.0
        if math.isinf(d):
            t = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, sigma, 1.0)[0][-1:]
            wts = np.ones(1)
        else:
            t, wts = scale_oracle.exit_weights(10.0, 15.0, 0.1, 0.8, sigma, 1.0, d)
        lam_a = scale_oracle.scale_w(t, wts, a)
        for order in range(3):
            want = scale_oracle.scale_w(t, wts, h.grid.x, order) / lam_a
            assert np.max(np.abs(h.read(h.grid.x, order) - want)) < 1e-10


class TestClosedExitFunction:
    """Where the route has exponents the exit function carries them, with
    the weights over xi(a), and reads h and its derivatives in closed
    form at any point, not off its grid."""

    A = 0.5
    # off the 1e-3 solver grid, but 0 and a
    XS = np.array([0.0, 1e-5, 0.0123456, 0.1337, 0.31415, 0.49999, 0.5])

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.1, 1.0, math.inf])
    def test_matches_the_scale_oracle_off_the_grid(self, sigma, d):
        # measured at most 9.3e-15 (h'' at sigma = 0.5, d = 0.1), relative
        # to the largest value at these points
        h = (h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos)(make_model(d, sigma=sigma),
                                                            self.A, step=1e-3)
        if math.isinf(d):
            t = scale_oracle.roots(10.0, 15.0, 0.1, 0.8, sigma, 1.0)[0][-1:]
            wts = np.ones(1)
        else:
            t, wts = scale_oracle.exit_weights(10.0, 15.0, 0.1, 0.8, sigma, 1.0, d)
        lam_a = scale_oracle.scale_w(t, wts, self.A)
        for order in range(3):
            want = scale_oracle.scale_w(t, wts, self.XS, order) / lam_a
            got = h.read(self.XS, order)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_infinite_clock_on_a_table_off_the_grid(self, tab_dist, sigma):
        # measured 1.1e-16
        m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, math.inf), tab_dist)
        h = (h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos)(m, self.A, step=1e-3)
        for order in range(4):
            want = m.rho ** order * np.exp(m.rho * (self.XS - self.A))
            assert np.max(np.abs(h.read(self.XS, order) - want)) <= 1e-14

    @pytest.mark.parametrize("d", [0.0, 0.1, 1.0])
    def test_vector_and_one_point_reads_agree_bit_for_bit(self, d):
        h = h_d_sigma_pos(make_model(d, sigma=0.5), 1.0, step=1e-3)
        xs = np.linspace(0.0, 1.0, 1001)
        for order in range(4):
            vec = h.read(xs, order)
            assert [i for i, x in enumerate(xs) if h.read(x, order)[0] != vec[i]] == []

    def test_no_delay_diffusion_is_zero_at_zero(self):
        # W(0) = sum_i c_i is 0 only to rounding; h(0) = 0 exactly
        h = h_d_sigma_pos(make_model(0.0, sigma=0.5), self.A, step=1e-3)
        assert h.read(0.0)[0] == 0.0 and h.read(np.array([0.0, 0.1]))[0] == 0.0
        assert h.read(0.0, 1)[0] > 0.0


class TestDiffusionTable:
    """sigma = 0.5 with the 1e-3 Exp(1) table against Exp(1) claims, the
    twin of criterion 09 at sigma > 0. The table's Lambda comes from a W
    solve and the law of X_d on the table's lattice, the Exp(1) one from
    the roots of the Lundberg polynomial and a moment quadrature."""

    @staticmethod
    def _tab(dist, d):
        return db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, d), dist)

    @pytest.mark.parametrize("d", [0.05, 0.1, 1.0, 2.0])
    def test_exit_function_matches_exponential_claims(self, tab_dist, d):
        # measured 6.8e-7, 3.3e-7, 6.3e-8 and 1.0e-7; with the time
        # quadrature's Phi grid and stencil slope 4.4e-3, 8.3e-4, 2.7e-6
        # and 2.6e-6
        ht = h_d_sigma_pos(self._tab(tab_dist, d), 0.8, step=1e-4)
        he = h_d_sigma_pos(make_model(d, sigma=0.5), 0.8, step=1e-4)
        assert np.max(np.abs(ht.grid.values - he.grid.values)) <= 1e-6

    def test_small_clock_barrier_matches_exponential_claims(self, tab_dist):
        # a* 0.008909 against 0.008904 and v(0) 2.860730 against 2.860737;
        # the stencil slope gave 0.020401 and 2.874228, with HJB passing
        st = db.optimal_barrier(self._tab(tab_dist, 0.1), a_max=2.0)
        se = db.optimal_barrier(make_model(0.1, sigma=0.5), a_max=2.0)
        assert abs(st.a_star - se.a_star) < 5e-4
        assert st.value(0.0) == pytest.approx(se.value(0.0), rel=1e-5)
        assert st.hjb_report.passed


class TestWholeLineEvaluator:
    def test_inside_matches_grid(self, tab_dist):
        # a table below d = inf has no exponents: h is read off its grid
        m = db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 2.0), tab_dist)
        h = h_d_sigma0(m, A, step=1e-3)
        assert h.t is None
        fun = h_callable(m, h)
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

    @pytest.mark.parametrize("d", [0.3, 1.0])
    def test_diffusion_continues_past_the_drift_reach(self, d):
        # a diffusion can climb back from below -c d within d, so h and
        # v stay h(0) and v(0) times Phi_d on both sides of -c d
        m = make_model(d, sigma=0.5)
        sol = db.barrier_solution_at(m, 0.3)
        xs = -m.c * d + np.array([0.05, -0.05])
        phi = firstpassage.upcross_table(m, d, -xs)
        assert np.all(phi > 0.0)
        np.testing.assert_allclose(sol.value(xs), sol.value(0.0) * phi, rtol=1e-12)
        np.testing.assert_allclose(h_callable(m, sol.h)(xs), sol.h.grid.values[0] * phi,
                                   rtol=1e-12)


def test_default_step_is_the_solver_floor():
    # an exit function built without a step takes hfun's step for a
    # grid_step of 1e-3: that step itself where it has exponents, at
    # either sigma, since it is read and certified in closed form (a 1e-4
    # floor built 7,861 nodes here, a fixed 1e-5 one 78,601), and a floor
    # for a table, which is solved on its grid: 1e-4 at sigma = 0 and
    # 1e-5 at sigma > 0 below d = inf
    m = make_model(0.0, sigma=0.5)
    assert len(h_d_sigma_pos(m, 0.786).grid.x) == 787
    assert hfun._solver_step(m, 1e-3) == 1e-3
    assert len(h_d_sigma0(make_model(2.0), 0.786).grid.x) == 787
    assert hfun._solver_step(_tab_model(1e-2, 2.0), 1e-3) == 1e-4
    assert hfun._solver_step(_tab_model(1e-2, 1.0, 0.5), 1e-3) == 1e-5


class TestClosedCertificate:
    """Where the route has exponents, h's certificate is the closed bound
    on |(Gamma - q) h| over [0, a] (hfun._closed_residual), not a rerun
    of the equation on the grid."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.05, 0.1, 1.0, 2.0])
    @pytest.mark.parametrize("which", [0, 1])
    def test_sees_a_wrong_weight(self, monkeypatch, sigma, d, which):
        # the weight on rho (which = 0) or on t_2 (which = 1) of the memo
        # route, scaled by 1 + 1e-4. The tail row lam r (h(0) w_d(0) -
        # sum_i w_i L(t_i)) no longer cancels: measured 1.5e-4 to 7.5e-4
        # at d <= 0.1, refused as the grid rerun refused them, and 7.6e-7
        # at d = 1 and 1.3e-8 at d = 2, where w_d(0) is small, against at
        # most 3.7e-15 unperturbed
        m = make_model(d, sigma=sigma)
        build = h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos
        base = build(m, 0.5).ide_residual
        assert base <= 1e-14
        route, reader = hfun._route(m)
        w = route.weights.copy()
        w[which] *= 1.0 + 1e-4
        wrong = (dataclasses.replace(route, weights=w), reader)
        monkeypatch.setattr(hfun, "_route", lambda model: wrong)
        if d <= 0.1:
            with pytest.raises(NonConvergenceError, match="closed") as info:
                build(m, 0.5)
            assert info.value.last_norm > 1e-4
        else:
            assert build(m, 0.5).ide_residual >= 1e4 * max(base, 1e-15)

    def test_no_grid_rerun_on_an_exponent_route(self, monkeypatch):
        calls = []

        def spy(*args, _real=hfun.ide_residual):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(hfun, "ide_residual", spy)
        for sigma, d in ((0.0, 0.0), (0.0, 2.0), (0.5, 0.0), (0.5, 1.0), (0.5, math.inf)):
            m = make_model(d, sigma=sigma)
            db.optimal_barrier(m, 2.0)
            db.barrier_solution_at(m, 0.3)
            db.barrier_solution_at(m, 0.0)
        assert calls == []
        # a table below d = inf is solved on its grid and checked there
        tab = _tab_model(1e-2, 2.0)
        h_d_sigma0(tab, 0.5)
        assert calls == [1]
        h_d_sigma0(tab, 0.3)
        assert calls == [1, 1]

    def test_grid_is_a_view_at_the_callers_step(self):
        # 51 nodes at a = 0.05 and step 1e-3, the last read at a itself;
        # the nodes hold the closed h to rounding
        h = h_d_sigma_pos(make_model(1.0, sigma=0.5), 0.05, step=1e-3)
        assert len(h.grid.x) == 51 and h.grid.values[-1] == 1.0
        np.testing.assert_allclose(h.grid.values, h.read(h.grid.x), rtol=1e-15)


class TestSolverNodes:
    """An exit function builds its solver grid once (HFunction.xs), for
    read, grid and ide_residual alike."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_one_solver_grid_per_exit_function(self, monkeypatch, sigma):
        m = _tab_model(1e-2, 2.0, sigma)
        build = h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos
        h = build(m, 0.6)
        calls = []
        real = hfun._solver_grid
        monkeypatch.setattr(hfun, "_solver_grid", lambda *args: calls.append(args) or real(*args))
        for order in (0, 1, 2):
            h.read([0.0, 0.3, 0.6], order)
        assert h.grid.values[-1] == 1.0
        hfun.ide_residual(m, h)
        h.read(0.45)
        assert calls == [(h.a, h.step)]
        # the nodes of the grid, the last one a itself, and read-only
        n = len(h.xs) - 1
        assert h.xs[-1] == h.a and not h.xs.flags.writeable
        assert h.xs[:-1].tobytes() == ((h.a / n) * np.arange(n)).tobytes()
        # a second exit function builds its own, once
        other = build(m, 0.5)
        built = len(calls)
        other.read(0.2, 1)
        other.grid
        hfun.ide_residual(m, other)
        assert len(calls) == built + 1


class TestClosedTerms:
    """The closed certificate's weight-free terms (K(t_i), w_d and each
    T_{t_i} f at both ends) are taken once per solve: the exit function's
    certificate takes them and the closed HJB report reuses them."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.05])
    def test_one_tail_transform_per_root(self, monkeypatch, sigma, d):
        # a* > 0 at these d (0.77-0.79 at d = 0, 0.046-0.052 at d = 0.05)
        m = make_model(d, sigma=sigma)
        hfun._route(m)
        calls = []
        real = type(m.claims).tail_transform
        monkeypatch.setattr(type(m.claims), "tail_transform",
                            lambda self, *args: calls.append(args) or real(self, *args))
        sol = db.optimal_barrier(m, 4.0)
        assert sol.a_star > 0.0 and sol.hjb_report.method == "closed"
        assert len(calls) == len(sol.h.t)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_given_terms_give_the_same_bound(self, sigma):
        m = make_model(1.0, sigma=sigma)
        h = h_d_sigma0(m, 0.7) if sigma == 0.0 else h_d_sigma_pos(m, 0.7)
        w = h.w / h.slope
        assert hfun._closed_residual(m, h.t, w, h.a, h.closed) == \
            hfun._closed_residual(m, h.t, w, h.a)
        assert h.ide_residual == hfun._closed_residual(m, h.t, h.w, h.a)[0]


class TestReadOrder:
    @pytest.mark.parametrize("order", [-1, 3, True, False, 1.0, "1", None, np.float64(2.0)])
    def test_table_refuses(self, order):
        h = h_d_sigma0(_tab_model(1e-2, 2.0), 0.5)
        assert h.t is None
        with pytest.raises(ValueError, match="order"):
            h.read(0.2, order)

    @pytest.mark.parametrize("order", [-1, True, False, 1.0, "1", None, np.float64(2.0)])
    def test_exponent_route_refuses(self, order):
        h = h_d_sigma0(make_model(0.0), 0.5)
        assert h.t is not None
        with pytest.raises(ValueError, match="order"):
            h.read(0.2, order)

    def test_valid_orders(self):
        tab = h_d_sigma0(_tab_model(1e-2, 2.0), 0.5)
        xs = tab.grid.x
        for k in range(3):
            for order in (k, np.int64(k)):
                assert tab.read(0.2, order)[0] == np.interp(0.2, xs, tab.read(xs, k))
        h = h_d_sigma0(make_model(0.0), 0.5)
        assert h.read(0.2, 3)[0] == scale.exp_sum(h.t, h.big_w, 0.2, 3)[3] / h.w_at_a
        assert h.read(0.2, np.int32(2))[0] == h.read(0.2, 2)[0]


class TestReadDomain:
    # outside [0, a] the two kinds read different functions: at -1 the
    # sum of exponentials ran on past 0 (0.69252457, 1e-6 off h_callable's
    # continuation 0.69252354) while a table clamped to h(0) (0.88473403),
    # and at 0.6 they gave 1.0248 and 1.0
    @pytest.mark.parametrize("kind", ["exp", "table"])
    def test_refuses_points_outside_0_a(self, kind):
        m = make_model(2.0) if kind == "exp" else _tab_model(1e-2, 2.0)
        h = h_d_sigma0(m, 0.5)
        for x in (-1.0, -1e-12, 0.6, 0.5 + 2e-9, math.nan, np.array([0.1, math.nan])):
            with pytest.raises(ValueError, match=r"\[0, a\]"):
                h.read(x)
        # the ends, with the slack h_callable allows at a
        ends = h.read(np.array([0.0, 0.5 + 1e-10]))
        assert ends[0] == h_callable(m, h)(0.0) and abs(ends[1] - 1.0) < 1e-9


class TestLattice:
    """A table's exit equation is solved once per model, step and start
    on the lattice k step from 0, and every barrier reads its node arrays
    off that solve; only a barrier past the lattice end solves again."""

    @pytest.mark.parametrize("table_step", [1e-3, 1e-2])
    @pytest.mark.parametrize("sigma,d", [(0.0, 0.0), (0.0, 0.05), (0.0, 2.0),
                                         (0.5, 0.0), (0.5, 0.05), (0.5, 2.0)])
    def test_warm_barrier_equals_a_cold_one(self, monkeypatch, table_step, sigma, d):
        # a = 0.6 read off the lattice a = 1.0 left, against a cold solve
        # from an empty memo: a model of equal parameters shares the memo
        # entry, so only emptying it gives a cold build. The two solves
        # differ in length, so in their FFT rounding: node rows measured
        # within 4.2e-12 of their sup norm. The sigma = 0 certificate
        # re-takes h' by differences at step 1e-4, which turns that into
        # up to 1.7e-9 on a residual of 1.1e-8 (d = 0)
        build = h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos
        monkeypatch.setattr(hfun, "_CACHE", {})
        m = _tab_model(table_step, d, sigma)
        build(m, 1.0)
        warm = build(m, 0.6)
        monkeypatch.setattr(hfun, "_CACHE", {})
        cold = build(_tab_model(table_step, d, sigma), 0.6)
        assert warm.step == cold.step
        sup = np.max(np.abs(cold.nodes), axis=1, keepdims=True)
        assert np.max(np.abs(warm.nodes - cold.nodes) / sup) <= 1e-11
        assert abs(warm.ide_residual - cold.ide_residual) <= 1e-8
        assert max(warm.ide_residual, cold.ide_residual) <= hfun._RESIDUAL_GATE

    @pytest.mark.parametrize("sigma,forcings", [(0.0, 1), (0.5, 3)])
    def test_no_solve_on_a_warm_barrier(self, monkeypatch, sigma, forcings):
        calls = []

        def counted(*args, _real=gridmath.neumann_series):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(hfun, "_CACHE", {})
        monkeypatch.setattr(hfun, "neumann_series", counted)
        build = h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos
        m = _tab_model(1e-2, 2.0, sigma)
        build(m, 0.8)
        assert len(calls) == forcings
        for a in (0.3, 0.8, 0.05):
            build(m, a)
        assert len(calls) == forcings
        # past the lattice end: one solve per forcing, on a longer lattice
        build(m, 0.9)
        assert len(calls) == 2 * forcings
        build(m, 0.85)
        assert len(calls) == 2 * forcings

    def test_lattice_reaches_the_barrier_on_the_solver_step(self, monkeypatch):
        monkeypatch.setattr(hfun, "_CACHE", {})
        m = _tab_model(1e-2, 2.0)
        h = h_d_sigma0(m, 0.6)
        (key, rows), = hfun._entry(m)[2].items()
        assert key == (h.step, 1.0, None)
        n = rows.shape[1] - 1
        assert h.step * n >= 0.6 > h.step * (n - 1)

    def test_hermite_reads_cubics_exactly(self):
        # xi and xi' are cubic Hermite reads of (xi, xi') and (xi', xi''),
        # exact for a cubic xi and a cubic xi'; xi'' is read linearly
        step = 0.1
        xs = step * np.arange(11)
        cubic = lambda x: 1.0 - 2.0 * x + 0.5 * x ** 2 + 0.3 * x ** 3
        rows = np.stack((cubic(xs), -2.0 + xs + 0.9 * xs ** 2, 1.0 + 1.8 * xs))
        at = np.array([0.0, 0.031, 0.55, 0.999, 1.0])
        got = hfun._hermite(rows, step, at)
        assert np.max(np.abs(got[0] - cubic(at))) <= 1e-15
        assert np.max(np.abs(got[1] - (-2.0 + at + 0.9 * at ** 2))) <= 1e-15
        assert np.max(np.abs(got[2] - (1.0 + 1.8 * at))) <= 1e-15
