"""Barrier values, the optimal barrier, and the generator certificates.

With exponential claims the closed series give an independent handle
on everything here: the optimal no-delay barrier is the unique zero
of theta'' (0.76931505841... for the reference parameters), the value
at zero satisfies v(0) theta'(a*) = 1, and when the grace period is
long enough to push the curvature positive everywhere the optimum
collapses to the pay-everything boundary with
v(0) = c / (lam + q - lam r u(d)).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divbarrier as db
from divbarrier import expmodel, hfun, scale, valuation
from divbarrier.gridmath import GridFunction, NonConvergenceError
from divbarrier.hfun import h_callable, w_d
from divbarrier.valuation import (
    barrier_solution_at,
    density_shape_advisory,
    generator_apply,
    gprime_monotone_check,
    hjb_curve,
    hjb_verify,
    optimal_barrier,
    value_barrier,
    _closed_barrier,
    _refine_root,
    _sign_changes,
)
from divbarrier.lundberg import lundberg_root

from conftest import make_model

A_STAR_CLOSED = 0.7693150584134274
BOUNDARY_V0_D2 = 4.082663648860868


class TestOptimalBarrierNoDelay:
    def test_location(self, sol_d0):
        assert not sol_d0.boundary
        assert sol_d0.a_star == pytest.approx(A_STAR_CLOSED, abs=2e-6)
        assert sol_d0.alternatives == ()

    def test_certificate_attached(self, sol_d0):
        rep = sol_d0.hjb_report
        assert rep is not None and rep.passed
        assert rep.generator_above.passed
        assert rep.generator_interior.passed
        assert rep.slope_floor.passed
        assert rep.a_star == sol_d0.a_star

    def test_value_reciprocal_slope(self, m_d0, sol_d0):
        got = sol_d0.value(0.0) * expmodel.exp_series(m_d0, sol_d0.a_star, 0.0)[1][0]
        assert got == pytest.approx(1.0, rel=1e-6)

    def test_linear_above_and_continuous(self, sol_d0):
        a = sol_d0.a_star
        va = sol_d0.value(a)
        for t in (0.1, 0.5, 2.0):
            assert sol_d0.value(a + t) == pytest.approx(va + t, rel=1e-9)
        assert sol_d0.value(a - 1e-7) == pytest.approx(va, abs=1e-6)

    def test_vector_evaluation(self, sol_d0):
        xs = np.array([0.0, 0.3, sol_d0.a_star, 1.5])
        vec = sol_d0.value(xs)
        assert vec.shape == (4,)
        for i, x in enumerate(xs):
            assert vec[i] == sol_d0.value(float(x))

    def test_dominates_forced_barriers(self, m_d0, sol_d0):
        best = sol_d0.value(0.3)
        for off in (-0.2, -0.1, -0.05, 0.05, 0.1, 0.2):
            rival = barrier_solution_at(m_d0, sol_d0.a_star + off)
            assert rival.value(0.3) < best

    def test_scan_range_too_small(self, m_d0):
        with pytest.raises(ValueError, match="a_max"):
            optimal_barrier(m_d0, 0.3)


class TestSmallestSlopeRule:
    """Erlang(2) claims (Azcue & Muler 2005): h' rises from 0, peaks at
    1.766 and dips to a local minimum at 10.34 that is still above h'(0).

    The first zero of h'' is a local maximum of h', so it must not be
    chosen; the smallest slope (Loeffen 2008) is at 0. No barrier is
    optimal here, and the HJB check says so.
    """

    @pytest.fixture(scope="class")
    def sol(self):
        step = 1e-3
        xs = np.arange(0.0, 40.0 + step / 2, step)
        g = GridFunction(0.0, 40.0, step, xs * np.exp(-xs))
        dist = db.TabulatedClaims(g.with_values(g.values / g.trapz()))
        m = db.validate(db.ModelParams(lam=10.0, c=21.4, sigma=0.0, q=0.1,
                                       r=1.0, d=0.0), dist)
        return optimal_barrier(m, a_max=20.0)

    def test_picks_smallest_slope(self, sol):
        assert sol.a_star == 0.0
        assert sol.boundary
        # every zero of h'' is reported, the rejected maximum included
        assert sol.alternatives == pytest.approx((1.766284, 10.342284), abs=1e-6)

    def test_certificate_fails(self, sol):
        assert not sol.hjb_report.passed
        assert not sol.hjb_report.generator_above.passed
        assert sol.hjb_report.method == "sampled"


class TestRefineRoot:
    """The zero of h'' between two nodes is the root of the parabola
    through the three nodes around them, taken in closed form."""

    XS = 0.1 * np.arange(11)

    @pytest.mark.parametrize("root,i", [(0.037, 0), (0.537, 5), (0.963, 9)])
    def test_exact_parabola(self, root, i):
        ys = (self.XS - root) * (self.XS + 2.0)
        assert abs(_refine_root(self.XS, ys, i) - root) <= 1e-15

    def test_chord_without_a_root_in_the_bracket(self):
        # roots at 0.2 and 1, none in [0.5, 0.6]
        ys = (self.XS - 0.2) * (self.XS - 1.0)
        xs = self.XS
        chord = xs[5] + (xs[6] - xs[5]) * ys[5] / (ys[5] - ys[6])
        assert _refine_root(self.XS, ys, 5) == chord

    @pytest.mark.parametrize("i", [4, 5])
    def test_zero_on_a_node(self, i):
        ys = (self.XS - self.XS[5]) * (self.XS + 2.0)
        assert ys[5] == 0.0
        got = _refine_root(self.XS, ys, i)
        assert abs(got - self.XS[5]) <= 1e-15
        if i == 5:
            assert got == self.XS[5]


class TestClosedCurvatureRoot:
    """Where h is a sum of exponentials safeguarded Newton steps on the
    closed h'' polish its zero; a table's scan keeps the parabola's
    root."""

    def test_no_delay_is_the_closed_root(self, sol_d0):
        # a* is rounded to 12 decimals; the parabola through three scan
        # nodes was 1.1e-11 off
        assert abs(sol_d0.a_star - A_STAR_CLOSED) < 1e-12

    def test_table_keeps_the_parabola_root(self, tab_dist):
        # the scan optimal_barrier runs on [0, a_max] at its grid_step
        m = db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 0.0), tab_dist)
        scan = db.h_d_sigma0(m, 2.0, 1e-3)
        xs = hfun._solver_nodes(2.0, scan.step)
        hpp = scan.read(xs, 2)
        (i,) = np.nonzero(np.sign(hpp[:-1]) * np.sign(hpp[1:]) < 0)[0]
        assert optimal_barrier(m, 2.0).a_star == round(_refine_root(xs, hpp, i), 12)

    def test_forced_diffusion_barrier_solves_at_the_closed_floor(self):
        # the 1e-5 floor built 78,599 nodes here; v and the HJB sweep read
        # h in closed form, not off this grid
        m = make_model(0.0, sigma=0.5)
        a = 0.7859783069
        sol = barrier_solution_at(m, a)
        assert len(sol.h.grid.values) <= 1 + round(a / 1e-4)
        assert sol.value(0.0) == 0.0
        assert hjb_verify(m, sol, a + 3.0).passed


# Exp(1) models (sigma, d, r) across the grace periods, the critical
# clock near d = 0.15 and de Finetti's r = 1
SIGN_COUNT_GRID = [(sigma, d, r) for sigma in (0.0, 0.5)
                   for d in (0.0, 0.01, 0.03, 0.05, 0.1, 0.15, 0.5, 2.0, math.inf)
                   for r in (0.5, 0.8, 1.0)]


def _exp_generator_above(m, sol):
    """(alpha, kill, beta) with (Gamma - q) v(a* + s) = alpha - kill s
    + beta e^{-mu s} at every s >= 0 for Exp(mu) claims, spelled here from
    the model, h's weights and w_d(0) as the reference that the sampled
    sweep and the route's closed sup are held to.

    A claim y <= s lands above the barrier, on s - y + V (V = v(a*), v(0)
    at a* = 0); one in (s, s + a*] lands on V h; one past s + a* lands
    below zero, on v(0) Phi_d, which the density turns into
    v(0) w_d(0) e^{-mu x}.
    """
    a, h, mu = sol.a_star, sol.h, m.claims.mu
    lam, c, r = m.lam, m.c, m.r
    kill = m.q + lam * (1.0 - r)
    v0 = float(sol.value(0.0))
    big_v, k1 = v0, 0.0
    if a:
        big_v = 1.0 / float(h.read(a, 1)[0])
        k1 = mu * big_v * float(np.sum(h.w * np.expm1((h.t + mu) * a) / (h.t + mu)))
    u = float(w_d(m, 0.0))
    beta = lam * r * ((1.0 / mu - big_v) + math.exp(-mu * a) * (k1 + v0 * u))
    return c - lam * r / mu - kill * big_v, kill, beta


# optimal_barrier runs neither a scan nor a sweep on these exponent routes
NO_SCAN_MODELS = {
    "0.0-0.0": lambda: make_model(0.0),
    "0.0-2.0": lambda: make_model(2.0),
    "0.5-0.1": lambda: make_model(0.1, sigma=0.5),
    "0.5-inf": lambda: make_model(math.inf, sigma=0.5),
    "table-0.0-inf": lambda: _tab_dinf(),
}


@st.composite
def exp_models(draw):
    """Exp(mu) models over the valid box, at every kind of grace period."""
    lam, mu = draw(st.floats(1.0, 20.0)), draw(st.floats(0.2, 5.0))
    params = db.ModelParams(
        lam=lam, c=(1.0 + draw(st.floats(0.01, 2.0))) * lam / mu,
        sigma=draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0))),
        q=draw(st.floats(1e-3, 1.0)), r=draw(st.floats(0.05, 1.0)),
        d=draw(st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-3, 50.0))))
    return db.validate(params, db.ExponentialClaims(mu))


class TestClosedOptimality:
    """On every exponent route a* comes from the signs of h's weights and
    the zero of the closed h'', with no scan, and the HJB report is closed
    on all of [0, inf); hjb_verify's sampled sweep stays the cross-check."""

    @pytest.mark.parametrize("sigma,d,r", SIGN_COUNT_GRID)
    def test_sign_count_and_closed_report(self, sigma, d, r):
        m = make_model(d, sigma=sigma, r=r)
        route = hfun._route(m)[0]
        order = np.argsort(route.t)
        t, w = route.t[order], route.weights[order]
        assert _sign_changes(w * t) == 0
        assert _sign_changes(w * t * t) == (0 if math.isinf(d) else 1)
        sol = optimal_barrier(m, 40.0)
        rep = sol.hjb_report
        assert rep.passed and rep.method == "closed" and rep.x_max == math.inf
        # h's own closed certificate; measured at most 2.2e-13
        assert sol.h.ide_residual <= 1e-12
        # the sweep above a* against the closed generator; measured below
        # 1e-9, except at sigma 0.5, d = 0, where the sweep's own
        # quadrature of the boundary layer at 0 is 2.7e-6 off. At s = 0
        # the sweep's grid misses a*, so its sup there is not compared
        alpha, kill, beta = _exp_generator_above(m, sol)
        xs, gen = hjb_curve(m, sol, sol.a_star + 1.0)
        s = xs - sol.a_star
        above = s > 0.0
        closed = alpha - kill * s[above] + beta * np.exp(-m.claims.mu * s[above])
        tol = 1e-5 if (sigma, d) == (0.5, 0.0) else 1e-8
        assert np.max(np.abs(closed - gen[above])) < tol
        # the route's sup is the reference's, at its own point and above
        # every sampled s; at d = inf -sigma^2 rho / 2 is 4e-12 off it
        top = rep.generator_above
        at = top.worst_x - sol.a_star
        assert abs(alpha - kill * at + beta * math.exp(-m.claims.mu * at) - top.worst_value) < 1e-11
        assert np.max(closed) < top.worst_value + 1e-11
        assert all(type(f) in (float, bool) for f in (
            top.worst_x, top.worst_value, top.passed, rep.passed))

    def test_just_below_the_critical_clock(self):
        # d = 0.15 sits under d_c = 0.1500040, where h''(0) = -3.96e-7: the
        # 1e-3 scan read the candidates' slopes off np.interp of its h' and
        # gave a* = 0, flagged boundary, with 5.62667e-7 as an alternative
        sol = optimal_barrier(make_model(0.15, sigma=0.5), 2.0)
        assert sol.a_star == pytest.approx(5.62667e-7, abs=1e-12)
        assert not sol.boundary
        assert sol.alternatives == ()
        assert sol.hjb_report.passed

    def test_de_finetti_with_a_diffusion(self):
        # r = 1: the sampled sweep read -5.08e-5 in the boundary layer at
        # x = 0.04, its own quadrature, and refused this barrier at tol 1e-5
        sol = optimal_barrier(make_model(0.0, sigma=0.5, r=1.0), 40.0)
        assert sol.a_star == pytest.approx(14.660641, abs=1e-6)
        assert sol.hjb_report.passed
        assert sol.hjb_report.generator_interior.tol == 1e-5
        flat = make_model(0.0, r=1.0)
        assert optimal_barrier(flat, 40.0).a_star == pytest.approx(14.598881, abs=1e-6)
        with pytest.raises(ValueError, match="enlarge a_max"):
            optimal_barrier(flat, 10.0)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(exp_models())
    def test_sign_count_over_the_valid_box(self, m):
        # the signs of the weights decide a* on every Exp(mu) route (see
        # _closed_barrier), and the closed report passes; a coarse
        # grid_step, since the grid is only a sampled view of h
        route = hfun._route(m)[0]
        order = np.argsort(route.t)
        t, w = route.t[order], route.weights[order]
        assert _sign_changes(w * t) == 0 and _sign_changes(w * t * t) <= 1
        sol = optimal_barrier(m, 1e3, grid_step=1e-1)
        assert sol.hjb_report.method == "closed" and sol.hjb_report.passed

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(exp_models(), st.floats(0.05, 5.0))
    def test_h_at_zero_is_exact_over_the_valid_box(self, m, a):
        # at sigma > 0 W's weights sum to 0 exactly, so h = W(x)/W(a) reads
        # h(0) = 0 with no patch, and the certificate is the closed bound
        # alone, with no |W(0)|/W(a) term. That bound is not below 1e-12 on
        # the whole box: K at the roots carries the Lundberg root's residual
        # (1e-12) and rounding at t_3 near -2c/sigma^2; 107 of 1,500 random
        # draws read more, up to 2.8e-9 at sigma = 0.006
        if m.sigma == 0.0:
            return
        assert sum(scale._roots(m)[1]) == 0.0
        m0 = db.validate(dataclasses.replace(m.params, d=0.0), m.claims)
        h = hfun.h_d_sigma_pos(m0, a)
        assert h.read(0.0)[0] == 0.0 and h.grid.values[0] == 0.0
        assert h.ide_residual == hfun._closed_residual(m0, h.t, h.w, a)[0]
        assert h.ide_residual <= hfun._RESIDUAL_GATE

    @pytest.mark.parametrize("case", sorted(NO_SCAN_MODELS))
    def test_no_scan_and_no_sweep(self, monkeypatch, case):
        calls = []
        for name in ("_build_h", "_generator_sweep"):
            def spy(*args, _name=name, _real=getattr(valuation, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(valuation, name, spy)
        optimal_barrier(NO_SCAN_MODELS[case](), 2.0)
        assert calls == ["_build_h"]

    def test_undecided_signs_are_refused(self):
        # no route's weights do this (see _closed_barrier); were they to,
        # a* is refused, not taken off a scan
        t = np.array([-2.0, -1.0, 1.0])
        for w in ([1.0, -1.0, 1.0],   # two sign changes in the weights of h''
                  [-1.0, 1.0, 1.0],   # one in the weights of h'
                  [1.0, 1.0, -1.0]):  # h' < 0 far out
            with pytest.raises(NonConvergenceError, match="undecided"):
                _closed_barrier(t, np.array(w))
        assert _closed_barrier(np.array([0.3]), np.ones(1)) == 0.0

    def test_table_at_the_infinite_clock_reports_in_closed_form(self):
        # its h = e^{rho (x - a)} has one exponent, so a* = 0 with no scan,
        # and the sup above a* is closed for any claim law, with no sweep
        sol = optimal_barrier(_tab_dinf(), 2.0)
        rep = sol.hjb_report
        assert sol.a_star == 0.0 and sol.boundary
        assert rep.method == "closed" and rep.passed and rep.x_max == math.inf

    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_table_at_the_infinite_clock_matches_the_sweep(self, sigma, step):
        # the closed sup -sigma^2 rho / 2, at 0, against hjb_verify's sweep
        # on [0, 10]; 40 random tables measured at most 2.3e-11 apart
        m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, math.inf),
                        db.tabulated_exponential(1.0, step=step))
        sol = optimal_barrier(m, 2.0)
        top = sol.hjb_report.generator_above
        assert (top.worst_x, top.worst_value) == (0.0, -0.5 * sigma ** 2 * m.rho)
        swept = hjb_verify(m, sol, 10.0).generator_above
        assert swept.worst_x == 0.0
        assert abs(swept.worst_value - top.worst_value) <= 1e-10


def _tab_model(sigma, d):
    return db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d),
                       db.tabulated_exponential(1.0, step=1e-2))


class TestOneSolutionPath:
    """optimal_barrier only finds a*: the solution at a*, 0 included, is
    barrier_solution_at's on every route, and neither builds h's sampled
    grid on an exponent route."""

    @pytest.mark.parametrize("make", [
        lambda: make_model(0.0), lambda: make_model(2.0),
        lambda: _tab_model(0.0, 0.0), lambda: _tab_model(0.0, 2.0),
        lambda: _tab_model(0.5, 0.05), lambda: _tab_dinf(),
    ], ids=["exp-d0", "exp-d2", "tab-d0", "tab-d2", "tab-s0.5-d0.05", "tab-dinf"])
    def test_every_a_star_goes_through_barrier_solution_at(self, monkeypatch, make):
        m, calls = make(), []

        def spy(model, a, grid_step=1e-3, _real=valuation.barrier_solution_at):
            calls.append(a)
            return _real(model, a, grid_step)

        monkeypatch.setattr(valuation, "barrier_solution_at", spy)
        sol = optimal_barrier(m, 2.0)
        assert calls == [sol.a_star]
        assert sol.boundary == (sol.a_star == 0.0)

    @pytest.mark.parametrize("d", [0.0, 0.05])
    def test_a_scanned_a_star_is_a_python_float(self, d):
        # the parabola's root was a numpy scalar, and so were a*, the
        # report's a_star and its x_max
        sol = optimal_barrier(_tab_model(0.0, d), 2.0)
        rep = sol.hjb_report
        assert rep.method == "sampled" and sol.a_star > 0.0
        for value in (sol.a_star, rep.a_star, rep.x_max) + sol.alternatives:
            assert type(value) is float

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.1, math.inf])
    def test_no_sampled_grid_on_an_exponent_route(self, monkeypatch, sigma, d):
        calls = []
        real = hfun._solver_grid
        monkeypatch.setattr(hfun, "_solver_grid", lambda *args: calls.append(args) or real(*args))
        m = make_model(d, sigma=sigma)
        for sol in (optimal_barrier(m, 40.0), barrier_solution_at(m, 0.3)):
            sol.value(np.array([-0.2, 0.0, 0.1, sol.a_star + 1.0]))
            assert "grid" not in vars(sol.h)
        assert calls == []


class TestBoundaryOptimumWithDelay:
    def test_collapses_to_zero(self, sol_d2):
        assert sol_d2.boundary
        assert sol_d2.a_star == 0.0

    def test_lump_value(self, m_d2, sol_d2):
        assert sol_d2.value(0.0) == pytest.approx(BOUNDARY_V0_D2, abs=1e-9)
        lam, c, q, r = m_d2.lam, m_d2.c, m_d2.q, m_d2.r
        direct = c / (lam + q - lam * r * expmodel.u_of_d(m_d2, 2.0))
        assert sol_d2.value(0.0) == pytest.approx(direct, rel=1e-9)

    def test_linear_above_zero(self, sol_d2):
        v0 = sol_d2.value(0.0)
        for x in (0.2, 1.0, 4.0):
            assert sol_d2.value(x) == pytest.approx(v0 + x, rel=1e-12)

    def test_negative_side_is_discounted_upcross(self, m_d2, sol_d2):
        v0 = sol_d2.value(0.0)
        for x in (0.1, 1.0, 5.0):
            phi = db.upcross_transform(m_d2, x, 2.0).value
            assert sol_d2.value(-x) == pytest.approx(v0 * phi, rel=1e-6)
        # past the kinematic reach there is no way back up
        assert sol_d2.value(-(m_d2.c * 2.0) - 0.5) == 0.0

    def test_certificate_vacuous_interior(self, sol_d2):
        rep = sol_d2.hjb_report
        assert rep.passed
        assert rep.generator_interior.worst_x is None
        assert rep.slope_floor.worst_x is None
        assert rep.generator_above.passed

    def test_forced_zero_barrier_stub(self, m_d2):
        sol = barrier_solution_at(m_d2, 0.0)
        assert sol.boundary and sol.a_star == 0.0
        assert sol.value(0.0) == pytest.approx(BOUNDARY_V0_D2, abs=1e-6)


class TestValueBarrier:
    def test_mismatched_barrier_rejected(self, m_d0, sol_d0):
        with pytest.raises(ValueError, match="barrier"):
            value_barrier(m_d0, sol_d0.h, sol_d0.a_star + 0.01, 0.3)

    def test_matches_solution_callable(self, m_d0, sol_d0):
        a = sol_d0.a_star
        for x in (0.0, 0.4, a, a + 1.0):
            assert value_barrier(m_d0, sol_d0.h, a, x) == sol_d0.value(x)


class TestGeneratorApply:
    def test_constant_function(self, m_d0):
        # Gamma 1 = -lam (1 - r), no discounting term included
        got = generator_apply(m_d0, lambda x: np.ones_like(np.asarray(x, float)),
                              2.0)
        assert got == pytest.approx(-m_d0.lam * (1.0 - m_d0.r), abs=1e-6)

    def test_exponential_eigenfunction(self, m_d0):
        rho = lundberg_root(m_d0).rho
        g = lambda x: np.exp(rho * np.asarray(x, dtype=float))
        g1 = lambda x: rho * math.exp(rho * x)
        g2 = lambda x: rho * rho * math.exp(rho * x)
        for x in (0.5, 1.5, 3.0):
            got = generator_apply(m_d0, g, x, g1=g1, g2=g2)
            assert got == pytest.approx(m_d0.q * g(x), abs=1e-6)

    def test_unreachable_support_rejected(self, m_d0):
        g = lambda x: np.ones_like(np.asarray(x, float))
        with pytest.raises(ValueError, match="unreachable"):
            generator_apply(m_d0, g, 0.5, support_lo=0.0)

    def test_knot_splitting_tightens(self, m_d0):
        # |x - 1| has a kink the quadrature should split at
        g = lambda x: np.abs(np.asarray(x, dtype=float) - 1.0)
        with_knot = generator_apply(m_d0, g, 2.0, knots=(1.0,), y_step=1e-3)
        fine = generator_apply(m_d0, g, 2.0, knots=(1.0,), y_step=1e-5)
        assert with_knot == pytest.approx(fine, abs=1e-4)


class TestHJBChecks:
    def test_curve_starts_at_barrier(self, m_d0, sol_d0):
        xs, gen = hjb_curve(m_d0, sol_d0, sol_d0.a_star + 2.0)
        assert xs[0] >= sol_d0.a_star - 1e-12
        assert xs[0] <= sol_d0.a_star + 3e-4
        assert np.max(gen) <= 1e-5

    def test_forced_high_barrier_fails_slope_floor(self, m_d0, sol_d0):
        bad = barrier_solution_at(m_d0, sol_d0.a_star + 0.5)
        rep = hjb_verify(m_d0, bad, bad.a_star + 2.0)
        assert not rep.passed
        assert not rep.slope_floor.passed
        # slope dips below one near the true optimum
        assert rep.slope_floor.worst_value == pytest.approx(0.98364, abs=1e-3)
        assert 0.0 < rep.slope_floor.worst_x < bad.a_star

    def test_report_fields(self, sol_d0):
        rep = sol_d0.hjb_report
        for chk in (rep.generator_above, rep.generator_interior,
                    rep.slope_floor):
            assert chk.tol == 1e-5
        assert rep.generator_above.worst_x >= sol_d0.a_star - 1e-12


class TestMonotoneSlopeScreen:
    def test_reference_model_passes(self, m_d0, sol_d0):
        rep = gprime_monotone_check(m_d0, sol_d0.a_star, 2.0)
        assert rep.passed
        assert rep.worst_violation <= 1e-7

    def test_synthetic_dip_detected(self, m_d0):
        xs_n = 101
        vals = np.linspace(1.0, 2.0, xs_n)
        vals[60] -= 0.05
        fake = GridFunction(0.0, 1.0, 1.0 / (xs_n - 1), vals)
        rep = gprime_monotone_check(m_d0, 0.2, 1.0, gprime=fake)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(0.04, rel=1e-9)

    def test_range_validation(self, m_d0):
        with pytest.raises(ValueError):
            gprime_monotone_check(m_d0, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_diffusion_no_delay_starts_from_zero(self):
        # h(0) = 0 at sigma > 0, d = 0: the screen scales by h'(0) and the
        # pay-everything barrier is worth x, both without dividing by 0
        m = make_model(0.0, sigma=0.5)
        rep = gprime_monotone_check(m, 0.786, 1.5)
        assert rep.passed and rep.worst_violation == 0.0
        assert not gprime_monotone_check(m, 0.3, 1.5).passed
        xs = np.array([-0.1, 0.0, 0.5])
        np.testing.assert_array_equal(barrier_solution_at(m, 0.0).value(xs),
                                      [0.0, 0.0, 0.5])


class TestDensityShapeAdvisory:
    def test_exponential_guaranteed(self):
        adv = density_shape_advisory(db.ExponentialClaims(1.0))
        assert adv.monotone
        assert adv.direction == "nondecreasing"
        assert "guaranteed" in adv.message

    def test_triangular_flat_slope(self):
        step = 1e-3
        xs = np.arange(0.0, 2.0 + step / 2, step)
        tri = db.TabulatedClaims(GridFunction(0.0, 2.0, step, 1.0 - xs / 2))
        adv = density_shape_advisory(tri)
        assert adv.monotone
        assert adv.direction == "constant"
        assert "flat" in adv.message

    def test_humped_density_inconclusive(self):
        step = 1e-3
        xs = np.arange(0.0, 30.0 + step / 2, step)
        vals = xs * np.exp(-xs)
        g = GridFunction(0.0, 30.0, step, vals)
        vals = vals / g.trapz()
        hump = db.TabulatedClaims(GridFunction(0.0, 30.0, step, vals))
        adv = density_shape_advisory(hump)
        assert not adv.monotone
        assert adv.direction == "none"
        assert "inconclusive" in adv.message


@st.composite
def forced_barriers(draw):
    """sigma = 0, exponential claims, positive loading, a forced barrier."""
    lam = draw(st.floats(2.0, 12.0))
    mu = draw(st.floats(0.5, 2.0))
    loading = draw(st.floats(0.1, 1.0))
    params = db.ModelParams(
        lam=lam, c=(1.0 + loading) * lam / mu, sigma=0.0,
        q=draw(st.floats(0.02, 0.3)), r=draw(st.floats(0.3, 1.0)),
        d=draw(st.sampled_from([0.0, 0.5, 2.0, math.inf])))
    model = db.validate(params, db.ExponentialClaims(mu))
    return model, draw(st.floats(0.2, 1.5))


class TestValueAssemblyProperties:
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(forced_barriers())
    def test_value_shape(self, case):
        model, a = case
        v = barrier_solution_at(model, a, grid_step=1e-2).value
        reach = model.c * model.d
        if math.isfinite(reach):
            # past the Parisian reach no claim-free climb gets back to 0
            assert v(np.array([-reach - 1.0, -reach - 1e-3])).tolist() == [0.0, 0.0]
            if reach > 0:
                assert v(-reach) == 0.0
        if model.d > 0:
            assert v(-1e-9) == pytest.approx(v(0.0), rel=1e-6)
        lo = max(-reach, -5.0)
        xs = np.concatenate([np.linspace(lo, 0.0, 40, endpoint=False),
                             np.linspace(0.0, a + 1.0, 200)])
        vals = v(xs)
        assert np.all(np.diff(vals) >= -1e-12 * np.max(vals))
        above = np.array([a + 0.1, a + 0.5, a + 1.0])
        np.testing.assert_allclose(v(above) - v(a), above - a, rtol=1e-12)


def _tab_dinf():
    return _tab_model(0.0, math.inf)


# the whole-line readers, each built lazily; a NaN point gave 0.0 (the
# continuation below zero and w_d at d = 0), NaN (the barrier value
# above 0 and w_d at 0 < d < inf) or an IndexError (a table's w_d at
# d = inf)
NAN_READERS = {
    "h_callable": lambda: h_callable(make_model(2.0),
                                     barrier_solution_at(make_model(2.0), 0.5).h),
    "value-a0": lambda: barrier_solution_at(make_model(2.0), 0.0).value,
    "value-a0.5": lambda: barrier_solution_at(make_model(2.0), 0.5).value,
    "w_d-d2": lambda: lambda x: w_d(make_model(2.0), x),
    "w_d-d0": lambda: lambda x: w_d(make_model(0.0), x),
    "w_d-tab-dinf": lambda: lambda x: w_d(_tab_dinf(), x),
}


class TestInputGuards:
    # a barrier, a_max or x_max that is not finite, or a grid step that
    # is not positive and finite, is refused before any grid is built
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_levels(self, m_d0, sol_d0, bad):
        with pytest.raises(ValueError, match="a_max"):
            optimal_barrier(m_d0, bad)
        with pytest.raises(ValueError, match="barrier"):
            barrier_solution_at(m_d0, bad)
        with pytest.raises(ValueError):
            hjb_verify(m_d0, sol_d0, bad)
        with pytest.raises(ValueError, match="x_max"):
            hjb_curve(m_d0, sol_d0, bad)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.inf, math.nan])
    def test_grid_steps(self, m_d0, sol_d0, step):
        g = lambda x: np.ones_like(np.asarray(x, float))
        calls = (
            lambda: optimal_barrier(m_d0, 2.0, step),
            lambda: barrier_solution_at(m_d0, 0.5, step),
            lambda: barrier_solution_at(m_d0, 0.0, step),
            lambda: hjb_verify(m_d0, sol_d0, 3.0, grid_step=step),
            lambda: hjb_curve(m_d0, sol_d0, 3.0, grid_step=step),
            lambda: gprime_monotone_check(m_d0, 0.77, 2.0, grid_step=step),
            lambda: generator_apply(m_d0, g, 0.5, y_step=step),
            lambda: density_shape_advisory(db.ExponentialClaims(1.0), grid_step=step),
        )
        for call in calls:
            with pytest.raises(ValueError, match="grid step"):
                call()

    # a NaN point is refused too, not read as a point
    @pytest.mark.parametrize("reader", sorted(NAN_READERS))
    def test_whole_line_readers_refuse_nan(self, reader):
        fun = NAN_READERS[reader]()
        for x in (math.nan, np.array([0.1, math.nan])):
            with pytest.raises(ValueError):
                fun(x)


class TestTableMatchesExponential:
    """The 1e-3 table sampled from Exp(1) lands on the Exp(1) model's
    barrier: the table's w_d forcing and Phi_d are read on its own
    lattice, so its only error is the lattice's O(step^2)."""

    @staticmethod
    def _pair(sigma, d):
        params = db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, d)
        return [optimal_barrier(db.validate(params, claims), 2.0)
                for claims in (db.tabulated_exponential(1.0, step=1e-3),
                               db.ExponentialClaims(1.0))]

    @pytest.mark.parametrize("d", [0.02, 0.05])
    def test_flat_small_clock(self, d):
        # a Simpson rule on a 2e-2 deficit grid straddled Phi_d's drop to
        # 0 at c d and put a* at 0.458659 against 0.471415 (d = 0.02) and
        # 0.043056 against 0.045701 (d = 0.05), with HJB passing; the
        # lattice reading is within 1.1e-6
        table, exact = self._pair(0.0, d)
        assert abs(table.a_star - exact.a_star) < 1e-5
        assert abs(table.value(0.0) - exact.value(0.0)) < 1e-6
        assert table.hjb_report.passed

    def test_diffusion_claim_total_past_the_table_end(self):
        # sigma 0.5, d = 2: the law of X_d reads the claim powers past the
        # table end at 30; cut there, v(0) was 1.47e-6 off, and it is
        # 2.8e-10 off with the powers run on
        table, exact = self._pair(0.5, 2.0)
        assert table.a_star == exact.a_star == 0.0
        assert abs(table.value(0.0) - exact.value(0.0)) < 1e-8
