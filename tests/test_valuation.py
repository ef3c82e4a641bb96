"""Barrier values, the optimal barrier, and the generator certificates.

With exponential claims the closed series give an independent handle
on everything here: the optimal no-delay barrier is the unique zero
of theta'' (0.76931505841... for the reference parameters), the value
at zero satisfies v(0) theta'(a*) = 1, and when the grace period is
long enough to push the curvature positive everywhere the optimum
collapses to the pay-everything boundary with
v(0) = c / (lam + q - lam r u(d)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divbarrier as db
from divbarrier import expmodel
from divbarrier.gridmath import GridFunction
from divbarrier.valuation import (
    barrier_solution_at,
    density_shape_advisory,
    generator_apply,
    gprime_monotone_check,
    hjb_curve,
    hjb_verify,
    optimal_barrier,
    value_barrier,
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
