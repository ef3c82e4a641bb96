"""Upcrossing transform of the below-zero excursion.

Phi_d(y) is the discounted weight of climbing from 0 to level y before
the clock d runs out, counting claims along the way. At d = inf it
must equal e^{-rho y} exactly, which pins the whole machinery to the
exponent root. With no diffusion the climb rate is c, so d < y/c is
kinematically impossible and the transform vanishes.

The one-claim passage density has the closed form
    v_1(t) = lam y e^{-lam t} f(c t - y),  t > y / c,
because the claim instant drops out of the integral; that is used as a
sharp oracle below.
"""

import functools
import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import cli, firstpassage, gridmath, hfun, scale
from divbarrier.firstpassage import (
    AtomNotDensity,
    UpcrossTransform,
    upcross_table,
    upcross_transform,
    vy_density,
)
from divbarrier.lundberg import lundberg_root
from divbarrier.scale import K_TAIL_TOL, _claim_cutoff

from conftest import make_model
import scale_oracle

RHO = 0.24492856518008138


class TestInfiniteClock:
    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0])
    def test_matches_exponent_root(self, m_dinf, y):
        tr = upcross_transform(m_dinf, y, math.inf)
        assert abs(tr.value - math.exp(-RHO * y)) <= 1e-6

    def test_dataclass_fields(self, m_dinf):
        tr = upcross_transform(m_dinf, 0.5, math.inf)
        assert isinstance(tr, UpcrossTransform)
        assert tr.y == 0.5 and math.isinf(tr.d)
        assert tr.truncation_k >= 0
        assert 0.0 <= tr.tail_bound < 1e-6

    def test_discount_off_limit(self):
        # q -> 0 with r = 1 removes all discounting; with positive
        # loading the climb is certain, so the transform goes to 1
        m = make_model(math.inf, q=1e-8, r=1.0)
        assert upcross_transform(m, 0.5, math.inf).value >= 1.0 - 1e-7


class TestFiniteClock:
    def test_monotone_in_d(self, m_d2):
        vals = [upcross_transform(make_model(d), 0.5, d).value
                for d in (0.1, 0.5, 2.0)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] <= math.exp(-RHO * 0.5) + 1e-12

    def test_decreasing_in_y(self, m_d2):
        vals = [upcross_transform(m_d2, y, 2.0).value
                for y in (0.2, 0.6, 1.5)]
        assert vals[0] > vals[1] > vals[2]

    def test_kinematic_zero(self):
        # reaching y = 0.5 takes at least y/c = 1/30 of drift time
        m = make_model(0.02)
        assert upcross_transform(m, 0.5, 0.02).value == 0.0

    def test_zero_level_is_certain(self, m_d2):
        assert upcross_table(m_d2, 2.0, np.array([0.0]))[0] == 1.0

    def test_table_matches_scalar_calls(self, m_d2):
        ys = np.array([0.1, 0.4, 0.9])
        tab = upcross_table(m_d2, 2.0, ys)
        for y, v in zip(ys, tab):
            assert v == pytest.approx(
                upcross_transform(m_d2, float(y), 2.0).value, abs=1e-12)

    @pytest.mark.parametrize("d", [math.nan, -1.0, -math.inf])
    def test_bad_deadline_rejected(self, m_d2, d):
        for y in (0.0, 0.5):
            with pytest.raises(ValueError):
                upcross_transform(m_d2, y, d)
        with pytest.raises(ValueError):
            upcross_table(m_d2, d, np.array([0.0, 0.5]))

    def test_nan_deficit_rejected(self, m_d2):
        with pytest.raises(ValueError):
            upcross_transform(m_d2, math.nan, 2.0)
        with pytest.raises(ValueError):
            upcross_table(m_d2, 2.0, np.array([0.5, math.nan]))

    @pytest.mark.parametrize("d", [0.5, 2.0])
    def test_matches_the_scale_oracle(self, d):
        # Phi_d(y) = Lambda(-y)/Lambda(0) with X_d = c d - S_d a point
        # given S_d, near 0, inside the drift reach c d, just below it and
        # past it; measured within 8.3e-13
        ys = np.array([0.02, 0.3, 1.0, 5.0, 15.0 * d - 0.1, 15.0 * d + 0.3])
        want = scale_oracle.recovery(10.0, 15.0, 0.1, 0.8, 0.0, 1.0, d, ys)
        assert np.max(np.abs(upcross_table(make_model(d), d, ys) - want)) < 1e-11

    def test_tabulated_claims_agree_with_closed_route(self, tab_dist):
        mt = db.validate(
            db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 2.0), tab_dist)
        me = make_model(2.0)
        for y in (0.1, 0.5, 1.0):
            vt = upcross_transform(mt, y, 2.0).value
            ve = upcross_transform(me, y, 2.0).value
            assert vt == pytest.approx(ve, abs=1e-7)


class TestAdaptiveSimpson:
    def test_each_node_evaluated_once(self):
        # a doubling keeps the nodes it has and evaluates only the new
        # midpoints, so the points evaluated are exactly the final grid
        seen = []

        def fun(xs):
            seen.append(np.array(xs))
            return np.exp(-3.0 * xs) * np.sin(5.0 * xs)

        lo, hi = 0.2, 2.7
        val, err = gridmath._adaptive_simpson(fun, lo, hi, tol=1e-12)
        pts = np.sort(np.concatenate(seen))
        assert len(seen) > 2
        assert pts.tobytes() == np.linspace(lo, hi, len(pts)).tobytes()
        want = (math.exp(-3.0 * lo) * (3.0 * math.sin(5.0 * lo) + 5.0 * math.cos(5.0 * lo))
                - math.exp(-3.0 * hi) * (3.0 * math.sin(5.0 * hi)
                                         + 5.0 * math.cos(5.0 * hi))) / 34.0
        assert err < 1e-12
        assert val == pytest.approx(want, abs=1e-12)


class TestPassageDensities:
    def test_no_claim_passage_is_an_atom(self, m_d2):
        with pytest.raises(AtomNotDensity) as info:
            vy_density(m_d2, 0.5, 0, 0.1)
        err = info.value
        assert err.t_atom == pytest.approx(0.5 / 15.0, abs=1e-15)
        assert err.mass == pytest.approx(math.exp(-10.0 * 0.5 / 15.0), rel=1e-12)

    @pytest.mark.parametrize("t", [0.05, 0.1, 0.3, 1.0])
    def test_one_claim_closed_form(self, m_d2, t):
        y = 0.5
        want = 10.0 * y * math.exp(-10.0 * t) * m_d2.claims.density(15.0 * t - y)
        assert vy_density(m_d2, y, 1, t) == pytest.approx(want, rel=1e-10, abs=1e-18)

    def test_support_starts_at_the_drift_time(self, m_d2):
        y = 0.5
        assert vy_density(m_d2, y, 1, 0.02) == 0.0   # 0.02 < y/c
        assert vy_density(m_d2, y, 2, 0.02) == 0.0
        assert vy_density(m_d2, y, 1, 0.05) > 0.0

    def test_nonnegative(self, m_d2):
        for k in (1, 2, 3):
            ts = np.linspace(0.04, 1.0, 25)
            vals = np.array([vy_density(m_d2, 0.5, k, float(t)) for t in ts])
            assert np.all(vals >= 0.0)


class TestTabulatedRoutes:
    """A table at sigma = 0 takes one route, its Lambda (scale.TableRatio)
    on the table's lattice, for a whole deficit grid and for one deficit
    alike; both must give the same K, the same tail bound and values
    within 1e-13 (about K eps on values <= 1)."""

    @pytest.fixture(scope="class", params=[1e-2, 1e-3])
    def table(self, request):
        return db.tabulated_exponential(1.0, step=request.param)

    @pytest.mark.parametrize("d", [0.4, 2.0])
    def test_grid_route_matches_per_deficit_route(self, table, d):
        model = db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d), table)
        step, cd = table.grid.step, 15.0 * d
        # off-node deficits read the law of X_d at their offset, one of
        # them within a table step of c d; c d is the atom alone and
        # beyond it Phi_d is 0
        off_node = [0.0137, 0.5555, 2.71828, cd - 0.37 * step,
                    cd - 1.3 * step, cd, cd + 0.01]
        ys = np.concatenate([np.arange(0.0, table.reach + 1e-2, 2e-2), off_node])
        grid_vals, grid_k, grid_tail = firstpassage._phi_table(model, d, ys)
        # each single deficit builds its own Lambda: the first grid
        # deficit, one inside, the last below c d, and the off-node ones
        last = int(cd / 2e-2 - 1e-9)
        shared = [1, last // 2, last] + list(range(len(ys) - len(off_node), len(ys)))
        for i in shared:
            tr = upcross_transform(model, float(ys[i]), d)
            assert tr.truncation_k == grid_k and tr.tail_bound == grid_tail
            assert abs(tr.value - grid_vals[i]) <= 1e-13, ys[i]
        assert grid_vals[-1] == 0.0 and np.all(grid_vals[ys > cd] == 0.0)
        # at y = c d only the claim-free atom climbs back, just in time:
        # e^{-(lam + q) d}, read off the lattice to O(step^2); measured
        # 6.4e-8 / 2.4e-7 relative on the 1e-3 table at d = 0.4 / 2 and
        # 6.4e-6 / 3.5e-5 on the 1e-2 table
        assert abs(grid_vals[-2] / math.exp(-10.1 * d) - 1.0) < 0.7 * step ** 2

    @pytest.mark.parametrize("d", [0.0533, 0.4, 0.40002, 2.0])
    def test_grid_matches_exponential_claims(self, table, d):
        # the table's Lambda against the Exp(1) route's resummed series on
        # the 2e-2 Phi grid, c d on the lattice and off it (d = 0.40002,
        # and d = 0.0533 on the 1e-2 table); bounded by twice the measured
        # distances, O(step^2)
        measured = {(1e-3, 0.0533): 6.3e-8, (1e-3, 0.4): 2.3e-9, (1e-3, 0.40002): 3.6e-9,
                    (1e-3, 2.0): 1.5e-9, (1e-2, 0.0533): 5.4e-6, (1e-2, 0.4): 2.3e-7,
                    (1e-2, 0.40002): 2.5e-7, (1e-2, 2.0): 1.5e-7}
        ys = np.arange(0.0, table.reach + 1e-2, 2e-2)
        got = upcross_table(db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d),
                                        table), d, ys)
        dist = np.max(np.abs(got - _exponential_phi_grid(d)))
        assert dist < 2.0 * measured[table.grid.step, d]


@functools.lru_cache(maxsize=None)
def _exponential_phi_grid(d):
    m = db.validate(db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, d), db.ExponentialClaims(1.0))
    return upcross_table(m, d, np.arange(0.0, 30.0 + 1e-2, 2e-2))


class TestWithDiffusion:
    @pytest.mark.parametrize("claims,rel", [("exp", 1e-6), ("tab", 1e-5)])
    def test_small_sigma_passage_density_matches_sigma_zero(self, claims, rel):
        # the Gaussian smear of f^{k*} collapses onto the drift closed form
        dist = (db.ExponentialClaims(1.0) if claims == "exp"
                else db.tabulated_exponential(1.0, step=1e-2))

        def model(sigma):
            return db.validate(db.ModelParams(lam=10.0, c=15.0, sigma=sigma,
                                              q=0.1, r=0.8, d=2.0), dist)

        m0, ms = model(0.0), model(1e-3)
        for k in (1, 2):
            for t in (0.1, 0.3):
                want = vy_density(m0, 0.5, k, t)
                assert vy_density(ms, 0.5, k, t) == pytest.approx(want, rel=rel)

    def test_claim_free_passage_is_a_density(self):
        # with diffusion the claim-free climb is spread in time, not an atom
        v = vy_density(make_model(2.0, sigma=0.5), 0.5, 0, 0.1)
        assert math.isfinite(v) and v > 0.0

    def test_infinite_clock_closed_form(self):
        m = make_model(math.inf, sigma=0.5)
        rho = lundberg_root(m).rho
        for y in (0.25, 1.0):
            tr = upcross_transform(m, y, math.inf)
            assert tr.value == pytest.approx(math.exp(-rho * y), abs=1e-12)

    def test_long_clock_approaches_the_limit(self):
        m = make_model(30.0, sigma=0.5)
        rho = lundberg_root(m).rho
        tr = upcross_transform(m, 0.5, 30.0)
        assert tr.value == pytest.approx(math.exp(-rho * 0.5), abs=1e-6)
        assert tr.value <= math.exp(-rho * 0.5) + 1e-9

    def test_monotone_in_d(self):
        vals = [upcross_transform(make_model(d, sigma=0.5), 0.5, d).value
                for d in (0.5, 2.0, 30.0)]
        assert vals[0] < vals[1] < vals[2]

    # simulate_upcross, 2e4 paths, dt 1e-4, seed 5: 0.9836 +- 0.0009 at
    # y = 0.5 and 0.9155 +- 0.0019 at y = 2. The 5e-3 covers the Euler
    # paths' missed crossings (3e-3 between dt 1e-4 and 1e-5 at d = 0.1)
    SLOW_KILL = ((0.5, 0.9836, 0.0009), (2.0, 0.9155, 0.0019))

    def test_slow_killing_matches_simulation(self):
        # the scale route has no time mesh for a slow kill to coarsen
        m = db.validate(db.ModelParams(lam=10.0, c=15.0, sigma=0.5, q=0.01,
                                       r=1.0, d=1.0), db.ExponentialClaims(1.0))
        for y, mean, se in self.SLOW_KILL:
            assert abs(upcross_transform(m, y, 1.0).value - mean) < 3.0 * se + 5e-3

    def test_slow_killing_matches_simulation_on_a_table(self):
        # the table's Lambda has no time mesh either: 0.984212 and
        # 0.917012 (the time quadrature gave 0.9537 and 0.7517)
        m = db.validate(db.ModelParams(lam=10.0, c=15.0, sigma=0.5, q=0.01,
                                       r=1.0, d=1.0), db.tabulated_exponential(1.0))
        for y, mean, se in self.SLOW_KILL:
            assert abs(upcross_transform(m, y, 1.0).value - mean) < 3.0 * se + 5e-3

    # simulate_upcross with Exp(1) claims, 2e4 paths, dt 1e-4, seed 7
    PAST_REACH = ((1.55, 0.1608, 0.0026), (1.7, 0.0455, 0.0015), (3.0, 0.0, 0.0))

    # the exponential cases keep their ids; the 1e-2 table gave
    # 0.2098 and 0.1243 by the time quadrature, 0.1652 and 0.0445 now
    @pytest.mark.parametrize(
        "claims,y,mean,se",
        [("exp",) + row for row in PAST_REACH] + [("tab",) + row for row in PAST_REACH],
        ids=(["-".join(map(str, row)) for row in PAST_REACH]
             + ["-".join(map(str, ("tab",) + row)) for row in PAST_REACH]))
    def test_past_the_drift_reach_matches_simulation(self, claims, y, mean, se):
        # c d = 1.5: y = 1.55 and 1.7 are climbed only with the Brownian
        # part's help; the 5e-3 as in the slow-kill case. y = 3 is the
        # control
        dist = (db.ExponentialClaims(1.0) if claims == "exp"
                else db.tabulated_exponential(1.0, step=1e-2))
        m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 0.1), dist)
        assert abs(upcross_transform(m, y, 0.1).value - mean) < 3.0 * se + 5e-3

    def test_nonincreasing_in_the_deficit(self):
        # a deeper deficit is climbed only through the shallower ones
        m = make_model(0.1, sigma=0.5)
        vals = upcross_table(m, 0.1, np.arange(0.0, 40.0 + 0.25, 0.5))
        assert np.all(np.diff(vals) <= 0.0)
        assert vals[0] == 1.0 and vals[-1] >= 0.0

    def test_slope_at_zero_is_the_scale_slope(self):
        # -Phi_d'(0+) = Lambda'(0)/Lambda(0), the slope the exit function
        # imposes at 0; the 2nd-order one-sided difference at h = 1e-4 is
        # measured 7.7e-10 off
        m = make_model(0.05, sigma=0.5)
        h = 1e-4
        phi = upcross_table(m, 0.05, np.array([0.0, h, 2.0 * h]))
        diff = (3.0 * phi[0] - 4.0 * phi[1] + phi[2]) / (2.0 * h)
        assert abs(diff - scale.scale_ratio(m).slope) < 1e-6

    def test_exponential_report_is_the_quadrature_bound(self):
        # no claim-count sum to truncate; the tail bound is the moments'
        # quadrature error, and the value agrees with the oracle's
        m = make_model(0.1, sigma=0.5)
        want = scale_oracle.recovery(10.0, 15.0, 0.1, 0.8, 0.5, 1.0, 0.1, (0.5, 1.55),
                                     s_step=1e-3)
        for y, phi in zip((0.5, 1.55), want):
            tr = upcross_transform(m, y, 0.1)
            assert tr.truncation_k == 0
            assert 0.0 < tr.tail_bound < 1e-10
            assert abs(tr.value - phi) < 1e-12

    @pytest.mark.parametrize("claims", ["exp", "tab"])
    def test_every_claim_law_takes_the_scale_route(self, monkeypatch, claims):
        # one branch at sigma > 0 and 0 < d < inf, _phi_sigma_pos, and it
        # hands every claim law to scale.phi, which answers with K too
        dist = (db.ExponentialClaims(1.0) if claims == "exp"
                else db.tabulated_exponential(1.0, step=1e-2))
        m = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 0.5), dist)
        calls = []
        real = scale.phi

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(scale, "phi", counted)
        vals = upcross_table(m, 0.5, np.array([0.0, 0.3, 9.0]))
        tr = upcross_transform(m, 0.3, 2.0)
        assert calls == [0.5, 2.0]
        assert vals[0] == 1.0 and 0.0 < vals[2] < vals[1] < 1.0
        assert (tr.truncation_k == 0) == (claims == "exp")


class TestDiffusionSmear:
    """At sigma > 0 a table's Lambda smears the claim powers with the
    Gaussian on the table's lattice once, and reads Phi_d at every
    deficit of a grid through one correlation; a deficit between lattice
    points takes the law of X_d less its offset, smeared again. A whole
    deficit grid and a single deficit must still agree."""

    @pytest.fixture(scope="class")
    def table(self):
        return db.tabulated_exponential(1.0, step=1e-2)

    # exponential claims take the moment quadrature, with no lattice; the
    # id keeps naming the claim law
    @pytest.mark.parametrize("claims", ["tab"])
    @pytest.mark.parametrize("d", [0.4, 1.0, 2.0])
    def test_window_does_not_change_the_answer(self, table, claims, d):
        model = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, d), table)
        ys = np.arange(0.0, table.reach + 1e-2, 2e-2)
        grid = upcross_table(model, d, ys)
        # 0.02, 0.5, 5, the last grid point and, where the grid reaches
        # it, one deficit past the drift reach c d
        shared = [1, 25, 250, len(ys) - 1]
        beyond = int(round((15.0 * d + 1.0) / 2e-2))
        if beyond < len(ys):
            shared.append(beyond)
        for i in shared:
            tr = upcross_transform(model, float(ys[i]), d)
            # the same lattice sums, up to the FFT's rounding
            assert abs(tr.value - grid[i]) <= 1e-14, ys[i]
        # off the lattice: a third of a table step past a grid deficit,
        # read from its own smear, lies between its lattice neighbours and
        # within the O(step^2) of their linear reading (measured 5.9e-7)
        step = table.grid.step
        mid = upcross_transform(model, 0.5 + step / 3.0, d).value
        nxt = upcross_transform(model, 0.5 + step, d).value
        assert grid[25] > mid > nxt
        assert abs(mid - (2.0 * grid[25] + nxt) / 3.0) < 1e-6

    def test_far_deficits_match_exponential_claims(self, table):
        # past c d + 12 sigma sqrt(d) the law of X_d, and so Phi_d, is 0;
        # the time quadrature read the claim powers as 0 past the table
        # end and gave 3.3e-5 to 7.9e-5 here
        ys = np.array([10.0, 20.0, 25.0, 30.0])
        got, want = (upcross_table(db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 0.4),
                                               dist), 0.4, ys)
                     for dist in (table, db.ExponentialClaims(1.0)))
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_table_shorter_than_the_drift_reach_is_refused(self, table, sigma):
        # c d = 31.5 runs past the table end at 30, where the claim powers
        # are unknown, at either sigma
        m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, 2.1), table)
        with pytest.raises(ValueError, match="too short for the c\\*d horizon"):
            upcross_transform(m, 0.5, 2.1)


class TestClaimCountCutoff:
    """Every tabulated claim-count sum stops where its own tail bound
    falls below K_TAIL_TOL, with no cap and no guessed horizon."""

    @pytest.mark.parametrize("s,scale", [(0.3, 1.0), (16.0, 30.0), (8.5, 1e-6),
                                         (1000.0, 1e3)])
    def test_smallest_count_past_the_mode(self, s, scale):
        K, bound = _claim_cutoff(s, scale)
        ln_term = lambda k: k * math.log(s) - math.lgamma(k + 1)
        # the exact tail, in logs so that s = 1000 does not overflow
        tail = lambda k: math.fsum(math.exp(ln_term(j)) for j in range(k + 1, k + 2000))
        assert K >= max(1, math.floor(s))
        assert scale * tail(K) <= bound <= K_TAIL_TOL
        if K > max(1, math.floor(s)):
            assert scale * tail(K - 1) > K_TAIL_TOL * 1e-3

    def test_diffusion_table_builds_only_the_powers_it_reads(self):
        # a fresh table: the parent capped K at 400 and built 350 powers
        dist = db.tabulated_exponential(1.0, step=1e-2)
        model = db.validate(db.ModelParams(10.0, 15.0, 0.5, 0.1, 0.8, 1.0), dist)
        tr = upcross_transform(model, 0.5, 1.0)
        assert tr.truncation_k < 400
        assert tr.truncation_k == max(dist._powers)
        assert 0.0 < tr.tail_bound < 1e-10
