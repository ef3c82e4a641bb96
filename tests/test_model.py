"""Parameter validation and the claim-distribution contract."""

import math
import warnings

import numpy as np
import pytest

import divbarrier as db
from divbarrier import (
    ExponentialClaims,
    InvalidParameter,
    ModelError,
    ModelParams,
    NegativeLoading,
    NonPositivePremium,
    RNotInUnitInterval,
    TabulatedClaims,
    exp_conv_power,
    tabulated_exponential,
    validate,
)
from divbarrier.gridmath import GridFunction, convolve_values


def params(**kw):
    base = dict(lam=10.0, c=15.0, sigma=0.0, q=0.1, r=0.8, d=0.0)
    base.update(kw)
    return ModelParams(**base)


class TestValidate:
    def test_happy_path(self):
        m = validate(params(), ExponentialClaims(1.0))
        assert m.lam == 10.0 and m.c == 15.0 and m.q == 0.1
        assert m.r == 0.8 and m.d == 0.0 and m.sigma == 0.0
        assert m.theta == pytest.approx(0.5, abs=1e-15)

    def test_premium_must_be_positive(self):
        with pytest.raises(NonPositivePremium):
            validate(params(c=0.0), ExponentialClaims(1.0))
        with pytest.raises(NonPositivePremium):
            validate(params(c=-3.0), ExponentialClaims(1.0))

    def test_loading_must_be_positive(self):
        # lam * E[C] = 10 >= c
        with pytest.raises(NegativeLoading):
            validate(params(c=10.0), ExponentialClaims(1.0))
        with pytest.raises(NegativeLoading):
            validate(params(c=9.0), ExponentialClaims(1.0))

    def test_r_range(self):
        with pytest.raises(RNotInUnitInterval):
            validate(params(r=0.0), ExponentialClaims(1.0))
        with pytest.raises(RNotInUnitInterval):
            validate(params(r=1.2), ExponentialClaims(1.0))
        # r = 1 switches the per-claim discount off and is allowed
        m = validate(params(r=1.0), ExponentialClaims(1.0))
        assert m.r == 1.0

    def test_other_gates(self):
        with pytest.raises(InvalidParameter):
            validate(params(lam=0.0), ExponentialClaims(1.0))
        with pytest.raises(InvalidParameter):
            validate(params(sigma=-0.1), ExponentialClaims(1.0))
        with pytest.raises(InvalidParameter):
            validate(params(q=0.0), ExponentialClaims(1.0))
        with pytest.raises(InvalidParameter):
            validate(params(d=-1.0), ExponentialClaims(1.0))
        # non-finite values; d = inf stays valid (see below)
        bad = [dict(d=math.nan)] + [{name: v} for name in ("lam", "c", "sigma", "q")
                                    for v in (math.nan, math.inf)]
        for kw in bad:
            with pytest.raises(InvalidParameter):
                validate(params(**kw), ExponentialClaims(1.0))

    def test_errors_are_value_errors(self):
        for cls in (NonPositivePremium, NegativeLoading,
                    RNotInUnitInterval, InvalidParameter):
            assert issubclass(cls, ModelError)
            assert issubclass(cls, ValueError)

    def test_infinite_delay_allowed(self):
        m = validate(params(d=math.inf), ExponentialClaims(1.0))
        assert math.isinf(m.d)

    def test_key_distinguishes_models(self):
        a = validate(params(), ExponentialClaims(1.0))
        b = validate(params(d=2.0), ExponentialClaims(1.0))
        c = validate(params(), ExponentialClaims(2.0))
        assert a.key() != b.key()
        assert a.key() != c.key()


class TestExponentialClaims:
    def test_mu_must_be_positive(self):
        for mu in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameter):
                ExponentialClaims(mu)

    def test_mean(self):
        assert ExponentialClaims(2.0).mean == 0.5

    def test_density_and_cdf(self):
        dist = ExponentialClaims(1.5)
        xs = np.linspace(-1.0, 5.0, 301)
        dens = dist.density(xs)
        assert np.all(dens[xs < 0] == 0.0)
        assert dens[150] == pytest.approx(1.5 * math.exp(-1.5 * xs[150]), rel=1e-14)
        cdf = dist.cdf(xs)
        assert cdf[0] == 0.0
        assert np.all(np.diff(cdf) >= 0)
        assert dist.cdf(3.0) == pytest.approx(1.0 - math.exp(-4.5), rel=1e-14)

    def test_laplace(self):
        dist = ExponentialClaims(1.0)
        assert dist.laplace(0.0) == 1.0
        assert dist.laplace(0.25) == pytest.approx(0.8, rel=1e-14)

    def test_conv_power_is_erlang(self):
        dist = ExponentialClaims(2.0)
        x = np.array([0.0, 0.5, 1.0, 2.5])
        for n in (1, 2, 3, 5):
            want = 2.0 ** n * x ** (n - 1) * np.exp(-2.0 * x) / math.factorial(n - 1)
            if n > 1:
                want[x == 0] = 0.0
            np.testing.assert_allclose(dist.conv_power(n, x), want, rtol=1e-12)

    def test_conv_power_rejects_n0(self):
        with pytest.raises(ValueError):
            ExponentialClaims(1.0).conv_power(0, 1.0)
        with pytest.raises(ValueError):
            exp_conv_power(1.0, 0, 1.0)

    def test_conv_power_negative_x(self):
        assert exp_conv_power(1.0, 2, -0.5) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_conv_power_at_infinity_is_zero(self, n):
        # the Erlang density's limit; -mu x + (n-1) log x is -inf + inf there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exp_conv_power(1.0, n, math.inf) == 0.0
            np.testing.assert_array_equal(
                exp_conv_power(2.0, n, np.array([0.5, math.inf])),
                [exp_conv_power(2.0, n, 0.5), 0.0])


class TestTabulatedClaims:
    def test_sampled_exponential_matches_closed_form(self, tab_dist):
        xs = np.linspace(0.0, 10.0, 777)
        np.testing.assert_allclose(
            tab_dist.density(xs), np.exp(-xs), atol=2e-7)
        assert tab_dist.mean == pytest.approx(1.0, abs=1e-6)
        assert tab_dist.laplace(0.3) == pytest.approx(1.0 / 1.3, abs=1e-7)

    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    def test_laplace_is_the_linear_readings(self, step):
        # one reading of the table: its transform is that of the density
        # read linearly between the nodes, T_s f(0), and at s = 0 the
        # trapezoid mass
        table = tabulated_exponential(1.0, step=step)
        for s in (0.05, 0.245, 1.0, 7.5):
            want = float(table.tail_transform(s, [0.0])[0])
            assert table.laplace(s) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert table.laplace(0.0) == pytest.approx(table.grid.trapz(), rel=1e-14, abs=0.0)

    def test_density_outside_support(self, tab_dist):
        assert tab_dist.density(-0.5) == 0.0
        assert tab_dist.density(31.0) == 0.0

    def test_cdf_monotone_and_normalized(self, tab_dist):
        xs = np.linspace(0.0, 30.0, 500)
        cdf = tab_dist.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-8)

    def test_conv_power_mass_preserved(self, tab_dist):
        # each self-convolution keeps total mass 1 on the grid as long
        # as the support has not run off the table end
        g = tab_dist.grid
        v2 = tab_dist.conv_power(2, g.x)
        assert np.trapezoid(v2, dx=g.step) == pytest.approx(1.0, abs=1e-4)

    def test_high_power_built_in_a_loop(self):
        # a fresh table builds every missing power in order, with no call
        # per level, so a power past the interpreter's recursion limit works
        dist = db.tabulated_exponential(1.0, step=1e-2)
        assert dist.conv_power(1200, 5.0) == 0.0
        assert sorted(dist._powers) == list(range(1, 1201))
        v, step = dist.grid.values, dist.grid.step
        want = convolve_values(v, convolve_values(v, v, step), step)
        assert dist._power_values(3).tobytes() == want.tobytes()
        # one power per call, as the Phi_d routes ask for them, reuses the
        # density's one transform: the same bits
        one_by_one = db.tabulated_exponential(1.0, step=1e-2)
        for k in range(1, 6):
            assert one_by_one._power_values(k).tobytes() == dist._power_values(k).tobytes()

    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    def test_powers_are_nonnegative(self, step):
        # the FFT's rounding puts ~1e-17 below zero in the far tail of the
        # higher powers; every stored power is a density, clipped at 0
        dist = db.tabulated_exponential(1.0, step=step)
        for k in range(1, 61):
            assert np.min(dist._power_values(k)) >= 0.0, k

    def test_reader_matches_masked_interpolation(self, tab_dist):
        # reference: the masked np.where/np.clip/np.interp formulas the
        # single reader replaced, compared bit for bit
        g = tab_dist.grid
        v = g.values

        def masked(table, x):
            inside = np.interp(np.clip(x, 0.0, g.hi), g.x, table)
            return np.where((x >= 0) & (x <= g.hi), inside, 0.0)

        def masked_cdf(x):
            cum = np.concatenate([[0.0], np.cumsum(0.5 * g.step * (v[1:] + v[:-1]))])
            return np.where(x < 0, 0.0, np.interp(np.clip(x, 0.0, g.hi), g.x, cum))

        v2 = convolve_values(v, v, g.step)
        edges = [0.0, -0.0, g.hi, -1e-9, -2.0, g.hi + 1e-9, 2.0 * g.hi, math.inf]
        xs = np.concatenate([g.x[::97], g.x[:-1:89] + 0.37 * g.step, edges])
        for got, want in ((tab_dist.density(xs), masked(v, xs)),
                          (tab_dist.conv_power(2, xs), masked(v2, xs)),
                          (tab_dist.cdf(xs), masked_cdf(xs))):
            assert got.tobytes() == want.tobytes()
        for x in edges + [0.5 * g.step, 1.2345]:
            for got, want in ((tab_dist.density(x), masked(v, x)),
                              (tab_dist.conv_power(2, x), masked(v2, x)),
                              (tab_dist.cdf(x), masked_cdf(x))):
                assert type(got) is float and np.float64(got).tobytes() == want.tobytes()

    def test_nodes_built_once_and_read_only(self, tab_dist):
        xs = tab_dist.grid.x
        assert tab_dist.grid.x is xs
        assert not xs.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 1.0

    def test_density_of_nan_is_nan(self, tab_dist):
        assert math.isnan(tab_dist.density(math.nan))
        assert math.isnan(tab_dist.conv_power(2, math.nan))

    def test_rejects_negative_density(self):
        step = 0.01
        vals = np.full(101, 1.0)
        vals[50] = -0.5
        with pytest.raises(InvalidParameter):
            TabulatedClaims(GridFunction(0.0, 1.0, step, vals))
        # a nan slips past the mass check, where every comparison is false
        tri = 1.0 - np.arange(201) * step / 2.0   # triangle on [0, 2], mass 1
        TabulatedClaims(GridFunction(0.0, 2.0, step, tri))
        tri[50] = math.nan
        with pytest.raises(InvalidParameter):
            TabulatedClaims(GridFunction(0.0, 2.0, step, tri))

    def test_rejects_bad_mass(self):
        step = 0.01
        vals = np.full(101, 2.0)  # mass 2 on [0, 1]
        with pytest.raises(InvalidParameter):
            TabulatedClaims(GridFunction(0.0, 1.0, step, vals))

    def test_rejects_fat_grid_end(self):
        # a uniform density chopped at x = 1 leaves visible mass beyond
        # the table and must be refused
        step = 0.01
        vals = np.full(101, 1.0)
        with pytest.raises(InvalidParameter):
            TabulatedClaims(GridFunction(0.0, 1.0, step, vals))

    def test_rejects_shifted_grid(self):
        step = 0.01
        vals = np.full(101, 1.0)
        with pytest.raises(InvalidParameter):
            TabulatedClaims(GridFunction(0.5, 1.5, step, vals))

    def test_exponential_table_guard(self):
        # not enough room for the tail: e^{-mu x_max} is far from zero
        with pytest.raises(InvalidParameter):
            tabulated_exponential(1.0, x_max=5.0)


CLAIM_LAW = ("reach", "survival", "sample", "tail_transform", "convolve_grid",
             "density_slope")


class TestClaimLawContract:
    """Both claim classes answer the same questions about their law;
    a table sampled from exponential(1) answers them like the closed
    form, within the error of its grid."""

    def test_same_members(self, tab_dist):
        def public(cls):
            return {n for n in dir(cls) if not n.startswith("_")}

        assert public(ExponentialClaims) == public(TabulatedClaims)
        for claims in (ExponentialClaims(1.0), tab_dist):
            assert set(CLAIM_LAW) <= set(dir(claims))

    def test_tail_transform(self, tab_dist):
        # the table's own 1e-3 nodes up to 2, as the solvers ask for them
        xs = 1e-3 * np.arange(2001)
        for rho in (0.1, 0.245, 1.0):
            want = ExponentialClaims(1.0).tail_transform(rho, xs)
            got = tab_dist.tail_transform(rho, xs)
            assert np.max(np.abs(got - want)) < 5e-7

    def test_tail_transform_at_points(self, tab_dist):
        # any points, off the table nodes and past its end
        xs = np.array([0.0, 0.0004, 0.25, 1.2345, 29.9995, 30.0, 31.0])
        for rho in (0.1, 0.245, 1.0):
            want = ExponentialClaims(1.0).tail_transform(rho, xs)
            got = tab_dist.tail_transform(rho, xs)
            assert np.max(np.abs(got[:5] - want[:5])) < 5e-7
            assert np.all(got[5:] == 0.0)

    def test_convolve_grid(self, tab_dist):
        step = 1e-3
        xs = step * np.arange(2001)
        for g in (np.cos(xs), np.exp(-0.5 * xs), xs):
            want = ExponentialClaims(1.0).convolve_grid(g, step)
            got = tab_dist.convolve_grid(g, step)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_survival_and_reach(self, tab_dist):
        exp = ExponentialClaims(1.0)
        for y in (0.0, 0.5, 3.0, 10.0, 29.0):
            assert tab_dist.survival(y) == pytest.approx(exp.survival(y), abs=1e-10)
        for claims in (exp, tab_dist):
            assert claims.survival(claims.reach) < 1e-12
            # no claim is negative: all the mass lies above y <= 0
            for y in (-1.0, 0.0):
                assert claims.survival(y) == 1.0

    def test_density_slope(self, tab_dist):
        step = 1e-3
        xs = np.arange(0.0, 10.0 + step / 2, step)
        diff = (tab_dist.density_slope(xs, step)
                - ExponentialClaims(1.0).density_slope(xs, step))
        assert np.max(np.abs(diff[1:])) < 1e-6
        # the table's slope at 0 is a one-sided difference
        assert abs(diff[0]) < step

    def test_sample_follows_survival(self, tab_dist):
        n = 20000
        for claims in (ExponentialClaims(1.0), tab_dist):
            draws = claims.sample(np.random.default_rng(5), n)
            assert draws.shape == (n,) and np.all(draws >= 0.0)
            for y in (0.5, 1.0, 2.0):
                p = claims.survival(y)
                se = math.sqrt(p * (1.0 - p) / n)
                assert abs(np.mean(draws > y) - p) < 5.0 * se
