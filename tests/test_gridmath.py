"""Grid containers and the convolution / series machinery.

Closed forms used as oracles here:

  (e^{-.} * e^{-.})(x) = x e^{-x}
  int_0^x e^{-bu} du = (1 - e^{-bx}) / b
  int_0^x e^{-bu} u du = (1 - (1 + bx) e^{-bx}) / b^2
  int_0^x e^{-bu} (x - u) du = x/b - (1 - e^{-bx}) / b^2
  T_s(mu e^{-mu .})(x) = mu/(s + mu) e^{-mu x}
  xi = 1 + g int_0^x e^{-(x-y)} xi(y) dy  has  xi = 2 - e^{-x/2} at g = 1/2

The exponential-panel rules are exact on piecewise-linear inputs, so
those checks run at machine tolerance; plain trapezoid routes get a
step-squared allowance.
"""

import math

import numpy as np
import pytest

from divbarrier import ExponentialClaims
from divbarrier.gridmath import (
    GridFunction,
    NonConvergenceError,
    convolve,
    convolve_exp,
    convolve_values,
    cumexp,
    derivative,
    dickson,
    dickson_commutation_residual,
    neumann_series,
    neumann_series_exp,
    volterra_march,
)


def grid_of(fun, hi, step):
    xs = np.arange(round(hi / step) + 1) * step
    return GridFunction(0.0, hi, step, fun(xs))


class TestGridFunction:
    def test_basic_accessors(self):
        g = GridFunction(0.0, 1.0, 0.25, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert g.n == 4
        np.testing.assert_allclose(g.x, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.interp(0.125) == pytest.approx(0.5)
        assert g.trapz() == pytest.approx(2.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, -0.1, np.zeros(11))

    def test_rejects_incommensurate_span(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, 0.3, np.zeros(4))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, 0.25, np.zeros(7))

    def test_same_grid_and_with_values(self):
        a = grid_of(np.exp, 1.0, 0.1)
        b = a.with_values(np.zeros(11))
        assert a.same_grid(b)
        c = grid_of(np.exp, 1.0, 0.05)
        assert not a.same_grid(c)


class TestConvolve:
    def test_exponential_square(self):
        step = 1e-3
        f = grid_of(lambda x: np.exp(-x), 12.0, step)
        got = convolve(f, f)
        want = f.x * np.exp(-f.x)
        assert np.max(np.abs(got.values - want)) < 5e-7

    def test_starts_at_zero(self):
        f = grid_of(lambda x: np.exp(-x), 2.0, 0.01)
        assert convolve(f, f).values[0] == 0.0

    def test_grid_mismatch(self):
        f = grid_of(np.exp, 1.0, 0.1)
        g = grid_of(np.exp, 1.0, 0.05)
        with pytest.raises(ValueError):
            convolve(f, g)

    def test_fft_and_direct_branches_agree(self):
        # the implementation switches on total length; force both
        rng = np.random.default_rng(3)
        small = rng.standard_normal(500)
        a = convolve_values(small, small, 1e-3)
        b = 1e-3 * (np.convolve(small, small)[:500]
                    - 0.5 * small[0] * small
                    - 0.5 * small * small[0])
        b[0] = 0.0
        np.testing.assert_allclose(a, b, atol=1e-12)
        big = rng.standard_normal(6000)
        c = convolve_values(big, big, 1e-3)
        d = 1e-3 * (np.convolve(big, big)[:6000]
                    - 0.5 * big[0] * big
                    - 0.5 * big * big[0])
        d[0] = 0.0
        np.testing.assert_allclose(c, d, atol=1e-10)


class TestExponentialPanels:
    @pytest.mark.parametrize("b,step", [(0.5, 1e-4), (3.0, 0.1), (1.2446, 1e-3)])
    def test_cumexp_constant(self, b, step):
        n = 200
        xs = step * np.arange(n + 1)
        got = cumexp(b, np.ones(n + 1), step)
        want = -np.expm1(-b * xs) / b
        np.testing.assert_allclose(got, want, atol=1e-14, rtol=1e-12)

    @pytest.mark.parametrize("b,step", [(0.5, 1e-4), (3.0, 0.1)])
    def test_cumexp_linear(self, b, step):
        n = 200
        xs = step * np.arange(n + 1)
        got = cumexp(b, xs, step)
        want = (1.0 - (1.0 + b * xs) * np.exp(-b * xs)) / (b * b)
        np.testing.assert_allclose(got, want, atol=1e-13, rtol=1e-11)

    @pytest.mark.parametrize("b,step", [(0.5, 1e-4), (3.0, 0.1)])
    def test_convolve_exp_constant(self, b, step):
        n = 200
        xs = step * np.arange(n + 1)
        got = convolve_exp(b, np.ones(n + 1), step)
        want = -np.expm1(-b * xs) / b
        np.testing.assert_allclose(got, want, atol=1e-13, rtol=1e-11)

    def test_convolve_exp_linear(self):
        b, step, n = 2.0, 5e-3, 400
        xs = step * np.arange(n + 1)
        got = convolve_exp(b, xs, step)
        want = xs / b + np.expm1(-b * xs) / (b * b)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestDickson:
    def test_matches_exponential_closed_form(self):
        step = 1e-3
        g = grid_of(lambda x: np.exp(-x), 30.0, step)
        for s in (0.1, 0.245, 1.0):
            got = dickson(s, g).values
            want = ExponentialClaims(1.0).tail_transform(s, g.x)
            assert np.max(np.abs(got - want)) < 5e-7

    def test_tail_guard(self):
        g = grid_of(lambda x: np.exp(-x), 4.0, 0.01)  # e^{-4} is not small
        with pytest.raises(ValueError):
            dickson(0.3, g)

    def test_negative_rate_rejected(self):
        g = grid_of(lambda x: np.exp(-x), 30.0, 0.01)
        with pytest.raises(ValueError):
            dickson(-0.1, g)

    def test_resolvent_identity_small(self):
        step = 1e-4
        xs = np.arange(round(30.0 / step) + 1) * step
        g_exp = GridFunction(0.0, 30.0, step, np.exp(-xs))
        g_erl = GridFunction(0.0, 30.0, step, xs * np.exp(-xs))
        for (s, r) in ((0.1, 0.3), (0.2, 1.0)):
            assert dickson_commutation_residual(s, r, g_exp) <= 1e-8
            assert dickson_commutation_residual(s, r, g_erl) <= 1e-8

    def test_equal_rates_rejected(self):
        g = grid_of(lambda x: np.exp(-x), 30.0, 0.01)
        with pytest.raises(ValueError):
            dickson_commutation_residual(0.2, 0.2, g)


class TestDerivative:
    def test_first_and_second_order(self):
        g = grid_of(np.sin, 3.0, 1e-3)
        d1 = derivative(g, 1)
        d2 = derivative(g, 2)
        assert np.max(np.abs(d1.values - np.cos(g.x))) < 5e-7
        assert np.max(np.abs(d2.values + np.sin(g.x))) < 5e-6

    def test_order_validation(self):
        g = grid_of(np.sin, 1.0, 0.1)
        with pytest.raises(ValueError):
            derivative(g, 3)

    def test_short_grid_rejected(self):
        g = GridFunction(0.0, 0.3, 0.1, np.zeros(4))
        with pytest.raises(ValueError):
            derivative(g, 1)


RENEWAL_G = 0.5


def renewal_closed(xs):
    return 2.0 - np.exp(-0.5 * xs)


class TestSecondKindSolvers:
    """xi = forcing + coeff (kernel * xi) solved three ways."""

    def setup_method(self):
        self.step = 1e-3
        self.kernel = grid_of(lambda x: np.exp(-x), 8.0, self.step)
        self.forcing = self.kernel.with_values(np.ones(self.kernel.n + 1))

    def test_neumann_matches_closed_form(self):
        xi = neumann_series(self.kernel, self.forcing, RENEWAL_G)
        assert np.max(np.abs(xi.values - renewal_closed(xi.x))) < 2e-6

    def test_exponential_kernel_variant(self):
        xi = neumann_series_exp([1.0], [1.0], self.forcing, RENEWAL_G)
        assert np.max(np.abs(xi.values - renewal_closed(xi.x))) < 2e-8

    def test_two_rate_mixture(self):
        # kernel e^{-x} written as a two-term mixture; same answer
        xi1 = neumann_series_exp([1.0, 2.0], [1.0, 0.0], self.forcing, RENEWAL_G)
        xi2 = neumann_series_exp([2.0, 1.0], [0.0, 1.0], self.forcing, RENEWAL_G)
        np.testing.assert_allclose(xi1.values, xi2.values, atol=1e-12)

    def test_march_agrees_with_series(self):
        a = neumann_series(self.kernel, self.forcing, RENEWAL_G)
        b = volterra_march(self.kernel, self.forcing, RENEWAL_G)
        assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_march_handles_noncontracting_coeff(self):
        # coeff far above the contraction threshold; the march still
        # solves the equation, checked against its own residual
        coeff = 1.6
        xi = volterra_march(self.kernel, self.forcing, coeff)
        conv = convolve(self.kernel, xi)
        resid = xi.values - 1.0 - coeff * conv.values
        assert np.max(np.abs(resid)) < 1e-4

    def test_series_divergence_raises(self):
        flat = GridFunction(0.0, 50.0, 0.1, np.ones(501))
        with pytest.raises(NonConvergenceError) as info:
            neumann_series(flat, flat, 10.0)
        assert info.value.terms is not None
        assert info.value.last_norm is not None

    def test_grid_mismatch(self):
        other = grid_of(np.exp, 8.0, 2e-3)
        with pytest.raises(ValueError):
            neumann_series(self.kernel, other, 0.5)
        with pytest.raises(ValueError):
            volterra_march(self.kernel, other, 0.5)
