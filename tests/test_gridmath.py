"""Grid containers and the convolution / series machinery.

Closed forms used as oracles here:

  (e^{-.} * e^{-.})(x) = x e^{-x}
  int_0^x e^{-bu} du = (1 - e^{-bx}) / b
  int_0^x e^{-bu} u du = (1 - (1 + bx) e^{-bx}) / b^2
  int_0^x e^{-bu} (x - u) du = x/b - (1 - e^{-bx}) / b^2
  T_s(mu e^{-mu .})(x) = mu/(s + mu) e^{-mu x}
  xi = 1 + g int_0^x e^{-(x-y)} xi(y) dy  has  xi = 2 - e^{-x/2} at g = 1/2
  int_lo^hi e^{-3x} sin(5x) dx = [-e^{-3x} (3 sin 5x + 5 cos 5x) / 34]_lo^hi

The exponential-panel rules are exact on piecewise-linear inputs, so
those checks run at machine tolerance; plain trapezoid routes get a
step-squared allowance.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from divbarrier import ExponentialClaims, gridmath
from divbarrier.gridmath import (
    GridFunction,
    NonConvergenceError,
    adaptive_cc,
    convolve,
    convolve_exp,
    convolve_values,
    derivative,
    dickson,
    dickson_commutation_residual,
    fft_convolve,
    neumann_series,
    neumann_series_exp,
    power_sum,
    trapezoid,
    volterra_march,
    _recurrence,
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
        # the one FFT route against np.convolve's direct sum, at sizes on
        # both sides of the 8,192-point total where a direct branch used
        # to take over
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

    @staticmethod
    def _trapezoid_reference(f, g, step):
        # (f*g)(x_i) = int_0^{x_i} f(x_i - y) g(y) dy, one trapezoid sum
        # per node: O(n^2)
        out = np.zeros(len(f))
        for i in range(1, len(f)):
            out[i] = trapezoid(f[i::-1] * g[: i + 1], dx=step)
        return out

    @pytest.mark.parametrize("n_f,n_g", [(300, 300), (300, 2000), (4000, 4000),
                                         (4500, 9000)])
    def test_matches_trapezoid_reference(self, n_f, n_g):
        # totals 600 to 13,500 points, on both sides of the old 8,192
        # cutoff; an input longer than f is read only on f's nodes
        rng = np.random.default_rng(n_f + n_g)
        f, g = rng.standard_normal(n_f), rng.standard_normal(n_g)
        got = convolve_values(f, g, 1e-3)
        want = self._trapezoid_reference(f, g, 1e-3)
        assert got.shape == (n_f,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("i", [0, 1, 700, 2998, 2999, 3000])
    def test_affine_tail_matches_trapezoid_reference(self, i):
        # g affine from node i on: the line's part comes from two
        # cumulative sums of f and only the rest is transformed; from the
        # last node on there is no line, and the plain route runs
        rng = np.random.default_rng(i)
        f = np.abs(rng.standard_normal(3000))
        g = 0.7 + 2e-3 * np.arange(3000) - 0.4
        g[:i] = rng.standard_normal(i)
        got = convolve_values(f, g, 1e-3, affine_from=i)
        want = self._trapezoid_reference(f, g, 1e-3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_cumulative_sums_round_once(self):
        # 5e4 terms: np.cumsum drifts to ~1e-14 relative, the TwoSum
        # correction keeps every sum within a few roundings of the exact one
        x = np.exp(-2e-4 * np.arange(50001))
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("no extended precision for the reference")
        x = np.stack((x, np.arange(50001) * x))
        exact = np.cumsum(x.astype(np.longdouble), axis=-1)
        got = gridmath._cumsum(x)
        assert np.max(np.abs(got - exact) / exact[:, -1:]) <= 4e-16

    def test_batched_rows_are_one_dimensional_convolutions(self):
        # unequal row and kernel lengths, and the kernel broadcast from
        # one row across all of them
        rng = np.random.default_rng(5)
        rows, kerns = rng.standard_normal((6, 137)), rng.standard_normal((6, 41))
        got = fft_convolve(rows, kerns)
        assert got.shape == (6, 137 + 41 - 1)
        for row, kern, out in zip(rows, kerns, got):
            np.testing.assert_allclose(out, np.convolve(row, kern), rtol=0, atol=1e-12)
        shared = fft_convolve(rows, kerns[0])
        for row, out in zip(rows, shared):
            np.testing.assert_allclose(out, np.convolve(row, kerns[0]), rtol=0,
                                       atol=1e-12)


class TestPowerSum:
    def test_first_powers_are_repeated_trapezoid_convolutions(self):
        # f^{*2} and f^{*3} as convolve_values builds them, on a density
        # with f(0) != 0, so both end corrections of the trapezoid count;
        # measured 1.4e-14 off, the untilted transform's rounding
        step = 1e-2
        f = np.exp(-np.arange(1201) * step)
        f2 = convolve_values(f, f, step)
        f3 = convolve_values(f, f2, step)
        log_tol = math.log(1e-18)
        for weights, want in (([0.3], 0.3 * f), ([0.3, 0.2], 0.3 * f + 0.2 * f2),
                              ([0.3, 0.2, 0.1], 0.3 * f + 0.2 * f2 + 0.1 * f3)):
            got, log_alias = power_sum(f, step, weights, log_tol)
            assert np.max(np.abs(got - want)) < 1e-13
            assert log_alias <= log_tol
        assert power_sum(f, step, [0.3], log_tol)[1] == -math.inf


def _damped_sine_integral(lo, hi):
    def anti(x):
        return -math.exp(-3.0 * x) * (3.0 * math.sin(5.0 * x) + 5.0 * math.cos(5.0 * x)) / 34.0
    return anti(hi) - anti(lo)


class TestClenshawCurtis:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 128, 256])
    def test_weights_match_the_direct_cosine_sum(self, n):
        # w_k = (c_k / n) (1 - sum_{j <= n/2} b_j cos(2 j k pi / n) / (4 j^2 - 1)),
        # c_k and b_j halved at the ends; the FFT weights measured within
        # 3.5e-17 for n >= 8
        k = np.arange(n + 1)
        want = np.ones(n + 1)
        for j in range(1, n // 2 + 1):
            b = 1.0 if 2 * j == n else 2.0
            want -= b / (4.0 * j * j - 1.0) * np.cos(2.0 * j * k * math.pi / n)
        want *= np.where((k == 0) | (k == n), 1.0, 2.0) / n
        got = gridmath._cc_weights(n)
        assert np.max(np.abs(got - want)) < 2.5e-16
        assert not got.flags.writeable

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_weights_integrate_polynomials_up_to_degree_n(self, n):
        x, w = np.cos(np.arange(n + 1) * math.pi / n), gridmath._cc_weights(n)
        for k in range(n + 1):
            want = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert abs(float(np.sum(w * x ** k)) - want) < 1e-15, k

    def test_each_node_evaluated_once(self):
        # a doubling keeps the nodes it has and evaluates only the new odd
        # nodes, so the points evaluated are exactly the final CC nodes;
        # from 17 nodes (two levels in one call) it doubles twice
        seen = []

        def fun(xs):
            seen.append(np.array(xs))
            return np.exp(-3.0 * xs) * np.sin(5.0 * xs)

        lo, hi = 0.2, 2.7
        val, err = adaptive_cc(fun, lo, hi, tol=1e-12, n0=8)
        pts = np.sort(np.concatenate(seen))
        n = len(pts) - 1
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.sin(
            np.pi * np.arange(n, -n - 1, -2) / (2 * n))
        assert len(seen) > 2
        assert pts.tobytes() == np.sort(nodes).tobytes()
        assert err < 1e-12
        assert val == pytest.approx(_damped_sine_integral(lo, hi), abs=1e-12)

    @pytest.mark.parametrize("tol,relative", [(1e-8, False), (1e-12, False),
                                              (1e-13, True)])
    def test_bound_is_positive_and_covers_the_error(self, tol, relative):
        # a polynomial the rule integrates exactly (S_2n = S_n but for
        # rounding), an analytic pair and a Runge function, against
        # closed forms; the bound floors at the rounding of the sum
        cases = [(lambda x: x * x, 0.0, 3.0, 9.0),
                 (lambda x: np.exp(-3.0 * x) * np.sin(5.0 * x), 0.2, 2.7,
                  _damped_sine_integral(0.2, 2.7)),
                 (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 0.4 * math.atan(5.0))]
        for fun, lo, hi, want in cases:
            val, err = adaptive_cc(fun, lo, hi, tol, relative=relative)
            assert 0.0 < err < (tol * abs(val) if relative else tol)
            assert abs(val - want) <= err

    def test_vector_integrand_and_empty_range(self):
        val, err = adaptive_cc(lambda x: np.stack([np.exp(x), np.cos(x)], axis=-1),
                               0.0, 1.0, 1e-13, relative=True)
        np.testing.assert_allclose(val, [math.e - 1.0, math.sin(1.0)], rtol=0, atol=1e-15)
        assert 0.0 < err < 1e-13 * (math.e - 1.0)
        assert adaptive_cc(np.exp, 1.0, 1.0, 1e-12) == (0.0, 0.0)


def _doubling_reference(fun, lo, hi, tol, n0=64, n_cap=1 << 19, relative=False):
    """adaptive_cc as one call of fun per level: the n0 + 1 nodes first,
    then each doubling's odd nodes inserted by np.insert."""
    if hi <= lo:
        return 0.0, 0.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = n0
    ys = fun(mid + half * np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n)))
    prev = None
    while True:
        w = half * gridmath._cc_weights(n)
        s = np.einsum("i,i...->...", w, ys)
        if prev is not None:
            floor = np.einsum("i,i...->...", w, abs(ys)) * math.sqrt(n) * np.finfo(float).eps
            err = float(np.max(np.maximum(abs(s - prev), floor)))
            if err < (tol * float(np.max(abs(s))) if relative else tol) or n >= n_cap:
                return s, err
        prev = s
        n *= 2
        new = fun(mid + half * np.sin(np.pi * np.arange(n - 2, -n, -4) / (2 * n)))
        ys = np.insert(new, np.arange(n // 2 + 1), ys, axis=0)


_CC_CASES = {
    "square": (lambda x: x * x, 0.0, 3.0),
    "damped sine": (lambda x: np.exp(-3.0 * x) * np.sin(5.0 * x), 0.2, 2.7),
    "runge": (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
    "vector": (lambda x: np.stack([np.exp(x), np.cos(x), 1.0 / (1.0 + 25.0 * x * x)],
                                  axis=-1), -1.0, 1.0),
}


class TestClenshawCurtisLevels:
    """adaptive_cc takes its first two levels in one call of fun and
    splices later levels in; the integrand is elementwise and the nodes
    nest bitwise, so it returns what one call per level did, bit for
    bit."""

    @pytest.mark.parametrize("case", sorted(_CC_CASES))
    @pytest.mark.parametrize("tol,relative", [(1e-8, False), (1e-12, False),
                                              (1e-13, True), (1e-6, True)])
    @pytest.mark.parametrize("n0", [8, 64])
    def test_bit_identical_to_one_call_per_level(self, case, tol, relative, n0):
        fun, lo, hi = _CC_CASES[case]
        got = adaptive_cc(fun, lo, hi, tol, n0=n0, relative=relative)
        want = _doubling_reference(fun, lo, hi, tol, n0=n0, relative=relative)
        assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
        assert got[1] == want[1]

    @pytest.mark.parametrize("case", sorted(_CC_CASES))
    @pytest.mark.parametrize("n0,n_cap", [(8, 16), (8, 32), (64, 128)])
    def test_bit_identical_at_the_node_cap(self, case, n0, n_cap):
        # a stop no level meets ends at n_cap, the first level at n_cap
        # when n_cap = 2 n0
        fun, lo, hi = _CC_CASES[case]
        got = adaptive_cc(fun, lo, hi, 1e-300, n0=n0, n_cap=n_cap)
        want = _doubling_reference(fun, lo, hi, 1e-300, n0=n0, n_cap=n_cap)
        assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
        assert got[1] == want[1]

    @pytest.mark.parametrize("n0", [8, 64])
    def test_first_call_takes_two_levels_and_no_node_twice(self, n0):
        seen = []

        def fun(xs):
            seen.append(np.array(xs))
            return 1.0 / (1.0 + 25.0 * xs * xs)

        adaptive_cc(fun, -1.0, 1.0, 1e-13, n0=n0, relative=True)
        assert len(seen[0]) == 2 * n0 + 1
        assert [len(x) for x in seen[1:]] == [2 * n0 * 2 ** k for k in range(len(seen) - 1)]
        pts = np.concatenate(seen)
        assert len(np.unique(pts)) == len(pts)


class TestExponentialPanels:
    # the cumulative integral int_0^x e^{-bu} S(u) du is
    # e^{-bx} convolve_exp(-b, S)(x), the growing-rate panel recurrence

    @pytest.mark.parametrize("b,step", [(0.5, 1e-4), (3.0, 0.1), (1.2446, 1e-3)])
    def test_cumexp_constant(self, b, step):
        n = 200
        xs = step * np.arange(n + 1)
        got = np.exp(-b * xs) * convolve_exp(-b, np.ones(n + 1), step)
        want = -np.expm1(-b * xs) / b
        np.testing.assert_allclose(got, want, atol=1e-14, rtol=1e-12)

    @pytest.mark.parametrize("b,step", [(0.5, 1e-4), (3.0, 0.1)])
    def test_cumexp_linear(self, b, step):
        n = 200
        xs = step * np.arange(n + 1)
        got = np.exp(-b * xs) * convolve_exp(-b, xs, step)
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


def _loop(E, u):
    """y[i] = E y[i-1] + u[i] from y[-1] = 0, one node at a time."""
    y = np.empty(len(u), dtype=np.result_type(E, u))
    prev = 0.0
    for i, ui in enumerate(u):
        prev = E * prev + ui
        y[i] = prev
    return y


class TestRecurrence:
    """_recurrence's closed form E^i cumsum(u E^-i), in blocks, against
    the plain loop at relative 1e-13."""

    @pytest.mark.parametrize("E,n", [
        (math.exp(-1e-3), 4001),         # decaying, b step = 1e-3
        (math.exp(1e-3), 4001),          # growing, as convolve_exp(-rho, .)
        (math.exp(0.1), 4001),           # growing to e^400: 2 blocks
        (math.exp(-1.5), 4001),          # stiff, b = 1500 at step 1e-3: 21 blocks
        (math.exp(-1e-3), 1), (math.exp(-1e-3), 2), (math.exp(-1e-3), 3),
        (math.exp(1.5), 3),
    ])
    def test_matches_the_loop(self, E, n):
        u = np.random.default_rng(n).uniform(0.5, 1.5, n)
        want = _loop(E, u)
        got = _recurrence(E, u.copy())
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("modulus,n", [(math.exp(-1e-3), 4001), (math.exp(-0.3), 4001),
                                           (math.exp(-1e-3), 2)])
    def test_complex_conjugate_poles(self, modulus, n):
        # a real input through a complex pole and then its conjugate, as
        # neumann_series_exp runs them; the second pass comes back real
        E = modulus * np.exp(0.01j)
        u = np.random.default_rng(7).uniform(0.5, 1.5, n)
        once = _recurrence(E, u.copy())
        assert once.dtype.kind == "c"
        np.testing.assert_allclose(once, _loop(E, u), rtol=1e-13, atol=0.0)
        twice = _recurrence(np.conj(E), once.copy())
        want = _loop(np.conj(E), _loop(E, u))
        np.testing.assert_allclose(twice, want, rtol=1e-13, atol=0.0)
        assert np.max(np.abs(twice.imag)) < 1e-13 * np.max(np.abs(twice))

    def test_restarting_mid_input_gives_the_same_values(self):
        # restarted from y[1233] at a node that is no block boundary
        E, n = math.exp(-1.5), 4001
        u = np.random.default_rng(3).uniform(0.5, 1.5, n)
        whole = _recurrence(E, u.copy())
        tail = u[1234:].copy()
        tail[0] += E * whole[1233]
        np.testing.assert_allclose(_recurrence(E, tail), whole[1234:], rtol=1e-13, atol=0.0)

    def test_zero_multiplier_keeps_the_input(self):
        u = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(_recurrence(0.0, u.copy()), u)

    @pytest.mark.parametrize("b", [1500.0, -100.0])
    def test_convolve_exp_is_the_panel_loop(self, b):
        # W[i] = e^{-b step} W[i-1] + A S[i] + B S[i-1], stiff and growing
        step, n = 1e-3, 4001
        S = np.random.default_rng(11).uniform(0.5, 1.5, n)
        A, B = gridmath._exp_panel_coeffs(b, step)
        u = np.concatenate([[0.0], A * S[1:] + B * S[:-1]])
        want = _loop(np.exp(-b * step), u)
        np.testing.assert_allclose(convolve_exp(b, S, step), want, rtol=1e-13, atol=0.0)


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
        # zero too: the exponential-panel weights divide by the rate
        g = grid_of(lambda x: np.exp(-x), 30.0, 0.01)
        for rate in (-0.1, 0.0):
            with pytest.raises(ValueError):
                dickson(rate, g)

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
        xi, _ = neumann_series(self.kernel, self.forcing, RENEWAL_G)
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
        a, _ = neumann_series(self.kernel, self.forcing, RENEWAL_G)
        b = volterra_march(self.kernel, self.forcing, RENEWAL_G)
        assert np.max(np.abs(a.values - b.values)) < 1e-8
        # the kernel's mass 1.6 on [0, 8] is above 1, so the tilt rides
        # on the kernel's growth root: the solve also covers the march's
        # own non-contracting case (xi grows to about 320)
        a, _ = neumann_series(self.kernel, self.forcing, 1.6)
        b = volterra_march(self.kernel, self.forcing, 1.6)
        assert np.max(np.abs(a.values - b.values) / b.values) < 1e-10

    @staticmethod
    def _exact_and_march(rates, wts, coeff):
        """The exact panel solve and the trapezoid march of the sampled
        kernel on [0, 4] with forcing 1. They are two second-order
        rules, so each is Richardson-extrapolated from steps 2e-3 and
        1e-3."""
        def both(step):
            kernel = grid_of(lambda x: sum(w * np.exp(-b * x) for b, w in zip(rates, wts)),
                             4.0, step)
            forcing = kernel.with_values(np.ones(kernel.n + 1))
            xi = neumann_series_exp(rates, wts, forcing, coeff).values
            # the solve meets its own discrete equation to rounding
            conv = sum(w * convolve_exp(b, xi, step) for b, w in zip(rates, wts))
            assert np.max(np.abs(xi - 1.0 - coeff * conv)) < 1e-13 * np.max(xi)
            return xi, volterra_march(kernel, forcing, coeff).values

        (exact1, march1), (exact2, march2) = both(2e-3), both(1e-3)
        return (4.0 * exact2[::2] - exact1) / 3.0, (4.0 * march2[::2] - march1) / 3.0

    @pytest.mark.parametrize("coeff", [RENEWAL_G, 1.6])
    def test_exact_solve_agrees_with_march(self, coeff):
        # kernel 1.5 e^{-x} - 0.5 e^{-3x}, a two-rate mixture, 2e-8
        # (3e-7 at 1.6) apart from the march at step 1e-3 before the
        # extrapolation. The kernel's mass on [0, 4] is 1.31, so at 1.6
        # the equation does not contract
        exact, march = self._exact_and_march([1.0, 3.0], [1.5, -0.5], coeff)
        assert np.max(np.abs(exact - march) / march) < 1e-10

    def test_complex_poles_agree_with_march(self, monkeypatch):
        # kernel -4 e^{-x} + 4 e^{-3x}: the continuous equation's poles
        # solve s^2 + 4s + 11 = 0, a complex pair, and so do the panel
        # recursion's; xi falls below its limit 3/11 and rises back
        poles = []

        def spy(E, u):
            poles.append(E)
            return _recurrence(E, u)

        monkeypatch.setattr(gridmath, "_recurrence", spy)
        exact, march = self._exact_and_march([1.0, 3.0], [-4.0, 4.0], 1.0)
        # one conjugate pair per solve, at each of the two steps; the
        # residual check's convolve_exp calls pass real multipliers
        pairs = [E for E in poles if isinstance(E, complex)]
        assert len(pairs) == 4 and all(E.imag for E in pairs)
        assert np.min(march) < march[-1] - 0.05
        assert np.max(np.abs(exact - march)) < 1e-10 * np.max(np.abs(march))

    def test_exact_solve_overflow_raises(self):
        # xi = 1 + 10 (e^{-.} * xi) grows like e^{9x}, past the double
        # range by x = 100
        flat = GridFunction(0.0, 100.0, 0.1, np.ones(1001))
        with pytest.raises(NonConvergenceError):
            neumann_series_exp([1.0], [1.0], flat, 10.0)

    def test_march_handles_noncontracting_coeff(self):
        # coeff far above the contraction threshold; the march still
        # solves the equation, checked against its own residual
        coeff = 1.6
        xi = volterra_march(self.kernel, self.forcing, coeff)
        conv = convolve(self.kernel, xi)
        resid = xi.values - 1.0 - coeff * conv.values
        assert np.max(np.abs(resid)) < 1e-4

    @pytest.mark.parametrize("coeff", [RENEWAL_G, 1.6])
    def test_series_is_the_per_term_convolution_loop(self, coeff):
        # the same discrete equation summed term by term, each term
        # convolve_values's, until one falls below 1e-12; the tilted
        # solve's untilting scales its rounding by up to e^6 (measured
        # 5.6e-14 and 2.5e-14 of max |xi| apart)
        term = self.forcing.values.copy()
        acc = term.copy()
        while True:
            term = coeff * convolve_values(self.kernel.values, term, self.step)
            acc += term
            if np.max(np.abs(term)) < 1e-12:
                break
        got = neumann_series(self.kernel, self.forcing, coeff)[0].values
        assert got[0] == acc[0]
        assert np.max(np.abs(got - acc)) < 1e-13 * np.max(np.abs(acc))

    @pytest.mark.parametrize("coeff", [RENEWAL_G, 1.6])
    def test_wrap_around_stays_within_its_bound(self, monkeypatch, coeff):
        # the solve with its length cut to next_fast_len(n): what the
        # shorter transform wraps back must stay within the bound it
        # reports, and that bound must not be vacuous
        full, log_full = neumann_series(self.kernel, self.forcing, coeff)
        tilt = gridmath._tilt
        monkeypatch.setattr(gridmath, "_tilt",
                            lambda n, theta, decay, log_peak, log_tol:
                            tilt(n, theta, decay, log_peak, log_peak - decay * n))
        short, log_short = neumann_series(self.kernel, self.forcing, coeff)
        wrap = np.max(np.abs(short.values - full.values))
        assert math.exp(log_full) < 1e-14 * np.max(np.abs(full.values))
        assert 1e-6 * math.exp(log_short) < wrap <= math.exp(log_short)

    @pytest.mark.parametrize("coeff", [RENEWAL_G, 1.6])
    def test_solve_is_two_rfft_and_one_irfft(self, monkeypatch, coeff):
        # the whole series in one transform of the kernel and one of the
        # forcing, whatever the coefficient: no term loop
        calls, real = [], gridmath.sp_fft

        def counted(name):
            def call(*args, **kwargs):
                calls.append(name)
                return getattr(real, name)(*args, **kwargs)
            return call

        monkeypatch.setattr(gridmath, "sp_fft", SimpleNamespace(
            next_fast_len=real.next_fast_len, rfft=counted("rfft"), irfft=counted("irfft")))
        neumann_series(self.kernel, self.forcing, coeff)
        assert sorted(calls) == ["irfft", "rfft", "rfft"]

    def test_series_divergence_raises(self):
        flat = GridFunction(0.0, 50.0, 0.1, np.ones(501))
        with pytest.raises(NonConvergenceError) as info:
            neumann_series(flat, flat, 10.0)
        assert info.value.last_norm is not None
        broken = flat.with_values(np.where(flat.x > 20.0, np.nan, 1.0))
        with pytest.raises(NonConvergenceError):
            neumann_series(flat, broken, 0.5)

    def test_grid_mismatch(self):
        other = grid_of(np.exp, 8.0, 2e-3)
        with pytest.raises(ValueError):
            neumann_series(self.kernel, other, 0.5)
        with pytest.raises(ValueError):
            volterra_march(self.kernel, other, 0.5)
