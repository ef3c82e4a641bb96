"""Root of the drift-jump exponent equation.

For exponential(mu) claims at sigma = 0 the equation
c s - (lam + q) + lam r mu / (mu + s) = 0 clears to the quadratic
c s^2 + (c mu - lam - q) s - (lam + q - lam r) mu = 0, so the root has
a closed form that makes an independent oracle for the solver.
"""

import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import lundberg_root, psi_r

from conftest import make_model


def quadratic_root(lam, c, q, r, mu):
    A = c
    B = c * mu - lam - q
    C = -(lam + q - lam * r) * mu
    return (-B + math.sqrt(B * B - 4 * A * C)) / (2 * A)


BASE_RHO = 0.24492856518008138      # quadratic_root(10, 15, 0.1, 0.8, 1)
R1_RHO = 0.019271278997364492       # same at r = 1


class TestRoot:
    def test_base_model_root(self, m_d0):
        root = lundberg_root(m_d0)
        assert root.rho == pytest.approx(BASE_RHO, abs=1e-12)
        assert abs(root.residual) <= 1e-12
        assert root.iterations < 200

    def test_against_quadratic_formula(self, m_d0):
        want = quadratic_root(10.0, 15.0, 0.1, 0.8, 1.0)
        assert lundberg_root(m_d0).rho == pytest.approx(want, abs=1e-12)

    def test_r_one_root(self):
        m = make_model(0.0, r=1.0)
        root = lundberg_root(m)
        assert root.rho == pytest.approx(R1_RHO, abs=1e-12)
        assert root.rho == pytest.approx(
            quadratic_root(10.0, 15.0, 0.1, 1.0, 1.0), abs=1e-12)

    def test_root_is_a_root(self, m_d0):
        rho = lundberg_root(m_d0).rho
        assert abs(psi_r(m_d0, rho) - m_d0.q) <= 1e-12

    def test_psi_at_zero(self, m_d0):
        # psi_r(0) = lam (r - 1)
        assert psi_r(m_d0, 0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_monotone_in_q(self):
        lo = lundberg_root(make_model(0.0, q=0.05)).rho
        hi = lundberg_root(make_model(0.0, q=0.2)).rho
        assert lo < BASE_RHO < hi

    def test_volatility_lowers_the_root(self):
        rho_sig = lundberg_root(make_model(0.0, sigma=0.5)).rho
        assert rho_sig < BASE_RHO
        # and it still solves its own equation
        m = make_model(0.0, sigma=0.5)
        assert abs(psi_r(m, rho_sig) - 0.1) <= 1e-12

    def test_tabulated_claims_agree(self, tab_dist):
        m = db.validate(
            db.ModelParams(10.0, 15.0, 0.0, 0.1, 0.8, 0.0), tab_dist)
        assert lundberg_root(m).rho == pytest.approx(BASE_RHO, abs=1e-7)

    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_table_root_is_its_linear_readings(self, step, sigma):
        # the table's transform is that of its linear reading, the one
        # T_rho f is exact for, so a table sampled from Exp(1) has the
        # Exp(1) root up to the renormalization f / (1 + step^2 / 12):
        # 9.4e-12 off on the 1e-2 table, 6e-14 on the 1e-3 table. A
        # trapezoid transform put it 3.0e-6 and 3.0e-8 off
        params = db.ModelParams(10.0, 15.0, sigma, 0.1, 0.8, 2.0)
        table = db.validate(params, db.tabulated_exponential(1.0, step=step))
        exact = db.validate(params, db.ExponentialClaims(1.0))
        assert abs(table.rho - exact.rho) <= 1e-10

    def test_delay_does_not_enter(self, m_d0, m_d2, m_dinf):
        r0 = lundberg_root(m_d0).rho
        assert lundberg_root(m_d2).rho == r0
        assert lundberg_root(m_dinf).rho == r0
