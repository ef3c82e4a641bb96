"""Analytic outputs pinned bit for bit.

Every number the library computes without simulation is captured here
as float.hex (scalars) or as the leading sha256 digits of the float64
bytes (grids), so a change to the arithmetic of any regime shows at
once. The rows cover the deadline transform Phi_d (value, truncation
K, tail bound, and the grid route) at sigma = 0 with exponential and
with tabulated claims and at sigma = 0.5, each at d in {0, 0.4, 2, inf}
and deficits y in {0, 0.3, 0.5}, plus tabulated claims at sigma = 0.5
(r = 0.5, d = 1), the table's scale-function route, with a
nonnegative tail bound; the exit function with
its two derivatives in both solvers, tabulated claims included; the
w_d forcing; the generator applied to a test function with both claim
laws, with the text of its unreachable-mass error; the density-shape
advisory; the optimal barrier with its value (at sigma > 0, d = 0 at
the default grid step and at step 2e-5); the
closed exponential series; and the bytes of the `divbarrier h` CSV.
The value rows add every field of the HJB report, forced barriers at
a in {0, 0.3}, the value function, value_barrier and h_callable on
both sides of zero (down to past the Parisian reach -c d), the HJB
curve and the slope-monotonicity screen.

The benchmark's workers run with one BLAS thread, so every row is also
checked in a subprocess with OPENBLAS/OMP/MKL_NUM_THREADS=1: a
reduction whose summation order follows the thread count (a BLAS
matrix product) would give other last bits there.

The tabulated rows use a 1e-2 claim grid, which keeps the whole file
to a few seconds. The pins were captured with numpy 2.4.6 and scipy
1.17.1; a library upgrade that moves a last bit means recapturing them
from a tree whose numbers are trusted, not loosening them.
"""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import divbarrier as db
from divbarrier import cli, expmodel
from divbarrier.firstpassage import upcross_table, upcross_transform
from divbarrier.hfun import h_callable, h_d_sigma0, h_d_sigma_pos, w_d
from divbarrier.valuation import (
    barrier_solution_at,
    density_shape_advisory,
    generator_apply,
    gprime_monotone_check,
    hjb_curve,
    hjb_verify,
    value_barrier,
)

inf = math.inf
YS = (0.0, 0.3, 0.5)
TAB = db.tabulated_exponential(1.0, step=1e-2)


def _model(claims, d, sigma=0.0, r=0.8):
    dist = TAB if claims == "tab" else db.ExponentialClaims(1.0)
    return db.validate(db.ModelParams(lam=10.0, c=15.0, sigma=sigma, q=0.1,
                                      r=r, d=d), dist)


def _fingerprint(x):
    if x is None or isinstance(x, (bool, int, np.integer, str)):
        return repr(x)
    if isinstance(x, bytes):
        data = x
    else:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return float(arr).hex()
        data = np.ascontiguousarray(arr).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _transform(claims, sigma, d):
    m = _model(claims, d, sigma)
    out = []
    for y in YS:
        tr = upcross_transform(m, y, d)
        out += [tr.value, tr.truncation_k, tr.tail_bound]
    return out + [upcross_table(m, d, np.array(YS))]


def _transform_inf(sigma, ys):
    # deficits where np.exp(-rho y) and math.exp(-rho y) differ in the
    # last bit: a single deficit reads the route's np.exp, as a grid does
    m = _model("exp", inf, sigma)
    return [upcross_transform(m, y, inf).value for y in ys]


def _transform_tab_diffusion():
    # the table's scale-function route: Lambda from W and the law of X_d
    # on the table's lattice. Its tail bound bounds the claim-count
    # terms the law leaves out and the wrap-around of its transforms
    m = _model("tab", 1.0, 0.5, r=0.5)
    tr = upcross_transform(m, 0.5, 1.0)
    assert tr.tail_bound >= 0.0
    return [tr.value, tr.truncation_k, tr.tail_bound,
            upcross_table(m, 1.0, np.array(YS))]


def _h(claims, sigma, d, a, step):
    m = _model(claims, d, sigma)
    build = h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos
    h = build(m, a, step)
    xs = np.append(h.grid.x[:-1], a)
    return [h.grid.values, h.read(xs, 1), h.read(xs, 2), h.ide_residual,
            h.xi_prime_zero or 0.0]


def _generator(claims):
    # support [0, inf) leaves claim mass out of reach at x = 0.8;
    # [-25, inf) leaves only e^{-25.8}
    m = _model(claims, 2.0)
    g = lambda x: np.exp(-0.5 * np.asarray(x, dtype=float))
    with pytest.raises(ValueError) as err:
        generator_apply(m, g, 0.8, support_lo=0.0)
    return [generator_apply(m, g, 0.8),
            generator_apply(m, g, 0.8, support_lo=-25.0), str(err.value)]


def _advisory():
    out = []
    for dist in (db.ExponentialClaims(1.0), TAB):
        adv = density_shape_advisory(dist)
        out += [adv.monotone, adv.direction, adv.message]
    return out


def _w(claims, sigma, d):
    return [w_d(_model(claims, d, sigma), np.linspace(0.0, 1.5, 7))]


@functools.lru_cache(maxsize=None)
def _optimal(sigma, d, grid_step=1e-3):
    return db.optimal_barrier(_model("exp", d, sigma), a_max=2.0, grid_step=grid_step)


def _barrier(sigma, d, grid_step=1e-3):
    sol = _optimal(sigma, d, grid_step)
    xs = np.array([-0.2, 0.0, 0.3, sol.a_star, sol.a_star + 0.5])
    return [sol.a_star, sol.boundary, sol.hjb_report.passed, sol.value(xs)]


def _report(rep):
    out = [rep.passed, rep.a_star, rep.x_max, rep.method]
    for chk in (rep.generator_above, rep.generator_interior, rep.slope_floor):
        out += [chk.name, chk.passed, chk.worst_x, chk.worst_value, chk.tol]
    return out


def _value_xs(a):
    # -31 lies past the Parisian reach -c d = -30 at d = 2 (and -15 at
    # d = 1, which a diffusion can still climb back from)
    return np.array([-31.0, -0.4, -0.01, 0.0, 0.3, a, a + 1.0])


def _hjb(sigma, d):
    return _report(_optimal(sigma, d).hjb_report)


def _forced(claims, d, a):
    m = _model(claims, d)
    sol = barrier_solution_at(m, a)
    xs = _value_xs(a)
    out = [sol.a_star, sol.boundary, sol.value(xs)]
    if a > 0:
        out += [value_barrier(m, sol.h, a, xs), h_callable(m, sol.h)(xs[:-1]),
                h_callable(m, sol.h)(-0.01)]
    return out + _report(hjb_verify(m, sol, a + 3.0))


def _value(sigma, d):
    m, sol = _model("exp", d, sigma), _optimal(sigma, d)
    a = sol.a_star
    xs = _value_xs(a)
    out = [sol.value(xs), sol.value(-0.01)]
    if a > 0:
        out += [value_barrier(m, sol.h, a, xs), h_callable(m, sol.h)(xs[:-1])]
    xc, gen = hjb_curve(m, sol, a + 2.0)
    mono = gprime_monotone_check(m, a, a + 1.0)
    return out + [xc, gen, mono.passed, mono.worst_violation]


def _series(d):
    return list(expmodel.exp_series(_model("exp", d), np.linspace(0.0, 2.0, 9), d))


def _cli_h(sigma, d):
    # at sigma > 0 the command takes hfun's solver step: for Exp claims,
    # read in closed form, the caller's 1e-3 itself
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "h.csv")
        assert cli.main(["h", "--a", "0.5", "--sigma", repr(sigma), "--d", repr(d),
                         "--grid-step", "1e-3", "--out", out]) == 0
        with open(out, "rb") as fh:
            return [fh.read()]


CASES = {}
for _claims, _sigma in (("exp", 0.0), ("tab", 0.0), ("exp", 0.5)):
    for _d in (0.0, 0.4, 2.0, inf):
        CASES["phi-%s-s%g-d%g" % (_claims, _sigma, _d)] = (
            _transform, (_claims, _sigma, _d))
CASES["phi-tab-s0.5-r0.5-d1"] = (_transform_tab_diffusion, ())
CASES["phi-exp-s0-dinf-ulp"] = (_transform_inf, (0.0, (1.1, 1.8)))
CASES["phi-exp-s0.5-dinf-ulp"] = (_transform_inf, (0.5, (0.2, 0.9)))
for _d in (0.0, 2.0):
    CASES["h-exp-s0-d%g" % _d] = (_h, ("exp", 0.0, _d, 0.7693, 1e-3))
CASES["h-tab-s0-d2"] = (_h, ("tab", 0.0, 2.0, 0.7693, 1e-3))
for _d in (0.0, 1.0, inf):
    CASES["h-exp-s0.5-d%g" % _d] = (_h, ("exp", 0.5, _d, 0.5, 1e-4))
CASES["h-tab-s0.5-dinf"] = (_h, ("tab", 0.5, inf, 0.5, 1e-4))
for _claims in ("exp", "tab"):
    CASES["gen-%s-s0-d2" % _claims] = (_generator, (_claims,))
CASES["advisory"] = (_advisory, ())
CASES["w-exp-s0-d2"] = (_w, ("exp", 0.0, 2.0))
CASES["w-tab-s0-d2"] = (_w, ("tab", 0.0, 2.0))
CASES["w-exp-s0.5-d1"] = (_w, ("exp", 0.5, 1.0))
CASES["barrier-s0-d0"] = (_barrier, (0.0, 0.0))
CASES["barrier-s0-d2"] = (_barrier, (0.0, 2.0))
CASES["barrier-s0.5-d0"] = (_barrier, (0.5, 0.0))
CASES["barrier-s0.5-d0-step2e-5"] = (_barrier, (0.5, 0.0, 2e-5))
CASES["barrier-s0.5-d1"] = (_barrier, (0.5, 1.0))
for _d in (0.0, 2.0):
    CASES["hjb-s0-d%g" % _d] = (_hjb, (0.0, _d))
    CASES["value-s0-d%g" % _d] = (_value, (0.0, _d))
for _claims in ("exp", "tab"):
    for _a in (0.0, 0.3):
        CASES["at-%s-s0-d2-a%g" % (_claims, _a)] = (_forced, (_claims, 2.0, _a))
CASES["value-s0.5-d1"] = (_value, (0.5, 1.0))
for _d in (0.0, 0.4, 2.0, inf):
    CASES["series-d%g" % _d] = (_series, (_d,))
CASES["cli-h-s0.5-d1"] = (_cli_h, (0.5, 1.0))

PINS = {
    'advisory': [
        'True', "'nondecreasing'",
        "'barrier optimality guaranteed (monotone density slope)'", 'True',
        "'nondecreasing'",
        "'barrier optimality guaranteed (monotone density slope)'",
    ],
    'at-exp-s0-d2-a0': [
        '0x0.0p+0', 'True', 'c528694dcdab3141', 'True', '0x0.0p+0',
        '0x1.8000000000000p+1', "'sampled'", "'generator_above'", 'True',
        '0x0.0p+0', '0x1.0000000000000p-47', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17', "'slope_floor'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17',
    ],
    'at-exp-s0-d2-a0.3': [
        '0x1.3333333333333p-2', 'False', 'aec2309b93e9109a',
        'aec2309b93e9109a', 'd7faa04c42c3a409', '0x1.da9018ee9abf4p-1',
        'False', '0x1.3333333333333p-2', '0x1.a666666666666p+1', "'sampled'",
        "'generator_above'", 'True', '0x1.3333333333333p-2',
        '0x1.c171000000000p-30', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', '0x1.32fec56d5cfaap-2',
        '0x1.c12c000000000p-30', '0x1.4f8b588e368f1p-17', "'slope_floor'",
        'False', '0x1.a36e2eb1c432cp-13', '0x1.dbc1081412a84p-1',
        '0x1.4f8b588e368f1p-17',
    ],
    'at-tab-s0-d2-a0': [
        '0x0.0p+0', 'True', '05d53c9621bea44a', 'True', '0x0.0p+0',
        '0x1.8000000000000p+1', "'sampled'", "'generator_above'", 'True',
        '0x0.0p+0', '0x1.0000000000000p-48', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17', "'slope_floor'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17',
    ],
    'at-tab-s0-d2-a0.3': [
        '0x1.3333333333333p-2', 'False', '593732c389018ed5',
        '593732c389018ed5', '7266dd8fa2455da7', '0x1.da9018efdae7cp-1',
        'False', '0x1.3333333333333p-2', '0x1.a666666666666p+1', "'sampled'",
        "'generator_above'", 'True', '0x1.3333333333333p-2',
        '0x1.8233800000000p-27', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', '0x1.32fec56d5cfaap-2',
        '0x1.81f7e00000000p-27', '0x1.4f8b588e368f1p-17', "'slope_floor'",
        'False', '0x1.a36e2eb1c432cp-13', '0x1.dbc16078c4c51p-1',
        '0x1.4f8b588e368f1p-17',
    ],
    'barrier-s0-d0': [
        '0x1.89e3a9d068884p-1', 'False', 'True', '867e98e4a70fe7ca',
    ],
    'barrier-s0-d2': [
        '0x0.0p+0', 'True', 'True', '1fedea689330bfaf',
    ],
    'barrier-s0.5-d0': [
        '0x1.926bbfa737767p-1', 'False', 'True', '6e042d153056bbd9',
    ],
    'barrier-s0.5-d0-step2e-5': [
        '0x1.926bbfa737767p-1', 'False', 'True', '6e042d153056bbd9',
    ],
    'barrier-s0.5-d1': [
        '0x0.0p+0', 'True', 'True', '3c8ca671f588816f',
    ],
    'cli-h-s0.5-d1': [
        '00ecbb8332e7f6fa',
    ],
    'gen-exp-s0-d2': [
        '-0x1.016724a2bf7e8p+0', '-0x1.0168e5c219a28p+0',
        '"g\'s support [0, inf) leaves claim mass 4.49e-01 unreachable below x = 0.8"',
    ],
    'gen-tab-s0-d2': [
        '-0x1.01675b7429c58p+0', '-0x1.0168e5e75cd88p+0',
        '"g\'s support [0, inf) leaves claim mass 4.49e-01 unreachable below x = 0.8"',
    ],
    'h-exp-s0-d0': [
        'af844d888bda1c5a', '76f8480a974beb5a', 'af6af6d8605fca8e',
        '0x1.ecbb68bf246fap-49', '0x0.0p+0',
    ],
    'h-exp-s0-d2': [
        'e1e9844a4f7f37dd', '9175dcef36a91aa1', 'db065fd364f03f0f',
        '0x1.540ab58609df6p-49', '0x0.0p+0',
    ],
    'h-exp-s0.5-d0': [
        '96ba389e057689d2', 'aff1458517ade5b0', 'cd1de0d4d591cc05',
        '0x1.04ccba5ea4464p-48', '0x0.0p+0',
    ],
    'h-exp-s0.5-d1': [
        'e6c2fbd278106c35', '05c51f6b40fe3cb1', '5805a1c7bde5fb33',
        '0x1.000000bc222a4p-50', '0x1.f53d341b24dbep-3',
    ],
    'h-exp-s0.5-dinf': [
        '147af5dfab13aec3', '9841e46a183b2450', 'f54f65b809d197d7', '0x0.0p+0',
        '0x1.f40fd54a9a94ep-3',
    ],
    'h-tab-s0-d2': [
        '550c129076247258', '6eb9c80150b0d625', '3791edfdc98b4b90',
        '0x1.83002d4e80000p-17', '0x0.0p+0',
    ],
    'h-tab-s0.5-dinf': [
        'e049f626c47b9498', '64d3e8430a3a0852', 'b8e2bddb47bec3bf',
        '0x1.0000000000000p-50', '0x1.f40fd54aec575p-3',
    ],
    'hjb-s0-d0': [
        'True', '0x1.89e3a9d068884p-1', 'inf', "'closed'", "'generator_above'",
        'True', '0x1.89e3a9d0691d4p-1', '0x1.0000000000000p-49',
        '0x1.4f8b588e368f1p-17', "'generator_interior'", 'True', '0x0.0p+0',
        '0x1.3fc6eb9770d56p-47', '0x1.4f8b588e368f1p-17', "'slope_floor'",
        'True', '0x1.89e3a9d068884p-1', '0x1.0000000000000p+0',
        '0x1.4f8b588e368f1p-17',
    ],
    'hjb-s0-d2': [
        'True', '0x0.0p+0', 'inf', "'closed'", "'generator_above'", 'True',
        '0x0.0p+0', '0x1.0000000000000p-48', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17', "'slope_floor'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17',
    ],
    'phi-exp-s0-d0': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x0.0p+0', '0', '0x0.0p+0',
        '0x0.0p+0', '0', '0x0.0p+0', '725c4777db328932',
    ],
    'phi-exp-s0-d0.4': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.d9d29986f4ef0p-1', '0',
        '0x1.b48281d7fe9e7p-48', '0x1.c195353dc1242p-1', '0',
        '0x1.b48281d7fe9e7p-48', '77ef55d43c946e9a',
    ],
    'phi-exp-s0-d2': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbb9eeb609189p-1', '0',
        '0x1.e6a08da749378p-48', '0x1.c4fb96fe20ba5p-1', '0',
        '0x1.e6a08da749378p-48', '0e9ada7fb59a02a9',
    ],
    'phi-exp-s0-dinf': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbba57c2524bcp-1', '0',
        '0x0.0p+0', '0x1.c4fc507247089p-1', '0', '0x0.0p+0',
        '8df0f1c44a4c21b3',
    ],
    'phi-exp-s0-dinf-ulp': [
        '0x1.871395c4bb741p-1', '0x1.49759cee28aa6p-1',
    ],
    'phi-exp-s0.5-d0': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x0.0p+0', '0', '0x0.0p+0',
        '0x0.0p+0', '0', '0x0.0p+0', '725c4777db328932',
    ],
    'phi-exp-s0.5-d0.4': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.d9eb3da741232p-1', '0',
        '0x1.ad994348798f2p-43', '0x1.c1bc160559049p-1', '0',
        '0x1.cb7fdd3f8100ap-47', 'a8241a865927f0ee',
    ],
    'phi-exp-s0.5-d2': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbd59ca1e616ap-1', '0',
        '0x1.e75dc4941dcf2p-43', '0x1.c52784d1d1a56p-1', '0',
        '0x1.0000866bfb377p-46', '24f7b26b0a4ebc7f',
    ],
    'phi-exp-s0.5-dinf': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbd607dbf872fp-1', '0',
        '0x0.0p+0', '0x1.c528420d37468p-1', '0', '0x0.0p+0',
        '8a8303ed2763450d',
    ],
    'phi-exp-s0.5-dinf-ulp': [
        '0x1.e798fbd29a6c1p-1', '0x1.9afda681073cfp-1',
    ],
    'phi-tab-s0-d0': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x0.0p+0', '0', '0x0.0p+0',
        '0x0.0p+0', '0', '0x0.0p+0', '725c4777db328932',
    ],
    'phi-tab-s0-d0.4': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.d9d29828c19cfp-1', '25',
        '0x1.db92fefbca380p-41', '0x1.c195330e5f45cp-1', '25',
        '0x1.db92fefbca380p-41', 'e167854a5352f9a8',
    ],
    'phi-tab-s0-d2': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbb9eeb86e96ap-1', '65',
        '0x1.50be5b3463187p-40', '0x1.c4fb970269673p-1', '65',
        '0x1.50be5b3463187p-40', 'fc6218d57ad004a8',
    ],
    'phi-tab-s0-dinf': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbba57c24c8cep-1', '0',
        '0x0.0p+0', '0x1.c4fc50723dea4p-1', '0', '0x0.0p+0',
        '2c67fa9b71bd1b25',
    ],
    'phi-tab-s0.5-r0.5-d1': [
        '0x1.9ad4b776578cep-1', '33', '0x1.c843a55eebd53p-40',
        '60a85b5ac24aa338',
    ],
    'series-d0': [
        '291747017cd060ca', 'fce076b3ae6cb09f', '425820394d78a148',
    ],
    'series-d0.4': [
        '097f98bf26b4c4af', '88eb36be70589094', '647a40a23f22954a',
    ],
    'series-d2': [
        '3418e6e07d501936', '0d67b8ceff380d53', '6009b62afdd7d3dd',
    ],
    'series-dinf': [
        '558dec7941f50116', 'a754ff3b02f99ee1', '2c3b8187867a8edf',
    ],
    'value-s0-d0': [
        '6d7cacab12292f9a', '0x0.0p+0', '6d7cacab12292f9a', '83efae547e9fd3c9',
        '7e9b1fdf3a04b92d', 'f731866f6c5cc6f9', 'True', '0x0.0p+0',
    ],
    'value-s0-d2': [
        'c528694dcdab3141', '0x1.04a6b8bfe69afp+2', '3c65c57e7d92d1b5',
        'a716d42a7c30430e', 'True', '0x0.0p+0',
    ],
    'value-s0.5-d1': [
        '175b2c6c469e7006', '0x1.04db53ca4c990p+2', '3c65c57e7d92d1b5',
        '95b1e4a5aedcfe3e', 'True', '0x0.0p+0',
    ],
    'w-exp-s0-d2': [
        '42f3f465c59c87ee',
    ],
    'w-exp-s0.5-d1': [
        '1f406f66f6585c70',
    ],
    'w-tab-s0-d2': [
        'b81b4d9fadf9c801',
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_analytic_output_pinned(case):
    fn, args = CASES[case]
    assert [_fingerprint(v) for v in fn(*args)] == PINS[case]


# runs in the subprocess: every row's fingerprints, as JSON on the last line
_ONE_THREAD_RUN = r"""
import json
import test_analytic_pin as pins
print(json.dumps({case: [pins._fingerprint(v) for v in fn(*args)]
                  for case, (fn, args) in pins.CASES.items()}))
"""


def test_analytic_output_pinned_on_one_blas_thread():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", _ONE_THREAD_RUN], env=env, cwd=here,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    moved = sorted(case for case in PINS if got[case] != PINS[case])
    assert moved == []
