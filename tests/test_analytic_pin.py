"""Analytic outputs pinned bit for bit.

Every number the library computes without simulation is captured here
as float.hex (scalars) or as the leading sha256 digits of the float64
bytes (grids), so a change to the arithmetic of any regime shows at
once. The rows cover the deadline transform Phi_d (value, truncation
K, tail bound, and the grid route) at sigma = 0 with exponential and
with tabulated claims and at sigma = 0.5, each at d in {0, 0.4, 2, inf}
and deficits y in {0, 0.3, 0.5}, plus tabulated claims at sigma = 0.5
(r = 0.5, d = 1), the one route that reads the claim powers between
table nodes, with a nonnegative tail bound; the exit function with
its two derivatives in both solvers, tabulated claims included; the
w_d forcing; the generator applied to a test function with both claim
laws, with the text of its unreachable-mass error; the density-shape
advisory; the optimal barrier with its value (at sigma > 0, d = 0 the
refusal at the default grid step and the answer at step 2e-5); the
closed exponential series; and the bytes of the `divbarrier h` CSV.
The value rows add every field of the HJB report, forced barriers at
a in {0, 0.3}, the value function, value_barrier and h_callable on
both sides of zero (down to past the Parisian reach -c d), the HJB
curve and the slope-monotonicity screen.

The tabulated rows use a 1e-2 claim grid, which keeps the whole file
to a few seconds. The pins were captured with numpy 2.4.6 and scipy
1.17.1; a library upgrade that moves a last bit means recapturing them
from a tree whose numbers are trusted, not loosening them.
"""

import functools
import hashlib
import math
import os
import tempfile

import numpy as np
import pytest

import divbarrier as db
from divbarrier import cli, expmodel
from divbarrier.firstpassage import upcross_table, upcross_transform
from divbarrier.gridmath import NonConvergenceError
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
    # last bit, so the scalar route's math.exp is pinned too
    m = _model("exp", inf, sigma)
    return [upcross_transform(m, y, inf).value for y in ys]


def _transform_tab_diffusion():
    # the one solver route that reads the claim powers between table
    # nodes; its remainder estimate comes out negative at r = 0.5
    m = _model("tab", 1.0, 0.5, r=0.5)
    tr = upcross_transform(m, 0.5, 1.0)
    assert tr.tail_bound >= 0.0
    return [tr.value, tr.truncation_k, tr.tail_bound,
            upcross_table(m, 1.0, np.array(YS))]


def _h(claims, sigma, d, a, step):
    m = _model(claims, d, sigma)
    build = h_d_sigma0 if sigma == 0.0 else h_d_sigma_pos
    h = build(m, a, step)
    return [h.grid.values, h.hp.values, h.hpp.values, h.ide_residual,
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


def _barrier_refused(sigma, d):
    with pytest.raises(NonConvergenceError) as err:
        _optimal(sigma, d)
    return [str(err.value), err.value.last_norm]


def _report(rep):
    out = [rep.passed, rep.a_star, rep.x_max]
    for chk in (rep.generator_above, rep.generator_interior, rep.slope_floor):
        out += [chk.name, chk.passed, chk.worst_x, chk.worst_value, chk.tol]
    return out


def _value_xs(a):
    # -31 lies past the Parisian reach -c d = -30 at d = 2
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
    # at sigma > 0 the command clamps the 1e-3 step to 1e-5
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
CASES["barrier-s0.5-d0"] = (_barrier_refused, (0.5, 0.0))
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
        '0x0.0p+0', 'True', '1c4e5e392adc4270', 'True', '0x0.0p+0',
        '0x1.8000000000000p+1', "'generator_above'", 'True', '0x0.0p+0',
        '-0x1.0000000000000p-47', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17', "'slope_floor'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17',
    ],
    'at-exp-s0-d2-a0.3': [
        '0x1.3333333333333p-2', 'False', 'cf752bfa3366271d',
        'cf752bfa3366271d', '48c5f5194745e56e', '0x1.da9018ee90679p-1',
        'False', '0x1.3333333333333p-2', '0x1.a666666666666p+1',
        "'generator_above'", 'True', '0x1.3333333333333p-2',
        '0x1.5114400000000p-30', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', '0x1.32fec56d5cfaap-2',
        '0x1.50df800000000p-30', '0x1.4f8b588e368f1p-17', "'slope_floor'",
        'False', '0x1.a36e2eb1c432cp-13', '0x1.dbc108142dd12p-1',
        '0x1.4f8b588e368f1p-17',
    ],
    'at-tab-s0-d2-a0': [
        '0x0.0p+0', 'True', 'bbd1acdf153a4418', 'True', '0x0.0p+0',
        '0x1.8000000000000p+1', "'generator_above'", 'True', '0x0.0p+0',
        '-0x1.0000000000000p-48', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17', "'slope_floor'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17',
    ],
    'at-tab-s0-d2-a0.3': [
        '0x1.3333333333333p-2', 'False', '5f9d150c22df1d43',
        '5f9d150c22df1d43', '6d80e1a0ebf0ffcd', '0x1.da90297abb7bbp-1',
        'False', '0x1.3333333333333p-2', '0x1.a666666666666p+1',
        "'generator_above'", 'True', '0x1.3333333333333p-2',
        '0x1.8232900000000p-27', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', '0x1.32fec56d5cfaap-2',
        '0x1.81f6d00000000p-27', '0x1.4f8b588e368f1p-17', "'slope_floor'",
        'False', '0x1.a36e2eb1c432cp-13', '0x1.dbc198b8c5865p-1',
        '0x1.4f8b588e368f1p-17',
    ],
    'barrier-s0-d0': [
        '0x1.89e3aaa597e43p-1', 'False', 'True', '331cf1202278aa61',
    ],
    'barrier-s0-d2': [
        '0x0.0p+0', 'True', 'True', '745853e4818cc649',
    ],
    'barrier-s0.5-d0': [
        "'equation residual 9.518e-03 exceeds 1e-04 at step 0.001 (slope at 0 imposed 1.000000, checked against 1.000000)'",
        '0x1.37df0d78eb55cp-7',
    ],
    'barrier-s0.5-d0-step2e-5': [
        '0x1.928325ded183ep-1', 'False', 'True', '6cef9f543bc78309',
    ],
    'barrier-s0.5-d1': [
        '0x0.0p+0', 'True', 'True', '990c6204eaa970f1',
    ],
    'cli-h-s0.5-d1': [
        'e6041b7880b6161f',
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
        '58731430a4b2337f', '90adce7b521b0c5c', '7e82ded1ab3d7bfb',
        '0x1.708eb06ec0000p-23', '0x0.0p+0',
    ],
    'h-exp-s0-d2': [
        'a10bd14b1aa5d9e2', '0f676fa5ef3853ec', 'cab8e28f8210ec3a',
        '0x1.27d8108000000p-24', '0x0.0p+0',
    ],
    'h-exp-s0.5-d0': [
        'c79d052d384a7d63', '2c1fa0b84daf5e22', '45c710e6ce39e2ae',
        '0x1.480a09f2e9dd2p-16', '0x0.0p+0',
    ],
    'h-exp-s0.5-d1': [
        '89709eda081b6832', '90e2a747565a214c', '4c454d7d30f1f785',
        '0x1.0001e73000000p-22', '0x1.f53d338b6f6d1p-3',
    ],
    'h-exp-s0.5-dinf': [
        '6f2d90238bfa7d22', 'e18533a1778555b2', 'e92ccb580ba3f213',
        '0x1.0068e8b000000p-22', '0x1.f40fd54a9a94ep-3',
    ],
    'h-tab-s0-d2': [
        '866f8f719930cd25', '5973fe58727bd5f6', 'e6f70c96d955451c',
        '0x1.2dd3f0bb60000p-15', '0x0.0p+0',
    ],
    'h-tab-s0.5-dinf': [
        '2a0fb252b8680b85', '8ef7e2649bfa1ed1', 'eb0a1a501dc3ab16',
        '0x1.ec8a893600000p-16', '0x1.f40e46f3e045bp-3',
    ],
    'hjb-s0-d0': [
        'True', '0x1.89e3aaa597e43p-1', '0x1.589e3aaa597e4p+3',
        "'generator_above'", 'True', '0x1.89ee006a55b00p-1',
        '-0x1.ebfc700000000p-28', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', '0x1.89d3c994f6706p-1',
        '0x1.34e8200000000p-30', '0x1.4f8b588e368f1p-17', "'slope_floor'",
        'True', '0x1.89d3c994f6706p-1', '0x1.00000004e985bp+0',
        '0x1.4f8b588e368f1p-17',
    ],
    'hjb-s0-d2': [
        'True', '0x0.0p+0', '0x1.4000000000000p+3', "'generator_above'",
        'True', '0x0.0p+0', '0x1.0000000000000p-48', '0x1.4f8b588e368f1p-17',
        "'generator_interior'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17', "'slope_floor'", 'True', 'None', 'None',
        '0x1.4f8b588e368f1p-17',
    ],
    'phi-exp-s0-d0': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x0.0p+0', '0', '0x0.0p+0',
        '0x0.0p+0', '0', '0x0.0p+0', '725c4777db328932',
    ],
    'phi-exp-s0-d0.4': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.d9d29986f5917p-1', '0',
        '0x1.450eeeeeeeeefp-42', '0x1.c195353dc1e2ep-1', '0',
        '0x1.7d78888888889p-42', 'db47e8168f0e4996',
    ],
    'phi-exp-s0-d2': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbb9eeb60aed2p-1', '0',
        '0x1.d418222222222p-41', '0x1.c4fb96fe20e0ep-1', '0',
        '0x1.3471111111111p-44', '0f69620e713c4b4f',
    ],
    'phi-exp-s0-dinf': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbba57c2524bcp-1', '0',
        '0x0.0p+0', '0x1.c4fc507247089p-1', '0', '0x0.0p+0',
        '8df0f1c44a4c21b3',
    ],
    'phi-exp-s0-dinf-ulp': [
        '0x1.871395c4bb742p-1', '0x1.49759cee28aa7p-1',
    ],
    'phi-exp-s0.5-d0': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x0.0p+0', '0', '0x0.0p+0',
        '0x0.0p+0', '0', '0x0.0p+0', '725c4777db328932',
    ],
    'phi-exp-s0.5-d0.4': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.d9eb3b832d514p-1', '0',
        '0x1.27402ae9794bap-47', '0x1.c1bc1221a8d88p-1', '0',
        '0x1.03e0866b0e815p-46', 'be895c82fe8fed27',
    ],
    'phi-exp-s0.5-d2': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbd59ca1cdc74p-1', '0',
        '0x1.9efda989e1678p-46', '0x1.c52784d1a73c5p-1', '0',
        '0x1.6d49ec5a964dcp-45', 'fe4f12ff2315c234',
    ],
    'phi-exp-s0.5-dinf': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbd607dbf872fp-1', '0',
        '0x0.0p+0', '0x1.c528420d37468p-1', '0', '0x0.0p+0',
        '8a8303ed2763450d',
    ],
    'phi-exp-s0.5-dinf-ulp': [
        '0x1.e798fbd29a6c2p-1', '0x1.9afda681073d0p-1',
    ],
    'phi-tab-s0-d0': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x0.0p+0', '0', '0x0.0p+0',
        '0x0.0p+0', '0', '0x0.0p+0', '725c4777db328932',
    ],
    'phi-tab-s0-d0.4': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.d9d2a96612528p-1', '25',
        '0x1.02a6ba4092aafp-42', '0x1.c19545840c303p-1', '25',
        '0x1.02a6ba4092aafp-42', '72cd2a1d351ad189',
    ],
    'phi-tab-s0-d2': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbb9f9e86fc69p-1', '69',
        '0x1.c492328fe530fp-48', '0x1.c4fb9f1521902p-1', '69',
        '0x1.c492328fe530fp-48', 'cf7a9c60a101cfcc',
    ],
    'phi-tab-s0-dinf': [
        '0x1.0000000000000p+0', '0', '0x0.0p+0', '0x1.dbba73c063421p-1', '0',
        '0x0.0p+0', '0x1.c4fc7cdec3df9p-1', '0', '0x0.0p+0',
        'b3abec16f2763e1d',
    ],
    'phi-tab-s0.5-r0.5-d1': [
        '0x1.9ad4d87c22941p-1', '197', '0x1.2d6d67d45e8a2p-86',
        'ec2fad76967131fd',
    ],
    'series-d0': [
        '291747017cd060ca', 'fce076b3ae6cb09f', '425820394d78a148',
    ],
    'series-d0.4': [
        '097f98bf26b4c4af', '88eb36be70589094', '647a40a23f22954a',
    ],
    'series-d2': [
        'e9641019bbda0eb7', '7b4c8ab46cca618a', 'c3fe85b3dc8996fe',
    ],
    'series-dinf': [
        '67d8923e8e732a77', '1666ade449581577', 'ca9ab72e6a17cb9a',
    ],
    'value-s0-d0': [
        'e31a5f8daaa87264', '0x0.0p+0', 'e31a5f8daaa87264', 'ffb395e3905c9067',
        '658af42fefa1e7c9', '5446fd33bbfd1668', 'True', '0x0.0p+0',
    ],
    'value-s0-d2': [
        'bcc5f207a128c3ca', '0x1.04a6b8bfe74d1p+2', '3c65c57e7d92d1b5',
        'baacba8262c23ac1', 'True', '0x0.0p+0',
    ],
    'value-s0.5-d1': [
        '025aa2b3e03f5a58', '0x1.04db5414f62c7p+2', '3c65c57e7d92d1b5',
        '559910f0f6db5e8b', 'True', '0x0.0p+0',
    ],
    'w-exp-s0-d2': [
        'de750bfe7b5b1a06',
    ],
    'w-exp-s0.5-d1': [
        '09e4deae57df83e7',
    ],
    'w-tab-s0-d2': [
        '4e7b4cd0773e17b7',
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_analytic_output_pinned(case):
    fn, args = CASES[case]
    assert [_fingerprint(v) for v in fn(*args)] == PINS[case]
