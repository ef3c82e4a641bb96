"""Monte Carlo engine checks.

The sharpest fixtures all have sigma = 0, where the engine is exact
and its chunked seeding must reproduce bit for bit. With a barrier at
zero, no grace period and x = 0 the two discount modes have values
c/(lam+q) and r c/(lam+q); paths that drift past the horizon report a
truncation bound the mean must respect.
"""

import math

import numpy as np
import pytest

import divbarrier as db
from divbarrier import expmodel
from divbarrier.simulator import (
    SimConfig,
    SimEstimate,
    _Powers,
    simulate_h,
    simulate_upcross,
    simulate_value,
)
from divbarrier.lundberg import lundberg_root

from conftest import make_model

inf = math.inf
PER = 15.0 / 10.1
TER = 0.8 * 15.0 / 10.1


class TestConfig:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SimConfig(0)
        with pytest.raises(ValueError):
            SimConfig(10, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(10, discount_mode="geometric")

    def test_defaults(self):
        cfg = SimConfig(10)
        assert cfg.seed == 12345
        assert cfg.discount_mode == "per_payment"
        assert cfg.t_max is None

    @pytest.mark.parametrize("kwargs", [
        dict(n_paths=10.5),
        # a nan step never advances an Euler path, so the run would
        # never end
        dict(n_paths=100, dt=math.nan),
        dict(n_paths=100, dt=inf),
        dict(n_paths=10, t_max=math.nan),
        dict(n_paths=10, t_max=0.0),
        dict(n_paths=10, t_max=-1.0),
        dict(n_paths=True),
        # no seed would draw fresh OS entropy for each chunk, so the
        # run could not be repeated
        dict(n_paths=10, seed=None),
        dict(n_paths=10, seed=-1),
        dict(n_paths=10, seed=1.5),
        dict(n_paths=10, seed=True),
        dict(n_paths=10, seed="7"),
    ])
    def test_rejects_fractional_and_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_unbounded_horizon_allowed(self):
        assert SimConfig(10, t_max=inf).t_max == inf

    def test_numpy_integer_seed_allowed(self):
        assert SimConfig(10, seed=np.int64(0)).seed == 0


class TestPowerTable:
    @pytest.mark.parametrize("r", [0.3, 0.8, 0.99, 1.0])
    def test_reads_match_np_power_bit_for_bit(self, r):
        rk = _Powers(r)
        first = len(rk.table)
        rng = np.random.default_rng(3)
        # unordered counts, with repeats, inside the first table, then
        # running past its end, then read again from the grown table
        for K in (rng.integers(0, first, 500), rng.permutation(5 * first + 3),
                  rng.integers(0, 7 * first, 900), np.zeros(0, dtype=np.int64)):
            got = rk(K)
            assert got.tobytes() == np.power(r, K.astype(float)).tobytes()
        assert len(rk.table) > 5 * first


class TestNonFiniteInputs:
    # a non-finite level or start must raise, not yield a silent 0.0
    @pytest.mark.parametrize("a,x", [
        (math.nan, 0.3), (0.7, math.nan), (inf, 0.3), (0.7, -inf)])
    def test_barrier_and_start(self, m_d0, a, x):
        for fn in (simulate_value, simulate_h):
            with pytest.raises(ValueError):
                fn(m_d0, a, x, SimConfig(10))

    @pytest.mark.parametrize("y,d", [
        (math.nan, 1.0), (inf, 1.0), (0.5, math.nan)])
    def test_upcross_level_and_deadline(self, m_d0, y, d):
        with pytest.raises(ValueError):
            simulate_upcross(m_d0, y, d, SimConfig(10))


class TestDeterminism:
    def test_bit_identical_across_runs(self, m_d0):
        # 20000 paths spill into a second chunk, so this also pins the
        # per-chunk seeding and the reduction order
        cfg = SimConfig(20000, seed=99)
        e1 = simulate_value(m_d0, 0.0, 0.0, cfg)
        e2 = simulate_value(m_d0, 0.0, 0.0, cfg)
        assert e1.mean == e2.mean
        assert e1.stderr == e2.stderr
        assert e1.truncation_bias_bound == e2.truncation_bias_bound

    def test_seed_changes_result(self, m_d0):
        a = simulate_value(m_d0, 0.0, 0.0, SimConfig(5000, seed=1))
        b = simulate_value(m_d0, 0.0, 0.0, SimConfig(5000, seed=2))
        assert a.mean != b.mean

    def test_estimate_carries_path_count(self, m_d0):
        e = simulate_value(m_d0, 0.0, 0.0, SimConfig(300, seed=5))
        assert isinstance(e, SimEstimate)
        assert e.n_paths == 300


class TestAnnuityLimit:
    def test_claimless_perpetuity(self):
        # lam ~ 0: the surplus sits at the zero barrier paying c
        # forever, worth c/q; whatever the horizon cut off must be
        # covered by the reported truncation bound
        m = make_model(0.0, lam=1e-9, r=1.0)
        e = simulate_value(m, 0.0, 0.0, SimConfig(200, seed=3))
        assert e.mean <= 150.0 + 1e-9
        assert 150.0 - e.mean <= e.truncation_bias_bound + 1e-9
        assert e.stderr <= 1e-9


class TestDiscountModes:
    def test_per_payment_reference(self, m_d0):
        cfg = SimConfig(20000, seed=11, discount_mode="per_payment")
        e = simulate_value(m_d0, 0.0, 0.0, cfg)
        assert abs(e.mean - PER) <= 4 * e.stderr + e.truncation_bias_bound

    def test_terminal_factor_reference(self, m_d0):
        cfg = SimConfig(20000, seed=11, discount_mode="terminal_factor")
        e = simulate_value(m_d0, 0.0, 0.0, cfg)
        assert abs(e.mean - TER) <= 4 * e.stderr + e.truncation_bias_bound

    def test_modes_separate_cleanly(self, m_d0):
        per = simulate_value(m_d0, 0.0, 0.0,
                             SimConfig(20000, seed=11))
        ter = simulate_value(m_d0, 0.0, 0.0,
                             SimConfig(20000, seed=11,
                                       discount_mode="terminal_factor"))
        assert ter.mean + 3 * ter.stderr < per.mean - 3 * per.stderr


class TestExitWeight:
    def test_started_at_barrier(self, m_d0):
        e = simulate_h(m_d0, 0.7693, 0.7693, SimConfig(100, seed=4))
        assert e.mean == 1.0
        assert e.stderr == 0.0

    def test_matches_closed_ratio(self, m_d0):
        a = 0.7693
        want = expmodel.vartheta(m_d0, 0.4) / expmodel.vartheta(m_d0, a)
        e = simulate_h(m_d0, a, 0.4, SimConfig(20000, seed=21))
        assert abs(e.mean - want) <= 3 * e.stderr + e.truncation_bias_bound

    def test_domain_guards(self, m_d0, m_d2):
        cfg = SimConfig(10)
        with pytest.raises(ValueError):
            simulate_h(m_d0, 0.7693, 0.8, cfg)
        with pytest.raises(ValueError):
            simulate_h(m_d2, 0.7693, -(m_d2.c * 2.0), cfg)
        # strictly inside the kinematic window is fine
        simulate_h(m_d2, 0.7693, -(m_d2.c * 2.0) + 0.5, cfg)

    def test_diffusion_starts_past_the_drift_reach(self, m_d2):
        # a diffusion can recover from below -c d within d; the drift
        # alone cannot, and sigma = 0 still refuses the start
        x = -(m_d2.c * 2.0) - 0.05
        cfg = SimConfig(10, seed=3, dt=1e-3)
        e = simulate_h(make_model(2.0, sigma=0.5), 0.7693, x, cfg)
        assert 0.0 <= e.mean <= 1.0
        with pytest.raises(ValueError):
            simulate_h(m_d2, 0.7693, x, cfg)

    def test_negative_barrier_rejected(self, m_d2):
        # a barrier below zero is refused by both barrier quantities,
        # even with the start inside the Parisian reach
        for fn in (simulate_value, simulate_h):
            with pytest.raises(ValueError, match="barrier must be >= 0"):
                fn(m_d2, -1.0, -2.0, SimConfig(10))

    def test_start_at_zero_without_grace(self, m_d0):
        # with d = 0 the window below zero is empty, but x = 0 is a start
        # on [0, a] like any other
        a = 0.7693
        v, _, _ = expmodel.exp_series(m_d0, np.array([0.0, a]), 0.0)
        e = simulate_h(m_d0, a, 0.0, SimConfig(20000, seed=41))
        assert abs(e.mean - v[0] / v[1]) <= 5 * e.stderr + e.truncation_bias_bound
        with pytest.raises(ValueError):
            simulate_h(m_d0, a, -1e-9, SimConfig(10))


class TestUpcross:
    def test_matches_transform(self, m_d2):
        want = db.upcross_transform(m_d2, 0.5, 2.0).value
        e = simulate_upcross(m_d2, 0.5, 2.0, SimConfig(20000, seed=31))
        assert abs(e.mean - want) <= 3 * e.stderr + e.truncation_bias_bound

    def test_kinematically_unreachable(self, m_d0):
        # reaching 0.5 needs y/c = 1/30 of drift time; a shorter clock
        # gives exactly zero, not merely something small
        e = simulate_upcross(m_d0, 0.5, 0.02, SimConfig(2000, seed=8))
        assert e.mean == 0.0
        assert e.stderr == 0.0

    def test_unbounded_clock(self, m_d0):
        rho = lundberg_root(m_d0).rho
        e = simulate_upcross(m_d0, 0.5, math.inf, SimConfig(10000, seed=13))
        want = math.exp(-rho * 0.5)
        assert abs(e.mean - want) <= 3 * e.stderr + e.truncation_bias_bound

    def test_level_zero_is_certain(self, m_d0):
        e = simulate_upcross(m_d0, 0.0, 1.0, SimConfig(50, seed=2))
        assert e.mean == 1.0 and e.stderr == 0.0

    def test_negative_level_rejected(self, m_d0):
        with pytest.raises(ValueError):
            simulate_upcross(m_d0, -0.1, 1.0, SimConfig(10))

    def test_negative_deadline_rejected_like_transform(self, m_d0):
        with pytest.raises(ValueError) as want:
            db.upcross_transform(m_d0, 0.5, -1.0)
        with pytest.raises(ValueError) as got:
            simulate_upcross(m_d0, 0.5, -1.0, SimConfig(10))
        assert str(got.value) == str(want.value)


class TestDiffusionEngine:
    def test_deterministic_and_sane(self):
        m = make_model(1.0, sigma=0.5)
        cfg = SimConfig(1000, seed=17, dt=1e-3, t_max=3.0)
        e1 = simulate_value(m, 0.5, 0.3, cfg)
        e2 = simulate_value(m, 0.5, 0.3, cfg)
        assert e1.mean == e2.mean and e1.stderr == e2.stderr
        assert e1.mean >= 0.0
        # the short horizon must be owned up to
        assert e1.truncation_bias_bound > 0.0

    def test_upcross_short_clock_below_long(self):
        m = make_model(1.0, sigma=0.5)
        cfg = SimConfig(2000, seed=19, dt=1e-3)
        short = simulate_upcross(m, 0.4, 0.05, cfg)
        long_ = simulate_upcross(m, 0.4, 2.0, cfg)
        assert short.mean < long_.mean


# Simulator outputs captured as float.hex and pinned bit for bit, so a
# change to the draw order or the arithmetic of either path stepper
# shows at once. The rows reach every branch of the exact and the Euler
# stepper for all three targets: both discount modes, starts below
# zero, at and above the barrier, tabulated claims, a finite Parisian
# clock under diffusion, upcross timeouts, y = 0 and a second chunk.
# Row: id, target, sigma, d, claims, level (a or y), x (value, h) or
# the deadline (upcross), n_paths, seed, dt, t_max, terminal_factor, q,
# r, then mean, stderr and truncation_bias_bound.
PINNED = [
    ("value-exact-two-chunks",
     "value", 0.0, 0.0, "exp", 0.0, 0.0, 20000, 99, 1e-4, None, False, 0.1, 0.8,
     "0x1.7d8bcfcdaee4fp+0", "0x1.562edcb717721p-7", "0x0.0p+0"),
    ("value-exact-below-zero-d2-terminal",
     "value", 0.0, 2.0, "exp", 0.5, -1.0, 400, 3, 1e-4, None, True, 0.1, 0.8,
     "0x1.29fc02042b041p-13", "0x1.4fb1f447e559bp-15", "0x1.396c51186a133p-41"),
    ("value-exact-below-zero-d0",
     "value", 0.0, 0.0, "exp", 0.5, -0.1, 300, 4, 1e-4, None, False, 0.1, 0.8,
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("value-exact-at-barrier-d05",
     "value", 0.0, 0.5, "exp", 0.5, 0.5, 500, 5, 1e-4, None, False, 0.1, 0.8,
     "0x1.ef8206c120ad5p+1", "0x1.a7d4464220a61p-4", "0x1.06774e23af63ep-48"),
    ("value-exact-lump-dinf-terminal-tmax",
     "value", 0.0, inf, "exp", 0.5, 1.2, 300, 6, 1e-4, 3.0, True, 0.1, 0.8,
     "0x1.8ada26da57661p-5", "0x1.4ead9b20b8d98p-8", "0x1.33d84953e18e4p-2"),
    ("value-exact-lump-dinf",
     "value", 0.0, inf, "exp", 0.3, 0.9, 200, 7, 1e-4, None, False, 0.1, 0.8,
     "0x1.22d689bccb5adp+2", "0x1.3a3934bce8156p-3", "0x1.f43d669467a33p-41"),
    ("value-exact-tabulated-d2",
     "value", 0.0, 2.0, "tab", 0.6, 0.2, 300, 8, 1e-4, None, False, 0.1, 0.8,
     "0x1.eeb3ecb205098p+1", "0x1.28f6a9dbfb8ffp-3", "0x1.4fb18103d9666p-41"),
    ("h-exact-d0",
     "h", 0.0, 0.0, "exp", 0.77, 0.4, 1000, 9, 1e-4, None, False, 0.1, 0.8,
     "0x1.af960a4532bf7p-1", "0x1.643f9eed1545fp-7", "0x0.0p+0"),
    ("h-exact-below-zero-d2",
     "h", 0.0, 2.0, "exp", 0.77, -1.0, 500, 10, 1e-4, None, False, 0.1, 0.3,
     "0x1.926d329124cdfp-2", "0x1.33b8993567cbbp-6", "0x1.78ccaafbd26cep-46"),
    ("h-exact-at-barrier",
     "h", 0.0, 0.5, "exp", 0.77, 0.77, 200, 11, 1e-4, None, False, 0.1, 0.8,
     "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    ("h-exact-dinf-tmax",
     "h", 0.0, inf, "exp", 1.0, 0.3, 500, 12, 1e-4, 0.05, False, 0.1, 0.8,
     "0x1.838928f020fd2p-1", "0x1.1e71ada074369p-6", "0x1.0b6406004cb80p-3"),
    ("h-exact-tabulated-d05",
     "h", 0.0, 0.5, "tab", 0.6, 0.1, 300, 13, 1e-4, None, False, 0.1, 0.8,
     "0x1.c648acaebe352p-1", "0x1.c11c40d3adbcfp-7", "0x0.0p+0"),
    ("upcross-exact-d2",
     "upcross", 0.0, 2.0, "exp", 0.5, 2.0, 1000, 14, 1e-4, None, False, 0.1, 0.8,
     "0x1.c6084347b76ddp-1", "0x1.be82e969fcb72p-8", "0x0.0p+0"),
    ("upcross-exact-timeout",
     "upcross", 0.0, 2.0, "exp", 0.5, 0.1, 1000, 15, 1e-4, None, False, 0.1, 0.8,
     "0x1.af02d235501f8p-1", "0x1.5397390b8091fp-7", "0x0.0p+0"),
    ("upcross-exact-dinf",
     "upcross", 0.0, inf, "exp", 3.0, inf, 1000, 16, 1e-4, None, False, 0.1, 0.3,
     "0x1.6c0b1796ce4d0p-3", "0x1.44a319b4ecbedp-7", "0x1.ce93dd9638b6fp-45"),
    ("upcross-exact-level-zero",
     "upcross", 0.0, 1.0, "exp", 0.0, 1.0, 50, 17, 1e-4, None, False, 0.1, 0.8,
     "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    ("upcross-exact-tabulated",
     "upcross", 0.0, 1.0, "tab", 0.4, 1.0, 300, 18, 1e-4, None, False, 0.1, 0.8,
     "0x1.dedb47b502779p-1", "0x1.4828163f835c1p-7", "0x0.0p+0"),
    ("value-euler-d03",
     "value", 0.5, 0.3, "exp", 0.5, 0.2, 200, 19, 1e-2, 2.0, False, 0.1, 0.8,
     "0x1.8a80f57caf614p+1", "0x1.4168f7e58fb90p-3", "0x1.9297def466624p-1"),
    ("value-euler-below-zero-d1-terminal",
     "value", 0.5, 1.0, "exp", 0.5, -0.2, 200, 20, 1e-2, 1.5, True, 0.1, 0.8,
     "0x1.11e23b6c52b58p-1", "0x1.c8f98339b2f6bp-5", "0x1.b2d7cfc58e45dp+2"),
    ("value-euler-lump-d0",
     "value", 0.5, 0.0, "exp", 0.5, 0.8, 200, 21, 1e-2, 1.0, False, 0.1, 0.8,
     "0x1.38c9dc747a2f6p+1", "0x1.15459d966cb6ep-3", "0x0.0p+0"),
    ("value-euler-at-barrier-dinf-terminal",
     "value", 0.5, inf, "exp", 0.5, 0.5, 100, 22, 1e-2, None, True, 2.0, 0.8,
     "0x1.db8592d880b8fp-26", "0x1.27ca6be6c0923p-27", "0x1.db85935b8c7b8p-26"),
    ("h-euler-d03",
     "h", 0.5, 0.3, "exp", 0.6, 0.2, 300, 23, 1e-2, None, False, 0.1, 0.8,
     "0x1.d3dfc3bcc433dp-1", "0x1.7111b00829b75p-7", "0x0.0p+0"),
    ("h-euler-below-zero-d1",
     "h", 0.5, 1.0, "exp", 1.5, -0.2, 300, 24, 1e-2, None, False, 0.1, 0.3,
     "0x1.b67078c99f8a4p-2", "0x1.97b7ed755a054p-6", "0x1.23b96705a3786p-47"),
    ("h-euler-d0",
     "h", 0.5, 0.0, "exp", 0.5, 0.2, 300, 25, 1e-2, None, False, 0.1, 0.8,
     "0x1.b93c00cccbf41p-1", "0x1.36612a4ac11eap-6", "0x0.0p+0"),
    ("h-euler-at-barrier",
     "h", 0.5, 1.0, "exp", 0.6, 0.6, 100, 26, 1e-2, None, False, 0.1, 0.8,
     "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    ("value-euler-tabulated-d1",
     "value", 0.5, 1.0, "tab", 0.5, 0.2, 200, 31, 1e-2, 1.5, False, 0.1, 0.8,
     "0x1.f25ce1f6d399ap+1", "0x1.5f527a5c6f20cp-3", "0x1.96b6e9926202cp+2"),
    ("h-euler-dinf-tmax-tabulated",
     "h", 0.5, inf, "tab", 1.0, 0.1, 300, 27, 1e-2, 0.2, False, 0.1, 0.8,
     "0x1.85ad4d095d571p-1", "0x1.46d60be4ae6f3p-6", "0x1.12ae37235dbf2p-4"),
    ("upcross-euler-timeout",
     "upcross", 0.5, 1.0, "exp", 0.4, 0.05, 500, 28, 1e-2, None, False, 0.1, 0.8,
     "0x1.aeca489b42227p-1", "0x1.01517daa8b1d3p-6", "0x0.0p+0"),
    ("upcross-euler-dinf",
     "upcross", 0.5, inf, "exp", 1.0, inf, 300, 29, 1e-2, None, False, 0.1, 0.3,
     "0x1.25c50e5a3cd8ap-1", "0x1.9f014a0a86488p-6", "0x1.7f1e39e1dc2a0p-49"),
    ("upcross-euler-level-zero",
     "upcross", 0.5, 1.0, "exp", 0.0, 1.0, 50, 30, 1e-2, None, False, 0.1, 0.8,
     "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    # r = 0.99 keeps paths worth something for hundreds of claims, so
    # their counts run past the first length of the r^K table
    ("value-exact-r099-terminal-table-growth",
     "value", 0.0, 2.0, "exp", 0.5, 0.3, 200, 32, 1e-4, None, True, 0.1, 0.99,
     "0x1.497d1e7e9f3dap+2", "0x1.475de3f620b12p-2", "0x0.0p+0"),
    ("h-exact-r099-table-growth",
     "h", 0.0, 2.0, "exp", 60.0, 0.3, 200, 33, 1e-4, None, False, 0.1, 0.99,
     "0x1.f8013c10256a5p-4", "0x1.4f5aee63d319fp-8", "0x0.0p+0"),
    ("value-euler-r099-table-growth",
     "value", 0.5, 1.0, "exp", 0.5, 0.2, 100, 34, 1e-2, 10.0, False, 0.1, 0.99,
     "0x1.1f6c2ec94fe6ap+4", "0x1.049cfcee140aep+0", "0x1.d920ff6e1687dp+2"),
    ("h-euler-r099-table-growth",
     "h", 0.5, 1.0, "exp", 40.0, 0.2, 100, 35, 1e-2, None, False, 0.1, 0.99,
     "0x1.ac215ea5aa49cp-3", "0x1.769d3303d67e7p-7", "0x0.0p+0"),
]


@pytest.mark.parametrize("row", PINNED, ids=[row[0] for row in PINNED])
def test_output_pinned_bit_for_bit(row, tab_dist):
    (_, target, sigma, d, claims, level, arg, n, seed, dt, t_max, terminal,
     q, r, *want) = row
    dist = db.ExponentialClaims(1.0) if claims == "exp" else tab_dist
    model = db.validate(db.ModelParams(lam=10.0, c=15.0, sigma=sigma, q=q,
                                       r=r, d=d), dist)
    cfg = SimConfig(n, seed=seed, dt=dt, t_max=t_max,
                    discount_mode="terminal_factor" if terminal
                    else "per_payment")
    fn = {"value": simulate_value, "h": simulate_h,
          "upcross": simulate_upcross}[target]
    e = fn(model, level, arg, cfg)
    got = [e.mean.hex(), e.stderr.hex(), e.truncation_bias_bound.hex()]
    assert got == want
