"""Monte Carlo oracle for the regulated risk process.

Paths follow x + c t - sum of claims + sigma B_t, with Parisian ruin:
a path dies once it stays strictly below zero for longer than the
grace period d, the clock restarting whenever the path is >= 0.

One engine estimates all three quantities. Each public function builds
a stopping rule: the level (barrier a or target y) and the start; at
the level the path either reflects and pays the overshoot as dividends
(value) or is absorbed with payoff r^K e^{-q t} (h, upcross); the
Parisian grace below zero (none for upcross, whose paths ignore zero);
an absolute deadline (upcross d); the retirement horizon; and the
discount mode. One chunk loop runs the rule through one of two
steppers:

- sigma = 0, exact and event driven: between claims the path is a
  line, so level hits, recoveries from deficit and Parisian deadlines
  are all explicit. Dividend stream collected at the barrier over
  [t1, t2] with k claims so far is worth r^k c (e^{-q t1} - e^{-q t2})
  / q under per-payment discounting.
- sigma > 0, Euler steps of size dt between claim epochs (stepping
  exactly onto each claim time): reflection and absorption resolved
  per step, level hits and zero crossings of the Parisian clock placed
  by linear interpolation within the step.

A path retires once what it could still earn falls below RETIRE_TOL
or its time reaches the horizon; that remaining worth is summed into
truncation_bias_bound.

Two discount semantics are offered because they genuinely differ:
"per_payment" weights each dividend by r^{claims so far at payment},
"terminal_factor" weights the whole discounted stream by r^{claims at
ruin}, counting the claim that starts the fatal excursion. With a
barrier at 0, no grace period and unit claims mean they separate
cleanly: c/(lam+q) versus r c/(lam+q).

Determinism: paths run in fixed chunks of 16384, each chunk seeded by
SeedSequence(seed, spawn_key=(chunk,)) through Philox, and the
reduction runs in chunk order, so results are bit-identical for a
given (model, arguments, config) regardless of how work is scheduled.
They stay so across versions only while the draw order is kept: each
exact round draws the gap T and then the claim C for every alive
path; the Euler stepper draws every path's first gap up front, then
each step draws Z for the alive paths, followed by C and the next gap
only for paths at a claim epoch, after absorbed paths have left. A
start at or above an absorbing level draws nothing.
"""

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

CHUNK = 16384
RETIRE_TOL = 1e-12
# upcross takes no t_max from SimConfig; a path still running at this
# time retires and its remaining worth joins the bias bound
_UPCROSS_T_MAX = 1e6

_MODES = ("per_payment", "terminal_factor")


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    seed: int = 12345
    dt: float = 1e-4
    t_max: float = None
    discount_mode: str = "per_payment"

    def __post_init__(self):
        if not isinstance(self.n_paths, numbers.Integral):
            raise ValueError("n_paths must be an integer")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if self.discount_mode not in _MODES:
            raise ValueError("discount_mode must be one of %s" % (_MODES,))


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float
    n_paths: int
    truncation_bias_bound: float


@dataclass(frozen=True)
class _Rule:
    level: float      # barrier a or target level y
    x0: float
    reflect: bool     # pay the overshoot at the level, else absorb there
    grace: float      # Parisian grace below zero; None: zero is no event
    deadline: float   # absorption after this time is worth nothing
    t_max: float      # retirement horizon
    terminal: bool    # terminal_factor discounting


def _horizon(model, cfg):
    if cfg.t_max is not None:
        return cfg.t_max
    # e^{-q t_max} <= 1e-8
    return math.log(1e8) / model.q


def _rng(seed, chunk_idx):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_idx,))
    return np.random.Generator(np.random.Philox(ss))


def simulate_value(model, a, x, cfg: SimConfig) -> SimEstimate:
    """Expected discounted dividends under a barrier at a, started at x."""
    if not (math.isfinite(a) and math.isfinite(x)):
        raise ValueError("a and x must be finite")
    if a < 0:
        raise ValueError("barrier must be >= 0")
    return _run(model, cfg, _Rule(
        float(a), float(x), reflect=True, grace=model.d, deadline=math.inf,
        t_max=_horizon(model, cfg),
        terminal=cfg.discount_mode == "terminal_factor"))


def simulate_h(model, a, x, cfg: SimConfig) -> SimEstimate:
    """E[r^N e^{-q tau_a} on reaching a before Parisian ruin], from x."""
    if not (math.isfinite(a) and math.isfinite(x)):
        raise ValueError("a and x must be finite")
    if a < 0:
        raise ValueError("barrier must be >= 0")
    # [0, a] always; below zero only inside the Parisian reach -c d
    if not (x <= a and (x >= 0.0 or x > -model.c * model.d)):
        raise ValueError("x must satisfy -c d < x <= a, or 0 <= x <= a "
                         "when d = 0")
    return _run(model, cfg, _Rule(
        float(a), float(x), reflect=False, grace=model.d, deadline=math.inf,
        t_max=_horizon(model, cfg), terminal=False))


def simulate_upcross(model, y, d, cfg: SimConfig) -> SimEstimate:
    """E[r^N e^{-q tau_y}; tau_y <= d] for first passage from 0 up to y."""
    if not math.isfinite(y):
        raise ValueError("level y must be finite")
    if y < 0:
        raise ValueError("level y must be >= 0")
    if not d >= 0.0:
        raise ValueError("deadline d must be nonnegative, got %r" % (d,))
    return _run(model, cfg, _Rule(
        float(y), 0.0, reflect=False, grace=None, deadline=d,
        t_max=_UPCROSS_T_MAX, terminal=False))


def _run(model, cfg, rule):
    """Run the rule chunk by chunk and reduce in chunk order."""
    stepper = _exact_chunk if model.sigma == 0.0 else _euler_chunk
    n = cfg.n_paths
    s = s2 = b = 0.0
    for ci, start in enumerate(range(0, n, CHUNK)):
        m = min(CHUNK, n - start)
        if not rule.reflect and rule.x0 >= rule.level:
            v, tb = np.ones(m), 0.0
        else:
            v, tb = stepper(model, rule, m, _rng(cfg.seed, ci), cfg.dt)
        s += float(np.sum(v))
        s2 += float(np.sum(v * v))
        b += tb
    mean = s / n
    var = max(s2 - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
    return SimEstimate(mean, math.sqrt(var / n), n, b / n)


def _start(rule, m, clock):
    """Alive paths of one chunk, one array per field, in path order."""
    x0 = rule.x0
    p = SimpleNamespace(id=np.arange(m), x=np.full(m, min(x0, rule.level)),
                        t=np.zeros(m), K=np.zeros(m, dtype=np.int64))
    if clock:
        # start of the running sub-zero excursion
        p.s0 = np.full(m, 0.0 if x0 < 0 else np.nan)
    if rule.reflect:
        # a start above the barrier is paid down to it at once
        lump = x0 - rule.level if x0 > rule.level else 0.0
        p.D = np.full(m, lump)  # per-payment discounted dividends
        p.S = np.full(m, lump)  # r-free discounted dividends (terminal)
    return p


def _keep(p, mask):
    # integer gathers: a boolean one is slow on a mask that mixes
    # True and False at random
    keep = np.flatnonzero(mask)
    vars(p).update({k: v[keep] for k, v in vars(p).items()})


def _banked(rule, r, p, sel):
    """What the selected reflected paths have earned, if they stop now."""
    if rule.terminal:
        return p.S[sel] * np.power(r, p.K[sel].astype(float))
    return p.D[sel]


def _settle(model, rule, p, out, left):
    """Drop the paths that left, then retire those whose remaining worth
    is negligible or whose horizon has passed, paying them what they
    hold; returns the worth the retired paths gave up."""
    if left.any():
        _keep(p, ~left)
    rK = np.power(model.r, p.K.astype(float))
    rate = rK * (model.c / model.q) if rule.reflect else rK
    worth = rate * np.exp(-model.q * p.t)
    if rule.terminal:
        worth = rK * p.S + worth
    done = (worth < RETIRE_TOL) | (p.t >= rule.t_max)
    if not done.any():
        return 0.0
    if rule.reflect:
        out[p.id[done]] = _banked(rule, model.r, p, done)
    bound = float(np.sum(worth[done]))
    _keep(p, ~done)
    return bound


def _exact_chunk(model, rule, m, rng, dt):
    """sigma = 0: one round per alive path moves it to its next event."""
    c, q, r = model.c, model.q, model.r
    zero = rule.grace is not None
    p = _start(rule, m, zero)
    out = np.zeros(m)
    bound = 0.0
    while len(p.id):
        n = len(p.id)
        T = rng.exponential(1.0 / model.lam, n)
        C = model.claims.sample(rng, n)
        tb = (rule.level - p.x) / c
        hit = T >= tb
        left = np.zeros(n, dtype=bool)
        if rule.deadline < math.inf:
            # arrival wins ties against the deadline (tau <= d succeeds);
            # a path out of time leaves where it is, worth 0
            t_left = rule.deadline - p.t
            hit &= tb <= t_left
            left = ~hit & (t_left <= T)

        # below zero: claim, recovery, or Parisian deadline
        rec = None
        if zero:
            below = p.x < 0
            hit &= ~below
            if below.any():
                di = np.nonzero(below)[0]
                trec = -p.x[di] / c
                ruin = ((p.s0[di] + rule.grace) - p.t[di]
                        <= np.minimum(T[di], trec))
                back = ~ruin & (trec <= T[di])
                ru = di[ruin]
                if rule.reflect and len(ru):
                    out[p.id[ru]] = _banked(rule, r, p, ru)
                left[ru] = True
                rec, trec = di[back], trec[back]

        # at or above zero: drift to the level, then pay or absorb
        hit = np.flatnonzero(hit)
        if len(hit):
            th, tbh = p.t[hit], tb[hit]
            rK = np.power(r, p.K[hit].astype(float))
            if rule.reflect:
                seg = (c / q) * (np.exp(-q * (th + tbh))
                                 - np.exp(-q * (th + T[hit])))
                p.D[hit] += rK * seg
                p.S[hit] += seg
            else:
                out[p.id[hit]] = rK * np.exp(-q * (th + tbh))
                left[hit] = True

        x = p.x + c * T - C
        if rule.reflect:
            x[hit] = rule.level - C[hit]
        t = p.t + T
        K = p.K + 1
        if rec is not None:
            x[rec] = 0.0
            t[rec] = p.t[rec] + trec
            K[rec] = p.K[rec]
            p.s0[rec] = np.nan
        if zero:
            new = ~below & (x < 0)
            p.s0[new] = t[new]
        p.x, p.t, p.K = x, t, K
        bound += _settle(model, rule, p, out, left)
    return out, bound


def _euler_chunk(model, rule, m, rng, dt):
    """sigma > 0: one Euler step per round, landing on claim epochs."""
    c, q, r, sig = model.c, model.q, model.r, model.sigma
    # at d = inf the Parisian clock can never fire
    clock = rule.grace is not None and rule.grace < math.inf
    p = _start(rule, m, clock)
    p.T_next = rng.exponential(1.0 / model.lam, m)
    out = np.zeros(m)
    bound = 0.0
    while len(p.id):
        h = np.minimum(dt, np.maximum(p.T_next - p.t, 0.0))
        Z = rng.standard_normal(len(p.id))
        xn = p.x + c * h + sig * np.sqrt(h) * Z
        tn = p.t + h

        if rule.reflect:
            # reflection at the barrier pays the overflow as a dividend,
            # strictly before any claim landing at the step's end
            left = np.zeros(len(xn), dtype=bool)
            over = xn > rule.level
            if over.any():
                disc = np.exp(-q * tn[over]) * (xn[over] - rule.level)
                p.D[over] += np.power(r, p.K[over].astype(float)) * disc
                p.S[over] += disc
                xn[over] = rule.level
        else:
            # absorb at the level with an interpolated hit time
            left = xn >= rule.level
            if left.any():
                xl = p.x[left]
                frac = np.clip((rule.level - xl) / (xn[left] - xl), 0.0, 1.0)
                t_hit = p.t[left] + frac * h[left]
                pay = np.power(r, p.K[left].astype(float)) * np.exp(-q * t_hit)
                out[p.id[left]] = np.where(t_hit <= rule.deadline, pay, 0.0)

        if clock:
            # Parisian clock, part 1: diffusion crossings interpolated
            # within the step while xn is still the pre-claim endpoint
            was = p.x < 0
            mid = xn < 0
            enter = ~was & mid
            if enter.any():
                xl = p.x[enter]
                frac = np.clip(xl / (xl - xn[enter]), 0, 1)
                p.s0[enter] = p.t[enter] + frac * h[enter]
            p.s0[was & ~mid] = np.nan

        at_claim = tn >= p.T_next - 1e-15
        if not rule.reflect:
            at_claim &= ~left
        nc = int(np.count_nonzero(at_claim))
        if nc:
            xn[at_claim] -= model.claims.sample(rng, nc)
            p.K[at_claim] += 1
            p.T_next[at_claim] = tn[at_claim] + rng.exponential(
                1.0 / model.lam, nc)
            if clock:
                # part 2: claim-caused drops are stamped at the claim
                # instant
                new = ~mid & (xn < 0)
                p.s0[new] = tn[new]
        p.x, p.t = xn, tn

        if clock:
            dead = p.t - p.s0 >= rule.grace
            if rule.reflect:
                out[p.id[dead]] = _banked(rule, r, p, dead)
            left |= dead
        if rule.deadline < math.inf:
            left |= p.t >= rule.deadline
        bound += _settle(model, rule, p, out, left)
    return out, bound
