"""The names the benchmark harness reaches into stay in place.

perfbench/tracer.py rebinds library functions by module and name to
time them, and the harness reads hfun._CACHE to keep cold solves cold:
its worker refuses a cold op whose model key is the first item of any
memo key, and reports how many entries each op added.
A refactor that renames or moves one of them breaks a traced benchmark
run while every numerical test still passes, so this file loads the
tracer's own tables (the tracer is stdlib-only and is not modified)
and checks each name against the package. It also checks, through
the tracer, the per-layer counts that a solve plus a query derive the
Lundberg root once per model, now that the root solve sits in model.py
(ValidatedModel.rho), and take u(d) from the forcing memo's scale route,
not from expmodel's closed series.

The harness's solve check (perfbench/workloads.py) reads a solution's
h through its sampled grid view, sol.h.grid, which the library itself
no longer reads; so this file also runs that check, loaded from the
harness, on an Exp solve and a table solve.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import divbarrier as db
from divbarrier import hfun, valuation
from divbarrier.lundberg import lundberg_root

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve(tracer):
    for module, name in tracer.FUNCTIONS:
        mod = importlib.import_module("divbarrier." + module)
        assert callable(getattr(mod, name, None)), "%s.%s" % (module, name)


def test_traced_simulators_and_methods_resolve(tracer):
    for name in tracer.SIMULATORS:
        assert callable(getattr(db.simulator, name, None)), name
    for cls_name, method in tracer.METHODS:
        # the tracer patches the method in the class's own namespace
        assert method in vars(getattr(db.model, cls_name)), (cls_name, method)
    # powers built are counted by wrapping this one
    assert "_power_values" in vars(db.TabulatedClaims)


def test_power_builds_are_counted_per_layer(tracer):
    # the tracer counts a build when _power_values is called, through the
    # class, for a power not yet cached; reading a fresh table's powers 1
    # to 65 in turn, as vy_density does, builds 64, as the first is the
    # density itself
    dist = db.tabulated_exponential(1.0, step=1e-2)
    t = tracer.Tracer()
    t.install()
    try:
        with t.op(0, "query"):
            for k in range(1, 66):
                dist.conv_power(k, [0.0, 0.3, 0.5])
    finally:
        t.uninstall()
    assert t.powers_built == 64
    assert max(dist._powers) == 65


def test_names_the_harness_reads():
    # selftest asserts valuation's by-name import is rebound
    assert valuation.h_d_sigma0 is hfun.h_d_sigma0
    assert hfun.convolve_values is db.gridmath.convolve_values
    # the worker's cache-isolation check iterates the memo's keys
    assert isinstance(hfun._CACHE, dict)


@pytest.mark.parametrize("claims,sigma,d", [("exp", 0.5, 1.0), ("tab", 0.0, 2.0),
                                            ("exp", 0.5, 0.0), ("tab", 0.0, 0.0),
                                            ("exp", 0.0, math.inf), ("tab", 0.5, math.inf)])
def test_solve_adds_one_memo_entry_keyed_by_model(claims, sigma, d):
    # parameters no other test uses, so the model is not in the memo yet
    dist = (db.ExponentialClaims(1.25) if claims == "exp"
            else db.tabulated_exponential(1.25, step=1e-2, x_max=25.0))
    model = db.validate(db.ModelParams(lam=9.5, c=12.0, sigma=sigma, q=0.11,
                                       r=0.75, d=d), dist)
    assert not any(k[0] == model.key() for k in hfun._CACHE)
    before = set(hfun._CACHE)
    db.optimal_barrier(model, a_max=1.5)
    added = set(hfun._CACHE) - before
    assert len(added) == 1
    (key,) = added
    assert isinstance(key, tuple) and key[0] == model.key()


def _traced_solve_and_query(tracer, model):
    # the harness's solve op, then one forced-barrier query op
    t = tracer.Tracer()
    t.install()
    try:
        with t.op(0, "solve"):
            db.optimal_barrier(model, 2.0)
        with t.op(1, "query"):
            db.barrier_solution_at(model, 0.6).value(np.array([0.0, 0.3, 0.6, 1.1]))
    finally:
        t.uninstall()
    return t.stats()


@pytest.mark.parametrize("claims,d", [("exp", 0.5), ("exp", 2.0), ("tab", math.inf)])
def test_model_constants_are_derived_once(tracer, claims, d):
    # the Lundberg root is solved once per model, and for exponential
    # claims at sigma = 0 the reach-back weight u(d) comes from the scale
    # route in the forcing memo, never from expmodel's closed series;
    # parameters no other test uses, so the forcing memo is cold
    dist = (db.ExponentialClaims(1.0) if claims == "exp"
            else db.tabulated_exponential(1.0, step=1e-2))
    model = db.validate(db.ModelParams(lam=10.0, c=15.0, sigma=0.0, q=0.1037,
                                       r=0.79, d=d), dist)
    stats = _traced_solve_and_query(tracer, model)
    assert stats["lundberg.lundberg_root"]["calls"] == 1
    if claims == "exp":
        assert stats.get("expmodel.u_of_d", {"calls": 0})["calls"] == 0


def test_rho_is_the_root_solved_on_first_read(tracer):
    model = db.validate(db.ModelParams(lam=10.0, c=15.0, sigma=0.3, q=0.1041,
                                       r=0.81, d=1.0), db.ExponentialClaims(1.0))
    t = tracer.Tracer()
    t.install()
    try:
        with t.op(0, "query"):
            first = model.rho
        with t.op(1, "query"):
            second = model.rho
    finally:
        t.uninstall()
    assert t.calls_by_op("lundberg.lundberg_root") == {0: 1}
    assert first == second == lundberg_root(model).rho


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("claims,sigma,d", [("exp", 0.5, 0.0), ("exp", 0.5, math.inf),
                                            ("tab", 0.0, 2.0)])
def test_the_harness_reads_of_a_solve(workloads, claims, sigma, d):
    params = (workloads.LAM, workloads.C, sigma, 0.1, 0.8, d)
    spec = ("exp", 1.0) if claims == "exp" else ("tab", 1.0, workloads._tab_x_max(1.0, d))
    model = workloads.build_model(params, spec)
    sol = db.optimal_barrier(model, workloads.A_MAX)
    # an exponent route builds no sampled view until one reads it
    assert claims != "exp" or "grid" not in vars(sol.h)
    xs = np.linspace(0.0, sol.h.a, 9)
    assert np.all(np.isfinite(sol.h.grid.interp(xs))) and np.isfinite(sol.h.grid.values[0])
    assert np.all(np.isfinite(sol.value(xs)))
    assert isinstance(sol.a_star, float) and isinstance(sol.boundary, bool)
    assert sol.hjb_report.passed
    # the view is read at the solver grid's nodes, the last one a itself
    grid = sol.h.grid
    assert np.array_equal(sol.h.read(np.append(grid.x[:-1], sol.h.a)), grid.values)
    assert grid.values[-1] == 1.0
    check = workloads.check(workloads.Op(0, 0, "solve", params, spec, True), model, sol)
    assert check.ok, check.reason
