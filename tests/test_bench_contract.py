"""The names the benchmark harness reaches into stay in place.

perfbench/tracer.py rebinds library functions by module and name to
time them, and the harness reads hfun._CACHE to keep cold solves cold.
A refactor that renames or moves one of them breaks a traced benchmark
run while every numerical test still passes, so this file loads the
tracer's own tables (the tracer is stdlib-only and is not modified)
and checks each name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import divbarrier as db
from divbarrier import hfun, valuation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_names_the_harness_reads():
    # selftest asserts valuation's by-name import is rebound
    assert valuation.h_d_sigma0 is hfun.h_d_sigma0
    assert hfun.convolve_values is db.gridmath.convolve_values
    # the worker's cache-isolation check iterates the memo's keys
    assert isinstance(hfun._CACHE, dict)
