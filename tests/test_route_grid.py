"""tools/route_grid.py lists its 64 cases, reads one case's fields, and
names each field that moved between two grids; none of it needs git."""

import importlib.util
import math
from pathlib import Path

import numpy as np

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "route_grid.py"


@pytest.fixture
def tool(monkeypatch):
    # the tool imports pin_distance, which sits next to it
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("route_grid", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_64_cases(tool):
    specs = list(tool.CASES.values())
    assert len(specs) == 64
    assert [s[1:3] for s in specs if s[0] == "tab"] == [
        (sigma, d) for sigma in (0.0, 0.5) for d in (0.0, 0.05, 0.1, 2.0, math.inf)]
    assert {s[4] for s in specs if s[0] == "exp"} == {40.0}


def test_case_fields(tool):
    fields = tool.case_fields("exp", 0.0, 0.0, 0.8, 40.0)
    assert fields["a_star"] == pytest.approx(0.7693150584134274, abs=1e-12)
    assert len(fields["v"]) == len(fields["forced_0.3"]) == 5
    assert fields["hjb.method"] == "closed" and fields["hjb.passed"] is True
    assert type(fields["hjb.generator_above.worst_value"]) is float
    # the table at sigma 0.5, d = 0 is refused, and the refusal is its field
    refused = tool.case_fields("tab", 0.5, 0.0, 0.8, 2.0)
    assert list(refused) == ["error"] and "NonConvergenceError" in refused["error"]


def test_moved_names_each_field_that_is_not_bit_identical(tool):
    old = {"c": {"a_star": 0.5, "v": [1.0, 2.0], "hjb.method": "sampled", "gone": 1.0}}
    new = {"c": {"a_star": 0.5, "v": [1.0, 2.5], "hjb.method": "closed", "new": 0.0}}
    lines = tool.moved(old, new)
    assert [line.split()[1] for line in lines] == ["v", "hjb.method", "new", "gone"]
    assert lines[0].endswith("abs 0.5  rel 0.2")
    assert "abs inf" in lines[1] and "abs inf" in lines[2]
    # -0.0 is not 0.0 bit for bit
    assert tool.moved({"c": {"x": 0.0}}, {"c": {"x": -0.0}})
    assert tool.moved(old, old) == []


def test_summary_names_each_move_that_is_not_a_number(tool):
    old = {"c1": {"a_star": np.float64(0.5), "v": [1.0, 2.0], "boundary": True,
                  "hjb.method": "sampled"},
           "c2": {"a_star": np.float64(0.25), "v": [1.0, 4.0], "hjb.method": "closed"},
           "c3": {"error": "NonConvergenceError('a')"}}
    new = {"c1": {"a_star": 0.5, "v": [1.0, 2.0 + 2e-15], "boundary": False,
                  "hjb.method": "closed"},
           "c2": {"a_star": 0.25, "v": [1.0, 4.0 + 1e-15], "hjb.method": "closed"},
           "c3": {"error": "NonConvergenceError('b')"},
           "c4": {"a_star": 1.0}}
    line = tool.summary(old, new)
    head, largest, others = line.split("; ")
    assert head == "8 fields moved in 4 of 4 cases"
    # c1's v moved 2.2e-15 of 2, c2's 8.9e-16 of 4
    assert largest == "largest relative move among the numbers %.3g (c1 v, abs %.3g)" % (
        (2.0 + 2e-15 - 2.0) / (2.0 + 2e-15), 2.0 + 2e-15 - 2.0)
    assert others == ("not numbers: a_star (type only) in 2 cases, boundary in 1 cases, "
                      "hjb.method in 1 cases, error in 1 cases, a_star in 1 cases")
    assert tool.summary(old, old) == ("0 fields moved in 0 of 3 cases; largest relative "
                                      "move among the numbers none; not numbers: none")
