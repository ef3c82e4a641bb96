"""tools/op_times.py's report, from worker results made up here: no
git, no worker process."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "op_times.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("op_times", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _result(*ops):
    return {"records": [{"label": label, "s": s} for label, s in ops]}


def test_per_op_medians_and_each_sides_end_to_end_numbers(tool):
    results = {
        "old": [_result(("solve", 0.030), ("query", 0.005), ("query", 0.007)),
                _result(("solve", 0.040), ("query", 0.006), ("query", 0.008))],
        "new": [_result(("solve", 0.020), ("query", 0.002), ("query", 0.002)),
                _result(("solve", 0.030), ("query", 0.001), ("query", 0.003))],
    }
    lines = tool.summarize(results)
    assert lines[0].split()[-2:] == ["old", "new"]
    solve, query, p50, rate = lines[1:]
    # per label, the median over both seeds' ops
    assert solve.split() == ["solve", "(2/2)", "35.000", "25.000", "-28.6%"]
    assert query.split() == ["query", "(4/4)", "6.500", "2.000", "-69.2%"]
    # per run, the median op and ops over summed latency; then the
    # median over runs
    assert p50.split()[-3:] == ["7.500", "2.500", "-66.7%"]
    want_old = (3 / 0.042 + 3 / 0.054) / 2
    want_new = (3 / 0.024 + 3 / 0.034) / 2
    assert rate.split()[1:3] == ["%.2f" % want_old, "%.2f" % want_new]


def test_one_side_and_a_label_only_one_side_ran(tool):
    lines = tool.summarize({"tree": [_result(("a", 0.001), ("b", 0.003))]})
    assert [ln.split()[0] for ln in lines[1:]] == ["a", "b", "op_s_p50", "ops_per_s"]
    assert "%" not in "".join(lines)
    two = tool.summarize({"old": [_result(("a", 0.001))],
                          "new": [_result(("a", 0.002), ("b", 0.004))]})
    assert two[2].split() == ["b", "(0/1)", "-", "4.000"]


def test_run_metrics_are_perfbenchs(tool):
    assert tool.run_metrics(_result(("a", 0.001), ("b", 0.002), ("c", 0.006))) == (
        pytest.approx(0.002), pytest.approx(3 / 0.009))
