"""tools/bench_pairs.py summarizes alternated parent/change benchmark
runs: medians, interquartile ranges, wins per pair and the claim rule."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_summary_of_a_higher_is_better_metric():
    # numpy's linear percentiles: the parent's quartiles of
    # (1, 2, 3, 4) are 1.75 and 3.25
    entry = _tool().summarize([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 6.0], "higher")
    assert entry["parent"] == {"median": 2.5, "iqr": [1.75, 3.25],
                               "runs": [1.0, 2.0, 3.0, 4.0]}
    assert entry["change"]["median"] == 3.5
    assert entry["change_wins"] == "3/4"        # the tie in pair 2 counts for neither
    assert entry["median_gap"] == 1.0
    assert entry["parent_iqr_width"] == 1.5
    assert entry["median_change_rel"] == 0.4


def test_claim_rule_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    tool = _tool()
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert tool.claim_met(tool.summarize(parent, [p + 5.0 for p in parent], "higher"))
    # a gap inside the parent's IQR (0.45 wide) is not a gain
    assert not tool.claim_met(tool.summarize(parent, [p + 0.3 for p in parent], "higher"))
    # eight wins in ten are too few
    eight = [p + 5.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    assert not tool.claim_met(tool.summarize(parent, eight, "higher"))
    # three pairs are too few, however far apart
    assert not tool.claim_met(tool.summarize(parent[:3], [p + 5.0 for p in parent[:3]],
                                             "higher"))
    # lower is better: the same runs swapped win
    assert tool.claim_met(tool.summarize([p + 5.0 for p in parent], parent, "lower"))
    assert not tool.claim_met(tool.summarize(parent, [p + 5.0 for p in parent], "lower"))
