"""tools/pin_distance.py measures the old -> new distance of a pin row and
prints the row's new PINS entry."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import test_analytic_pin

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pin_distance.py"


def _tool():
    spec = importlib.util.spec_from_file_location("pin_distance", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _distance():
    return _tool().distance


def test_numbers_and_arrays():
    distance = _distance()
    assert distance(1.0, 1.0 + 2 ** -52) == (2 ** -52, 2 ** -52 / (1.0 + 2 ** -52))
    assert distance(69, 66) == (3.0, 3.0 / 69.0)
    assert distance(np.array([1.0, -4.0]), np.array([1.0, -2.0])) == (2.0, 0.5)
    # a value that leaves or reaches 0 moves by 1 relative
    assert distance(0.0, 1e-26) == (1e-26, 1.0)


def test_equal_specials_are_at_zero():
    distance = _distance()
    vals = np.array([math.inf, math.nan, 0.0, -0.0])
    assert distance(vals, vals.copy()) == (0.0, 0.0)
    assert distance(math.inf, 1.0) == (math.inf, math.inf)


def test_text_compares_its_numbers():
    distance = _distance()
    old = "residual 9.518e-03 exceeds 1e-04"
    gap, rel = distance(old, "residual 9.517e-03 exceeds 1e-04")
    assert gap == abs(9.518e-3 - 9.517e-3) and rel == gap / 9.518e-3
    assert distance(b"x,h\n0.5,1.25\n", b"x,h\n0.5,1.5\n") == (0.25, 0.25 / 1.5)
    # other text, a flipped flag or another shape cannot be measured
    assert distance(old, "residual 9.518e-03 is below 1e-04") == (math.inf, math.inf)
    assert distance(True, False) == (math.inf, math.inf)
    assert distance(np.zeros(3), np.zeros(4)) == (math.inf, math.inf)


def test_pins_entry_is_laid_out_as_the_pin_file():
    # every row of the pin file is the tool's entry for its own list, so
    # a recaptured row is copied from the tool's output as printed
    pins_entry = _tool().pins_entry
    text = (TOOL.parents[1] / "tests" / "test_analytic_pin.py").read_text()
    for case, fingerprints in test_analytic_pin.PINS.items():
        assert pins_entry(case, fingerprints) in text
    assert pins_entry("row", ["0x1.8p+0", "'a'"]) == (
        "    'row': [\n        '0x1.8p+0', \"'a'\",\n    ],")


def test_a_failed_raises_is_a_moved_row_at_distance_inf():
    # a row pinning a refusal whose error no longer comes: pytest's Failed
    # is not an Exception, and once ended the whole run
    tool = _tool()

    def refused():
        with pytest.raises(ValueError):
            pass
        return ["never reached"]

    vals = tool.row_values(refused, ())
    assert len(vals) == 1 and vals[0].startswith("raised DID NOT RAISE")
    old = (["'refused'", "0x1.0p+0"], ["refused", 1.0])
    new = ([repr(vals[0])], vals)
    assert tool.row_report("row", old, new) == [
        "row  abs inf  rel inf  (2 values -> 1 values)"]
    # a row that raises an Exception is caught the same way
    assert tool.row_values(lambda: 1 / 0, ()) == [
        "raised ZeroDivisionError('division by zero')"]
