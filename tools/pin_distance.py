"""Measure how far each analytic pin row moved between two source trees.

    python3 tools/pin_distance.py REV [CASE ...]

Exports REV's src/ with `git archive` (local git only) into a temporary
directory, then runs every CASES entry of tests/test_analytic_pin.py,
or only the named ones, once against that tree and once against the
working tree's src/, each tree in its own subprocess. Both runs use the
working tree's copy of the pin file. For every row whose fingerprint
changed it prints the largest absolute and relative distance, then the
same for each changed value of the row, by its index:

    phi-tab-s0-d2  abs 3  rel 0.988
        [4] abs 3  rel 0.0435
        [5] abs 5.04e-13  rel 0.988
        ...

and last each moved row's new fingerprint list as a PINS entry, laid
out as in the pin file, to be copied over the old entry:

    'phi-tab-s0-d2': [
        '0x1.0000000000000p+0', '0x1.45d8f9c7d1aabp-1', ...
    ],

Numbers are compared where both trees give the same shape (arrays) or
the same text around the numbers (strings, and bytes such as the CLI's
CSV); any other change, a flipped flag or a row that raises in one tree,
is at distance inf. Relative distance is to the larger magnitude.
"""

import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# runs in each tree: the pin cases' raw values and fingerprints
_RUN = r"""
import pickle, sys
import test_analytic_pin as pins
out = {}
for case in sys.argv[2:] or sorted(pins.CASES):
    fn, args = pins.CASES[case]
    try:
        vals = list(fn(*args))
    except Exception as err:
        vals = ["raised " + repr(err)]
    out[case] = ([pins._fingerprint(v) for v in vals], vals)
with open(sys.argv[1], "wb") as fh:
    pickle.dump(out, fh)
"""

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _numbers(value):
    """(the numbers in value as a flat float array, what must match
    around them: the text with each number blanked, or the shape)."""
    if isinstance(value, bytes):
        value = value.decode("utf-8", "replace")
    if isinstance(value, str):
        nums = np.array([float(x) for x in _NUMBER.findall(value)])
        return nums, "text " + _NUMBER.sub("#", value)
    if value is None or isinstance(value, (bool, np.bool_)):
        return np.zeros(0), repr(value)
    arr = np.asarray(value, dtype=float)
    return arr.ravel(), arr.shape


def distance(old, new):
    """(largest absolute, largest relative) distance between two values.

    A value is a scalar, an array, a string or bytes; numbers are
    compared where the shapes, or the text around the numbers, agree,
    and the distance is inf anywhere else. Equal numbers, inf and nan
    included, are at distance 0; relative is to the larger magnitude.
    """
    a, around_a = _numbers(old)
    b, around_b = _numbers(new)
    if around_a != around_b or a.shape != b.shape:
        return np.inf, np.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        gap = np.where(same, 0.0, np.abs(a - b))
    gap = np.where(np.isnan(gap), np.inf, gap)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(gap == 0.0, 0.0, gap / scale)
    rel = np.where(np.isnan(rel), np.inf, rel)
    return float(gap.max(initial=0.0)), float(rel.max(initial=0.0))


def pins_entry(case, fingerprints):
    """The PINS entry of one row as the pin file lays it out: the
    repr of each fingerprint, packed into lines of at most 79 columns."""
    lines, line = ["    %r: [" % (case,)], ""
    for item in map(repr, fingerprints):
        if line and len(line) + len(item) + 3 > 79:
            lines.append(line + ",")
            line = ""
        line = (line + ", " if line else "        ") + item
    return "\n".join(lines + [line + ",", "    ],"])


def _run(src, cases, out_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    subprocess.run([sys.executable, "-c", _RUN, out_path] + cases, env=env,
                   cwd=os.path.dirname(out_path), stdout=subprocess.DEVNULL, check=True)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def main(argv):
    if not argv:
        print("usage: python3 tools/pin_distance.py REV [CASE ...]")
        return 2
    rev, cases = argv[0], argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        old = _run(Path(tmp) / "src", cases, os.path.join(tmp, "old.pkl"))
        new = _run(ROOT / "src", cases, os.path.join(tmp, "new.pkl"))
    moved = []
    for case in sorted(new):
        (fp_old, v_old), (fp_new, v_new) = old[case], new[case]
        if fp_old == fp_new:
            continue
        moved.append(case)
        if len(v_old) != len(v_new):
            print("%s  %d values -> %d values" % (case, len(v_old), len(v_new)))
            continue
        fields = [(i, distance(a, b)) for i, (a, b, fa, fb)
                  in enumerate(zip(v_old, v_new, fp_old, fp_new)) if fa != fb]
        print("%s  abs %.3g  rel %.3g" % (case, max(d[0] for _, d in fields),
                                          max(d[1] for _, d in fields)))
        for i, (gap, rel) in fields:
            print("    [%d] abs %.3g  rel %.3g" % (i, gap, rel))
    print("%d of %d rows moved" % (len(moved), len(new)))
    for case in moved:
        print(pins_entry(case, new[case][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
