"""The route grid: every field of optimal_barrier's answer on 64 cases,
the cases a change to a route or to valuation is held bit-identical on.

    python3 tools/route_grid.py          # the working tree's grid
    python3 tools/route_grid.py REV      # the fields that moved since REV

The cases are Exp(1) claims at sigma in {0, 0.5}, d in {0, 0.01, 0.03,
0.05, 0.1, 0.15, 0.5, 2, inf} and r in {0.5, 0.8, 1}, with a_max 40, and
the 1e-2 table (tabulated_exponential(1.0, 1e-2)) at sigma in {0, 0.5}
and d in {0, 0.05, 0.1, 2, inf}, with r = 0.8 and a_max 2; lam = 10,
c = 15 and q = 0.1 throughout. Each case gives a*, boundary, v at x in
{-0.3, 0, a*/2, a*, a* + 0.5}, the forced barrier 0.3's values at the
same points, and every HJBReport field, or the error the case raises.

With REV, REV's src/ is exported by `git archive` (local git only) into
a temporary directory, as tools/pin_distance.py does, and the grid runs
once against that tree and once against the working tree's src/, each
in its own subprocess. Every field whose value is not bit-identical is
printed with its distance (pin_distance.distance):

    tab-s0-dinf  hjb.method  'sampled' -> 'closed'  abs inf  rel inf

The last line sums them up: how many fields moved in how many cases,
the largest relative move among the numbers (with its case, field and
absolute move), and every moved field that is not a number, with the
number of cases it moved in. That is a flag, a method, an error, or a
type-only move such as np.float64(x) -> x, whose value is equal but
whose type is not:

    70 fields moved in 40 of 64 cases; largest relative move among the
    numbers 1.5 (tab-s0-d0.1 hjb.generator_above.worst_value, abs 5.33e-15);
    not numbers: a_star (type only) in 4 cases, ...
"""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from pin_distance import distance

ROOT = Path(__file__).resolve().parents[1]

# runs in each tree: the grid's fields, by case
_RUN = r"""
import pickle, sys
from route_grid import grid
with open(sys.argv[1], "wb") as fh:
    pickle.dump(grid(), fh)
"""

EXP_CLOCKS = (0.0, 0.01, 0.03, 0.05, 0.1, 0.15, 0.5, 2.0, math.inf)
TABLE_CLOCKS = (0.0, 0.05, 0.1, 2.0, math.inf)

# name -> (claims "exp" or "tab", sigma, d, r, a_max)
CASES = {}
for _s in (0.0, 0.5):
    for _d in EXP_CLOCKS:
        for _r in (0.5, 0.8, 1.0):
            CASES["exp-s%g-d%g-r%g" % (_s, _d, _r)] = ("exp", _s, _d, _r, 40.0)
for _s in (0.0, 0.5):
    for _d in TABLE_CLOCKS:
        CASES["tab-s%g-d%g" % (_s, _d)] = ("tab", _s, _d, 0.8, 2.0)


def _flat(prefix, record):
    """The fields of a dataclass, a nested one's as prefix.name.field."""
    out = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_flat("%s.%s" % (prefix, f.name), value))
        else:
            out["%s.%s" % (prefix, f.name)] = value
    return out


def case_fields(claims, sigma, d, r, a_max):
    """{field: value} for one case, or {"error": repr} when it raises."""
    # imported here: each tree's run puts its own src/ first on the path
    import divbarrier as db

    dist = (db.ExponentialClaims(1.0) if claims == "exp"
            else db.tabulated_exponential(1.0, step=1e-2))
    try:
        m = db.validate(db.ModelParams(10.0, 15.0, sigma, 0.1, r, d), dist)
        sol = db.optimal_barrier(m, a_max)
        a = sol.a_star
        xs = np.array([-0.3, 0.0, 0.5 * a, a, a + 0.5])
        out = {"a_star": a, "boundary": sol.boundary, "v": sol.value(xs).tolist(),
               "forced_0.3": db.barrier_solution_at(m, 0.3).value(xs).tolist()}
        out.update(_flat("hjb", sol.hjb_report))
        return out
    except Exception as err:  # a refused case is a field of the grid too
        return {"error": repr(err)}


def grid():
    return {name: case_fields(*spec) for name, spec in CASES.items()}


def _moves(old, new):
    """(case, field, old value, new value, abs, rel) for each field not
    bit-identical between the grids old and new; a field present in one
    only is at distance inf."""
    for case in new:
        a, b = old.get(case, {}), new[case]
        for field in list(b) + [f for f in a if f not in b]:
            if field in a and field in b and repr(a[field]) == repr(b[field]):
                continue
            gap, rel = (distance(a[field], b[field]) if field in a and field in b
                        else (math.inf, math.inf))
            yield case, field, a.get(field), b.get(field), gap, rel


def moved(old, new):
    """One line per field not bit-identical between the grids old and new,
    with its distance."""
    return ["%s  %s  %r -> %r  abs %.3g  rel %.3g" % move for move in _moves(old, new)]


def summary(old, new):
    """The last line: how many fields moved in how many cases, the largest
    relative move among the numbers, and each moved field that is not a
    number (at distance inf, or at distance 0: a type-only move), with
    the number of cases it moved in."""
    moves = list(_moves(old, new))
    numbers = [move for move in moves if 0.0 < move[5] < math.inf]
    top = max(numbers, key=lambda move: move[5], default=None)
    others = {}
    for _, field, _, _, _, rel in moves:
        if not 0.0 < rel < math.inf:
            name = field + (" (type only)" if rel == 0.0 else "")
            others[name] = others.get(name, 0) + 1
    return ("%d fields moved in %d of %d cases; largest relative move among the numbers %s; "
            "not numbers: %s" % (
                len(moves), len({move[0] for move in moves}), len(new),
                "%.3g (%s %s, abs %.3g)" % (top[5], top[0], top[1], top[4]) if top else "none",
                ", ".join("%s in %d cases" % kv for kv in others.items()) or "none"))


def _run(src, out_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tools")]))
    subprocess.run([sys.executable, "-c", _RUN, out_path], env=env,
                   cwd=os.path.dirname(out_path), stdout=subprocess.DEVNULL, check=True)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def main(argv):
    if len(argv) > 1:
        print("usage: python3 tools/route_grid.py [REV]")
        return 2
    if not argv:
        sys.path.insert(0, str(ROOT / "src"))
        for case, fields in grid().items():
            print(case, " ".join("%s=%r" % kv for kv in fields.items()))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        old = _run(Path(tmp) / "src", os.path.join(tmp, "old.pkl"))
        new = _run(ROOT / "src", os.path.join(tmp, "new.pkl"))
    print("\n".join(moved(old, new)))
    print(summary(old, new))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
