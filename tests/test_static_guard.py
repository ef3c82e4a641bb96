"""Static guards: gridmath is the one home of FFTs, recurrences and
direct convolutions, scipy.signal is imported nowhere, and the
scale-function oracle stays independent of the library.

Every other module under src/divbarrier convolves and runs recurrences
through gridmath's primitives, so the choice of how a convolution runs
is made in one place. The check reads each module's
syntax tree with the standard-library ast module and fails on any
import of scipy.fft, scipy.signal or numpy.fft (in any spelling), any
attribute path through them (np.fft.rfft), and any np.convolve.
gridmath itself imports scipy.fft but not scipy.signal: its
recurrences run in numpy, and scipy.signal would load scipy.stats,
scipy.interpolate and scipy.optimize into every import of the library.
A subprocess checks that importing the library or its CLI leaves those
three modules unloaded.

tests/scale_oracle.py holds the formulas that divbarrier.scale was
promoted from; it is a reference only while it computes them itself, so
it must not import divbarrier in any spelling: an import statement,
a relative import, or a module name handed to importlib.import_module
or __import__ as a string.

No module under src/divbarrier imports scipy.optimize: its roots are
taken by Newton steps on closed forms.

expmodel's closed series for Exp(mu) claims at sigma = 0 is the oracle
that the solver's numbers are checked against, so the solver must not
read it: no module under src/divbarrier imports expmodel, but the
package's __init__.py, which exports it.

divbarrier.scale sits below the modules that read it: firstpassage
takes Phi_d from it, and hfun the exit function's weights, slope,
forcing, certificate and a table's exit equation. So scale imports neither, at module
level or inside a function.

scale is also the one module that tells the grace-period regimes
d = 0, 0 < d < inf and d = inf apart, and the one that reads the claim
kind for the exit function: hfun reads every route off scale's memoized
Lambda, so it reads no claim kind, calls no isinf and imports nothing
from firstpassage, and it takes an h's exponents and weights from
scale, with no linear solve (no numpy.linalg attribute path).
Within scale, scale_ratio(model, d) is the one function that reads the
claim kind or calls isinf, and nothing outside a function does: each
route it returns reads its own Phi_d, K and bound. In the whole of
firstpassage d is compared only where _phi_table refuses d < 0.

A claim table's cached convolution powers are read in one place:
model.py stores them for conv_power. scale.py's TableRatio sums the
claim powers into the law of X_d with gridmath.power_sum, from the
density alone, and builds none. No module under src/divbarrier but
model.py names _power_values, as an attribute, a name, an imported
name or a string.

A claim table is read one way, on its own lattice: no module under
src/divbarrier but model.py, which stores it, and scale.py, whose
TableRatio reads Phi_d and the w_d forcing off it, spells claims.grid,
as an attribute path, a getattr on the claims or an attrgetter path.

Exponential claims solve no renewal equation: their exit function is a
sum of exponentials. The exact mixture solve neumann_series_exp and the
marching solve volterra_march stay in gridmath as the tests' references
(and as names the benchmark's tracer binds), so no other module under
src/divbarrier names either, as an attribute, a name, an imported name
or a string.

The Monte Carlo engine gathers r^K for its claim counts K from one table
of np.power values, so simulator.py names np.power or numpy.power in
one place, _Powers._build, which runs per chunk and never at import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "divbarrier"
ORACLE = Path(__file__).resolve().parent / "scale_oracle.py"
LIBRARY = "divbarrier"
HOME = "gridmath.py"
BANNED = ("scipy.fft", "scipy.signal", "numpy.fft")
# banned in gridmath too
HOME_BANNED = ("scipy.signal",)
# banned everywhere under src/divbarrier
OPTIMIZE = ("scipy.optimize",)
NUMPY_NAMES = ("np", "numpy")


def _banned(name, banned=BANNED):
    return any(name == b or name.startswith(b + ".") for b in banned)


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _violations(source, banned=BANNED, direct_convolution=True):
    """Imports of and attribute paths through the banned modules, and
    with direct_convolution any np.convolve."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _banned(a.name, banned)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += ["%s.%s" % (node.module, a.name) for a in node.names
                      if _banned(node.module, banned)
                      or _banned("%s.%s" % (node.module, a.name), banned)]
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            full = ("numpy." + rest) if head in NUMPY_NAMES else name
            if _banned(full, banned) or (direct_convolution and full == "numpy.convolve"):
                found.append(name)
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != HOME))
def test_no_fft_filter_or_direct_convolution_outside_gridmath(path):
    assert _violations((SRC / path).read_text()) == []


def test_guard_sees_every_spelling():
    # the detector is not vacuous: gridmath itself trips it, and so does
    # each way of reaching the banned modules
    assert _violations((SRC / HOME).read_text())
    for line in ("import scipy.signal", "from scipy import fft",
                 "from scipy.fft import rfft", "from numpy import fft as f",
                 "import numpy.fft", "x = np.fft.rfft(y)", "x = numpy.fft.irfft(y)",
                 "x = np.convolve(a, b)", "import scipy.signal as s"):
        assert _violations(line), line
    for line in ("import scipy.special", "from scipy.special import i1e",
                 "x = np.cumsum(a)", "x = convolve_values(a, b, 1.0)"):
        assert not _violations(line), line


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_scipy_optimize(path):
    # root finding is Newton on closed forms (lundberg, the curvature
    # root of valuation); scipy.optimize would add to every import
    assert _violations((SRC / path).read_text(), OPTIMIZE, direct_convolution=False) == []


def test_optimize_guard_sees_every_spelling():
    for line in ("from scipy.optimize import brentq", "from scipy import optimize",
                 "import scipy.optimize as so", "x = scipy.optimize.brentq(f, 0, 1)"):
        assert _violations(line, OPTIMIZE, direct_convolution=False), line
    assert not _violations("from scipy.special import ndtr", OPTIMIZE,
                           direct_convolution=False)


def test_gridmath_does_not_import_scipy_signal():
    source = (SRC / HOME).read_text()
    assert _violations(source, HOME_BANNED, direct_convolution=False) == []
    for line in ("from scipy.signal import lfilter", "import scipy.signal as s",
                 "y = scipy.signal.lfilter(b, a, x)"):
        assert _violations(line, HOME_BANNED, direct_convolution=False), line
    for line in ("from scipy import fft as sp_fft", "p = np.convolve(a, b)"):
        assert not _violations(line, HOME_BANNED, direct_convolution=False), line


@pytest.mark.parametrize("module", ["divbarrier", "divbarrier.cli"])
def test_import_leaves_signal_stats_and_interpolate_unloaded(module):
    heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate")
    code = ("import sys, %s\nprint(' '.join(m for m in %r if m in sys.modules))"
            % (module, heavy))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == []
    # the check is not vacuous: the same probe sees a module that is loaded
    assert "scipy.fft" in subprocess.run(
        [sys.executable, "-c", code.replace(repr(heavy), repr(("scipy.fft",)))], env=env,
        capture_output=True, text=True, check=True, timeout=120).stdout


def _names_library(name):
    return name == LIBRARY or name.startswith(LIBRARY + ".")


def _library_imports(source):
    """Every way the source names the library as a module to import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _names_library(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if node.module and _names_library(node.module):
                found.append(node.module)
            found += [a.name for a in node.names if _names_library(a.name)]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _names_library(node.value)):
            found.append(node.value)
    return found


def test_scale_oracle_does_not_import_the_library():
    assert _library_imports(ORACLE.read_text()) == []


def test_oracle_guard_sees_every_spelling():
    for line in ("import divbarrier", "import divbarrier.scale as s",
                 "from divbarrier import scale",
                 "from divbarrier.scale import scale_ratio",
                 "from . import divbarrier", "from .divbarrier import scale",
                 "importlib.import_module('divbarrier.scale')",
                 "__import__('divbarrier')"):
        assert _library_imports(line), line
    for line in ("import scipy.special", "from scipy.optimize import brentq",
                 "x = 'the divbarrier library'", "import divbarrier_tools"):
        assert not _library_imports(line), line


def _imported_modules(source):
    """The last component of every module the source imports or imports
    from, and every name it imports from one."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.rsplit(".", 1)[-1] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names |= {a.name for a in node.names}
    return names


def test_scale_imports_neither_firstpassage_nor_hfun():
    readers = {"firstpassage", "hfun"}
    assert _imported_modules((SRC / "scale.py").read_text()) & readers == set()
    for line in ("from .firstpassage import _claim_cutoff", "from . import hfun",
                 "import divbarrier.hfun", "def f():\n    from .firstpassage import x"):
        assert _imported_modules(line) & readers, line


def _regime_reads(tree):
    """Every .kind attribute, isinf call or name, and import from
    firstpassage in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("kind", "isinf"):
            found.append(node.attr)
        elif isinstance(node, (ast.Name, ast.alias)) and "isinf" in (
                getattr(node, "id", None), getattr(node, "name", None)):
            found.append("isinf")
    found += ["firstpassage"] if "firstpassage" in _imported_modules(ast.unparse(tree)) else []
    return found


def test_hfun_reads_no_regime_and_solves_no_linear_system():
    # every route comes off scale's memoized Lambda, whose exponents and
    # weights an h takes rather than solving for them
    tree = ast.parse((SRC / "hfun.py").read_text())
    assert _regime_reads(tree) == []
    attrs = [_dotted(n) or n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    assert not any("linalg" in a.split(".") for a in attrs)


def test_regime_guard_sees_every_spelling():
    for line in ("model.claims.kind == 'exponential'", "math.isinf(model.d)",
                 "from math import isinf", "isinf(d)", "np.isinf(d)",
                 "from .firstpassage import upcross_table", "from . import firstpassage"):
        assert _regime_reads(ast.parse(line)), line
    assert _regime_reads(ast.parse("route.t is not None and route.slope")) == []


def _is_d(node):
    return ((isinstance(node, ast.Name) and node.id == "d")
            or (isinstance(node, ast.Attribute) and node.attr == "d"))


def test_scale_ratio_is_the_only_regime_reader_in_scale():
    # each route reads its own Phi_d, K and bound, so the claim kind and
    # d = inf are asked once, where scale_ratio picks the route
    tree = ast.parse((SRC / "scale.py").read_text())
    readers = [n.name for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and _regime_reads(n)]
    assert readers == ["scale_ratio"]
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "scale_ratio"]
    assert len(_regime_reads(fn)) == len(_regime_reads(tree))


def test_phi_table_compares_d_only_to_refuse_negative_d():
    # in the whole module, not only in _phi_table: no route of its own
    # at d = inf or d = 0
    tree = ast.parse((SRC / "firstpassage.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_phi_table"]
    compares = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)
                and any(_is_d(x) for x in [n.left, *n.comparators])]
    assert [ast.unparse(n) for n in compares] == ["d >= 0.0"]
    (guard,) = [n for n in ast.walk(fn) if isinstance(n, ast.If)
                and compares[0] in ast.walk(n.test)]
    assert isinstance(guard.body[0], ast.Raise)
    assert _regime_reads(tree) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_module_but_the_package_imports_expmodel(path):
    assert "expmodel" not in _imported_modules((SRC / path).read_text())


POWER_READERS = ("model.py",)


def _power_reads(source):
    """Every spelling of _power_values in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_power_values":
            found.append(_dotted(node) or node.attr)
        elif ((isinstance(node, ast.Name) and node.id == "_power_values")
              or (isinstance(node, ast.alias) and node.name == "_power_values")
              or (isinstance(node, ast.Constant) and node.value == "_power_values")):
            found.append("_power_values")
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name not in POWER_READERS))
def test_only_model_and_scale_read_claim_powers(path):
    assert _power_reads((SRC / path).read_text()) == []


def test_power_guard_sees_every_spelling():
    for line in ("dens += math.exp(ln_w) * model.claims._power_values(k)[:top + 1]",
                 "p = model.claims._power_values(k)", "read = claims._power_values",
                 "getattr(claims, '_power_values')(3)", "_power_values(3)",
                 "from .model import _power_values"):
        assert _power_reads(line), line
    for line in ("p = claims.conv_power(2, x)", "x = power_values(3)",
                 "x = claims._powers[3]"):
        assert not _power_reads(line), line


GRID_READERS = ("model.py", "scale.py")


def _is_claims(node):
    return ((isinstance(node, ast.Name) and node.id == "claims")
            or (isinstance(node, ast.Attribute) and node.attr == "claims"))


def _grid_reads(source):
    """Every spelling of claims.grid in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "grid" and _is_claims(node.value):
            found.append(_dotted(node) or "claims.grid")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and _is_claims(node.args[0]) and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "grid"):
            found.append("getattr(claims, 'grid')")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and (node.value == "claims.grid" or node.value.endswith(".claims.grid"))):
            found.append(node.value)
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name not in GRID_READERS))
def test_only_model_and_scale_read_the_claim_table(path):
    assert _grid_reads((SRC / path).read_text()) == []


def test_grid_guard_sees_every_spelling():
    # the detector is not vacuous: scale.py trips it, and so does each
    # way of reaching a claim law's table
    assert _grid_reads((SRC / "scale.py").read_text())
    for line in ("g = model.claims.grid", "x = claims.grid.x",
                 "v = self._model.claims.grid.values",
                 "g = getattr(model.claims, 'grid')", "g = getattr(claims, 'grid', None)",
                 "read = operator.attrgetter('claims.grid')",
                 "read = attrgetter('model.claims.grid')"):
        assert _grid_reads(line), line
    for line in ("x = h.grid.values", "g = scan.grid", "g = model.claims.density(x)",
                 "g = getattr(h, 'grid')", "s = 'the grid of the claims'"):
        assert not _grid_reads(line), line


REFERENCE_SOLVES = ("neumann_series_exp", "volterra_march")


def _reference_solve_names(source):
    """Every spelling of the reference solves' names in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in REFERENCE_SOLVES:
            found.append(_dotted(node) or node.attr)
        elif ((isinstance(node, ast.Name) and node.id in REFERENCE_SOLVES)
              or (isinstance(node, (ast.alias, ast.FunctionDef))
                  and node.name in REFERENCE_SOLVES)
              or (isinstance(node, ast.Constant) and node.value in REFERENCE_SOLVES)):
            found.append(getattr(node, "id", None) or getattr(node, "name", None)
                         or node.value)
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != HOME))
def test_only_gridmath_names_the_reference_solves(path):
    assert _reference_solve_names((SRC / path).read_text()) == []


def test_reference_solve_guard_sees_every_spelling():
    # the detector is not vacuous: gridmath, which defines both, trips it,
    # and so does each way of reaching or defining them
    assert set(_reference_solve_names((SRC / HOME).read_text())) >= set(REFERENCE_SOLVES)
    for line in ("from .gridmath import neumann_series_exp",
                 "xi = gridmath.neumann_series_exp(r, w, f, 1.0)",
                 "from .gridmath import volterra_march as march",
                 "xi = volterra_march(k, f, 1.0)", "solve = getattr(gm, 'volterra_march')",
                 "def neumann_series_exp(rates, weights, forcing, coeff):\n    pass"):
        assert _reference_solve_names(line), line
    for line in ("from .gridmath import neumann_series", "xi = neumann_series(k, f, 1.0)",
                 "s = 'the exact mixture solve'"):
        assert not _reference_solve_names(line), line


def _power_sites(source):
    """The function around each numpy power reference in the source, ''
    at module level, and 'import' for each power imported from numpy."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and _dotted(child) in ("np.power", "numpy.power"):
                found.append(where)
            elif (isinstance(child, ast.ImportFrom) and child.module == "numpy"
                  and any(a.name == "power" for a in child.names)):
                found.append("import")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_simulator_takes_r_to_the_k_from_one_power_table():
    # each round gathers r^K from a table of np.power values, built per
    # chunk, never at import
    tree = ast.parse((SRC / "simulator.py").read_text())
    assert _power_sites(ast.unparse(tree)) == ["_build"]
    (powers,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Powers"]
    assert "_build" in [n.name for n in powers.body if isinstance(n, ast.FunctionDef)]
    module_level = [n for stmt in tree.body
                    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    for n in ast.walk(stmt)]
    assert not any(isinstance(n, ast.Name) and n.id == "_Powers" for n in module_level)


def test_power_table_guard_sees_both_spellings():
    for line in ("y = np.power(r, k)", "y = numpy.power(r, k)", "f = np.power",
                 "from numpy import power", "from numpy import power as pw",
                 "def f(k):\n    return np.power(0.8, k)"):
        assert _power_sites(line), line
    assert _power_sites("def _build(n):\n    return numpy.power(r, n)") == ["_build"]
    assert _power_sites("class P:\n    def g(self):\n        return np.power(1, 2)") == ["g"]
    for line in ("y = r ** k", "y = math.pow(r, k)", "from numpy import exp",
                 "y = table[k]", "y = np.float_power(r, k)"):
        assert not _power_sites(line), line
