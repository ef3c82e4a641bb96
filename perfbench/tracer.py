"""Spans around the calls between divbarrier's modules, from outside.

The library imports functions by name (``from .hfun import
h_d_sigma0``), so a function is rebound in every divbarrier module
that holds it, not only where it is defined. ``uninstall`` puts every
original back. Spans are recorded only inside an op opened with
``Tracer.op``, so oracle and bookkeeping calls stay out of the counts.

A span is [label, start, end, parent, op index, failed, work]; a
label's self time is its spans' durations minus their children's.
"""

import functools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs rebound by name; labels are module.function
FUNCTIONS = (
    ("lundberg", "lundberg_root"),
    ("firstpassage", "upcross_table"),
    ("firstpassage", "_phi_sigma_pos"),
    ("gridmath", "neumann_series"),
    ("gridmath", "neumann_series_exp"),
    ("gridmath", "convolve_values"),
    ("gridmath", "volterra_march"),
    ("hfun", "h_d_sigma0"),
    ("hfun", "h_d_sigma_pos"),
    ("hfun", "ide_residual"),
    ("hfun", "_w_values"),
    ("expmodel", "u_of_d"),
    ("valuation", "optimal_barrier"),
    ("valuation", "barrier_solution_at"),
    ("valuation", "hjb_verify"),
)
SIMULATORS = ("simulate_value", "simulate_h", "simulate_upcross")
# (class, method) on divbarrier.model claim distributions
METHODS = (("TabulatedClaims", "conv_power"), ("ExponentialClaims", "conv_power"))


def _sim_label(name):
    def label(args):
        regime = "sigma0" if args[0].sigma == 0.0 else "sigma_pos"
        return "simulator.%s.%s" % (name, regime)
    return label


class Tracer:
    def __init__(self):
        self.spans = []
        self.powers_built = 0
        self._stack = []
        self._op = None
        self._patches = []

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "divbarrier" or name.startswith("divbarrier.")}
        targets = [(mods["divbarrier." + m], f, "%s.%s" % (m, f), None, None)
                   for m, f in FUNCTIONS]
        targets += [(mods["divbarrier.simulator"], f, None, _sim_label(f),
                     lambda args: args[3].n_paths) for f in SIMULATORS]
        for mod, name, label, label_of, work_of in targets:
            orig = getattr(mod, name)
            wrapper = self._wrap(orig, label, label_of, work_of)
            for holder in mods.values():
                for attr, val in list(vars(holder).items()):
                    if val is orig:
                        self._patch(holder, attr, wrapper)
        model = mods["divbarrier.model"]
        for cls_name, meth in METHODS:
            cls = getattr(model, cls_name)
            self._patch(cls, meth, self._wrap(vars(cls)[meth], "model." + meth, None, None))
        tab = model.TabulatedClaims
        self._patch(tab, "_power_values", self._count_builds(vars(tab)["_power_values"]))

    def uninstall(self):
        while self._patches:
            holder, attr, orig = self._patches.pop()
            setattr(holder, attr, orig)

    def _patch(self, holder, attr, new):
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, new)

    @contextmanager
    def op(self, index, kind):
        """Root span of one op; spans inside it carry its index."""
        self._op = index
        try:
            with self._span("op." + kind, None):
                yield
        finally:
            self._op = None

    @contextmanager
    def _span(self, label, work):
        span = [label, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self._op, False, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, label, label_of, work_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            with self._span(label or label_of(args), work_of(args) if work_of else None):
                return fn(*args, **kwargs)
        return wrapper

    def _count_builds(self, fn):
        @functools.wraps(fn)
        def wrapper(claims, n):
            if self._op is not None and n not in claims._powers:
                self.powers_built += 1
            return fn(claims, n)
        return wrapper

    def stats(self):
        """Per label: calls, inclusive s, self_s, failed calls, work."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (label, start, end, _, _, failed, work) in enumerate(self.spans):
            st = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "failed": 0, "work": 0})
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - child[i]
            st["failed"] += failed
            st["work"] += work or 0
        return out

    def calls_by_op(self, label):
        """How many spans with this label each op index holds."""
        out = {}
        for span in self.spans:
            if span[0] == label:
                out[span[4]] = out.get(span[4], 0) + 1
        return out
