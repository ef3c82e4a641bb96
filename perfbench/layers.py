"""Per-layer metrics of a traced run, named module.function.stat.

Values are per round of the workload (every round has the same shape),
so two commits compare even when they finish a different number of
rounds. Each layer metric is listed with the end-to-end metric it
should move (see BENCHMARK.json and CHANGES.md):

- firstpassage.upcross_table, hfun._w_values: tabulated solves/queries
- firstpassage._phi_sigma_pos, gridmath.neumann_series_exp: diffusion
- gridmath.neumann_series, convolve_values, valuation.*: flat
- gridmath.volterra_march: nothing today; a nonzero count means the
  Neumann-to-march fallback was taken, which no workload reaches yet
- simulator.*: mc only
"""

SPANS = (
    ("firstpassage.upcross_table", ("calls", "s", "self_s")),
    ("hfun._w_values", ("calls", "s", "self_s")),
    ("firstpassage._phi_sigma_pos", ("calls", "s")),
    ("gridmath.neumann_series_exp", ("calls", "s")),
    ("gridmath.neumann_series", ("calls", "s", "failed")),
    ("gridmath.convolve_values", ("calls", "s")),
    ("gridmath.volterra_march", ("calls", "s")),
    ("valuation.hjb_verify", ("calls", "s")),
    ("valuation.optimal_barrier", ("self_s",)),
    ("hfun.h_d_sigma0", ("calls", "s", "self_s")),
    ("hfun.h_d_sigma_pos", ("calls", "s", "self_s")),
    ("hfun.ide_residual", ("calls", "s")),
    ("model.conv_power", ("calls", "s")),
    ("lundberg.lundberg_root", ("calls", "s")),
    ("expmodel.u_of_d", ("calls", "s")),
) + tuple(("simulator.%s.%s" % (fn, regime), ("calls", "s", "paths_per_s"))
          for fn in ("simulate_value", "simulate_h", "simulate_upcross")
          for regime in ("sigma0", "sigma_pos"))

UNITS = {"calls": "count/round", "s": "s/round", "self_s": "s/round",
         "failed": "count/round", "paths_per_s": "1/s"}

OTHER = (
    ("valuation.h_builds_per_solve", "count", "lower"),
    ("hfun.cache_entries_added.solve", "count/round", "lower"),
    ("hfun.cache_entries_added.query", "count/round", "lower"),
    ("model.powers_built", "count/round", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("%s.%s" % (label, stat), UNITS[stat], "higher" if stat == "paths_per_s" else "lower")
           for label, stats in SPANS for stat in stats]
    return out + list(OTHER)


def per_layer_metrics(plain, traced):
    """{name: (value, unit)} from an untraced and a traced run of the same ops."""
    rounds = traced["rounds"]
    spans = traced["layers"]["spans"]
    recs = traced["records"]
    units = {name: unit for name, unit, _ in spec()}
    out = {}
    for label, stats in SPANS:
        st = spans.get(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "work": 0})
        for stat in stats:
            if stat == "paths_per_s":
                value = st["work"] / st["s"] if st["s"] > 0 else 0.0
            else:
                value = st[stat] / rounds
            out["%s.%s" % (label, stat)] = value
    solves = sum(r["kind"] == "solve" for r in recs)
    out["valuation.h_builds_per_solve"] = (
        traced["layers"]["h_builds_in_solves"] / solves if solves else 0.0)
    for kind in ("solve", "query"):
        out["hfun.cache_entries_added." + kind] = sum(
            r["cache_added"] for r in recs if r["kind"] == kind) / rounds
    out["model.powers_built"] = traced["layers"]["powers_built"] / rounds
    out["setup.import_s"] = traced["import_s"]
    out["trace.overhead"] = (sum(r["s"] for r in recs)
                             / sum(r["s"] for r in plain["records"]) - 1.0)
    return {name: (value, units[name]) for name, value in out.items()}
