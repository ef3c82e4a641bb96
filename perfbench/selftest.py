"""Self-tests of the benchmark harness (not of divbarrier).

    python3 perfbench/selftest.py            # from the repository root
    python3 -m pytest -q perfbench/selftest.py

They check that op lists follow the seed, that a cold op on a used
model key stops the run, that a wrong answer is counted as failed,
that the tracer leaves nothing behind, and that the launcher runs the
same ops traced and untraced and refuses a directory without sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import divbarrier as db  # noqa: E402
from divbarrier import hfun  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from layers import spec  # noqa: E402
from tracer import Tracer  # noqa: E402


def first_rounds(workload, seed, n=2):
    gen = wl.rounds(workload, seed)
    return [next(gen) for _ in range(n)]


def test_op_list_follows_seed():
    for workload in run.WORKLOADS:
        assert first_rounds(workload, 7) == first_rounds(workload, 7)
        assert first_rounds(workload, 7) != first_rounds(workload, 8)
        shapes = [[op.label for op in ops] for ops in first_rounds(workload, 7, 3)]
        assert shapes[0] == shapes[1] == shapes[2]


def test_warmup_uses_its_own_models():
    for workload in run.WORKLOADS:
        timed = {(op.params, op.claims) for ops in first_rounds(workload, 7) for op in ops}
        assert not timed & {(op.params, op.claims) for op in wl.warmup_ops(workload, 7)}


def test_cold_op_on_used_key_stops_the_run():
    op = first_rounds("flat", 11, 1)[0][0]
    model = wl.build_model(op.params, op.claims)
    try:
        worker.run_one(op, model, {model.key()})
    except worker.CacheIsolationError:
        pass
    else:
        raise AssertionError("reused key in used_keys was not caught")
    hfun._CACHE[(model.key(), "selftest")] = 0.0
    try:
        worker.run_one(op, model, set())
    except worker.CacheIsolationError:
        pass
    else:
        raise AssertionError("key already in hfun._CACHE was not caught")
    finally:
        del hfun._CACHE[(model.key(), "selftest")]


def _with_patched(name, perturb, workload, seed):
    orig = getattr(db, name)
    setattr(db, name, lambda *a, **k: perturb(orig(*a, **k)))
    try:
        records = worker.run_rounds(workload, seed, 1)
    finally:
        setattr(db, name, orig)
    return records


def test_perturbed_answers_count_as_failed():
    recs = _with_patched("optimal_barrier",
                         lambda sol: dataclasses.replace(sol, a_star=sol.a_star + 1e-2),
                         "flat", 12)
    solves = [r for r in recs if r["kind"] == "solve"]
    assert solves and not any(r["ok"] for r in solves)
    assert all(r["ok"] for r in recs if r["kind"] == "query")
    _, detail = run.op_metrics({"records": recs, "peak_rss_mb": 1.0})
    assert detail["fail_rate"][0] == len(solves) / len(recs)

    recs = _with_patched("simulate_h",
                         lambda est: dataclasses.replace(est, mean=est.mean * 1.2),
                         "mc", 12)
    assert [r["label"] for r in recs if not r["ok"]] == ["mc h sigma0 d=0", "mc h sigma_pos d=inf"]


def test_tracer_is_removed_after_a_traced_run():
    def bindings():
        return {(name, attr): val for name, mod in sys.modules.items()
                if name == "divbarrier" or name.startswith("divbarrier.")
                for attr, val in vars(mod).items() if callable(val)}

    before = bindings()
    methods = {m: vars(db.TabulatedClaims)[m] for m in ("conv_power", "_power_values")}
    tracer = Tracer()
    tracer.install()
    try:
        assert db.valuation.h_d_sigma0 is not before[("divbarrier.valuation", "h_d_sigma0")]
        assert db.gridmath.convolve_values is db.hfun.convolve_values
        worker.run_rounds("flat", 13, 1, tracer)
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert stats["op.solve"]["calls"] == 8 and stats["valuation.optimal_barrier"]["calls"] == 8
    # the call made inside valuation through its own import is seen
    assert stats["hfun.h_d_sigma0"]["calls"] >= 8
    assert bindings() == before
    assert {m: vars(db.TabulatedClaims)[m] for m in methods} == methods
    n_spans = len(tracer.spans)
    worker.run_rounds("flat", 14, 1)
    assert len(tracer.spans) == n_spans


def _launch(args, cwd):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_launcher_reports_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = _launch(["--workload", "flat", "--seed", "5", "--seconds", "1",
                               "--trace", trace], ROOT)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in bench[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spec()


def test_launcher_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _launch(["--workload", "flat", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], tmp)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("PASS", name, flush=True)
            except Exception as exc:  # report every test, then fail
                failures += 1
                print("FAIL", name, type(exc).__name__, exc, flush=True)
    sys.exit(1 if failures else 0)
