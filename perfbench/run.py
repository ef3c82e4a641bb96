"""divbarrier benchmark launcher.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.
Each worker is a fresh interpreter with BLAS/OpenMP pinned to one
thread. --trace 0 times set-up in several fresh processes and runs an
op list sized to take about --seconds untraced; --trace 1 runs an op
list of half that size untraced and then traced, in two fresh
processes, and reports per-layer counts and times. The last stdout line is the JSON result;
the lines before it are the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import per_layer_metrics  # noqa: E402

WORKLOADS = ("flat", "diffusion", "tabulated", "mc")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150.0
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def spawn(config, env):
    """Run one worker; return (seconds from spawn to READY, result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
                            stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    ready_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                ready_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None or (result is None and not config.get("setup_only")):
        raise WorkerFailed("worker %s exited with code %s" % (config, proc.returncode))
    return ready_s, result


def environment(result):
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    return dict(result["versions"], cpu=cpu or "unknown", nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                threads={var: THREADS for var in THREAD_VARS})


def op_metrics(result):
    """End-to-end numbers of one untraced run."""
    recs = result["records"]
    lat = [r["s"] for r in recs]
    out = {
        "op_s_p50": (statistics.median(lat), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    detail = {}
    for kind in ("solve", "query", "mc"):
        xs = [r["s"] for r in recs if r["kind"] == kind]
        if not xs:
            continue
        detail["%s_s_p50" % kind] = (statistics.median(xs), "s", len(xs))
        if kind == "solve":
            detail["solves_per_s"] = (len(xs) / sum(xs), "1/s", len(xs))
            k = int(0.9 * len(xs))
            if len(xs) - k - 1 >= 10:  # at least ten samples beyond it
                detail["solve_s_p90"] = (sorted(xs)[k], "s", len(xs))
        if kind == "mc":
            detail["mc_calls_per_s"] = (len(xs) / sum(xs), "1/s", len(xs))
    failed = sum(not r["ok"] for r in recs)
    detail["fail_rate"] = (failed / len(recs), "share", len(recs))
    return out, detail


def report_checks(records, say):
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    say("checks: %d ops, %d failed (%d unexpected)" % (len(records), len(failed), len(unexpected)))
    for r in failed:
        say("  FAILED op %d %s%s: %s" % (r["i"], r["label"],
                                        " [known defect]" if r["known_defect"] else "", r["reason"]))
    known = sorted({r["label"] for r in records if r["known_defect"]})
    if known:
        say("known defect (counted in failed, not in correct): the sigma > 0, d = 0 exit "
            "function gives h(0) > 0 where it must be 0: %s" % ", ".join(known))
    blind = sorted({r["label"] for r in records if r["no_oracle"]})
    if blind:
        say("no oracle, checked for finiteness and the HJB certificate only: %s" % ", ".join(blind))
    for kind in ("solve", "query"):
        added = [r["cache_added"] for r in records if r["kind"] == kind]
        if added:
            say("hfun._CACHE entries added by %s ops: %d" % (kind, sum(added)))
    return len(failed), not unexpected


def run_untraced(args, env, say):
    setups = [spawn(dict(base(args), setup_only=True), env)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready_s, result = spawn(base(args), env)
    setups.append(ready_s)
    say("env " + json.dumps(environment(result), sort_keys=True))
    metrics, detail = op_metrics(result)
    metrics["setup_s"] = (statistics.median(setups), "s")
    say("ops: %d in %d whole rounds; setup samples %s s"
        % (len(result["records"]), result["rounds"], ", ".join("%.3f" % s for s in setups)))
    for name, (value, unit) in sorted(metrics.items()):
        say("metric %s %.6g %s" % (name, value, unit))
    for name, (value, unit, n) in sorted(detail.items()):
        say("metric %s %.6g %s (n=%d)" % (name, value, unit, n))
    failed, correct = report_checks(result["records"], say)
    say("fingerprint round 0: %s" % result["fingerprint"])
    return result, metrics, failed, correct


def run_traced(args, env, say):
    half = dict(base(args), seconds=args.seconds / 2.0)
    _, plain = spawn(half, env)
    _, traced = spawn(dict(half, traced=True), env)
    if traced["op_digest"] != plain["op_digest"]:
        raise WorkerFailed("traced and untraced runs executed different op lists")
    say("env " + json.dumps(environment(traced), sort_keys=True))
    say("ops: %d in %d whole rounds, untraced then traced in fresh processes"
        % (len(traced["records"]), traced["rounds"]))
    metrics = per_layer_metrics(plain, traced)
    for name, (value, unit) in metrics.items():
        say("layer %s %.6g %s" % (name, value, unit))
    failed, correct = report_checks(traced["records"], say)
    if traced["fingerprint"] != plain["fingerprint"]:
        say("WARNING: traced and untraced outputs differ")
        correct = False
    say("fingerprint round 0: %s" % traced["fingerprint"])
    return traced, metrics, failed, correct


def base(args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "divbarrier", "__init__.py")):
        print("perfbench: run from the root of a divbarrier checkout (no src/divbarrier here)",
              file=sys.stderr)
        return 2

    def say(line):
        print(line, flush=True)

    say("perfbench workload=%s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    say("closed loop: 1 process, 1 caller, the next op starts when the previous returns; "
        "single thread and no I/O, so no wait times are reported")
    env = worker_env()
    try:
        run = run_traced if args.trace else run_untraced
        result, metrics, failed, correct = run(args, env, say)
    except WorkerFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["records"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
