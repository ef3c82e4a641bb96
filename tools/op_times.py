"""Per-op median latencies of one benchmark workload, this tree against REV.

    python3 tools/op_times.py --workload W --seeds N [REV]

For each seed S = 1..N it runs perfbench/worker.py once in a fresh
process, in the environment perfbench/run.py gives its workers (the
tree's src/ first on the path, one BLAS thread, PYTHONHASHSEED=0), with
the op list run.py would run: workload W, seed S and the run_seconds of
BENCHMARK.json. With REV it does the same in REV's tree, exported by
`git archive` (local git only) into a temporary directory as
tools/route_grid.py does, and alternates which side runs first: REV
when S is even, this tree when S is odd. Each side runs its own
perfbench/worker.py; nothing under perfbench/ is changed.

It prints, per op label, the median latency over every seed's ops of
that label, and for each side the median over seeds of the run's
op_s_p50 (the median op) and ops_per_s (ops over their summed
latency), the two end-to-end numbers perfbench reports. The two can
disagree about which op moved: the median op is one label's, while
ops_per_s weighs every op by its cost.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER_TIMEOUT_S = 600


def _launcher():
    """perfbench/run.py of this tree, for its worker environment."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def worker_env(launcher, tree):
    """run.py's worker environment, with tree's src/ first on the path."""
    cwd = os.getcwd()
    os.chdir(tree)
    try:
        return launcher.worker_env()
    finally:
        os.chdir(cwd)


def run_worker(tree, env, config):
    """The RESULT record of one tree's worker.py run on config."""
    out = subprocess.run([sys.executable, str(Path(tree) / "perfbench" / "worker.py"),
                          json.dumps(config)], cwd=tree, env=env, capture_output=True,
                         text=True, check=True, timeout=WORKER_TIMEOUT_S).stdout
    line = next(ln for ln in out.splitlines() if ln.startswith("RESULT "))
    return json.loads(line[len("RESULT "):])


def run_metrics(result):
    """(op_s_p50, ops_per_s) of one run, as perfbench/run.py takes them."""
    lat = [rec["s"] for rec in result["records"]]
    return statistics.median(lat), len(lat) / sum(lat)


def summarize(results):
    """The report's lines for {side: [one worker result per seed]}: per op
    label its median latency on each side, then each side's median over
    runs of op_s_p50 and ops_per_s; with two sides, the last column is
    the second side's change against the first."""
    sides = list(results)
    labels = []
    times = {side: {} for side in sides}
    for side in sides:
        for result in results[side]:
            for rec in result["records"]:
                if rec["label"] not in labels:
                    labels.append(rec["label"])
                times[side].setdefault(rec["label"], []).append(rec["s"])

    def row(name, values, scale, fmt):
        cells = ["%12s" % (fmt % (v * scale)) if v is not None else "%12s" % "-"
                 for v in values]
        if len(values) == 2 and None not in values and values[0]:
            cells.append("%+9.1f%%" % (100.0 * (values[1] / values[0] - 1.0)))
        return "%-32s%s" % (name, "".join(cells))

    lines = ["%-32s%s" % ("op (median ms, n per side)", "".join("%12s" % s for s in sides))]
    for label in labels:
        got = [times[side].get(label) for side in sides]
        lines.append(row("%s (%s)" % (label, "/".join(str(len(t or ())) for t in got)),
                         [statistics.median(t) if t else None for t in got], 1e3, "%.3f"))
    per_run = {side: [run_metrics(r) for r in results[side]] for side in sides}
    lines.append(row("op_s_p50 (ms)", [statistics.median(m[0] for m in per_run[side])
                                       for side in sides], 1e3, "%.3f"))
    lines.append(row("ops_per_s", [statistics.median(m[1] for m in per_run[side])
                                   for side in sides], 1.0, "%.2f"))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, required=True)
    ap.add_argument("rev", nargs="?")
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    launcher = _launcher()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"tree": ROOT}
        if args.rev:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            trees = {args.rev: Path(tmp), "tree": ROOT}
        envs = {side: worker_env(launcher, tree) for side, tree in trees.items()}
        results = {side: [] for side in trees}
        for seed in range(1, args.seeds + 1):
            order = list(trees) if seed % 2 == 0 else list(trees)[::-1]
            for side in order:
                print("seed %d %s" % (seed, side), file=sys.stderr, flush=True)
                config = {"workload": args.workload, "seed": seed, "seconds": seconds}
                results[side].append(run_worker(trees[side], envs[side], config))
    print("\n".join(summarize(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
