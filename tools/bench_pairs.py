"""Benchmark a change against its parent in alternated pairs of runs and
write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N --parent REV --title TEXT \\
        --pairs diffusion=10 --pairs flat=3 [--seed0 S] \\
        [--claim WORKLOAD:METRIC] [--trace-seed S] [--note TEXT ...] [--out FILE]

Exports REV with `git archive` (local git only) into a temporary
directory, and copies the working tree's src/, perfbench/,
pyproject.toml and BENCHMARK.json into another. For each --pairs
WORKLOAD=N it runs N pairs, one per seed S = seed0, seed0 + 1, ...:

    cd <tree> && python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run_seconds of BENCHMARK.json, once in each tree, the parent
first when S is even and the change first when S is odd, one run at a
time. Each workload's pairs take the next seeds after the last
workload's. For every end-to-end metric that BENCHMARK.json lists it
records both sides' runs, medians and interquartile ranges (numpy's
linear percentiles), the change's wins (a run better than the same
pair's parent run; ties count for neither), the gap between the medians
against the width of the parent's IQR, and the relative change of the
median; and per pair the failed and attempted op counts, the round-0
fingerprints and the op and round line. --claim names the metric a gain
is claimed on; the claim is met when there are at least 10 pairs, the
change wins at least 9 in 10 and the medians are apart, in the better
direction, by more than the parent's IQR. --trace-seed runs the claimed
workload once more per tree with --trace 1 and keeps the per-layer
metrics. The file is rewritten after every pair, so an interrupted run
keeps what it measured.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "perfbench", "pyproject.toml", "BENCHMARK.json")
# the side that runs first in a pair, by the parity of its seed
SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds, trace=0):
    """(last-line JSON, report lines) of one perfbench/run.py run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _layers(tree, workload, seed, seconds):
    """The per-layer metrics of one --trace 1 run in tree."""
    result = run_once(tree, workload, seed, seconds, trace=1)[0]
    return {name: v["value"] for name, v in result["metrics"].items()}


def _after(lines, prefix):
    return next((ln[len(prefix):] for ln in lines if ln.startswith(prefix)), None)


def summarize(parent_runs, change_runs, better):
    """One metric's entry: both sides' runs, medians and IQRs, the
    change's wins per pair, the gap between the medians, the parent's
    IQR width and the median's relative change."""
    entry = {"better": better}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        q1, med, q3 = np.percentile(runs, [25, 50, 75])
        entry[side] = {"median": round(float(med), 6),
                       "iqr": [round(float(q1), 6), round(float(q3), 6)],
                       "runs": [round(float(v), 6) for v in runs]}
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
    q1, q3 = entry["parent"]["iqr"]
    entry.update(change_wins="%d/%d" % (wins, len(parent_runs)),
                 median_gap=round(abs(c_med - p_med), 6),
                 parent_iqr_width=round(q3 - q1, 6),
                 median_change_rel=round((c_med - p_med) / p_med, 4) if p_med else None)
    return entry


def workload_entry(seeds, runs, metrics):
    """A workload's entry from the pairs run so far, runs[side] holding
    each run's (last-line JSON, report lines) in seed order."""
    seeds = seeds[:len(runs["parent"])]
    entry = {"seeds": seeds,
             "run_order": ["%s first" % SIDES[s % 2] for s in seeds],
             "metrics": {m["name"]: summarize(*[[r[0]["metrics"][m["name"]]["value"]
                                                  for r in runs[side]] for side in SIDES],
                                              m["better"]) for m in metrics}}
    for key in ("failed", "attempted"):
        entry[key] = {side: [r[0][key] for r in runs[side]] for side in SIDES}
    fps = {side: [_after(r[1], "fingerprint round 0: ") for r in runs[side]] for side in SIDES}
    entry["fingerprint_round0"] = [{"seed": s, "parent": p, "change": c, "identical": p == c}
                                   for s, p, c in zip(seeds, fps["parent"], fps["change"])]
    entry["ops_and_rounds"] = {side: [_after(r[1], "ops: ") for r in runs[side]]
                               for side in SIDES}
    return entry


def claim_met(entry):
    """At least 10 pairs, at least 9 wins in 10 and the medians apart, in
    the better direction, by more than the parent's IQR."""
    wins, pairs = map(int, entry["change_wins"].split("/"))
    sign = 1.0 if entry["better"] == "higher" else -1.0
    gap = sign * (entry["change"]["median"] - entry["parent"]["median"])
    return pairs >= 10 and wins >= 0.9 * pairs and gap > entry["parent_iqr_width"]


def _copy_change(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--title", required=True)
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--seed0", type=int, default=601)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--note", action="append", default=[])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    out_path = Path(args.out or ROOT / ("BENCH_%d.json" % args.pr))
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                            capture_output=True, text=True, check=True).stdout.strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], "%g" % bench["run_seconds"]
    doc = {
        "pr": args.pr, "title": args.title,
        "parent": {"commit": commit,
                   "tree": "exported with `git archive %s | tar -x -C <dir>` (local git)"
                           % commit[:7]},
        "change": {"tree": "copy of the working tree's %s" % ", ".join(COPIED)},
        "env": None,
        "commands": {"each_run": "cd <tree> && python3 perfbench/run.py --workload W "
                                 "--seed S --seconds %s --trace 0" % seconds,
                     "pairs": "one pair per seed and workload, one run at a time, the "
                              "parent first when S is even and the change first when S "
                              "is odd (run_order)"},
        "rules": "a win is the change's value being better than the parent's in the same "
                 "pair (ties count for neither)",
        "workloads": {},
        "notes": args.note,
    }
    if args.claim:
        claim_workload, claim_metric = args.claim.split(":")
        doc = dict(list(doc.items())[:2] + [("claim", None)] + list(doc.items())[2:])
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        _copy_change(trees["change"])
        seed = args.seed0
        for spec in args.pairs:
            workload, n = spec.split("=")
            seeds = list(range(seed, seed + int(n)))
            seed += int(n)
            doc["commands"]["pairs"] += "; %s: S = %d..%d" % (workload, seeds[0], seeds[-1])
            runs = {side: [] for side in SIDES}
            for s in seeds:
                for side in (SIDES if s % 2 == 0 else SIDES[::-1]):
                    print("%s seed %d %s" % (workload, s, side), file=sys.stderr, flush=True)
                    runs[side].append(run_once(trees[side], workload, s, seconds))
                doc["env"] = doc["env"] or json.loads(_after(runs["change"][0][1], "env "))
                doc["workloads"][workload] = workload_entry(seeds, runs, metrics)
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
        if args.claim:
            entry = doc["workloads"][claim_workload]["metrics"][claim_metric]
            doc["claim"] = {"workload": claim_workload, "metric": claim_metric,
                            "better": entry["better"], "met": claim_met(entry),
                            "rule": "at least 10 pairs, better in at least 9 of 10, "
                                    "medians apart by more than the parent's IQR"}
        if args.claim and args.trace_seed is not None:
            doc["commands"]["trace"] = (
                "cd <tree> && python3 perfbench/run.py --workload %s --seed %d --seconds %s "
                "--trace 1, parent then change" % (claim_workload, args.trace_seed, seconds))
            doc["trace_seed%d" % args.trace_seed] = {
                side: _layers(trees[side], claim_workload, args.trace_seed, seconds)
                for side in SIDES}
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
