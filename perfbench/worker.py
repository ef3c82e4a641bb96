"""One benchmark process: import, warm up, then run whole rounds of ops.

Run by run.py as ``worker.py '<json config>'``. It prints ``READY``
when set-up is done (the launcher times interpreter start to that
line) and, unless the config says setup_only, one ``RESULT <json>``
line at the end. Closed loop: one caller, and the next op starts only
after the previous one returned. The op list is fixed by the seed and
--seconds (see workloads.n_rounds).
"""

import hashlib
import json
import resource
import sys
import time

_t0 = time.perf_counter()
import divbarrier  # noqa: E402  (timed: the import is part of set-up)
IMPORT_S = time.perf_counter() - _t0

import numpy  # noqa: E402
import scipy  # noqa: E402
from divbarrier import hfun  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


class CacheIsolationError(RuntimeError):
    """A cold op found its model key already used in this process."""


def run_one(op, model, used_keys, tracer=None):
    """Time one op and check its answer. Returns the op's record."""
    key = model.key()
    if op.cold and (key in used_keys or any(k[0] == key for k in hfun._CACHE)):
        raise CacheIsolationError("cold op %d (%s) reuses model key %r"
                                  % (op.index, op.label, key))
    used_keys.add(key)
    n_cache = len(hfun._CACHE)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.execute(op, model)
        else:
            with tracer.op(op.index, op.kind):
                result = wl.execute(op, model)
        latency = time.perf_counter() - t0
    except Exception as exc:  # a library error is a failed op, not a dead run
        latency = time.perf_counter() - t0
        chk = wl.Check(False, "raised %s: %s" % (type(exc).__name__, exc), [])
    else:
        chk = wl.check(op, model, result)
    return {
        "i": op.index, "round": op.round, "kind": op.kind, "label": op.label,
        "s": latency, "ok": chk.ok, "reason": chk.reason,
        "known_defect": wl.known_defect(op), "no_oracle": chk.no_oracle,
        "cache_added": len(hfun._CACHE) - n_cache,
        "tokens": [wl.quantize(v, q) for v, q in chk.outputs],
    }


def run_rounds(workload, seed, n_rounds, tracer=None, used_keys=None):
    """Run the first n_rounds rounds of the workload's op list."""
    used_keys = set() if used_keys is None else used_keys
    records = []
    for _, ops in zip(range(n_rounds), wl.rounds(workload, seed)):
        models = {}
        for op in ops:
            spec = (op.params, op.claims)
            if spec not in models:
                models[spec] = wl.build_model(*spec)
            records.append(run_one(op, models[spec], used_keys, tracer))
    return records


def digests(records):
    """(op-list digest, output fingerprint of round 0)."""
    ops = hashlib.sha256()
    out = hashlib.sha256()
    for rec in records:
        ops.update(("%d %s\n" % (rec["i"], rec["label"])).encode())
        if rec["round"] == 0:
            out.update(("%d %s %s\n" % (rec["i"], rec["label"], " ".join(rec["tokens"]))).encode())
    return ops.hexdigest(), out.hexdigest()


def layer_stats(tracer, records):
    kinds = {rec["i"]: rec["kind"] for rec in records}
    builds = sum(n for label in ("hfun.h_d_sigma0", "hfun.h_d_sigma_pos")
                 for i, n in tracer.calls_by_op(label).items() if kinds.get(i) == "solve")
    return {"spans": tracer.stats(), "powers_built": tracer.powers_built,
            "h_builds_in_solves": builds}


def main(config):
    used_keys = set()
    for op in wl.warmup_ops(config["workload"], config["seed"]):
        run_one(op, wl.build_model(op.params, op.claims), used_keys)
    print("READY", flush=True)
    if config.get("setup_only"):
        return

    tracer = Tracer() if config.get("traced") else None
    if tracer is not None:
        tracer.install()
    n_rounds = wl.n_rounds(config["workload"], config["seconds"])
    try:
        records = run_rounds(config["workload"], config["seed"], n_rounds, tracer, used_keys)
    finally:
        if tracer is not None:
            tracer.uninstall()
    op_digest, fingerprint = digests(records)
    result = {
        "records": records, "rounds": n_rounds, "import_s": IMPORT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "op_digest": op_digest, "fingerprint": fingerprint,
    }
    if tracer is not None:
        result["layers"] = layer_stats(tracer, records)
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
