"""Benchmark of the conefourier certifier.

    python3 bench/run.py --workload <parseval|closed-forms>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; conefourier is imported from
src/.  Each run starts fresh single-threaded worker processes (one BLAS
thread, no --jobs, no threads): several that stop after set-up, to time
set-up, and one that repeats full passes over the seeded inputs until the
run length is filled.  Every output of the first pass is checked against
references computed here with scipy/mpmath (refs.py), and every later
pass must reproduce the first exactly.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics, end-to-end ones
with --trace 0 and per-layer ones (from a run that alternates untraced
and traced passes) with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

_SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

def _worker(ns, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", ns.workload, "--seed", str(ns.seed),
           "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    return cmd + (["--tiny"] if ns.tiny else []) + list(extra)


def _env():
    env = dict(os.environ)
    env.update(_SINGLE_THREAD)
    env["PYTHONHASHSEED"] = "0"
    return env


def tally(ops, refs_, res) -> tuple[int, int, dict]:
    """(attempted, failed, reasons) of one run.  An operation whose
    first-pass output is wrong fails in every pass; otherwise it fails in
    each later pass that did not reproduce the first-pass output."""
    import refs

    n_passes = len(res["passes"]) + len(res["traced_passes"])
    outputs = res["outputs"]
    reasons = {}
    failed = 0
    for i, op in enumerate(ops):
        why = res["errors"].get(str(i)) or refs.check(
            op, outputs[i], refs_[i], outputs, ops)
        if why:
            reasons[i] = why
            failed += n_passes
        else:
            mismatched = res["mismatched"].get(str(i), 0)
            if mismatched:
                reasons[i] = f"output changed in {mismatched} later passes"
            failed += mismatched
    return len(ops) * n_passes, failed, reasons


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res, setup) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "pass_s": _metric(statistics.median(res["passes"]), "s"),
        "op_ms_p50": _metric(statistics.median(res["op_s"]) * 1e3, "ms"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(res, ops) -> dict:
    """Counts come from the first traced pass; times are medians over the
    traced passes.  All figures are per pass."""
    passes = res["layers"]
    first = passes[0]

    def self_s(layer):
        return statistics.median(p[layer]["self_s"] for p in passes)

    rows = sum(op["count"] for op in ops if op["kind"] == "table")
    m = {}
    for layer in ("kernel", "univariate", "multivariate", "transforms"):
        for key in ("calls", "points"):
            m[f"{layer}.{key}"] = _metric(first[layer][key], "count")
        m[f"{layer}.self_s"] = _metric(self_s(layer), "s")
    k, t, q = first["kernel"], first["transforms"], first["quadrature"]
    m["kernel.scalar_calls"] = _metric(k["scalar_calls"], "count")
    m["kernel.us_per_call"] = _metric(
        _ratio(self_s("kernel"), k["calls"]) * 1e6, "us")
    m["kernel.points_per_s"] = _metric(_ratio(k["points"], self_s("kernel")), "1/s")
    m["transforms.us_per_call"] = _metric(
        _ratio(self_s("transforms"), t["calls"]) * 1e6, "us")
    m["quadrature.integrals"] = _metric(q["integrals"], "count")
    m["quadrature.evals"] = _metric(q["evals"], "count")
    m["quadrature.integrand_calls"] = _metric(q["integrand_calls"], "count")
    m["quadrature.points_per_integrand_call"] = _metric(
        _ratio(q["integrand_points"], q["integrand_calls"]), "count")
    m["quadrature.self_s"] = _metric(self_s("quadrature"), "s")
    m["quadrature.evals_per_s"] = _metric(
        _ratio(q["evals"], self_s("quadrature")), "1/s")
    checks = first["verify"]["entries"]
    m["verify.checks"] = _metric(checks, "count")
    m["verify.self_s"] = _metric(self_s("verify"), "s")
    m["verify.s_per_check"] = _metric(_ratio(self_s("verify"), checks), "s")
    m["cli.self_s"] = _metric(self_s("cli"), "s")
    m["cli.us_per_row"] = _metric(_ratio(self_s("cli"), rows) * 1e6, "us")
    m["trace.overhead_s"] = _metric(
        statistics.median(res["traced_passes"]) - statistics.median(res["passes"]),
        "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few operations per pass, for the self-test")
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conefourier", "__init__.py")):
        print(f"error: no conefourier sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = _env()
    setup = []
    for _ in range(SETUP_SAMPLES):
        # a wait with a timeout polls in steps of up to 50 ms, which would
        # quantize the sample; a plain wait returns when the child exits
        t0 = time.perf_counter()
        child = subprocess.Popen(_worker(ns, "--setup-only"), env=env,
                                 stdout=subprocess.DEVNULL)
        if child.wait() != 0:
            raise RuntimeError(f"set-up process exited {child.returncode}")
        setup.append(time.perf_counter() - t0)

    import refs

    ops, _ = make_inputs(ns.workload, ns.seed, ns.tiny)
    refs_ = [refs.reference(op) for op in ops]

    left = RUN_LIMIT_S - (time.perf_counter() - start)
    try:
        proc = subprocess.run(_worker(ns), env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        # a run must end within 180 s; a pass this slow is reported as a
        # failed run, every operation counted once, with no metrics
        print(f"overrun: the worker had not finished {RUN_LIMIT_S:.0f} s "
              f"after the start (--seconds {ns.seconds:g}); it was stopped",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(ops),
                          "failed": len(ops), "metrics": {}}))
        return 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed, reasons = tally(ops, refs_, res)
    for i, why in sorted(reasons.items()):
        print(f"failed: {json.dumps(ops[i])}: {why}", file=sys.stderr)
    metrics = per_layer(res, ops) if ns.trace else end_to_end(res, setup)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
