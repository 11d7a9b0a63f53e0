"""One workload in one fresh single-threaded process.

    python3 bench/worker.py --root <checkout> --workload <name> --seed <n>
                            --seconds <s> --trace <0|1> [--setup-only] [--tiny]

Imports conefourier from <root>/src, generates the inputs, makes one
warm-up call, then repeats full passes over the inputs until the run
length is filled and prints one JSON line: pass and operation times,
peak resident memory, the outputs of the first pass, the operations whose
output differed in a later pass, and (with --trace 1) per-layer figures.
With --setup-only it stops after the warm-up call; the parent times the
whole process to get set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import make_inputs  # noqa: E402


def _cx(v) -> list:
    v = complex(v)
    return [v.real, v.imag]


class Runner:
    """Runs operations through the package.  Every call looks the function
    up on the package at call time, so that the tracer's wrappers, when
    installed, see the benchmark's own entry calls too."""

    def __init__(self, cf, cli):
        self.cf = cf
        self.cli = cli

    def run(self, op):
        kind = op["kind"]
        if kind == "check":
            params = {key: tuple(v) if isinstance(v, list) else v
                      for key, v in op["params"].items()}
            rep = self.cf.check_identity(op["id"], params)
            return {"lhs": _cx(rep.lhs), "rhs": _cx(rep.rhs),
                    "passed": bool(rep.passed), "evals": int(rep.evals)}
        if kind == "table":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(op["argv"])
            if code != 0:
                raise RuntimeError(f"table exited {code}")
            lines = buf.getvalue().splitlines()[1:]
            return [[float(c) for c in line.split(",")] for line in lines]
        return _cx(self._call(op["fn"], op["args"]))

    def _call(self, fn, a):
        cf = self.cf
        if fn == "ft_f_closed":
            return cf.ft_f_closed(tuple(a["k"]), a["a"], a["mu"],
                                  cf.FreqVector(a["xi"]))
        if fn == "ft_g_laguerre_closed":
            p = a["params"]
            tp = cf.TransformParamsLaguerre(p["a"], p["b"], p["beta"], p["mu"])
            return cf.ft_g_laguerre_closed(tuple(a["k"]), a["n"], tp,
                                           cf.FreqVector(a["xi"]))
        if fn == "ft_g_jacobi_closed":
            p = a["params"]
            tp = cf.TransformParamsJacobi(p["a"], p["b"], p["c"], p["beta"],
                                          p["mu"], p["gamma"])
            return cf.ft_g_jacobi_closed(tuple(a["k"]), a["n"], tp,
                                         cf.FreqVector(a["xi"]))
        theta = {"theta_hyper": cf.theta_hyper, "theta_hahn": cf.theta_hahn}[fn]
        return theta(a["j"], a["d"], a["a"], a["mu"], tuple(a["k"]), a["xi"])


def _timed_pass(runner, ops):
    outputs, op_s, errors = [], [], {}
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = runner.run(op)
        except Exception:  # a failing operation is counted, not fatal
            out = None
            errors[i] = traceback.format_exc()
        op_s.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, op_s, outputs, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ns = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ns.root, "src"))
    import conefourier as cf
    from conefourier import cli

    ops, warm = make_inputs(ns.workload, ns.seed, ns.tiny)
    runner = Runner(cf, cli)
    runner.run(warm)
    if ns.setup_only:
        return 0

    tracer = None
    if ns.trace:
        from tracer import Tracer
        tracer = Tracer(cf)

    passes, traced_passes, op_s, layer_passes = [], [], [], []
    first, first_errors, mismatched = None, {}, {}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) > len(traced_passes)
        if traced:
            tracer.install()
        try:
            took, times, outputs, errors = _timed_pass(runner, ops)
        finally:
            if traced:
                layer_passes.append(tracer.uninstall())
        (traced_passes if traced else passes).append(took)
        if not traced:
            op_s.extend(times)
        if first is None:
            first, first_errors = outputs, errors
        else:
            for i, out in enumerate(outputs):
                if out != first[i] or i in errors:
                    mismatched[i] = mismatched.get(i, 0) + 1
        elapsed = time.perf_counter() - start
        # stop where the run ends nearest to the requested length; a
        # traced run needs at least one untraced and one traced pass
        typical = statistics.median(passes + traced_passes)
        if tracer is not None and not traced_passes:
            continue
        if elapsed + typical / 2.0 >= ns.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "passes": passes,
        "traced_passes": traced_passes,
        "op_s": op_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "outputs": first,
        "errors": {str(i): e for i, e in first_errors.items()},
        "mismatched": {str(i): n for i, n in mismatched.items()},
    }
    if tracer is not None:
        result["layers"] = layer_passes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
