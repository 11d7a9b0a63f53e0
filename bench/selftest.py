"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload on its tiny input (a few operations per pass, one
second per run) and checks that:

- the untraced run prints exactly the end-to-end metrics of
  BENCHMARK.json, and the traced run exactly its per-layer metrics, each
  with the declared unit, and no operation fails;
- the per-layer counts (*.calls, *.points, quadrature.evals,
  quadrature.integrand_calls) repeat exactly between two traced runs;
- an output moved 2.5 times a check's tolerance is counted as failed,
  for every check of every operation of the tiny inputs (the tiny
  inputs hold diagonal and off-diagonal rows);
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Takes about 30 s.  Exits 0 when every check holds; otherwise raises
SelfTestError naming the check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import refs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

REPEATED = ("quadrature.evals", "quadrature.integrand_calls")


class SelfTestError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise SelfTestError(message)


def _bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _result(workload, trace):
    proc = _bench(workload, trace)
    if proc.returncode != 0:
        raise SelfTestError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(res, declared, label):
    _require(set(res) == {"correct", "attempted", "failed", "metrics"}, label)
    _require(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
             f"{label}: {res['attempted']} attempted, {res['failed']} failed")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    _require(got == want, f"{label}: metrics {sorted(got)} != {sorted(want)}")


# a perturbation this many times a check's tolerance fails whatever the
# error of the unperturbed output, since that error is within one tolerance
_PAST = 2.5


def _perturbed(op, out, ref):
    """Copies of one output, each moved _PAST times the tolerance of one
    check: the reference (lhs, and rhs with its own tolerance, for an
    identity; a sampled row for a table) and, for a table, the property
    that holds on the unsampled rows (symmetry for ft-f, hahn = hyper for
    the families)."""
    if op["kind"] == "check":
        for side, tol in (("lhs", refs._TOL_CHECK[op["id"]]),
                          ("rhs", refs._TOL_NORM)):
            bad = copy.deepcopy(out)
            bad[side][0] += _PAST * tol * ref["scale"]
            yield f"{side} by {_PAST} x {tol:g}", bad
    elif op["kind"] == "table":
        i = min(ref["rows"])
        bad = copy.deepcopy(out)
        bad[i][1] += _PAST * refs._TOL_CLOSED * ref["rows"][i][1]
        yield f"sampled row {i}", bad
        # an unsampled row that is not the centre, which is its own mirror
        j = next(j for j in range(len(out))
                 if j not in ref["rows"] and j != len(out) // 2)
        tol = refs._TOL_CLOSED if op["fn"] == "ft-f" else refs._TOL_FORMS
        bad = copy.deepcopy(out)
        bad[j][1] += _PAST * tol * max(1.0, abs(complex(*out[j][1:])))
        yield f"unsampled row {j}", bad
    else:
        bad = list(out)
        bad[0] += _PAST * refs._TOL_CLOSED * ref["scale"]
        yield f"value by {_PAST} x {refs._TOL_CLOSED:g}", bad


def _check_perturbations(workload):
    import conefourier as cf
    from conefourier import cli
    from worker import Runner

    ops, _ = make_inputs(workload, 7, tiny=True)
    refs_ = [refs.reference(op) for op in ops]
    runner = Runner(cf, cli)
    outputs = [runner.run(op) for op in ops]
    base = {"passes": [1.0], "traced_passes": [], "outputs": outputs,
            "errors": {}, "mismatched": {}}
    _require(run.tally(ops, refs_, base)[1] == 0, f"{workload}: clean run failed")
    for i, op in enumerate(ops):
        for what, out in _perturbed(op, outputs[i], refs_[i]):
            bad = list(outputs)
            bad[i] = out
            failed = run.tally(ops, refs_, {**base, "outputs": bad})[1]
            _require(failed >= 1, f"{workload}: op {i} perturbed ({what}) "
                                  f"was not caught: {json.dumps(op)}")
    changed = {**base, "passes": [1.0, 1.0], "mismatched": {"0": 1}}
    _require(run.tally(ops, refs_, changed)[1] == 1,
             f"{workload}: a changed later pass was not counted")


def _check_without_sources():
    bare = os.path.join(ROOT, ".bench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("closed-forms", 0, cwd=bare)
        _require(proc.returncode != 0, "ran without the package sources")
        _require("metrics" not in proc.stdout, "printed a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
             "BENCHMARK.json lists other workloads")
    for workload in WORKLOADS:
        _check_result(_result(workload, 0), spec["end_to_end"],
                      f"{workload} trace=0")
        traced = [_result(workload, 1) for _ in range(2)]
        for res in traced:
            _check_result(res, spec["per_layer"], f"{workload} trace=1")
        a, b = (res["metrics"] for res in traced)
        for name in a:
            if name.endswith((".calls", ".points")) or name in REPEATED:
                _require(a[name]["value"] == b[name]["value"],
                         f"{workload}: {name} {a[name]['value']} != "
                         f"{b[name]['value']}")
        _check_perturbations(workload)
        print(f"ok {workload}")
    _check_without_sources()
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
