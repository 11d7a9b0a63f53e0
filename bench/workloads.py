"""Seeded input sets of the benchmark workloads.

Every operation is a plain JSON-able dict, so that the measuring worker
(which runs it through conefourier) and the checking parent (which
computes references with scipy/mpmath) read the same description.  This
module imports neither conefourier nor scipy.

The seed jitters continuous parameters by at most 2% and shuffles the
order of a pass.  It never changes which kinds of operation a pass
holds: the cost of a pass must not depend on the seed, or the spread
between runs of different seeds would measure the inputs, not the code.
"""

from __future__ import annotations

import random

WORKLOADS = ("parseval", "closed-forms")

_JITTER = 0.02


def _jitter(rng: random.Random, value: float) -> float:
    return round(value * (1.0 + rng.uniform(-_JITTER, _JITTER)), 6)


def _check(ident: str, params: dict) -> dict:
    return {"kind": "check", "id": ident, "params": params}


# ----------------------------------------------------------------------
# parseval: d = 1 orthogonality of the A and B families over (n, k)
# states with n <= 2, taken from the grid of test_09/test_10.  Its 21
# pairs per family fall in two cost classes:
#   11 light pairs, those with k != l: 8 of opposite parity, which
#     vanish by symmetry, and 3 of k = 0 against k = 2; all converge on
#     the first level (2401-6827 evaluations);
#   10 pairs with k == l, which need the full nest (46655-219569
#     evaluations), 4 to 40 times the time of a light pair.
# The grid's 11 : 10 split puts its median operation on the boundary
# between the two classes, where the median of a run flips between them
# with the host's speed.  The pass takes every light pair of both
# families and the three cheapest full diagonals, so the median
# operation lies well inside the light class, the grid's majority, with
# some 80 light samples per run around it; the full rows still take
# about 60% of the pass.
# ----------------------------------------------------------------------

_PARSEVAL_STATES = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
_PARSEVAL_LIGHT = tuple(
    (ident, a, b) for ident in ("parseval-a", "parseval-b")
    for i, a in enumerate(_PARSEVAL_STATES) for b in _PARSEVAL_STATES[i:]
    if a[1] != b[1])
_PARSEVAL_FULL = (("parseval-a", (1, 1), (1, 1)),
                  ("parseval-a", (2, 1), (2, 1)),
                  ("parseval-b", (1, 0), (1, 0)))


def _parseval_row(ident, nk, ml, pp):
    row = {"n": nk[0], "k": [nk[1]], "m": ml[0], "l": [ml[1]],
           "a1": pp["a1"], "a2": pp["a2"], "b1": pp["b1"], "b2": pp["b2"]}
    if ident == "parseval-b":
        row.update(c1=pp["c1"], c2=pp["c2"])
    return _check(ident, row)


def _parseval(rng, tiny):
    pp = {name: _jitter(rng, v) for name, v in
          (("a1", 0.8), ("a2", 0.6), ("b1", 0.9), ("b2", 0.7),
           ("c1", 1.1), ("c2", 0.5))}
    rows = (_PARSEVAL_LIGHT[:1] + _PARSEVAL_FULL[:1] if tiny
            else _PARSEVAL_LIGHT + _PARSEVAL_FULL)
    ops = [_parseval_row(i, nk, ml, pp) for i, nk, ml in rows]
    warm = _parseval_row("parseval-a", (0, 0), (1, 1), pp)
    return ops, warm


# ----------------------------------------------------------------------
# closed-forms: CLI table sweeps (ft-f over xi at d = 1; a-family and
# b-family over t in both forms) and direct closed-form calls at d = 2
# and d = 3.  No quadrature runs here.
# ----------------------------------------------------------------------

_TABLE_POINTS = 21


def _fmt(v: float) -> str:
    return repr(float(v))


def _table(fn: str, fixed: dict, axis: str, lo: float, hi: float,
           count: int, **extra) -> dict:
    argv = ["table", fn] + [f"{key}={val}" for key, val in fixed.items()]
    argv.append(f"{axis}={_fmt(lo)}:{_fmt(hi)}:{count}")
    return {"kind": "table", "fn": fn, "fixed": fixed, "axis": axis,
            "lo": lo, "hi": hi, "count": count, "argv": argv, **extra}


def _call(fn: str, **args) -> dict:
    return {"kind": "call", "fn": fn, "args": args}


def _xi(rng, d: int) -> list:
    return [round(rng.uniform(-4.0, 4.0), 6) for _ in range(d)]


# Table sweeps outnumber direct calls by 24 to 10, and every sweep is
# slower than every direct call, so the median operation falls on the
# seventh and eighth cheapest sweeps, inside their cluster rather than
# on its edge, and op_ms_p50 sees the cli dispatch per row.
_FT_F_K = (0, 1, 2, 3)
_FAMILY_NK = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 1))


def _closed_forms(rng, tiny):
    count = 5 if tiny else _TABLE_POINTS
    a, mu = _jitter(rng, 0.8), _jitter(rng, 0.6)
    xmax = _jitter(rng, 4.0)
    ops = []
    for k in ((1,) if tiny else _FT_F_K):
        ops.append(_table("ft-f", {"k": str(k), "a": _fmt(a), "mu": _fmt(mu)},
                          "xi", -xmax, xmax, count,
                          samples=sorted(rng.sample(range(count), 3))))
    pa = {"a1": _jitter(rng, 0.8), "a2": _jitter(rng, 0.6),
          "b1": _jitter(rng, 0.9), "b2": _jitter(rng, 0.7)}
    pb = {**pa, "c1": _jitter(rng, 1.1), "c2": _jitter(rng, 0.5)}
    x = _jitter(rng, 0.7)
    tmax = _jitter(rng, 2.0)
    for fn, pp in (("a-family", pa), ("b-family", pb)):
        for n, k in (((2, 1),) if tiny else _FAMILY_NK):
            fixed = {"n": str(n), "k": str(k), "x": _fmt(x),
                     **{name: _fmt(v) for name, v in pp.items()}}
            samples = sorted(rng.sample(range(count), 3))
            for form in ("hyper", "hahn"):
                ops.append(_table(fn, {**fixed, "form": form}, "t", -tmax,
                                  tmax, count, samples=samples))

    lag = {"a": _jitter(rng, 0.7), "b": _jitter(rng, 1.2),
           "beta": _jitter(rng, 0.5), "mu": _jitter(rng, 0.9)}
    jac = {"a": _jitter(rng, 0.8), "b": _jitter(rng, 1.1),
           "c": _jitter(rng, 0.9), "beta": _jitter(rng, 0.4),
           "mu": _jitter(rng, 0.7), "gamma": _jitter(rng, 0.6)}
    for k in (((1, 2),) if tiny else ((1, 2), (2, 1, 1))):
        d = len(k)
        ops.append(_call("ft_f_closed", k=list(k), a=a, mu=mu, xi=_xi(rng, d)))
        ops.append(_call("ft_g_laguerre_closed", k=list(k), n=sum(k) + 1,
                         params=lag, xi=_xi(rng, d + 1)))
        ops.append(_call("ft_g_jacobi_closed", k=list(k), n=sum(k) + 1,
                         params=jac, xi=_xi(rng, d + 1)))
        xi = _xi(rng, 1)[0]
        for fn in ("theta_hyper", "theta_hahn"):
            ops.append(_call(fn, j=1, d=d, a=a, mu=mu, k=list(k), xi=xi))
    warm = ops[0]
    return ops, warm


_BUILDERS = {"parseval": _parseval, "closed-forms": _closed_forms}


def make_inputs(workload: str, seed: int, tiny: bool = False):
    """(ops, warm_up_op) of one workload for one seed.  The pass order is
    shuffled by the seed; the warm-up operation is not part of a pass."""
    rng = random.Random(f"{workload}:{seed}")
    ops, warm = _BUILDERS[workload](rng, tiny)
    rng.shuffle(ops)
    return ops, warm
