"""References and correctness checks for the benchmark's operations.

Everything here is computed with scipy and mpmath from the defining
integrals or the paper's stated formulas, never by importing
conefourier:

- parseval: the paper's d = 1 norm constants of the A and B families,
  evaluated in mpmath; off-diagonals must vanish relative to the
  geometric mean of the two diagonal norms.
- closed-forms: the Fourier transforms of f_d and of the g functions,
  and the Theta factors, separate into one-dimensional transforms, each
  computed by QUADPACK's oscillatory rule (scipy) from its defining
  integral, e.g. 2 int_0^inf sech^(2a) x C_k^mu(tanh x) cos(xi x) dx.
  Each is judged against an upper bound of the L1 norm of the function
  transformed, which bounds the transform itself.  The A/B family
  tables are compared with an mpmath evaluation of their hypergeometric
  formulas at sampled rows, and, on every row, hyper form against Hahn
  form.  ft-f tables must satisfy ft(-xi) = conj ft(xi).

No reference is stored; each run computes the ones its seed needs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy import special as sp

mp.mp.dps = 30

# tolerances: the identity's own tolerance for quadrature results; for
# closed forms an error bound relative to the L1 norm of the transformed
# function (which bounds |ft|), far above the ~1e-15 agreement observed
_TOL_CHECK = {"parseval-a": 1e-5, "parseval-b": 1e-5}
_TOL_NORM = 1e-11
_TOL_CLOSED = 1e-11
_TOL_FORMS = 1e-10


# ----------------------------------------------------------------------
# parseval norms (d = 1)
# ----------------------------------------------------------------------

def _gegenbauer_norm(k: int, mu):
    return (mp.pi * mp.power(2, 1 - 2 * mu) * mp.gamma(k + 2 * mu)
            / (mp.factorial(k) * (k + mu) * mp.gamma(mu) ** 2))


def parseval_norm(ident: str, n: int, k1: int, p: dict) -> float:
    a1, a2, b1, b2 = (mp.mpf(p[x]) for x in ("a1", "a2", "b1", "b2"))
    h = _gegenbauer_norm(k1, a1 + a2 - mp.mpf(1) / 2)
    if ident == "parseval-a":
        num = (4 * mp.pi ** 2 * mp.power(2, -(2 * a1 + 2 * a2 + b1 + b2 + 2 * k1) + 2)
               * h * mp.factorial(k1) ** 2 * mp.factorial(n - k1)
               * mp.gamma(b1 + b2 + n + k1) * mp.gamma(2 * a1) * mp.gamma(2 * a2))
        den = (mp.rf(2 * k1 + b1 + b2, n - k1) ** 2
               * mp.rf(2 * a1 + 2 * a2 - 1, k1) ** 2)
        return float(num / den)
    c1, c2 = mp.mpf(p["c1"]), mp.mpf(p["c2"])
    bb, cc = b1 + b2, c1 + c2
    num = (mp.pi ** 2 * mp.power(2, -2 * a1 - 2 * a2 + 5) * h
           * mp.gamma(n + k1 + bb) * mp.gamma(n - k1 + cc)
           * mp.factorial(k1) ** 2 * mp.factorial(n - k1)
           * mp.gamma(k1 + b1 + c1) * mp.gamma(k1 + b2 + c2)
           * mp.gamma(2 * a1) * mp.gamma(2 * a2))
    den = (mp.rf(2 * k1 + bb, n - k1) ** 2 * mp.rf(2 * a1 + 2 * a2 - 1, k1) ** 2
           * (2 * n + bb + cc - 1) * mp.gamma(n + k1 + bb + cc - 1))
    return float(num / den)


# ----------------------------------------------------------------------
# one-dimensional Fourier transforms from their defining integrals
# ----------------------------------------------------------------------

_QUAD = {"epsabs": 1e-14, "epsrel": 1e-12, "limit": 400}


def _fourier(h, lo: float, hi: float, xi: float) -> complex:
    """int_lo^hi exp(-i xi t) h(t) dt for a real h by QUADPACK's
    oscillatory rule (QAWO); h must be negligible outside [lo, hi]."""
    re = integrate.quad(h, lo, hi, weight="cos", wvar=xi, **_QUAD)[0]
    im = integrate.quad(h, lo, hi, weight="sin", wvar=xi, **_QUAD)[0] if xi else 0.0
    return complex(re, -im)


@lru_cache(maxsize=None)
def ft_axis(alpha: float, lam: float, k: int, xi: float) -> complex:
    """int exp(-i xi x) sech(x)^(2 alpha) C_k^lam(tanh x) dx over R, as
    2 int_0^inf ... cos for even k and -2i int_0^inf ... sin for odd k."""
    def h(x):
        log_sech = math.log(2.0) - np.logaddexp(x, -x)
        return math.exp(2.0 * alpha * log_sech) * sp.eval_gegenbauer(
            k, lam, math.tanh(x))
    half = _fourier(h, 0.0, 60.0, xi)
    return complex(2.0 * half.real, 0.0) if k % 2 == 0 \
        else complex(0.0, 2.0 * half.imag)


def ft_axis_scale(alpha: float, lam: float, k: int) -> float:
    """An upper bound of int |sech^(2 alpha) C_k^lam(tanh)| dx:
    |C_k^lam| <= C_k^lam(1) on [-1, 1] for lam > 0."""
    peak = abs(float(sp.eval_gegenbauer(k, lam, 1.0)))
    return peak * math.sqrt(math.pi) * math.exp(
        math.lgamma(alpha) - math.lgamma(alpha + 0.5))


def _ball_axes(k, a, mu):
    """(alpha_j, lambda_j, k_j) of the one-variable factors of f_d."""
    d = len(k)
    out = []
    for j in range(1, d + 1):
        tail = sum(k[j:])
        out.append((a + tail / 2.0 + (d - j) / 4.0,
                    tail + mu + (d - j) / 2.0, k[j - 1]))
    return out


def ft_f(k, a, mu, xi):
    value, scale = 1.0 + 0j, 1.0
    for (alpha, lam, kj), x in zip(_ball_axes(k, a, mu), xi):
        value *= ft_axis(alpha, lam, kj, x)
        scale *= ft_axis_scale(alpha, lam, kj)
    return value, scale


def _t_laguerre(k, n, p, d, xi):
    """int exp(-i xi t) exp(-e^t/2 + (b+|k|) t) L_m^alpha(e^t) dt."""
    kt = sum(k)
    m = n - kt
    alpha = 2 * kt + 2 * p["mu"] + p["beta"] + d - 1
    c = p["b"] + kt

    def h(t):
        u = math.exp(t)
        return math.exp(-0.5 * u + c * t) * sp.eval_genlaguerre(m, alpha, u)
    # e^(c t) < 1e-20 below t = -50/c; exp(-e^t/2) underflows past t = 7
    value = _fourier(h, -50.0 / c, 7.0, xi)
    # |L_m^alpha(u)| <= sum_j |coefficient_j| u^j, integrated exactly
    scale = sum(abs(float(sp.binom(m + alpha, m - j))) / math.factorial(j)
                * math.gamma(c + j) * 2.0 ** (c + j) for j in range(m + 1))
    return value, scale


def _t_jacobi(k, n, p, d, xi):
    """int exp(-i xi t) 2^-|k| (1+tanh t)^(b+|k|) (1-tanh t)^c
    P_m^(alpha, gamma)(-tanh t) dt."""
    kt = sum(k)
    m = n - kt
    alpha = 2 * kt + 2 * p["mu"] + p["beta"] + d - 1
    B, C, g = p["b"] + kt, p["c"], p["gamma"]

    def h(t):
        log_p = math.log(2.0) - np.logaddexp(0.0, -2.0 * t)  # log(1+tanh t)
        log_m = math.log(2.0) - np.logaddexp(0.0, 2.0 * t)   # log(1-tanh t)
        return (2.0 ** (-kt) * math.exp(B * log_p + C * log_m)
                * sp.eval_jacobi(m, alpha, g, -math.tanh(t)))
    value = _fourier(h, -25.0 / B, 25.0 / C, xi)
    # |P_m| peaks at an endpoint; the rest is a Beta integral
    peak = max(abs(float(sp.eval_jacobi(m, alpha, g, 1.0))),
               abs(float(sp.eval_jacobi(m, alpha, g, -1.0))))
    scale = (2.0 ** (-kt) * peak * 2.0 ** (B + C - 1.0)
             * math.exp(math.lgamma(B) + math.lgamma(C) - math.lgamma(B + C)))
    return value, scale


def ft_g(family, k, n, p, xi):
    d = len(k)
    ball, ball_scale = ft_f(k, p["a"], p["mu"], xi[:d])
    t_part = _t_laguerre if family == "laguerre" else _t_jacobi
    tv, ts = t_part(k, n, p, d, xi[d])
    return ball * tv, ball_scale * ts


def theta(j, d, a, mu, k, xi):
    """Theta_j is the axis-j transform without its power of two and
    Pochhammer weight: ft_axis = 2^(2 alpha - 1) (2 lam)_k / k! Theta."""
    alpha, lam, kj = _ball_axes(k, a, mu)[j - 1]
    weight = float(mp.power(2, 2 * alpha - 1) * mp.rf(2 * lam, kj)
                   / mp.factorial(kj))
    return (ft_axis(alpha, lam, kj, xi) / weight,
            ft_axis_scale(alpha, lam, kj) / weight)


# ----------------------------------------------------------------------
# Parseval families at d = 1 from their hypergeometric formulas
# ----------------------------------------------------------------------

def family(fn, t, x, k, n, p) -> complex:
    a1, a2, b1 = mp.mpf(p["a1"]), mp.mpf(p["a2"]), mp.mpf(p["b1"])
    abs_a, abs_b = a1 + a2, b1 + mp.mpf(p["b2"])
    t, x = mp.mpc(t), mp.mpc(x)
    axis = (mp.gamma(a1 - x / 2) * mp.gamma(a1 + x / 2)
            * mp.hyp3f2(-k, k + 2 * abs_a - 1, a1 + x / 2, abs_a, 2 * a1, 1))
    if fn == "a-family":
        tpart = mp.hyp2f1(-(n - k), b1 + k - t, 2 * k + abs_b, 2) * mp.rf(b1 - t, k)
    else:
        c1 = mp.mpf(p["c1"])
        abs_c = c1 + mp.mpf(p["c2"])
        tpart = mp.hyp3f2(-(n - k), n + k + abs_b + abs_c - 1, k + b1 - t / 2,
                          2 * k + abs_b, k + b1 + c1, 1) * mp.rf(b1 - t / 2, k)
    return complex(tpart * axis)


# ----------------------------------------------------------------------
# references and checks per operation
# ----------------------------------------------------------------------

def _close(got, want, scale, tol) -> bool:
    got = complex(got[0], got[1]) if isinstance(got, list) else complex(got)
    return (math.isfinite(got.real) and math.isfinite(got.imag)
            and abs(got - want) <= tol * scale)


def reference(op: dict):
    """The independent values one operation's output is checked against."""
    kind = op["kind"]
    if kind == "check":
        ident, p = op["id"], op["params"]
        nk = parseval_norm(ident, p["n"], p["k"][0], p)
        ml = parseval_norm(ident, p["m"], p["l"][0], p)
        return {"value": nk if (p["n"], p["k"]) == (p["m"], p["l"]) else 0.0,
                "scale": math.sqrt(nk * ml)}
    if kind == "table":
        f = op["fixed"]
        xs = np.linspace(op["lo"], op["hi"], op["count"])
        rows = {}
        for i in op["samples"]:
            if op["fn"] == "ft-f":
                k = int(f["k"])
                alpha, lam = float(f["a"]), float(f["mu"])
                rows[i] = (ft_axis(alpha, lam, k, float(xs[i])),
                           ft_axis_scale(alpha, lam, k))
            else:
                p = {key: float(v) for key, v in f.items()
                     if key not in ("n", "k", "x", "form")}
                val = family(op["fn"], float(xs[i]), float(f["x"]),
                             int(f["k"]), int(f["n"]), p)
                rows[i] = (val, max(abs(val), 1.0))
        return {"rows": rows, "axis": xs.tolist()}
    a = op["args"]
    fn = op["fn"]
    if fn == "ft_f_closed":
        value, scale = ft_f(a["k"], a["a"], a["mu"], a["xi"])
    elif fn.startswith("ft_g"):
        family_name = "laguerre" if "laguerre" in fn else "jacobi"
        value, scale = ft_g(family_name, a["k"], a["n"], a["params"], a["xi"])
    else:
        value, scale = theta(a["j"], a["d"], a["a"], a["mu"], a["k"], a["xi"])
    return {"value": value, "scale": scale}


def check(op: dict, out, ref, outputs: list, ops: list) -> str:
    """'' if the output is correct, else the reason.  outputs and ops are
    the whole pass, for properties that relate two operations."""
    if out is None:
        return "raised"
    kind = op["kind"]
    if kind == "check":
        if not out["passed"]:
            return "report did not pass"
        tol = _TOL_CHECK[op["id"]]
        if not _close(out["lhs"], ref["value"], ref["scale"], tol):
            return f"lhs off the reference by more than {tol}"
        # rhs: the closed-form norm, or the exact 0 of an off-diagonal
        if not _close(out["rhs"], ref["value"], ref["scale"], _TOL_NORM):
            return f"rhs off the reference by more than {_TOL_NORM}"
        return ""
    if kind == "table":
        if len(out) != op["count"]:
            return "wrong number of rows"
        for i, (x, re, im) in enumerate(out):
            if not math.isclose(x, ref["axis"][i], rel_tol=1e-15, abs_tol=1e-15):
                return f"row {i} has the wrong abscissa"
            if not (math.isfinite(re) and math.isfinite(im)):
                return f"row {i} is not finite"
        for i, (want, scale) in ref["rows"].items():
            if not _close(out[i][1:], want, scale, _TOL_CLOSED):
                return f"row {i} off the mpmath reference"
        if op["fn"] == "ft-f":
            n = len(out)
            for i in range(n):
                a, b = out[i], out[n - 1 - i]
                bound = _TOL_CLOSED * max(1.0, abs(complex(a[1], a[2])))
                if abs(complex(a[1], a[2]) - complex(b[1], -b[2])) > bound:
                    return f"ft(-xi) != conj ft(xi) at row {i}"
        elif op["fixed"]["form"] == "hahn":
            twin = next(j for j, o in enumerate(ops)
                        if o["kind"] == "table" and o["fn"] == op["fn"]
                        and o["fixed"] == {**op["fixed"], "form": "hyper"})
            other = outputs[twin]
            if other is None:
                return "hyper twin raised"
            for i, (row, hy) in enumerate(zip(out, other)):
                a, b = complex(row[1], row[2]), complex(hy[1], hy[2])
                if abs(a - b) > _TOL_FORMS * max(1.0, abs(b)):
                    return f"hahn and hyper forms disagree at row {i}"
        return ""
    if not _close(out, ref["value"], ref["scale"], _TOL_CLOSED):
        return "off the mpmath reference"
    if op["fn"] == "theta_hahn":
        a = op["args"]
        twin = next(j for j, o in enumerate(ops)
                    if o["kind"] == "call" and o["fn"] == "theta_hyper"
                    and o["args"] == a)
        other = outputs[twin]
        if other is None or abs(complex(*out) - complex(*other)) > \
                _TOL_FORMS * max(1.0, abs(complex(*other))):
            return "theta_hahn and theta_hyper disagree"
    return ""
