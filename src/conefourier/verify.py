"""Identity catalog and check engine.

Every identity the library claims is encoded here as a named check that
compares a closed-form value against an independently computed oracle
(quadrature, dual evaluation route, or finite differences) and emits a
structured report.  Individual failures are data, never crashes: oracle
non-convergence comes back as a failed report carrying the reason.

Tolerance policy (per identity class): algebraic identities compare two
exact evaluation routes at rel 1e-11; single-integral quadrature checks
run at rel 1e-10; two-dimensional Fourier integrals at 1e-6; Parseval
integrals, products of one 1-d integral per axis, at 1e-5.  Off-diagonal
orthogonality entries are judged by absolute error relative to the
diagonal scale, since relative error at a true zero is meaningless.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .kernel import DomainError, gamma_cx, pochhammer
from .multivariate import (JacobiConeParams, LaguerreConeParams, MultiIndex,
                           _as_multiindex, _ball_boxes, ball_norm, ball_op,
                           ball_weight, cone_inner_product_separated,
                           jacobi_cone, laguerre_cone)
from .quadrature import (IntegralResult, NonConvergenceError, QuadratureConfig,
                         fourier_num, integrate_1d, integrate_tensor,
                         parseval_lhs)
from .transforms import (FreqVector, ParsevalParams, TransformParamsJacobi,
                         TransformParamsLaguerre, a_family_factors,
                         a_norm_rhs, b_family_factors, b_norm_rhs, f_d,
                         f_d_via_g1, f_d_via_g2, ft_f_closed,
                         ft_g_jacobi_closed, ft_g_laguerre_closed, g_jacobi,
                         g_laguerre, theta_hahn, theta_hyper)
from .univariate import (gegenbauer, gegenbauer_norm, jacobi, jacobi_norm,
                         laguerre, laguerre_norm)

__all__ = [
    "IDENTITY_IDS",
    "CheckReport",
    "SuiteResult",
    "check_identity",
    "run_suite",
    "default_grids",
]

IDENTITY_IDS = (
    "gegenbauer-orth",
    "laguerre-orth",
    "jacobi-orth",
    "ball-orth",
    "ball-eigen",
    "cone-orth-laguerre",
    "cone-orth-jacobi",
    "ft-f",
    "ft-g-laguerre",
    "ft-g-jacobi",
    "theta-dual",
    "fd-recursion",
    "parseval-a",
    "parseval-b",
    "norm-constants",
)

# rel tolerance by identity
_TOL = {
    "gegenbauer-orth": 1e-10,
    "laguerre-orth": 1e-10,
    "jacobi-orth": 1e-10,
    "ball-orth": 1e-8,
    "ball-eigen": 1e-4,
    "cone-orth-laguerre": 1e-6,
    "cone-orth-jacobi": 1e-6,
    "ft-f": 1e-6,
    "ft-g-laguerre": 1e-6,
    "ft-g-jacobi": 1e-6,
    "theta-dual": 1e-11,
    "fd-recursion": 1e-11,
    "parseval-a": 1e-5,
    "parseval-b": 1e-5,
    "norm-constants": 1e-11,
}


@dataclass(frozen=True)
class CheckReport:
    """One identity check: closed form (lhs) against oracle (rhs).

    rel_err is abs_err over |rhs|, except that orthogonality
    off-diagonals divide by the closed-form diagonal scale and an
    exactly-zero rhs with no scale falls back to abs_err.  passed
    requires finite lhs/rhs and rel_err <= tol.  reason is non-empty
    only when the oracle failed; it is diagnostic and not serialized.
    """
    id: str
    params: tuple
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    seconds: float
    evals: int
    reason: str = ""

    def params_dict(self) -> dict:
        return dict(self.params)


def _freeze_params(params: dict) -> tuple:
    out = []
    for key in sorted(params):
        v = params[key]
        if isinstance(v, MultiIndex):
            v = v.components
        elif isinstance(v, FreqVector):
            v = v.components
        elif isinstance(v, (list, tuple, np.ndarray)):
            v = tuple(float(c) if not float(c).is_integer() else int(c)
                      for c in v)
        elif isinstance(v, (np.floating, float)):
            v = float(v)
        elif isinstance(v, (np.integer, int)):
            v = int(v)
        out.append((key, v))
    return tuple(out)


def _param_sort_key(frozen: tuple) -> tuple:
    return tuple((k, repr(v)) for k, v in frozen)


def _report(id: str, params: dict, lhs, rhs, evals: int, seconds: float,
            scale: float | None = None, reason: str = "") -> CheckReport:
    lhs = complex(lhs)
    rhs = complex(rhs)
    tol = _TOL[id]
    abs_err = abs(lhs - rhs)
    if scale is not None:
        rel_err = abs_err / scale
    elif rhs != 0.0:
        rel_err = abs_err / abs(rhs)
    else:
        rel_err = abs_err
    finite = (math.isfinite(lhs.real) and math.isfinite(lhs.imag)
              and math.isfinite(rhs.real) and math.isfinite(rhs.imag))
    passed = bool(finite and not reason and rel_err <= tol)
    return CheckReport(id, _freeze_params(params), lhs, rhs, abs_err,
                       float(rel_err), tol, passed, seconds, int(evals), reason)


# ----------------------------------------------------------------------
# Univariate orthogonality
# ----------------------------------------------------------------------

_CFG_1D = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11)
_CFG_BALL = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
_CFG_CONE = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
# the tanh substitution leaves an endpoint exponent of a - 1 on each
# x-axis, which caps double-exponential accuracy near 2.5e-8 at a = 1/2;
# demanding more would spin the ladder without converging
_CFG_FOURIER = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
_CFG_PARSEVAL = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)


def _check_gegenbauer_orth(params, cfg):
    n, m, mu = int(params["n"]), int(params["m"]), float(params["mu"])
    res = integrate_1d(
        lambda x: gegenbauer(n, mu, x) * gegenbauer(m, mu, x)
        * (1.0 - x * x) ** (mu - 0.5),
        (-1.0, 1.0), cfg or _CFG_1D)
    if n == m:
        return res.value, gegenbauer_norm(n, mu), None, res.evaluations
    scale = math.sqrt(gegenbauer_norm(n, mu) * gegenbauer_norm(m, mu))
    return res.value, 0.0, scale, res.evaluations


def _check_laguerre_orth(params, cfg):
    n, m, alpha = int(params["n"]), int(params["m"]), float(params["alpha"])

    def integrand(t):
        # exp-sinh probes t where t^n overflows against e^-t; the true
        # product is below 1e-230 past t = 600
        t = np.asarray(t, dtype=np.float64)
        dead = t > 600.0
        ts = np.where(dead, 1.0, t)
        val = (laguerre(n, alpha, ts) * laguerre(m, alpha, ts)
               * ts ** alpha * np.exp(-ts))
        return np.where(dead, 0.0, val)

    res = integrate_1d(integrand, (0.0, math.inf), cfg or _CFG_1D)
    if n == m:
        return res.value, laguerre_norm(n, alpha), None, res.evaluations
    scale = math.sqrt(laguerre_norm(n, alpha) * laguerre_norm(m, alpha))
    return res.value, 0.0, scale, res.evaluations


def _check_jacobi_orth(params, cfg):
    n, m = int(params["n"]), int(params["m"])
    alpha, beta = float(params["alpha"]), float(params["beta"])
    res = integrate_1d(
        lambda t: jacobi(n, alpha, beta, t) * jacobi(m, alpha, beta, t)
        * (1.0 - t) ** alpha * (1.0 + t) ** beta,
        (-1.0, 1.0), cfg or _CFG_1D)
    if n == m:
        return res.value, jacobi_norm(n, alpha, beta), None, res.evaluations
    scale = math.sqrt(jacobi_norm(n, alpha, beta) * jacobi_norm(m, alpha, beta))
    return res.value, 0.0, scale, res.evaluations


# ----------------------------------------------------------------------
# Ball basis
# ----------------------------------------------------------------------

# Deep tanh-sinh levels place nodes within 3e-15 of the ball boundary,
# under ball_op's partial-norm guard.  Shrinking such points radially
# onto ||x||^2 = 1 - 1e-12 keeps every partial norm clear of the guard
# (partial sums never exceed the full norm) and perturbs the integral
# by O(1e-15): the displaced nodes carry double-exponentially small
# quadrature weight.
_NSQ_LIMIT = 1.0 - 1e-12


def _check_ball_orth(params, cfg):
    k = _as_multiindex(params["k"])
    l = _as_multiindex(params["l"])
    mu = float(params["mu"])
    if k.d != l.d:
        raise DomainError("ball-orth needs multiindices of equal dimension")

    def integrand(*xs):
        xs = [np.asarray(x, dtype=np.float64) for x in xs]
        nsq = sum(x * x for x in xs)
        shrink = np.sqrt(_NSQ_LIMIT / np.maximum(nsq, _NSQ_LIMIT))
        c = [x * shrink for x in xs]
        return (ball_op(k, mu, c) * ball_op(l, mu, c) * ball_weight(mu, c))

    res = integrate_tensor(integrand, _ball_boxes(k.d), cfg or _CFG_BALL)
    if k == l:
        return res.value, ball_norm(k, mu), None, res.evaluations
    scale = math.sqrt(ball_norm(k, mu) * ball_norm(l, mu))
    return res.value, 0.0, scale, res.evaluations


_FD_STEP = 1e-4


def _check_ball_eigen(params, cfg):
    k = _as_multiindex(params["k"])
    mu = float(params["mu"])
    x = tuple(float(v) for v in params["x"])
    d = k.d
    if len(x) != d:
        raise DomainError(f"point has {len(x)} coordinates, expected {d}")
    h = _FD_STEP

    def P(pt):
        return float(ball_op(k, mu, pt))

    def shifted(i, s1, j=None, s2=0.0):
        pt = list(x)
        pt[i] += s1
        if j is not None:
            pt[j] += s2
        return P(pt)

    center = P(x)
    evals = 1
    grad = []
    lap = 0.0
    pures = []
    for i in range(d):
        fp, fm = shifted(i, h), shifted(i, -h)
        evals += 2
        grad.append((fp - fm) / (2.0 * h))
        pures.append((fp - 2.0 * center + fm) / (h * h))
        lap += pures[-1]
    quad = 0.0
    for i in range(d):
        quad += x[i] * x[i] * pures[i]
        for j in range(i + 1, d):
            pp = shifted(i, h, j, h)
            pm = shifted(i, h, j, -h)
            mp = shifted(i, -h, j, h)
            mm = shifted(i, -h, j, -h)
            evals += 4
            mixed = (pp - pm - mp + mm) / (4.0 * h * h)
            quad += 2.0 * x[i] * x[j] * mixed
    lhs = (lap - quad - (2.0 * mu + d) * sum(x[i] * grad[i] for i in range(d))
           - d * (2.0 * mu - 1.0) * center)
    n = k.total
    rhs = -(n + d) * (n + 2.0 * mu - 1.0) * center
    scale = max(abs(rhs), (n + d) * abs(n + 2.0 * mu - 1.0) * 0.05)
    return lhs, rhs, scale, evals


# ----------------------------------------------------------------------
# Cone orthogonality (separated iterated integral; diagonal rows compare
# the primary rule against the adaptive-GK path, off-diagonals vanish)
# ----------------------------------------------------------------------

def _cone_state(family, params):
    if family == "laguerre":
        cone = LaguerreConeParams(float(params["beta"]), float(params["mu"]))
        basis = lambda n, k: (lambda t, x: laguerre_cone(k, n, cone, (t, x)))
    else:
        cone = JacobiConeParams(float(params["beta"]), float(params["mu"]),
                                float(params["gamma"]))
        basis = lambda n, k: (lambda t, x: jacobi_cone(k, n, cone, (t, x)))
    return cone, basis


def _check_cone_orth(family, params, cfg):
    n, m = int(params["n"]), int(params["m"])
    k = _as_multiindex(params["k"])
    l = _as_multiindex(params["l"])
    cone, basis = _cone_state(family, params)
    base = cfg or _CFG_CONE
    d = k.d
    res = cone_inner_product_separated(basis(n, k), basis(m, l), d, cone, base)
    if n == m and k == l:
        gk = cone_inner_product_separated(
            basis(n, k), basis(m, l), d, cone, replace(base, rule="adaptive-GK"))
        return res.value, gk.value, None, res.evaluations + gk.evaluations
    dn = cone_inner_product_separated(basis(n, k), basis(n, k), d, cone, base)
    dm = cone_inner_product_separated(basis(m, l), basis(m, l), d, cone, base)
    scale = math.sqrt(abs(dn.value) * abs(dm.value))
    return res.value, 0.0, scale, res.evaluations


# ----------------------------------------------------------------------
# Fourier transform identities
# ----------------------------------------------------------------------

def _ft_scale(res, base):
    # odd symmetry makes some transforms vanish exactly; dividing by a
    # quadrature value of ~1e-17 there would report rel_err 1, so the
    # error is judged against the oracle's own resolution instead
    return max(abs(res.value), 10.0 * base.abs_tol)


def _check_ft_f(params, cfg):
    k = _as_multiindex(params["k"])
    a, mu = float(params["a"]), float(params["mu"])
    xi = FreqVector(params["xi"])
    lhs = ft_f_closed(k, a, mu, xi)
    base = cfg or _CFG_FOURIER
    res = fourier_num(lambda *xs: f_d(xs, k, a, mu), xi, base)
    return lhs, res.value, _ft_scale(res, base), res.evaluations


def _check_ft_g_laguerre(params, cfg):
    k = _as_multiindex(params["k"])
    n = int(params["n"])
    tp = TransformParamsLaguerre(float(params["a"]), float(params["b"]),
                                 float(params["beta"]), float(params["mu"]))
    xi = FreqVector(params["xi"])
    lhs = ft_g_laguerre_closed(k, n, tp, xi)
    base = cfg or _CFG_FOURIER
    res = fourier_num(lambda *cs: g_laguerre(cs[-1], cs[:-1], k, n, tp),
                      xi, base, t_axis="laguerre")
    return lhs, res.value, _ft_scale(res, base), res.evaluations


def _check_ft_g_jacobi(params, cfg):
    k = _as_multiindex(params["k"])
    n = int(params["n"])
    tp = TransformParamsJacobi(float(params["a"]), float(params["b"]),
                               float(params["c"]), float(params["beta"]),
                               float(params["mu"]), float(params["gamma"]))
    xi = FreqVector(params["xi"])
    lhs = ft_g_jacobi_closed(k, n, tp, xi)
    base = cfg or _CFG_FOURIER
    res = fourier_num(lambda *cs: g_jacobi(cs[-1], cs[:-1], k, n, tp),
                      xi, base, t_axis="jacobi")
    return lhs, res.value, _ft_scale(res, base), res.evaluations


def _check_theta_dual(params, cfg):
    j, d = int(params["j"]), int(params["d"])
    k = _as_multiindex(params["k"])
    a, mu, xi = float(params["a"]), float(params["mu"]), float(params["xi"])
    return (theta_hyper(j, d, a, mu, k, xi),
            theta_hahn(j, d, a, mu, k, xi), None, 0)


def _check_fd_recursion(params, cfg):
    k = _as_multiindex(params["k"])
    a, mu = float(params["a"]), float(params["mu"])
    x = tuple(float(v) for v in params["x"])
    route = str(params["route"])
    if route not in ("g1", "g2"):
        raise DomainError(f"unknown recursion route {route!r}")
    lhs = f_d(x, k, a, mu)
    rhs = f_d_via_g1(x, k, a, mu) if route == "g1" else f_d_via_g2(x, k, a, mu)
    return lhs, rhs, max(1.0, abs(rhs)), 0


# ----------------------------------------------------------------------
# Parseval families.  The orthogonality integrand
#     Gamma-weight(t) * Fam(it, ix; p1) * Fam(-it, -ix; p2-swapped)
# is separable: the family factors split it into a t pair, which carries
# the Gamma weights, and one pair per axis, fed to parseval_lhs as
# F_j * conj(G_j) with conj(G_j) supplying the swapped factor
# (Gamma(conj z) = conj Gamma(z) on the real axis makes the split exact).
# ----------------------------------------------------------------------

def _parseval_params(params) -> ParsevalParams:
    c1 = params.get("c1")
    c2 = params.get("c2")
    return ParsevalParams(float(params["a1"]), float(params["a2"]),
                          float(params["b1"]), float(params["b2"]),
                          None if c1 is None else float(c1),
                          None if c2 is None else float(c2))


def _check_parseval(family, params, cfg):
    n, m = int(params["n"]), int(params["m"])
    k = _as_multiindex(params["k"])
    l = _as_multiindex(params["l"])
    if k.d != l.d:
        raise DomainError("parseval checks need multiindices of equal dimension")
    pp = _parseval_params(params)
    swapped = ParsevalParams(pp.a2, pp.a1, pp.b2, pp.b1, pp.c2, pp.c1)
    if family == "a":
        factors, norm = a_family_factors, a_norm_rhs
        weight_f = lambda t: gamma_cx(pp.b1 - 1j * t)
        weight_g = lambda t: gamma_cx(pp.b2 - 1j * t)
    else:
        factors, norm = b_family_factors, b_norm_rhs
        weight_f = lambda t: (gamma_cx(pp.b1 - 0.5j * t)
                              * gamma_cx(pp.c1 + 0.5j * t))
        weight_g = lambda t: (gamma_cx(pp.b2 - 0.5j * t)
                              * gamma_cx(pp.c2 + 0.5j * t))
    (t_f, axes_f), (t_g, axes_g) = factors(k, n, pp), factors(l, m, swapped)
    pairs = [(lambda t: weight_f(t) * t_f(1j * t),
              lambda t: weight_g(t) * np.conj(t_g(-1j * t)))]
    pairs += [(lambda x, f=f: f(1j * x), lambda x, g=g: np.conj(g(-1j * x)))
              for f, g in zip(axes_f, axes_g)]
    # keyword arguments: callers that wrap positional integrand arguments
    # (bench/tracer.py) must not mistake the pair list for an integrand
    res = parseval_lhs(pairs=pairs, cfg=cfg or _CFG_PARSEVAL)
    if n == m and k == l:
        return res.value, norm(n, k, pp), None, res.evaluations
    scale = math.sqrt(norm(n, k, pp) * norm(m, l, pp))
    return res.value, 0.0, scale, res.evaluations


# ----------------------------------------------------------------------
# Norm-constant cross checks (dual assembly routes, no quadrature)
# ----------------------------------------------------------------------

def _a_norm_d1_display(n: int, k1: int, pp: ParsevalParams) -> float:
    """The one-dimensional orthogonality constant assembled directly from
    plain Gamma/Pochhammer products (the log-space general-d assembly in
    a_norm_rhs must reduce to this)."""
    h = ball_norm(MultiIndex([k1]), pp.mu)
    num = (4.0 * math.pi ** 2
           * 2.0 ** (-(2 * pp.a1 + 2 * pp.a2 + pp.b1 + pp.b2 + 2 * k1) + 2)
           * h * math.factorial(k1) ** 2 * math.factorial(n - k1)
           * math.gamma(pp.b1 + pp.b2 + n + k1)
           * math.gamma(2 * pp.a1) * math.gamma(2 * pp.a2))
    den = (pochhammer(2 * k1 + pp.b1 + pp.b2, n - k1) ** 2
           * pochhammer(2 * pp.a1 + 2 * pp.a2 - 1.0, k1) ** 2)
    return num / den


def _b_norm_d1_display(n: int, k1: int, pp: ParsevalParams) -> float:
    h = ball_norm(MultiIndex([k1]), pp.mu)
    num = (math.pi ** 2 * 2.0 ** (-2 * pp.a1 - 2 * pp.a2 + 5) * h
           * math.gamma(n + k1 + pp.abs_b) * math.gamma(n - k1 + pp.abs_c)
           * math.factorial(k1) ** 2 * math.factorial(n - k1)
           * math.gamma(k1 + pp.b1 + pp.c1) * math.gamma(k1 + pp.b2 + pp.c2)
           * math.gamma(2 * pp.a1) * math.gamma(2 * pp.a2))
    den = (pochhammer(2 * k1 + pp.abs_b, n - k1) ** 2
           * pochhammer(2 * pp.a1 + 2 * pp.a2 - 1.0, k1) ** 2
           * (2 * n + pp.abs_b + pp.abs_c - 1.0)
           * math.gamma(n + k1 + pp.abs_b + pp.abs_c - 1.0))
    return num / den


def _check_norm_constants(params, cfg):
    which = str(params["which"])
    if which == "gegenbauer-vs-ball":
        n, mu = int(params["n"]), float(params["mu"])
        return ball_norm(MultiIndex([n]), mu), gegenbauer_norm(n, mu), None, 0
    if which == "a-norm-d1":
        n, k1 = int(params["n"]), int(params["k1"])
        pp = _parseval_params(params)
        return (a_norm_rhs(n, MultiIndex([k1]), pp),
                _a_norm_d1_display(n, k1, pp), None, 0)
    if which == "b-norm-d1":
        n, k1 = int(params["n"]), int(params["k1"])
        pp = _parseval_params(params)
        return (b_norm_rhs(n, MultiIndex([k1]), pp),
                _b_norm_d1_display(n, k1, pp), None, 0)
    raise DomainError(f"unknown norm-constants row {which!r}")


_BUILDERS = {
    "gegenbauer-orth": _check_gegenbauer_orth,
    "laguerre-orth": _check_laguerre_orth,
    "jacobi-orth": _check_jacobi_orth,
    "ball-orth": _check_ball_orth,
    "ball-eigen": _check_ball_eigen,
    "cone-orth-laguerre": lambda p, c: _check_cone_orth("laguerre", p, c),
    "cone-orth-jacobi": lambda p, c: _check_cone_orth("jacobi", p, c),
    "ft-f": _check_ft_f,
    "ft-g-laguerre": _check_ft_g_laguerre,
    "ft-g-jacobi": _check_ft_g_jacobi,
    "theta-dual": _check_theta_dual,
    "fd-recursion": _check_fd_recursion,
    "parseval-a": lambda p, c: _check_parseval("a", p, c),
    "parseval-b": lambda p, c: _check_parseval("b", p, c),
    "norm-constants": _check_norm_constants,
}


def check_identity(id: str, params: dict, cfg: QuadratureConfig | None = None
                   ) -> CheckReport:
    """Run one identity check.  Deterministic: identical inputs give
    bit-identical values (the seconds field alone reflects wall time).
    Parameter validation errors raise; oracle non-convergence returns a
    failed report with the reason attached."""
    if id not in _BUILDERS:
        raise DomainError(f"unknown identity {id!r}; catalog: {IDENTITY_IDS}")
    start = time.perf_counter()
    try:
        out = _BUILDERS[id](params, cfg)
    except NonConvergenceError as exc:
        partial = exc.result.value if isinstance(exc.result, IntegralResult) \
            else math.nan
        return _report(id, params, math.nan, partial,
                       getattr(exc.result, "evaluations", 0),
                       time.perf_counter() - start, reason=str(exc))
    lhs, rhs, scale, evals = out
    return _report(id, params, lhs, rhs, evals, time.perf_counter() - start,
                   scale=scale)


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------

class SuiteResult:
    """Sequence of CheckReport with the aggregate summary attached."""

    def __init__(self, reports: list, summary: dict):
        self.reports = list(reports)
        self.summary = dict(summary)

    def __len__(self):
        return len(self.reports)

    def __getitem__(self, i):
        return self.reports[i]

    def __iter__(self):
        return iter(self.reports)

    def __repr__(self):
        return (f"SuiteResult({self.summary.get('passed', 0)}/"
                f"{self.summary.get('total', 0)} passed)")


def _states_d1(n_max: int):
    return [(n, (kk,)) for n in range(n_max + 1) for kk in range(n + 1)]


def default_grids(seed: int = 0) -> dict:
    """Curated smoke-scale parameter grids, one list per identity.
    Deterministic for a given seed (the sweeps draw from a fixed-seed
    generator); the full suite runs in about a minute."""
    rng = np.random.default_rng(seed)
    grids: dict[str, list] = {}

    grids["gegenbauer-orth"] = [
        {"n": n, "m": m, "mu": 0.7}
        for n in range(4) for m in range(4)]
    grids["laguerre-orth"] = [
        {"n": n, "m": m, "alpha": 0.5}
        for n in range(4) for m in range(4)]
    grids["jacobi-orth"] = [
        {"n": n, "m": m, "alpha": 0.5, "beta": 1.5}
        for n in range(4) for m in range(4)]

    kidx = [(0, 0), (1, 0), (0, 1)]
    grids["ball-orth"] = [
        {"k": k, "l": l, "mu": 0.7} for k in kidx for l in kidx]

    pts = rng.uniform(-0.6, 0.6, size=(5, 2))
    grids["ball-eigen"] = [
        {"k": (2, 1), "mu": 0.7, "x": tuple(round(float(v), 6) for v in p)}
        for p in pts]

    cone_states = _states_d1(1)
    grids["cone-orth-laguerre"] = [
        {"n": n, "k": k, "m": m, "l": l, "beta": 0.5, "mu": 0.9}
        for (n, k) in cone_states for (m, l) in cone_states]
    grids["cone-orth-jacobi"] = [
        {"n": n, "k": k, "m": m, "l": l, "beta": 0.4, "mu": 0.7, "gamma": 0.6}
        for (n, k) in cone_states for (m, l) in cone_states]

    # a = 0.75 keeps the endpoint exponent a - 1 comfortably above the
    # oscillatory accuracy wall at the default Fourier tolerance
    grids["ft-f"] = [
        {"k": (kk,), "a": a, "mu": 0.8, "xi": (x,)}
        for kk in range(3) for a in (0.75, 1.0)
        for x in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)]

    lag = {"a": 0.7, "b": 1.2, "beta": 0.5, "mu": 0.9}
    grids["ft-g-laguerre"] = [
        {"n": n, "k": (kk,), "xi": xi, **lag}
        for (n, kk) in ((0, 0), (1, 1))
        for xi in ((0.0, 0.0), (1.0, -0.5))]
    jac = {"a": 0.8, "b": 1.1, "c": 0.9, "beta": 0.4, "mu": 0.7, "gamma": 0.6}
    grids["ft-g-jacobi"] = [
        {"n": n, "k": (kk,), "xi": xi, **jac}
        for (n, kk) in ((0, 0), (1, 1))
        for xi in ((0.0, 0.0), (1.0, -0.5))]

    sweeps = []
    for _ in range(20):
        d = int(rng.integers(1, 4))
        sweeps.append({
            "j": int(rng.integers(1, d + 1)), "d": d,
            "k": tuple(int(rng.integers(0, 5)) for _ in range(d)),
            "a": round(float(rng.uniform(0.2, 2.0)), 6),
            "mu": round(float(rng.uniform(0.3, 2.0)), 6),
            "xi": round(float(rng.uniform(-5.0, 5.0)), 6)})
    grids["theta-dual"] = sweeps

    recs = []
    for _ in range(5):
        d = int(rng.integers(2, 4))
        point = tuple(round(float(v), 6) for v in rng.uniform(-2.5, 2.5, d))
        kk = tuple(int(rng.integers(0, 4)) for _ in range(d))
        for route in ("g1", "g2"):
            recs.append({"x": point, "k": kk, "a": 0.8, "mu": 0.6,
                         "route": route})
    grids["fd-recursion"] = recs

    ppa = {"a1": 0.8, "a2": 0.6, "b1": 0.9, "b2": 0.7}
    grids["parseval-a"] = [
        {"n": 0, "k": (0,), "m": 0, "l": (0,), **ppa},
        {"n": 1, "k": (1,), "m": 1, "l": (1,), **ppa},
        {"n": 1, "k": (0,), "m": 0, "l": (0,), **ppa}]
    ppb = {**ppa, "c1": 1.1, "c2": 0.5}
    grids["parseval-b"] = [
        {"n": 0, "k": (0,), "m": 0, "l": (0,), **ppb},
        {"n": 1, "k": (0,), "m": 1, "l": (0,), **ppb},
        {"n": 1, "k": (1,), "m": 1, "l": (0,), **ppb}]

    grids["norm-constants"] = (
        [{"which": "gegenbauer-vs-ball", "n": n, "mu": mu}
         for n in range(5) for mu in (0.7, 1.5)]
        + [{"which": "a-norm-d1", "n": n, "k1": k1, **ppa}
           for (n, k1) in ((0, 0), (1, 0), (1, 1), (2, 1))]
        + [{"which": "b-norm-d1", "n": n, "k1": k1, **ppb}
           for (n, k1) in ((0, 0), (1, 0), (1, 1), (2, 1))])
    return grids


def run_suite(selection="all", grids: dict | None = None,
              cfg: QuadratureConfig | None = None, jobs: int = 1,
              seed: int = 0, record_timing: bool = False) -> SuiteResult:
    """Run the selected identities over their parameter grids.

    Reports come back sorted by (id, parameters) regardless of execution
    order, with an aggregate summary (counts and worst rel_err per id).
    Individual failures never abort the suite.  Unless record_timing is
    set, the seconds fields are zeroed so that serialized output is
    bit-identical across runs.
    """
    if selection == "all":
        ids = list(IDENTITY_IDS)
    else:
        ids = [str(s) for s in selection]
        for s in ids:
            if s not in _BUILDERS:
                raise DomainError(f"unknown identity {s!r} in selection")
    if grids is None:
        grids = default_grids(seed)
    work = [(i, p) for i in ids for p in grids.get(i, [])]

    def one(item):
        ident, params = item
        return check_identity(ident, params, cfg)

    if jobs > 1 and len(work) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(one, work))
    else:
        reports = [one(w) for w in work]
    if not record_timing:
        reports = [replace(r, seconds=0.0) for r in reports]
    reports.sort(key=lambda r: (r.id, _param_sort_key(r.params)))

    max_rel: dict[str, float] = {}
    for r in reports:
        cur = max_rel.get(r.id)
        if cur is None or r.rel_err > cur:
            max_rel[r.id] = r.rel_err
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "max_rel_err_by_id": {i: max_rel[i] for i in sorted(max_rel)},
    }
    return SuiteResult(reports, summary)
