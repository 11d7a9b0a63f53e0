"""Identity catalog and check engine.

Every identity the library claims is encoded here as a named check that
compares a closed-form value against an independently computed oracle
(quadrature, a dual evaluation route, or a polynomial's exact derivatives
from its values on lines) and emits a structured report.  Individual
failures are data, never crashes: oracle non-convergence comes back as a
failed report carrying the reason.
Every orthogonality check judges its inner product against closed-form
norms.  The ball, cone and Parseval inner products and the cone
transforms are separable, so each is the product of 1-d row integrals
(_row_product), one batched ladder per interval or per set of rows
transformed on the whole line;
basis-factor certifies pointwise that the bases are the products of the
factors those rows integrate.

Tolerance policy (per identity class): algebraic identities compare two
exact evaluation routes at rel 1e-11; single-integral quadrature checks
run at rel 1e-10; ball-eigen, whose line derivatives lose digits toward
the sphere, at 1e-11 on its domain k_j <= 3, d <= 4, mu in [0.2, 2.5]
and |x| <= 0.95; ball and cone inner products at 1e-8; Fourier
transforms, products of whole-line 1-d transforms, at 1e-6; Parseval
integrals at 1e-5.  Off-diagonal orthogonality entries are judged by
absolute error relative to the diagonal scale, since relative error at a
true zero is meaningless; fd-recursion, basis-factor and ball-eigen judge
on the point's envelope, a bound on |f_d(x)| or on the basis element,
which a value far below 1 cannot hide under.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .kernel import DomainError, pochhammer
from .multivariate import (JacobiConeParams, LaguerreConeParams, MultiIndex,
                           _T_TAIL_CUTOFF, _as_multiindex, _ball_factor,
                           _t_factor, ball_norm, ball_op, cone_norm,
                           jacobi_cone, laguerre_cone)
from .quadrature import (IntegralResult, NonConvergenceError, QuadratureConfig,
                         _meets, fourier_num, integrate_1d)
from .transforms import (FreqVector, ParsevalParams, TransformParamsJacobi,
                         TransformParamsLaguerre, _f_factor, _f_power,
                         _jacobi_t_part, _laguerre_t_part,
                         _orthogonality_integrand, _sech2,
                         a_norm_rhs, b_norm_rhs, f_d, f_d_via_g2,
                         ft_f_closed, ft_g_jacobi_closed, ft_g_laguerre_closed,
                         theta_hahn, theta_hyper)
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
        if isinstance(v, (MultiIndex, FreqVector)):
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
    tol = _CATALOG[id][1]
    abs_err = abs(lhs - rhs)
    if scale is not None:
        rel_err = abs_err / scale
    elif rhs != 0.0:
        rel_err = abs_err / abs(rhs)
    else:
        rel_err = abs_err
    finite = (math.isfinite(lhs.real) and math.isfinite(lhs.imag)
              and math.isfinite(rhs.real) and math.isfinite(rhs.imag))
    # an overflowed scale would divide any error down to 0
    finite = finite and (scale is None or math.isfinite(scale))
    passed = bool(finite and not reason and rel_err <= tol)
    return CheckReport(id, _freeze_params(params), lhs, rhs, abs_err,
                       float(rel_err), tol, passed, seconds, int(evals), reason)


def _orth(res, diagonal, h_k, h_l):
    """The row of an orthogonality integral res between the states k and
    l, of squared norms h_k and h_l: the diagonal compares with h_k, an
    off-diagonal with 0 on the scale sqrt(h_k) sqrt(h_l), which stays
    finite where h_k h_l would overflow."""
    if diagonal:
        return res.value, h_k, None, res.evaluations
    return res.value, 0.0, math.sqrt(h_k) * math.sqrt(h_l), res.evaluations


def _pair(params):
    """The multiindices k and l of an orthogonality check."""
    k, l = _as_multiindex(params["k"]), _as_multiindex(params["l"])
    if k.d != l.d:
        raise DomainError("orthogonality checks need multiindices of equal "
                          "dimension")
    return k, l


def _row_product(ladders, cfg) -> IntegralResult:
    """The integral of a separable integrand as the product of its rows'
    1-d integrals.  Each ladder is a callable of cfg that runs one batched
    1-d rule over its rows, a partial of integrate_1d (f, interval) or of
    fourier_num (f, xi): f(x) has one row per factor, shape
    (rows, x.size).  The error bound is prod(|v_j| + e_j) - prod |v_j|,
    which stays honest where a row vanishes; evaluations count every row
    at every node.  Raises NonConvergenceError naming the first row, in
    ladder order, that misses the contract, or else the first ladder
    that reports no convergence, as a Fourier ladder whose cross-check
    disagrees."""
    values, errors, evals, unconverged = [], [], 0, []
    for i, ladder in enumerate(ladders):
        try:
            res = ladder(cfg)
        except NonConvergenceError as exc:
            res = exc.result
        v = np.atleast_1d(res.value)
        values += v.tolist()
        errors += np.atleast_1d(res.error_estimate).tolist()
        evals += res.evaluations * v.size
        if not res.converged:
            unconverged.append(i)
    value, bound, magnitude = 1.0 + 0.0j, 1.0, 1.0
    for v, e in zip(values, errors):
        value *= v
        bound *= abs(v) + e
        magnitude *= abs(v)
    missed = np.flatnonzero(~_meets(np.array(errors), np.array(values), cfg))
    result = IntegralResult(value, bound - magnitude, evals,
                            not (missed.size or unconverged))
    if missed.size:
        raise NonConvergenceError(f"row {missed[0]} did not converge", result)
    if unconverged:
        raise NonConvergenceError(f"ladder {unconverged[0]} did not converge "
                                  "(its rule or cross-check failed)", result)
    return result


# ----------------------------------------------------------------------
# Univariate orthogonality
# ----------------------------------------------------------------------

_CFG_1D = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11)
_CFG_BALL = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
_CFG_CONE = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
# the whole-line ladders converge far past 1e-7, but a row that vanishes
# by symmetry is judged on 10 abs_tol (_fourier_row): at 1e-11 a
# vanishing ft-g-laguerre row, exact to 7e-16, reads rel_err 7e-6 and
# fails its 1e-6 tolerance
_CFG_FOURIER = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
_CFG_PARSEVAL = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)


def _check_gegenbauer_orth(params, cfg):
    n, m, mu = int(params["n"]), int(params["m"]), float(params["mu"])
    res = integrate_1d(
        lambda x: gegenbauer(n, mu, x) * gegenbauer(m, mu, x)
        * (1.0 - x * x) ** (mu - 0.5),
        (-1.0, 1.0), cfg or _CFG_1D)
    return _orth(res, n == m, gegenbauer_norm(n, mu), gegenbauer_norm(m, mu))


def _laguerre_tail(t):
    """t and the weight e^-t of a Laguerre integrand, t moved to 1 and the
    weight an exact 0 past _T_TAIL_CUTOFF: exp-sinh probes t where a power
    of t overflows against e^-t, and the true product is below 1e-230
    there."""
    t = np.asarray(t, dtype=np.float64)
    dead = t > _T_TAIL_CUTOFF
    return np.where(dead, 1.0, t), np.where(dead, 0.0, np.exp(-t))


def _check_laguerre_orth(params, cfg):
    n, m, alpha = int(params["n"]), int(params["m"]), float(params["alpha"])

    def integrand(t):
        t, weight = _laguerre_tail(t)
        return (laguerre(n, alpha, t) * laguerre(m, alpha, t)
                * t ** alpha * weight)

    res = integrate_1d(integrand, (0.0, math.inf), cfg or _CFG_1D)
    return _orth(res, n == m, laguerre_norm(n, alpha), laguerre_norm(m, alpha))


def _check_jacobi_orth(params, cfg):
    n, m = int(params["n"]), int(params["m"])
    alpha, beta = float(params["alpha"]), float(params["beta"])
    res = integrate_1d(
        lambda t: jacobi(n, alpha, beta, t) * jacobi(m, alpha, beta, t)
        * (1.0 - t) ** alpha * (1.0 + t) ** beta,
        (-1.0, 1.0), cfg or _CFG_1D)
    return _orth(res, n == m, jacobi_norm(n, alpha, beta),
                 jacobi_norm(m, alpha, beta))


# ----------------------------------------------------------------------
# Ball basis.  In the cube coordinates s of y_j = s_j sqrt(1 - ||y_<j||^2)
# the basis, the weight (1 - ||y||^2)^(mu-1/2) and the Jacobian are all
# products of one factor per axis, so an inner product is a product of
# 1-d integrals on (-1, 1), one ladder row per axis.
# ----------------------------------------------------------------------

def _ball_rows(k, l, mu, s):
    """Row j: factor j of k and of l times (1 - s^2)^(mu-1/2+(d-j)/2)."""
    d = k.d
    return np.stack([_ball_factor(k, mu, j, s) * _ball_factor(l, mu, j, s)
                     * ((1.0 - s) * (1.0 + s)) ** (mu - 0.5 + (d - j) / 2.0)
                     for j in range(1, d + 1)])


def _check_ball_orth(params, cfg):
    k, l = _pair(params)
    mu = float(params["mu"])
    res = _row_product([partial(integrate_1d, partial(_ball_rows, k, l, mu),
                                (-1.0, 1.0))], cfg or _CFG_BALL)
    return _orth(res, k == l, ball_norm(k, mu), ball_norm(l, mu))


def _ball_envelope(k, mu, s):
    """The envelope prod_j (1 - s_j^2)^(|k_>j|/2) C_{k_j}^(lambda_j)(1) of
    ball_op(k, mu, .) at the cube coordinates s: it bounds |ball_op| there,
    as fd-recursion's bounds |f_d|, since |C_n^lambda| <= C_n^lambda(1) on
    [-1, 1] for lambda > 0."""
    return math.prod(
        ((1.0 - sj) * (1.0 + sj)) ** (k.tail(j + 1) / 2.0)
        * abs(float(gegenbauer(k[j - 1], k.lambda_j(j, mu), 1.0)))
        for j, sj in enumerate(s, 1))


def _check_ball_eigen(params, cfg):
    """Delta P - sum_ij x_i x_j d_i d_j P - (2mu + d) x.grad P - d(2mu - 1) P
    against -(n + d)(n + 2mu - 1) P, for P = ball_op(k, mu, .) of degree
    n = |k| at x inside the ball.  Along a unit line v, s -> P(x + s v) is
    a polynomial of degree <= n, so its values at the n + 1 Chebyshev
    nodes s = r cos(theta_m) give its derivatives at s = 0 to roundoff,
    through its Chebyshev coefficients and T_j'(0) = j sin(j pi/2),
    T_j''(0) = -j^2 cos(j pi/2).  The lines are e_1..e_d, whose second
    derivatives sum to Delta P, and x/|x|, which gives x.grad P and
    sum_ij x_i x_j d_i d_j P; r is half the distance to the sphere."""
    k = _as_multiindex(params["k"])
    mu = float(params["mu"])
    x = np.atleast_1d(np.asarray(params["x"], dtype=np.float64))
    d, n = k.d, k.total
    if x.size != d:
        raise DomainError(f"point has {x.size} coordinates, expected {d}")
    rest = 1.0 - x @ x
    if not rest > 0.0:
        raise DomainError("ball-eigen needs a point inside the unit ball")
    norm = math.hypot(*x)
    # at x = 0 both terms of the x line vanish, so any unit line serves
    lines = np.vstack([np.eye(d), x / norm if norm else np.eye(d)[0]])
    along = lines @ x
    r = 0.5 * rest / (np.sqrt(along * along + rest) + np.abs(along))
    theta = (np.arange(n + 1) + 0.5) * math.pi / (n + 1)
    j = np.arange(n + 1)
    quarter = np.array([1.0, 0.0, -1.0, 0.0])  # cos(j pi/2), exact
    cosines = np.cos(np.outer(theta, j)) * (2.0 / (n + 1))
    values = ball_op(k, mu, x[:, None, None]
                     + lines.T[:, :, None] * (r[:, None] * np.cos(theta)))
    first = values @ (cosines @ (j * quarter[(j - 1) % 4])) / r
    second = values @ (cosines @ (-j * j * quarter[j % 4])) / (r * r)
    center = ball_op(k, mu, x)
    lhs = (second[:d].sum() - norm * norm * second[d]
           - (2.0 * mu + d) * norm * first[d] - d * (2.0 * mu - 1.0) * center)
    eigenvalue = (n + d) * (n + 2.0 * mu - 1.0)
    # judged, as basis-factor is, on the eigenvalue times the envelope at
    # x's cube coordinates s: P rounds on the scale of its factors, not of
    # its value, which vanishes on nodal planes.  The floor keeps k = 0 at
    # mu = 1/2, where both sides are 0, off 0 / 0
    s = x / np.sqrt(1.0 - (np.cumsum(x * x) - x * x))
    scale = max(abs(eigenvalue) * _ball_envelope(k, mu, s),
                np.finfo(np.float64).tiny)
    return lhs, -eigenvalue * center, scale, (d + 1) * (n + 1) + 1


# ----------------------------------------------------------------------
# Cone orthogonality.  At x = t y the basis element is its t factor times
# ball_op at y, and dx = t^d dy, so an inner product is one t integral
# times the ball rows above; judged against the closed-form cone_norm.
# ----------------------------------------------------------------------

def _cone_params(family, params):
    if family == "laguerre":
        return LaguerreConeParams(float(params["beta"]), float(params["mu"]))
    return JacobiConeParams(float(params["beta"]), float(params["mu"]),
                            float(params["gamma"]))


def _check_cone_orth(family, params, cfg):
    n, m = int(params["n"]), int(params["m"])
    k, l = _pair(params)
    cone = _cone_params(family, params)
    h_k, h_l = cone_norm(k, n, cone), cone_norm(l, m, cone)
    mu = cone.mu
    power = k.d + 2.0 * mu - 1.0 + cone.beta  # t^|k|, t^|l| are in _t_factor

    def t_row(t):
        if family == "jacobi":
            weight = (1.0 - t) ** cone.gamma
        else:
            t, weight = _laguerre_tail(t)
        return (_t_factor(cone, k, n, t) * _t_factor(cone, l, m, t)
                * t ** power * weight)[None]

    t_box = (0.0, 1.0) if family == "jacobi" else (0.0, math.inf)
    res = _row_product([partial(integrate_1d, t_row, t_box),
                        partial(integrate_1d, partial(_ball_rows, k, l, mu),
                                (-1.0, 1.0))],
                       cfg or _CFG_CONE)
    return _orth(res, (n, k) == (m, l), h_k, h_l)


# ----------------------------------------------------------------------
# Fourier transform identities
# ----------------------------------------------------------------------

def _fourier_row(lhs, k, a, mu, xi, cfg, *t_ladder):
    """The row of a closed-form transform lhs against the product of 1-d
    transforms: one ladder of f_d's d axis factors at xi's first d
    components, times the cone's t ladder if given."""
    base = cfg or _CFG_FOURIER
    axes = partial(fourier_num, lambda x: np.stack(
        [_f_factor(k, a, mu, j, x) for j in range(1, k.d + 1)]), xi[:k.d])
    res = _row_product([axes, *t_ladder], base)
    # odd symmetry makes some transforms vanish exactly; dividing by a
    # quadrature value of ~1e-17 there would report rel_err 1, so the
    # error is judged against the oracle's own resolution instead
    return (lhs, res.value, max(abs(res.value), 10.0 * base.abs_tol),
            res.evaluations)


def _check_ft_f(params, cfg):
    k = _as_multiindex(params["k"])
    a, mu = float(params["a"]), float(params["mu"])
    xi = FreqVector(params["xi"])
    return _fourier_row(ft_f_closed(k, a, mu, xi), k, a, mu, xi.components,
                        cfg)


# family -> (parameter class, its argument names, closed form, t part)
_CONE_TRANSFORMS = {
    "laguerre": (TransformParamsLaguerre, ("a", "b", "beta", "mu"),
                 ft_g_laguerre_closed, _laguerre_t_part),
    "jacobi": (TransformParamsJacobi, ("a", "b", "c", "beta", "mu", "gamma"),
               ft_g_jacobi_closed, _jacobi_t_part),
}


def _check_ft_g(family, params, cfg):
    k = _as_multiindex(params["k"])
    n = int(params["n"])
    kind, names, closed, t_part = _CONE_TRANSFORMS[family]
    tp = kind(*(float(params[name]) for name in names))
    xi = FreqVector(params["xi"])
    t_ladder = partial(fourier_num, lambda t: t_part(t, k, n, tp), xi[k.d])
    return _fourier_row(closed(k, n, tp, xi), k, tp.a, tp.mu, xi.components,
                        cfg, t_ladder)


def _check_theta_dual(params, cfg):
    j, d = int(params["j"]), int(params["d"])
    k = _as_multiindex(params["k"])
    a, mu, xi = float(params["a"]), float(params["mu"]), float(params["xi"])
    return (theta_hyper(j, d, a, mu, k, xi),
            theta_hahn(j, d, a, mu, k, xi), None, 0)


def _check_fd_recursion(params, cfg):
    k = _as_multiindex(params["k"])
    a, mu = float(params["a"]), float(params["mu"])
    x = tuple(float(v) for v in np.atleast_1d(params["x"]))
    lhs = f_d(x, k, a, mu)
    rhs = f_d_via_g2(x, k, a, mu)
    # the point's envelope prod_j sech^2(x_j)^e_j C_{k_j}^(lambda_j)(1),
    # e_j and lambda_j as in _f_factor, bounds |f_d(x)|: |C_n^lambda| <=
    # C_n^lambda(1) on [-1, 1] for lambda > 0.  Its floor keeps a point
    # where it underflows, and both routes give 0, off 0 / 0
    envelope = math.prod(
        float(_sech2(xj)) ** _f_power(k, a, j)
        * abs(float(gegenbauer(k[j - 1], k.lambda_j(j, mu), 1.0)))
        for j, xj in enumerate(x, 1))
    return lhs, rhs, max(envelope, np.finfo(np.float64).tiny), 0


# ----------------------------------------------------------------------
# Parseval families.  The orthogonality integrand
#     Gamma-weight(t) * Fam(it, ix; p1) * Fam(-it, -ix; p2-swapped)
# is separable: transforms._orthogonality_integrand gives one whole-line
# ladder one row per factor pair, the t pair carrying the Gamma weights.
# ----------------------------------------------------------------------

def _parseval_params(params) -> ParsevalParams:
    ab = [float(params[key]) for key in ("a1", "a2", "b1", "b2")]
    cs = [params.get(key) for key in ("c1", "c2")]
    return ParsevalParams(*ab, *(None if c is None else float(c) for c in cs))


def _check_parseval(family, params, cfg):
    n, m = int(params["n"]), int(params["m"])
    k, l = _pair(params)
    pp = _parseval_params(params)
    norm = a_norm_rhs if family == "a" else b_norm_rhs
    h_k, h_l = norm(n, k, pp), norm(m, l, pp)
    res = _row_product([partial(integrate_1d, _orthogonality_integrand(
        family, n, k, m, l, pp), (-math.inf, math.inf))], cfg or _CFG_PARSEVAL)
    return _orth(res, (n, k) == (m, l), h_k, h_l)


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


# ----------------------------------------------------------------------
# Basis factorization: the assembled bases against the product of the
# axis factors (and the cone's t factor) that the orthogonality ladders
# integrate, at a point y(s) of the cube map, or (t, t y(s)) on the cone
# ----------------------------------------------------------------------

_CONE_BASES = {"laguerre-cone": ("laguerre", laguerre_cone),
               "jacobi-cone": ("jacobi", jacobi_cone)}


def _check_basis_factor(params, cfg):
    basis = str(params["basis"])
    if basis != "ball" and basis not in _CONE_BASES:
        raise DomainError(f"unknown basis-factor row {basis!r}")
    k, mu = _as_multiindex(params["k"]), float(params["mu"])
    s = [float(v) for v in np.atleast_1d(params["s"])]
    if len(s) != k.d:
        raise DomainError(f"point has {len(s)} coordinates, expected {k.d}")
    y, rest = [], 1.0
    for sj in s:
        y.append(sj * math.sqrt(rest))
        rest *= (1.0 - sj) * (1.0 + sj)
    rhs = math.prod(float(_ball_factor(k, mu, j, sj))
                    for j, sj in enumerate(s, 1))
    # a cone row's envelope carries the t factor both sides share
    envelope = _ball_envelope(k, mu, s)
    if basis == "ball":
        lhs = ball_op(k, mu, y)
    else:
        family, element = _CONE_BASES[basis]
        cone = _cone_params(family, params)
        n, t = int(params["n"]), float(params["t"])
        lhs = element(k, n, cone, (t, [t * v for v in y]))
        t_part = float(_t_factor(cone, k, n, t))
        rhs *= t_part
        envelope *= abs(t_part)
    return lhs, rhs, max(envelope, np.finfo(np.float64).tiny), 0


# id -> (builder, rel tolerance); a builder takes (params, cfg) and
# returns (lhs, rhs, scale, evals) for _report
_CATALOG = {
    "gegenbauer-orth": (_check_gegenbauer_orth, 1e-10),
    "laguerre-orth": (_check_laguerre_orth, 1e-10),
    "jacobi-orth": (_check_jacobi_orth, 1e-10),
    "ball-orth": (_check_ball_orth, 1e-8),
    "ball-eigen": (_check_ball_eigen, 1e-11),  # k_j <= 3, |x| <= 0.95
    "cone-orth-laguerre": (partial(_check_cone_orth, "laguerre"), 1e-8),
    "cone-orth-jacobi": (partial(_check_cone_orth, "jacobi"), 1e-8),
    "ft-f": (_check_ft_f, 1e-6),
    "ft-g-laguerre": (partial(_check_ft_g, "laguerre"), 1e-6),
    "ft-g-jacobi": (partial(_check_ft_g, "jacobi"), 1e-6),
    "theta-dual": (_check_theta_dual, 1e-11),
    "fd-recursion": (_check_fd_recursion, 1e-11),
    "parseval-a": (partial(_check_parseval, "a"), 1e-5),
    "parseval-b": (partial(_check_parseval, "b"), 1e-5),
    "norm-constants": (_check_norm_constants, 1e-11),
    "basis-factor": (_check_basis_factor, 1e-11),
}
IDENTITY_IDS = tuple(_CATALOG)


def check_identity(id: str, params: dict, cfg: QuadratureConfig | None = None
                   ) -> CheckReport:
    """Run one identity check.  Deterministic: identical inputs give
    bit-identical values (the seconds field alone reflects wall time).
    Parameter validation errors raise; oracle non-convergence returns a
    failed report with the reason attached."""
    if id not in _CATALOG:
        raise DomainError(f"unknown identity {id!r}; catalog: {IDENTITY_IDS}")
    start = time.perf_counter()
    try:
        lhs, rhs, scale, evals = _CATALOG[id][0](params, cfg)
    except NonConvergenceError as exc:
        return _report(id, params, math.nan, exc.result.value,
                       exc.result.evaluations, time.perf_counter() - start,
                       reason=str(exc))
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
    generator); the full suite runs in about a tenth of a second."""
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
    kidx3 = [(1, 0, 1), (0, 1, 1)]
    grids["ball-orth"] = [
        {"k": k, "l": l, "mu": 0.7}
        for states in (kidx, kidx3) for k in states for l in states]

    pts = rng.uniform(-0.6, 0.6, size=(5, 2))
    grids["ball-eigen"] = [
        {"k": (2, 1), "mu": 0.7, "x": tuple(round(float(v), 6) for v in p)}
        for p in pts] + [
        {"k": k, "mu": mu, "x": x} for k, mu, x in (
            ((3,), 0.7, (0.45,)),
            ((1, 0, 2), 0.7, (0.3, -0.2, 0.5)),
            ((2, 1, 1), 1.3, (-0.45, 0.1, 0.35)),
            ((0, 2, 1, 1), 0.7, (-0.5, 0.35, 0.1, -0.4)),
            ((1, 1, 0, 2), 1.3, (0.3, -0.25, 0.4, 0.15)))]

    # every pair of the d = 1 states of degree <= 1, of two d = 2 states
    # and of two d = 3 states
    cone_pairs = [(p, q) for states in (_states_d1(1), [(1, (1, 0)), (1, (0, 1))],
                                        [(1, (1, 0, 0)), (2, (0, 1, 1))])
                  for p in states for q in states]
    grids["cone-orth-laguerre"] = [
        {"n": n, "k": k, "m": m, "l": l, "beta": 0.5, "mu": 0.9}
        for (n, k), (m, l) in cone_pairs]
    grids["cone-orth-jacobi"] = [
        {"n": n, "k": k, "m": m, "l": l, "beta": 0.4, "mu": 0.7, "gamma": 0.6}
        for (n, k), (m, l) in cone_pairs]

    # a = 0.75 gives the axis factors a slower tail, sech^1.5 x, than a = 1
    grids["ft-f"] = [
        {"k": (kk,), "a": a, "mu": 0.8, "xi": (x,)}
        for kk in range(3) for a in (0.75, 1.0)
        for x in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)] + [
        {"k": k, "a": 0.75, "mu": 0.8, "xi": xi}
        for k, xi in (((1, 1), (0.5, -1.0)), ((0, 2), (1.0, 0.0)),
                      ((1, 0, 1), (0.5, -0.5, 1.0)),
                      ((0, 2, 1), (-1.0, 0.5, 0.5)))]

    # d = 1 rows at two frequencies, then one d = 2 and one d = 3 row
    g_rows = [(n, (kk,), xi) for (n, kk) in ((0, 0), (1, 1))
              for xi in ((0.0, 0.0), (1.0, -0.5))] + [
        (2, (1, 1), (0.5, -1.0, 0.5)), (2, (0, 1, 1), (1.0, -0.5, 0.5, 0.5))]
    lag = {"a": 0.7, "b": 1.2, "beta": 0.5, "mu": 0.9}
    grids["ft-g-laguerre"] = [{"n": n, "k": k, "xi": xi, **lag}
                              for n, k, xi in g_rows]
    jac = {"a": 0.8, "b": 1.1, "c": 0.9, "beta": 0.4, "mu": 0.7, "gamma": 0.6}
    grids["ft-g-jacobi"] = [{"n": n, "k": k, "xi": xi, **jac}
                            for n, k, xi in g_rows]

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
        recs.append({"x": point, "k": kk, "a": 0.8, "mu": 0.6})
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

    cones = {"laguerre-cone": {"beta": 0.5, "mu": 0.9, "t": 1.7},
             "jacobi-cone": {"beta": 0.4, "mu": 0.7, "gamma": 0.6, "t": 0.35}}
    factor_rows = []
    for k in ((2,), (1, 2), (2, 1, 1), (0, 1, 2)):
        s = tuple(round(float(v), 6) for v in rng.uniform(-0.95, 0.95, len(k)))
        factor_rows.append({"basis": "ball", "k": k, "mu": 0.7, "s": s})
        for basis, cone in cones.items():
            factor_rows.append({"basis": basis, "k": k, "n": sum(k) + 1,
                                "s": s, **cone})
    grids["basis-factor"] = factor_rows
    return grids


def run_suite(selection="all", grids: dict | None = None,
              cfg: QuadratureConfig | None = None, seed: int = 0,
              record_timing: bool = False) -> SuiteResult:
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
            if s not in _CATALOG:
                raise DomainError(f"unknown identity {s!r} in selection")
    if grids is None:
        grids = default_grids(seed)
    reports = [check_identity(i, p, cfg) for i in ids for p in grids.get(i, [])]
    if not record_timing:
        reports = [replace(r, seconds=0.0) for r in reports]
    reports.sort(key=lambda r: (r.id, _param_sort_key(r.params)))

    max_rel: dict[str, float] = {}
    for r in reports:
        max_rel[r.id] = max(max_rel.get(r.id, r.rel_err), r.rel_err)
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "max_rel_err_by_id": {i: max_rel[i] for i in sorted(max_rel)},
    }
    return SuiteResult(reports, summary)
