"""Tanh-substituted ball and cone function families, their closed-form
Fourier transforms (Beta/Gamma prefactors times terminating
hypergeometric factors, equivalently continuous-Hahn polynomials), and
the two Parseval-derived orthogonal function families with their
closed-form norm constants.

Conventions
-----------
Frequency vectors order the d ball-direction frequencies first; the cone
axis frequency (paired with the t variable) comes last.  Every complex
power uses the principal logarithm; all bases in-domain are positive
reals, so no branch ambiguity arises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernel import (Cx, DomainError, _pfq_terminating, _signed_log_pochhammer,
                     beta_cx, gamma_cx, pochhammer)
from .multivariate import (JacobiConeParams, LaguerreConeParams, MultiIndex,
                           _as_multiindex, ball_norm, ball_op)
from .univariate import _I_POWERS, continuous_hahn, gegenbauer, jacobi, laguerre

__all__ = [
    "FreqVector",
    "TransformParamsLaguerre",
    "TransformParamsJacobi",
    "ParsevalParams",
    "f_d",
    "f_d_via_g1",
    "f_d_via_g2",
    "g_laguerre",
    "g_jacobi",
    "theta_hyper",
    "theta_hahn",
    "lambda_factor",
    "xi_factor",
    "ft_f_closed",
    "ft_g_laguerre_closed",
    "ft_g_jacobi_closed",
    "a_family",
    "b_family",
    "a_family_factors",
    "b_family_factors",
    "a_norm_rhs",
    "b_norm_rhs",
]

_LOG2 = math.log(2.0)
_MATCH_TOL = 1e-12


class FreqVector:
    """Real frequency vector; component j pairs with coordinate x_j, and
    for cone transforms the final component pairs with the t axis."""

    __slots__ = ("components",)

    def __init__(self, components):
        if isinstance(components, FreqVector):
            comps = components.components
        elif np.isscalar(components):
            comps = (float(components),)
        else:
            comps = tuple(float(v) for v in components)
        if not comps:
            raise DomainError("FreqVector needs at least one component")
        if not all(math.isfinite(v) for v in comps):
            raise DomainError("FreqVector components must be finite")
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> float:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"FreqVector{self.components!r}"

    def __eq__(self, other) -> bool:
        return isinstance(other, FreqVector) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)


def _as_freq(xi, expected: int) -> tuple:
    """The components of xi: floats, checked by FreqVector, when every
    component is a scalar; else float arrays that broadcast together."""
    if isinstance(xi, FreqVector) or np.isscalar(xi) \
            or all(np.ndim(v) == 0 for v in xi):
        comps = FreqVector(xi).components
    else:
        comps = tuple(np.asarray(v, dtype=np.float64) for v in xi)
        if not all(np.isfinite(c).all() for c in comps):
            raise DomainError("frequency components must be finite")
    if len(comps) != expected:
        raise DomainError(
            f"frequency vector has {len(comps)} components, expected {expected}")
    return comps


def _cx_or_array(value):
    """A value computed over broadcast arrays, or a complex for scalar input."""
    return value if np.ndim(value) else complex(value)


def _positive_real(value, name: str) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be a positive real, got {value!r}")
    return v


def _positive_re(value, name: str):
    v = complex(value)
    if not v.real > 0.0:
        raise DomainError(f"{name} must have positive real part, got {value!r}")
    return v.real if v.imag == 0.0 else v


@dataclass(frozen=True)
class TransformParamsLaguerre:
    """Parameters (a, b) of the Gaussian-Laguerre cone family together
    with its cone weight parameters (beta, mu).

    a must be a positive real.  b is positive real in Parseval use; mere
    transform evaluation only needs Re b > 0, so complex b passes with a
    positive real part.
    """
    a: float
    b: object
    cone: LaguerreConeParams

    def __init__(self, a, b, beta, mu):
        object.__setattr__(self, "a", _positive_real(a, "a"))
        object.__setattr__(self, "b", _positive_re(b, "b"))
        object.__setattr__(self, "cone", LaguerreConeParams(float(beta), float(mu)))

    @property
    def beta(self) -> float:
        return self.cone.beta

    @property
    def mu(self) -> float:
        return self.cone.mu


@dataclass(frozen=True)
class TransformParamsJacobi:
    """Parameters (a, b, c) of the beta-type cone family together with
    its cone weight parameters (beta, mu, gamma).  All of a, b, c must be
    positive reals."""
    a: float
    b: float
    c: float
    cone: JacobiConeParams

    def __init__(self, a, b, c, beta, mu, gamma):
        object.__setattr__(self, "a", _positive_real(a, "a"))
        object.__setattr__(self, "b", _positive_real(b, "b"))
        object.__setattr__(self, "c", _positive_real(c, "c"))
        object.__setattr__(self, "cone", JacobiConeParams(float(beta), float(mu), float(gamma)))

    @property
    def beta(self) -> float:
        return self.cone.beta

    @property
    def mu(self) -> float:
        return self.cone.mu

    @property
    def gamma(self) -> float:
        return self.cone.gamma


@dataclass(frozen=True)
class ParsevalParams:
    """Positive parameter pairs of the Parseval-derived families.

    The orthogonality theorems hold only under the parameter couplings
    mu = |a| - 1/2 and beta = |b| - 2|a| (and gamma = |c| - 1 when the c
    pair is present), so the constructor computes these derived values
    itself; passing explicit mu/beta/gamma keywords is allowed only when
    they match the computed couplings.
    """
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float | None
    c2: float | None

    def __init__(self, a1, a2, b1, b2, c1=None, c2=None,
                 mu=None, beta=None, gamma=None):
        object.__setattr__(self, "a1", _positive_real(a1, "a1"))
        object.__setattr__(self, "a2", _positive_real(a2, "a2"))
        object.__setattr__(self, "b1", _positive_real(b1, "b1"))
        object.__setattr__(self, "b2", _positive_real(b2, "b2"))
        if (c1 is None) != (c2 is None):
            raise DomainError("c1 and c2 must be given together")
        if c1 is not None:
            object.__setattr__(self, "c1", _positive_real(c1, "c1"))
            object.__setattr__(self, "c2", _positive_real(c2, "c2"))
        else:
            object.__setattr__(self, "c1", None)
            object.__setattr__(self, "c2", None)
        for name, given, computed in (("mu", mu, self.mu), ("beta", beta, self.beta),
                                      ("gamma", gamma, self.gamma)):
            if given is not None:
                if computed is None:
                    raise DomainError(f"{name} requires the c parameter pair")
                if abs(float(given) - computed) > _MATCH_TOL:
                    raise DomainError(
                        f"{name}={given} conflicts with the matching condition "
                        f"value {computed}; overrides must agree")

    @property
    def abs_a(self) -> float:
        return self.a1 + self.a2

    @property
    def abs_b(self) -> float:
        return self.b1 + self.b2

    @property
    def abs_c(self) -> float | None:
        return None if self.c1 is None else self.c1 + self.c2

    @property
    def mu(self) -> float:
        return self.abs_a - 0.5

    @property
    def beta(self) -> float:
        return self.abs_b - 2.0 * self.abs_a

    @property
    def gamma(self) -> float | None:
        return None if self.c1 is None else self.abs_c - 1.0

    @property
    def has_c(self) -> bool:
        return self.c1 is not None


# ----------------------------------------------------------------------
# The tanh-substituted base functions
# ----------------------------------------------------------------------

def _sech2(x):
    """(1 - tanh^2 x) computed overflow-free for any real x."""
    e = np.exp(-2.0 * np.abs(np.asarray(x, dtype=np.float64)))
    s = 2.0 * np.sqrt(e) / (1.0 + e)
    return s * s


def _coords(x, d: int):
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        seq = (x,)
    else:
        seq = tuple(x)
    if len(seq) != d:
        raise DomainError(f"coordinate vector has {len(seq)} entries, expected {d}")
    return seq


def f_d(x, k, a, mu):
    """Product of (1 - tanh^2 x_j)^(a + (d-j)/4) with the ball basis
    polynomial evaluated at the nested tanh coordinates.

    x is a sequence of d real scalars or broadcastable arrays.  The value
    is smooth on all of R^d; when an extreme coordinate drives the nested
    ball point onto its boundary guard, the algebraically identical
    factored Gegenbauer product takes over.
    """
    k = _as_multiindex(k)
    d = k.d
    xs = _coords(x, d)
    th = [np.tanh(np.asarray(xj, dtype=np.float64)) for xj in xs]
    s2 = [_sech2(xj) for xj in xs]
    pref = 1.0
    for j in range(1, d + 1):
        pref = pref * s2[j - 1] ** (a + (d - j) / 4.0)
    cum = 1.0
    ups = []
    for j in range(d):
        ups.append(th[j] * np.sqrt(cum))
        cum = cum * s2[j]
    try:
        poly = ball_op(k, mu, tuple(ups))
    except DomainError:
        poly = 1.0
        for j in range(1, d + 1):
            tail = k.tail(j + 1)
            if tail:
                poly = poly * s2[j - 1] ** (tail / 2.0)
            if k[j - 1]:
                poly = poly * gegenbauer(k[j - 1], k.lambda_j(j, mu), th[j - 1])
    return pref * poly


def f_d_via_g1(x, k, a, mu):
    """Recursive evaluation peeling the first coordinate."""
    k = _as_multiindex(k)
    d = k.d
    xs = _coords(x, d)
    if d == 1:
        return f_d(xs, k, a, mu)
    s2 = _sech2(xs[0])
    tail = k.tail(2)
    lam = tail + mu + (d - 1) / 2.0
    head = s2 ** (a + tail / 2.0 + (d - 1) / 4.0) * gegenbauer(k[0], lam, np.tanh(xs[0]))
    return head * f_d_via_g1(xs[1:], MultiIndex(k.components[1:]), a, mu)


def f_d_via_g2(x, k, a, mu):
    """Recursive evaluation peeling the last coordinate."""
    k = _as_multiindex(k)
    d = k.d
    xs = _coords(x, d)
    if d == 1:
        return f_d(xs, k, a, mu)
    s2 = _sech2(xs[-1])
    head = s2 ** a * gegenbauer(k[d - 1], mu, np.tanh(xs[-1]))
    return head * f_d_via_g2(xs[:-1], MultiIndex(k.components[:-1]),
                             a + k[d - 1] / 2.0 + 0.25, mu + k[d - 1] + 0.5)


def _check_k_n(k: MultiIndex, n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and int(n) >= k.total):
        raise DomainError(f"need |k| <= n, got |k|={k.total}, n={n}")


def g_laguerre(t, x, k, n, params: TransformParamsLaguerre):
    """exp(-e^t/2 + b t + |k| t) L_(n-|k|)^(2|k|+2 mu+beta+d-1)(e^t)
    times f_d(x; k, a, mu).

    Decays double-exponentially as t -> +inf; beyond the point where
    exp(-e^t/2) underflows, the value is exactly 0 and the Laguerre
    factor is bypassed so no overflow from e^t leaks into the result.
    """
    k = _as_multiindex(k)
    _check_k_n(k, n)
    d = k.d
    ta = np.asarray(t, dtype=np.float64)
    dead = ta > 8.0  # exp(-e^t/2) < 1e-647: identically 0 in doubles
    u = np.exp(np.where(dead, 0.0, ta))
    alpha = 2 * k.total + 2 * params.mu + params.beta + d - 1
    lag = laguerre(int(n) - k.total, alpha, u)
    core = np.exp(-0.5 * u + (params.b + k.total) * ta)
    tpart = np.where(dead, 0.0, lag * core)
    if np.ndim(t) == 0 and np.ndim(tpart):
        tpart = tpart[()]
    return tpart * f_d(x, k, params.a, params.mu)


def g_jacobi(t, x, k, n, params: TransformParamsJacobi):
    """2^(-|k|) (1+tanh t)^(b+|k|) (1-tanh t)^c
    P_(n-|k|)^((2|k|+2 mu+beta+d-1, gamma))(-tanh t) times
    f_d(x; k, a, mu)."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    d = k.d
    th = np.tanh(np.asarray(t, dtype=np.float64))
    alpha = 2 * k.total + 2 * params.mu + params.beta + d - 1
    tpart = 2.0 ** (-k.total) * (1.0 + th) ** (params.b + k.total) \
        * (1.0 - th) ** params.c * jacobi(int(n) - k.total, alpha, params.gamma, -th)
    return tpart * f_d(x, k, params.a, params.mu)


# ----------------------------------------------------------------------
# Closed-form Fourier transforms
# ----------------------------------------------------------------------

def _theta_beta_args(j: int, d: int, a, k: MultiIndex, xi_j):
    tail = k.tail(j + 1)
    base = a + tail / 2.0 + (d - j) / 4.0
    return base + 0.5j * xi_j, base - 0.5j * xi_j


def _check_j(j: int, k: MultiIndex, d: int) -> None:
    if k.d != d:
        raise DomainError(f"multiindex has d={k.d}, expected {d}")
    if not 1 <= j <= d:
        raise DomainError(f"axis index j={j} outside 1..{d}")


def theta_hyper(j: int, d: int, a, mu, k, xi_j) -> Cx:
    """Axis-j Beta-times-3F2 factor of the ball transform."""
    k = _as_multiindex(k)
    _check_j(j, k, d)
    tail = k.tail(j + 1)
    arg_p, arg_m = _theta_beta_args(j, d, a, k, xi_j)
    kj = k[j - 1]
    f32 = _pfq_terminating(
        (-kj, kj + 2.0 * (tail + mu + (d - j) / 2.0), arg_p),
        (tail + mu + (d - j + 1) / 2.0, tail + 2.0 * a + (d - j) / 2.0),
        1.0)
    return beta_cx(arg_p, arg_m) * f32


def theta_hahn(j: int, d: int, a, mu, k, xi_j) -> Cx:
    """Axis-j factor in continuous-Hahn form; identical in value to
    theta_hyper."""
    k = _as_multiindex(k)
    _check_j(j, k, d)
    tail = k.tail(j + 1)
    arg_p, arg_m = _theta_beta_args(j, d, a, k, xi_j)
    kj = k[j - 1]
    alpha = a + tail / 2.0 + (d - j) / 4.0
    beta = mu - a + (tail + 1) / 2.0 + (d - j) / 4.0
    pref = math.factorial(kj) * _I_POWERS[(-kj) % 4] / (
        pochhammer(tail + mu + (d - j + 1) / 2.0, kj)
        * pochhammer(tail + 2.0 * a + (d - j) / 2.0, kj))
    return pref * beta_cx(arg_p, arg_m) * continuous_hahn(
        kj, 0.5 * np.asarray(xi_j), alpha, beta, beta, alpha)


def lambda_factor(n: int, k, b, mu, beta, xi) -> Cx:
    """Terminating 2F1 at argument 2 carried by the half-line cone axis."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    return _pfq_terminating(
        (-int(n) + k.total, b + k.total - 1j * xi),
        (2 * k.total + 2.0 * mu + beta + k.d,),
        2.0)


def xi_factor(n: int, k, b, c, mu, beta, gamma, xi) -> Cx:
    """Terminating 3F2 at 1 carried by the bounded cone axis."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    return _pfq_terminating(
        (-int(n) + k.total, int(n) + k.total + 2.0 * mu + beta + gamma + k.d,
         k.total + b - 0.5j * xi),
        (2 * k.total + 2.0 * mu + beta + k.d, k.total + b + c),
        1.0)


def _ball_transform_core(k: MultiIndex, a, mu, xi: tuple,
                         theta=theta_hyper) -> Cx:
    d = k.d
    for j in range(1, d + 1):
        if not a + k.tail(j + 1) / 2.0 + (d - j) / 4.0 > 0.0:
            raise DomainError(
                f"Beta argument a + |k^(j+1)|/2 + (d-j)/4 must be positive "
                f"at j={j}")
    exponent = 2.0 * d * a + d * (d - 5) / 4.0 \
        + sum(j * k[j] for j in range(1, d))
    value = 2.0 ** exponent
    for j in range(1, d + 1):
        kj = k[j - 1]
        tail = k.tail(j + 1)
        value = value * pochhammer(2.0 * (tail + mu + (d - j) / 2.0), kj) \
            / math.factorial(kj) * theta(j, d, a, mu, k, xi[j - 1])
    return value


def ft_f_closed(k, a, mu, xi) -> Cx:
    """Closed-form Fourier transform of f_d: a power of 2 times the
    product over axes of Pochhammer-weighted Beta-3F2 factors.

    xi is a FreqVector or a sequence of d components; the components may
    be real scalars or float arrays that broadcast together, as x in f_d.
    Array components give an array of values, scalar ones a complex."""
    k = _as_multiindex(k)
    fv = _as_freq(xi, k.d)
    return _cx_or_array(_ball_transform_core(k, a, mu, fv))


def ft_g_laguerre_closed(k, n: int, params: TransformParamsLaguerre, xi) -> Cx:
    """Closed-form Fourier transform of g_laguerre: ball factors times
    2^(b+|k|-i xi_t) Gamma(b+|k|-i xi_t) and the argument-2 2F1.  xi has
    d + 1 components, scalars or float arrays as in ft_f_closed."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    d = k.d
    fv = _as_freq(xi, d + 1)
    xit = fv[d]
    b, mu, beta = params.b, params.mu, params.beta
    if not (np.real(b) + k.total > 0.0):
        raise DomainError("need Re b + |k| > 0 for the Gamma factor")
    ball = _ball_transform_core(k, params.a, mu, fv)
    zpow = np.exp((b + k.total - 1j * xit) * _LOG2)
    m = int(n) - k.total
    pref = pochhammer(2 * k.total + 2.0 * mu + beta + d, m) / math.factorial(m)
    return _cx_or_array(zpow * pref * gamma_cx(b + k.total - 1j * xit)
                        * ball * lambda_factor(n, k, b, mu, beta, xit))


def ft_g_jacobi_closed(k, n: int, params: TransformParamsJacobi, xi) -> Cx:
    """Closed-form Fourier transform of g_jacobi: ball factors times the
    Gamma(b+|k|-i xi_t/2) Gamma(c+i xi_t/2) pair and the terminating 3F2.
    xi has d + 1 components, scalars or float arrays as in ft_f_closed."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    d = k.d
    fv = _as_freq(xi, d + 1)
    xit = fv[d]
    b, c = params.b, params.c
    mu, beta, gamma = params.mu, params.beta, params.gamma
    if not (b + k.total > 0.0 and c > 0.0):
        raise DomainError("need b + |k| > 0 and c > 0 for the Gamma factors")
    ball = _ball_transform_core(k, params.a, mu, fv)
    zpow = 2.0 ** (b + c - 1.0)
    m = int(n) - k.total
    pref = pochhammer(2 * k.total + 2.0 * mu + beta + d, m) / math.factorial(m)
    gammas = gamma_cx(b + k.total - 0.5j * xit) * gamma_cx(c + 0.5j * xit) \
        / gamma_cx(k.total + b + c)
    return _cx_or_array(zpow * pref * gammas * ball
                        * xi_factor(n, k, b, c, mu, beta, gamma, xit))


# ----------------------------------------------------------------------
# Parseval-derived families
# ----------------------------------------------------------------------

_FORMS = ("hyper", "hahn")


def _check_form(form: str) -> None:
    if form not in _FORMS:
        raise DomainError(f"unknown form {form!r}; pick from {_FORMS}")


def _family_axis_factor(xj, j: int, k: MultiIndex, pp: ParsevalParams,
                        form: str):
    """Axis j (1-based) factor shared by both Parseval families: the
    Gamma pair Gamma(alpha_j - x_j/2) Gamma(alpha_j + x_j/2) times a
    terminating 3F2 (or its continuous-Hahn rewriting).

    Where the Gamma pair underflows the factor is exactly 0: the
    polynomial is evaluated at x_j = 0 there, so its overflow at large
    |x_j| never meets the underflow as inf * 0."""
    d = k.d
    kj = k[j - 1]
    tail = k.tail(j + 1)
    a1, a2, abs_a = pp.a1, pp.a2, pp.abs_a
    xj = np.asarray(xj)
    base = a1 + tail / 2.0 + (d - j) / 4.0
    pair = gamma_cx(np.stack((base - 0.5 * xj, base + 0.5 * xj)))
    gg = pair[0] * pair[1]
    xj = np.where(gg == 0.0, 0.0, xj)
    if form == "hyper":
        return gg * _pfq_terminating(
            (-kj, kj + 2.0 * (tail + abs_a + (d - j - 1) / 2.0),
             base + 0.5 * xj),
            (tail + abs_a + (d - j) / 2.0, tail + 2.0 * a1 + (d - j) / 2.0),
            1.0)
    alpha2 = a2 + tail / 2.0 + (d - j) / 4.0
    pref = math.factorial(kj) * _I_POWERS[(-kj) % 4] / (
        pochhammer(tail + 2.0 * a1 + (d - j) / 2.0, kj)
        * pochhammer(tail + abs_a + (d - j) / 2.0, kj))
    return pref * gg * continuous_hahn(
        kj, -0.5j * xj, base, alpha2, alpha2, base)


def _axis_factors(k: MultiIndex, pp: ParsevalParams, form: str) -> list:
    return [partial(_family_axis_factor, j=j, k=k, pp=pp, form=form)
            for j in range(1, k.d + 1)]


def _family_value(factors, t, x):
    t_factor, axis_factors = factors
    value = t_factor(t)
    for factor, xj in zip(axis_factors, _coords(x, len(axis_factors))):
        value = value * factor(xj)
    return _cx_or_array(value)


def a_family_factors(k, n: int, pp: ParsevalParams, form: str = "hyper"):
    """The first Parseval family as separable factors
    (t_factor, [axis_factor_1, ..., axis_factor_d]) with

        a_family(t, x) = t_factor(t) * prod_j axis_factor_j(x_j).

    t_factor is the argument-2 2F1 in t times the shifted Pochhammer
    (b1 - t)_|k|; each factor is a vectorized callable of one variable."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    _check_form(form)

    def t_factor(t):
        tt = np.asarray(t)
        return _pfq_terminating(
            (-int(n) + k.total, pp.b1 + k.total - tt),
            (2 * k.total + pp.abs_b,),
            2.0) * pochhammer(pp.b1 - tt, k.total)

    return t_factor, _axis_factors(k, pp, form)


def b_family_factors(k, n: int, pp: ParsevalParams, form: str = "hyper"):
    """The second Parseval family as separable factors, as in
    a_family_factors.  t_factor is a terminating 3F2 at 1 in t
    (equivalently a degree n-|k| continuous-Hahn polynomial) times
    (b1 - t/2)_|k|."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    _check_form(form)
    if not pp.has_c:
        raise DomainError("b_family requires ParsevalParams with the c pair")
    m = int(n) - k.total

    def t_factor(t):
        tt = np.asarray(t)
        if form == "hyper":
            tpart = _pfq_terminating(
                (-m, int(n) + k.total + pp.abs_b + pp.abs_c - 1.0,
                 k.total + pp.b1 - 0.5 * tt),
                (2 * k.total + pp.abs_b, k.total + pp.b1 + pp.c1),
                1.0)
        else:
            pref = math.factorial(m) * _I_POWERS[(k.total - int(n)) % 4] / (
                pochhammer(2 * k.total + pp.abs_b, m)
                * pochhammer(k.total + pp.b1 + pp.c1, m))
            tpart = pref * continuous_hahn(
                m, 0.5j * tt, k.total + pp.b1, pp.c2, k.total + pp.b2, pp.c1)
        return tpart * pochhammer(pp.b1 - 0.5 * tt, k.total)

    return t_factor, _axis_factors(k, pp, form)


def a_family(t, x, k, n: int, pp: ParsevalParams, form: str = "hyper") -> Cx:
    """First Parseval family: argument-2 2F1 in t times the shifted
    Pochhammer (b1 - t)_|k| times the axis product.

    t and the entries of x may be complex scalars or broadcastable
    arrays; the orthogonality theorem evaluates them on the imaginary
    slices (it, ix)."""
    return _family_value(a_family_factors(k, n, pp, form), t, x)


def b_family(t, x, k, n: int, pp: ParsevalParams, form: str = "hyper") -> Cx:
    """Second Parseval family: terminating 3F2 at 1 in t (equivalently a
    degree n-|k| continuous-Hahn polynomial) times (b1 - t/2)_|k| times
    the axis product."""
    return _family_value(b_family_factors(k, n, pp, form), t, x)


def _axis_norm_log(k: MultiIndex, pp: ParsevalParams) -> float:
    """log of the shared per-axis factor of both norm constants."""
    d = k.d
    total = 0.0
    for j in range(1, d + 1):
        kj = k[j - 1]
        tail = k.tail(j + 1)
        total += 2.0 * math.lgamma(kj + 1)
        total += math.lgamma(tail + 2.0 * pp.a1 + (d - j) / 2.0)
        total += math.lgamma(tail + 2.0 * pp.a2 + (d - j) / 2.0)
        total -= 2.0 * tail * _LOG2
        _, lp = _signed_log_pochhammer(2.0 * tail + 2.0 * pp.abs_a + d - j - 1.0, kj)
        total -= 2.0 * lp  # squared, so the sign cannot matter
    return total


def a_norm_rhs(n: int, k, pp: ParsevalParams) -> float:
    """Diagonal value of the first family's orthogonality integral,
    assembled in log space.  Its power of 2 is d + 1 - (d-1)(d-2)/2: the
    axis factors are the ball transform's theta factors times
    Gamma(2 base_j), and that transform obeys Parseval exactly."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    d = k.d
    m = int(n) - k.total
    log = (d + 1) * math.log(2.0 * math.pi)
    log += (-2.0 * d * pp.abs_a - 2.0 * k.total - pp.abs_b + d + 1
            - (d - 1) * (d - 2) // 2) * _LOG2
    log += math.log(ball_norm(k, pp.mu))
    log += math.lgamma(pp.abs_b + n + k.total) + math.lgamma(m + 1)
    _, lp = _signed_log_pochhammer(2 * k.total + pp.abs_b, m)
    log -= 2.0 * lp
    log += _axis_norm_log(k, pp)
    return math.exp(log)


def b_norm_rhs(n: int, k, pp: ParsevalParams) -> float:
    """Diagonal value of the second family's orthogonality integral,
    assembled in log space; its power of 2 is d + 2 - (d-1)(d-2)/2, for
    the reason given in a_norm_rhs."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    if not pp.has_c:
        raise DomainError("b_norm_rhs requires ParsevalParams with the c pair")
    d = k.d
    m = int(n) - k.total
    log = (d + 1) * math.log(2.0 * math.pi)
    log += (-2.0 * d * pp.abs_a + d + 2 - (d - 1) * (d - 2) // 2) * _LOG2
    log += math.log(ball_norm(k, pp.mu))
    log += math.lgamma(m + 1)
    log += math.lgamma(n + k.total + pp.abs_b) + math.lgamma(n - k.total + pp.abs_c)
    log += math.lgamma(k.total + pp.b1 + pp.c1) + math.lgamma(k.total + pp.b2 + pp.c2)
    _, lp = _signed_log_pochhammer(2 * k.total + pp.abs_b, m)
    log -= 2.0 * lp
    log -= math.log(2.0 * n + pp.abs_b + pp.abs_c - 1.0)
    log -= math.lgamma(n + k.total + pp.abs_b + pp.abs_c - 1.0)
    log += _axis_norm_log(k, pp)
    return math.exp(log)
