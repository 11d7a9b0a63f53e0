"""Tanh-substituted ball and cone function families, their closed-form
Fourier transforms, and the two Parseval-derived orthogonal function
families with their closed-form norm constants.

Every transform and family is a product of rows of one factor table
(_Factor): a Gamma product, a Beta being a Gamma pair over Gamma(2 base),
times a terminating 3F2 or 2F1 (or a continuous-Hahn polynomial).  _Rows
evaluates rows with one gamma_cx call (_Gammas), taking a Gamma product
that overflows in log space, or by reflection far out on the real axis,
and the series of all rows in one loop over columns compiled when it is
built.  The Parseval integrand evaluates its rows only inside the reach
past which every Gamma of them is an exact 0, and takes their Gamma
products from one table shared by every check with the same Gamma slots.

Conventions
-----------
Frequency vectors order the d ball-direction frequencies first; the cone
axis frequency (paired with the t variable) comes last.  Every complex
power uses the principal logarithm; all bases in-domain are positive
reals, so no branch ambiguity arises.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .kernel import (_LOG2, INTEGRALITY_TOL, Cx, DomainError, PoleError,
                     _exp_in_range, _gamma_zero_beyond, _series_terms,
                     _signed_log_pochhammer, gamma_cx, log_gamma_cx, pochhammer)
from .multivariate import (JacobiConeParams, LaguerreConeParams, MultiIndex,
                           _as_multiindex, _coords, ball_norm)
from .univariate import _I_POWERS, continuous_hahn, gegenbauer, jacobi, laguerre

__all__ = [
    "FreqVector",
    "TransformParamsLaguerre",
    "TransformParamsJacobi",
    "ParsevalParams",
    "f_d",
    "f_d_via_g2",
    "g_laguerre",
    "g_jacobi",
    "theta_hyper",
    "theta_hahn",
    "ft_f_closed",
    "ft_g_laguerre_closed",
    "ft_g_jacobi_closed",
    "a_family",
    "b_family",
    "a_norm_rhs",
    "b_norm_rhs",
]

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
    try:
        v = float(value)
    except TypeError:  # a complex value
        v = math.nan
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be a positive real, got {value!r}")
    return v


@dataclass(frozen=True)
class TransformParamsLaguerre(LaguerreConeParams):
    """The Gaussian-Laguerre cone family's cone weight parameters
    (beta, mu) with its transform parameters (a, b), positive reals."""
    a: float
    b: float

    def __init__(self, a, b, beta, mu):
        object.__setattr__(self, "a", _positive_real(a, "a"))
        object.__setattr__(self, "b", _positive_real(b, "b"))
        super().__init__(float(beta), float(mu))


@dataclass(frozen=True)
class TransformParamsJacobi(JacobiConeParams):
    """The beta-type cone family's cone weight parameters
    (beta, mu, gamma) with its transform parameters (a, b, c), positive
    reals."""
    a: float
    b: float
    c: float

    def __init__(self, a, b, c, beta, mu, gamma):
        object.__setattr__(self, "a", _positive_real(a, "a"))
        object.__setattr__(self, "b", _positive_real(b, "b"))
        object.__setattr__(self, "c", _positive_real(c, "c"))
        super().__init__(float(beta), float(mu), float(gamma))


@dataclass(frozen=True)
class ParsevalParams:
    """Positive parameter pairs of the Parseval-derived families.

    The orthogonality theorems hold only under the parameter couplings
    mu = |a| - 1/2 and beta = |b| - 2|a| (and gamma = |c| - 1 when the c
    pair is present), so these are derived values, not parameters.
    """
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float | None
    c2: float | None

    def __init__(self, a1, a2, b1, b2, c1=None, c2=None):
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


def _f_power(k: MultiIndex, a, j: int) -> float:
    """The power a + |k^{j+1}|/2 + (d-j)/4 of sech^2 x_j in factor j of f_d."""
    return a + k.tail(j + 1) / 2.0 + (k.d - j) / 4.0


def _f_factor(k: MultiIndex, a, mu, j: int, x):
    """Factor j (1-based) of f_d at x_j = x:
    sech^2(x)^(a + |k^{j+1}|/2 + (d-j)/4) C_{k_j}^(lambda_j)(tanh x).
    The power of sech^2 is taken whole: a (1 - tanh^2 x) would round to
    0 past |x| of about 19, and lose digits well before."""
    x = np.asarray(x, dtype=np.float64)
    return (_sech2(x) ** _f_power(k, a, j)
            * gegenbauer(k[j - 1], k.lambda_j(j, mu), np.tanh(x)))


def f_d(x, k, a, mu):
    """Product of (1 - tanh^2 x_j)^(a + (d-j)/4) with the ball basis
    polynomial evaluated at the nested tanh coordinates, taken as the
    product of its axis factors (_f_factor).

    x is a sequence of d real scalars or broadcastable arrays.  The value
    is smooth on all of R^d.
    """
    k = _as_multiindex(k)
    xs = _coords(x, k.d)
    return math.prod(_f_factor(k, a, mu, j, xj) for j, xj in enumerate(xs, 1))


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
    return _laguerre_t_part(t, k, n, params) * f_d(x, k, params.a, params.mu)


def _laguerre_t_part(t, k: MultiIndex, n: int, params: TransformParamsLaguerre):
    """The t part of g_laguerre."""
    _check_k_n(k, n)
    ta = np.asarray(t, dtype=np.float64)
    dead = ta > 8.0  # exp(-e^t/2) < 1e-647: identically 0 in doubles
    ta = np.where(dead, 0.0, ta)
    u = np.exp(ta)
    alpha = 2 * k.total + 2 * params.mu + params.beta + k.d - 1
    lag = laguerre(int(n) - k.total, alpha, u)
    core = np.exp(-0.5 * u + (params.b + k.total) * ta)
    return np.where(dead, 0.0, lag * core)


def g_jacobi(t, x, k, n, params: TransformParamsJacobi):
    """2^(-|k|) (1+tanh t)^(b+|k|) (1-tanh t)^c
    P_(n-|k|)^((2|k|+2 mu+beta+d-1, gamma))(-tanh t) times
    f_d(x; k, a, mu)."""
    k = _as_multiindex(k)
    return _jacobi_t_part(t, k, n, params) * f_d(x, k, params.a, params.mu)


def _jacobi_t_part(t, k: MultiIndex, n: int, params: TransformParamsJacobi):
    """The t part of g_jacobi.  1 -+ tanh t are taken without cancellation,
    as 2e/(1 + e) on the side that tends to 0 and 2/(1 + e) on the other,
    e = e^{-2|t|}: 1 - tanh t itself would round to 0 past t of about 19."""
    _check_k_n(k, n)
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-2.0 * np.abs(t))
    small, big = 2.0 * e / (1.0 + e), 2.0 / (1.0 + e)
    plus, minus = np.where(t >= 0.0, big, small), np.where(t >= 0.0, small, big)
    alpha = 2 * k.total + 2 * params.mu + params.beta + k.d - 1
    return 2.0 ** (-k.total) * plus ** (params.b + k.total) * minus ** params.c \
        * jacobi(int(n) - k.total, alpha, params.gamma, -np.tanh(t))


# ----------------------------------------------------------------------
# The factor table: every closed form is a product of _Factor rows
# ----------------------------------------------------------------------

class _Factor(NamedTuple):
    """One hyper-form factor, a function of its one variable z:

        prod_i Gamma(g_i + c_i z) / Gamma(den_gamma)
            * pFq(*num, shift + slope z; *den; argument)
            * (poch_shift + poch_slope z)_poch_n

    gammas holds 0-2 pairs (g_i, c_i) and den_gamma a constant or None;
    num[0] is minus the series' degree, an int."""
    gammas: tuple
    num: tuple
    shift: float
    slope: float
    den: tuple
    argument: float
    poch: tuple = (0.0, 0.0, 0)
    den_gamma: float | None = None


def _axis_spec(j: int, k: MultiIndex, a, mu) -> _Factor:
    """Axis j (1-based) factor of the ball transform with parameters
    (a, mu), and of both Parseval families at (a1, |a| - 1/2): the Gamma
    pair Gamma(base - z/2) Gamma(base + z/2) times a terminating 3F2."""
    d = k.d
    kj = k[j - 1]
    tail = k.tail(j + 1)
    base = a + tail / 2.0 + (d - j) / 4.0
    return _Factor(((base, -0.5), (base, 0.5)),
                   (-kj, kj + 2.0 * (tail + mu + (d - j) / 2.0)), base, 0.5,
                   (tail + mu + (d - j + 1) / 2.0,
                    tail + 2.0 * a + (d - j) / 2.0), 1.0)


def _theta_spec(j: int, d: int, a, mu, k: MultiIndex) -> _Factor:
    """theta_j as a function of z = i xi_j: the axis factor over
    Gamma(2 base), which makes its Gamma pair a Beta."""
    if k.d != d:
        raise DomainError(f"multiindex has d={k.d}, expected {d}")
    if not 1 <= j <= d:
        raise DomainError(f"axis index j={j} outside 1..{d}")
    spec = _axis_spec(j, k, a, mu)
    return spec._replace(den_gamma=2.0 * spec.shift)


def _t_spec(k: MultiIndex, n: int, b, den, c=None, top=None) -> _Factor:
    """The t factor of a cone transform (z = i xi_t) or of a Parseval
    family (z = t), m = n - |k|: the Laguerre cone's 2F1(-m, b + |k| - z;
    den; 2), or, given c and top, the Jacobi cone's 3F2(-m, top,
    b + |k| - z/2; den, b + |k| + c; 1); den and top differ for d > 1."""
    kt = k.total
    m = int(n) - kt
    if c is None:
        return _Factor((), (-m,), b + kt, -1.0, (den,), 2.0)
    return _Factor((), (-m, top), kt + b, -0.5, (den, kt + b + c), 1.0)


# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)


def _reflected_pair(alpha, y):
    """log Gamma(alpha - y) Gamma(alpha + y) for Re y >= 0 and
    Re(alpha - y) < 1/2, the first Gamma reflected: log pi + L - log
    sin(pi (alpha - y)), L = log Gamma(y + alpha) - log Gamma(y + 1 - alpha).
    The sine takes Re y mod 2 exactly; for |y| >= 10 (1 + |alpha|), L is
    the difference of two Stirling series with u = y + 1/2, h = alpha - 1/2,
    (2u - 1) atanh(h/u) + h log((u + h)(u - h)) - 2h + ..., free of the
    eps |y log y| that two log Gammas would lose far out on the real axis."""
    log = np.empty(y.shape, dtype=np.complex128)
    far = np.abs(y) >= 10.0 * (1.0 + abs(alpha))
    near = y[~far]
    log[~far] = log_gamma_cx(near + alpha) - log_gamma_cx(near + 1.0 - alpha)
    u, h = y[far] + 0.5, alpha - 0.5
    log[far] = (2.0 * u - 1.0) * np.arctanh(h / u) - 2.0 * h \
        + h * (np.log(u + h) + np.log(u - h)) + sum(
            c * ((u + h) ** (1 - 2 * k) - (u - h) ** (1 - 2 * k))
            for k, c in enumerate(_STIRLING, 1))
    left = alpha - (np.fmod(y.real, 2.0) + 1j * y.imag)  # alpha - y mod 2
    if np.any((np.abs(left.imag) < INTEGRALITY_TOL)
              & (np.abs(left.real - np.round(left.real)) < INTEGRALITY_TOL)):
        raise PoleError(f"Gamma pair at a pole: alpha={alpha}")
    return math.log(math.pi) + log - np.log(np.sin(np.pi * left))


def _gamma_product_by_logs(spec: _Factor, z):
    """The Gamma product of spec at the points z (1-d) from log Gammas, for
    where its direct product is not finite: at large parameters, or far
    out on the real axis, where one Gamma of the symmetric axis pair
    overflows as the other underflows; that pair is reflected there."""
    log = np.zeros(z.shape, dtype=np.complex128)
    plain = np.ones(z.shape, dtype=bool)
    (g, c), *rest = spec.gammas
    if rest and rest[0] == (g, -c):
        y = abs(c) * z
        y = np.where(y.real < 0.0, -y, y)
        plain = (g - y).real >= 0.5
        log[~plain] = _reflected_pair(g, y[~plain])
    log[plain] = log_gamma_cx(
        np.stack([g + c * z[plain] for g, c in spec.gammas])).sum(axis=0)
    if spec.den_gamma is not None:
        log -= log_gamma_cx(spec.den_gamma)
    return np.exp(log)


class _Gammas:
    """The Gamma products of _Factor rows, row r at z[r] for z of shape
    (rows, points): one gamma_cx call takes every Gamma of every row, and
    _gamma_product_by_logs what overflows."""

    def __init__(self, factors):
        self.factors = factors
        # Gamma slots: row r's numerator Gammas at r and rows + r, its
        # denominator Gamma (slope 0) at 2 rows + r; the other slots hold 1
        n = len(factors)
        slots = sorted([(i * n + r, gc) for r, f in enumerate(factors)
                        for i, gc in enumerate(f.gammas)]
                       + [(2 * n + r, (f.den_gamma, 0.0))
                          for r, f in enumerate(factors)
                          if f.den_gamma is not None])
        self.slots = [slot for slot, _ in slots]
        self.at = [slot % n for slot in self.slots]
        gc = np.array([gc for _, gc in slots]).reshape(-1, 2)
        self.g, self.c = gc[:, :1], gc[:, 1:]

    def __call__(self, z):
        """(the rows' Gamma products at z, z taken at 0 where a product is
        an exact 0)."""
        n = len(self.factors)
        gam = np.ones((3 * n, z.shape[1]), dtype=np.complex128)
        try:
            if self.slots:
                gam[self.slots] = gamma_cx(self.g + self.c * z[self.at])
        except PoleError:  # perhaps a pole only of a rounded argument
            gam[self.slots] = np.nan
        pre = gam[:n] * gam[n:2 * n]
        if self.slots and self.slots[-1] >= 2 * n:  # denominator Gammas
            pre /= gam[2 * n:]
        if not (np.isfinite(pre).all() and np.isfinite(gam[2 * n:]).all()):
            bad = ~np.isfinite(pre) | ~np.isfinite(gam[2 * n:])
            for r in np.flatnonzero(bad.any(axis=1)):
                with np.errstate(all="ignore"):
                    pre[r, bad[r]] = _gamma_product_by_logs(
                        self.factors[r], z[r, bad[r]])
        # z at 0 where its product has underflowed to an exact 0, so that
        # the growth of a terminating series in z never meets it as inf * 0
        return pre, np.where(pre == 0.0, 0.0, z)


class _Rows:
    """The one evaluator of _Factor rows, row r at z[r] for z of shape
    (rows, points): their Gamma products by _Gammas, times their series
    and Pochhammer factors.

    The build checks every row's series for its stop and denominator
    poles, once, and compiles the series of all rows, of any kind, into
    constant columns of the term ratio: with w = shift + slope z, term
    j + 1 is term j times p_j (w + j), then divided by each denominator
    b + j in turn, where p_j = (argument / (j + 1)) (num_0 + j) (num_1 + j)
    ...  From the term where a row's series stops, p_j is an exact 0 and
    its denominators 1, as is a denominator the row lacks.  So one loop
    takes the rows of every kind, in the scalar series' order of
    operations."""

    def __init__(self, factors):
        self.gammas = _Gammas(factors)
        stops = [_series_terms(f.num, f.den) for f in factors]
        p = max(len(f.num) for f in factors)
        q = max(len(f.den) for f in factors)
        terms = range(max(stops))

        def plus_j(f, stop, j):
            """Row f's numerators, then denominators, plus j at term j: 1
            for a parameter it lacks, and from its stop on 0 for its
            degree and 1 for the rest."""
            if j >= stop:
                return [0] + [1] * (p + q - 1)
            return ([a + j for a in f.num] + [1] * (p - len(f.num))
                    + [b + j for b in f.den] + [1] * (q - len(f.den)))

        table = np.array([plus_j(f, stop, j) for j in terms
                          for f, stop in zip(factors, stops)],
                         dtype=np.complex128).reshape(len(terms),
                                                      len(factors), p + q)
        head = np.array([(f.argument, f.shift, f.slope, *f.poch)
                         for f in factors], dtype=np.complex128)
        self.p = head[:, :1] / np.arange(1.0, len(terms) + 1.0)[:, None, None]
        for i in range(p):
            self.p = self.p * table[..., i:i + 1]
        self.den = table[..., p:].transpose(0, 2, 1)[..., None]
        self.shift, self.slope = head[:, 1:2], head[:, 2:3]
        rows = [r for r, f in enumerate(factors) if f.poch[2]]
        self.poch = (rows, head[rows, 3:4], head[rows, 4:5],
                     head[rows, 5:6].real)

    def __call__(self, z, gammas=None):
        """The rows at z; gammas, if given, is the pair self.gammas
        returned for these points, and takes z's place."""
        pre, z = self.gammas(z) if gammas is None else gammas
        w = self.shift + self.slope * z
        term = np.ones(z.shape, dtype=np.complex128)
        value = term.copy()
        for j, (p, den) in enumerate(zip(self.p, self.den)):
            factor = p * (w + j)
            for b in den:
                factor = factor / b
            term = term * factor
            value = value + term
        rows, shift, slope, order = self.poch
        if rows:
            # no in-place or masked products: numpy rounds those complex
            # products differently from pochhammer's
            a = shift + slope * z[rows]
            poch = np.ones(a.shape, dtype=np.complex128)
            for j in range(int(order.max())):
                poch = poch * np.where(j < order, a + j, 1.0)
            value[rows] = value[rows] * poch
        return pre * value


def _product(factors, *zs):
    """The product of the factors, factor r at zs[r], for zs that
    broadcast together: one _Rows call.  Scalars give a 0-d array."""
    shape = np.broadcast(*zs).shape
    z = np.empty((len(zs), *shape), dtype=np.complex128)
    for r, zr in enumerate(zs):
        z[r] = zr
    values = _Rows(factors)(z.reshape(len(zs), -1))
    value = values[0]
    for row in values[1:]:
        value = value * row
    return value.reshape(shape)


def _hahn_value(spec: _Factor, b, z):
    """spec at z, its 3F2 at 1 written as the continuous-Hahn polynomial
    p_m(x; a, b, c, d) of Koekoek-Lesky-Swarttouw 9.4.1, a + ix = shift +
    slope z, (a + c, a + d) the denominators and b given: theta-dual's
    second evaluation."""
    pre, zz = _Gammas([spec])(np.reshape(z, (1, -1)))
    m = -spec.num[0]
    a = spec.shift
    e, f = spec.den
    pref = math.factorial(m) * _I_POWERS[(-m) % 4] / (
        pochhammer(e, m) * pochhammer(f, m))
    value = pref * pre[0] * continuous_hahn(
        m, -1j * spec.slope * zz[0], a, b, e - a, f - a)
    shift, slope, n = spec.poch
    return (value * pochhammer(shift + slope * zz[0], n)).reshape(np.shape(z))


def _finite(compute, *args):
    """compute(*args); DomainError where its value is not finite, as where
    a t factor's polynomial overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute(*args)
    if not np.isfinite(value).all():
        raise DomainError("value is not finite at this argument")
    return value


# ----------------------------------------------------------------------
# Closed-form Fourier transforms
# ----------------------------------------------------------------------

def theta_hyper(j: int, d: int, a, mu, k, xi_j) -> Cx:
    """Axis-j Beta-times-3F2 factor of the ball transform."""
    spec = _theta_spec(j, d, a, mu, _as_multiindex(k))
    return _cx_or_array(_finite(_product, [spec], 1j * np.asarray(xi_j)))


def theta_hahn(j: int, d: int, a, mu, k, xi_j) -> Cx:
    """Axis-j factor in continuous-Hahn form; identical in value to
    theta_hyper."""
    spec = _theta_spec(j, d, a, mu, _as_multiindex(k))
    return _cx_or_array(_finite(_hahn_value, spec, spec.den[0] - spec.shift,
                                1j * np.asarray(xi_j)))


def _laguerre_t_spec(k: MultiIndex, n: int, b, mu, beta) -> _Factor:
    """The Laguerre cone's t row without its Gamma: the terminating 2F1 at
    argument 2 carried by the half-line cone axis."""
    _check_k_n(k, n)
    return _t_spec(k, n, b, 2 * k.total + 2.0 * mu + beta + k.d)


def _jacobi_t_spec(k: MultiIndex, n: int, b, c, mu, beta, gamma) -> _Factor:
    """The Jacobi cone's t row without its Gammas: the terminating 3F2 at 1
    carried by the bounded cone axis."""
    _check_k_n(k, n)
    return _t_spec(k, n, b, 2 * k.total + 2.0 * mu + beta + k.d, c,
                   int(n) + k.total + 2.0 * mu + beta + gamma + k.d)


def _closed_value(k: MultiIndex, a, mu, xi, t=None, power=0.0,
                  const=1.0) -> Cx:
    """2^power const times the ball transform at xi (its powers of 2,
    Pochhammer constants and theta rows at z_j = i xi_j), with the cone's
    t row t at z = i xi_t if given: one _Rows call checked by _finite."""
    d = k.d
    power = power + 2.0 * d * a + d * (d - 5) / 4.0 \
        + sum(j * k[j] for j in range(1, d))
    rows = []
    for j in range(1, d + 1):
        rows.append(_theta_spec(j, d, a, mu, k))
        if not rows[-1].shift > 0.0:
            raise DomainError(f"Beta argument a + |k^(j+1)|/2 + (d-j)/4 "
                              f"must be positive at j={j}")
        kj = k[j - 1]
        const = const * pochhammer(
            2.0 * (k.tail(j + 1) + mu + (d - j) / 2.0), kj) / math.factorial(kj)
    rows += [] if t is None else [t]
    return _cx_or_array(_finite(lambda: np.exp(power * _LOG2) * const
                                * _product(rows, *(1j * v for v in xi))))


def ft_f_closed(k, a, mu, xi) -> Cx:
    """Closed-form Fourier transform of f_d: a power of 2 times the
    product over axes of Pochhammer-weighted Beta-3F2 factors.

    xi is a FreqVector or a sequence of d components; the components may
    be real scalars or float arrays that broadcast together, as x in f_d.
    Array components give an array of values, scalar ones a complex."""
    k = _as_multiindex(k)
    return _closed_value(k, a, mu, _as_freq(xi, k.d))


def ft_g_laguerre_closed(k, n: int, params: TransformParamsLaguerre, xi) -> Cx:
    """Closed-form Fourier transform of g_laguerre: ball factors times
    2^(b+|k|-i xi_t) Gamma(b+|k|-i xi_t) and the argument-2 2F1.  xi has
    d + 1 components, scalars or float arrays as in ft_f_closed."""
    k = _as_multiindex(k)
    b, mu = params.b, params.mu
    t = _laguerre_t_spec(k, n, b, mu, params.beta)
    fv = _as_freq(xi, k.d + 1)
    m = -t.num[0]
    return _closed_value(k, params.a, mu, fv,
                         t._replace(gammas=((b + k.total, -1.0),)),
                         b + k.total - 1j * fv[k.d],
                         pochhammer(t.den[0], m) / math.factorial(m))


def ft_g_jacobi_closed(k, n: int, params: TransformParamsJacobi, xi) -> Cx:
    """Closed-form Fourier transform of g_jacobi: ball factors times the
    Gamma(b+|k|-i xi_t/2) Gamma(c+i xi_t/2) pair and the terminating 3F2.
    xi has d + 1 components, scalars or float arrays as in ft_f_closed."""
    k = _as_multiindex(k)
    b, c, mu = params.b, params.c, params.mu
    t = _jacobi_t_spec(k, n, b, c, mu, params.beta, params.gamma)
    fv = _as_freq(xi, k.d + 1)
    m = -t.num[0]
    t = t._replace(gammas=((k.total + b, -0.5), (c, 0.5)),
                   den_gamma=k.total + b + c)
    return _closed_value(k, params.a, mu, fv, t, b + c - 1.0,
                         pochhammer(t.den[0], m) / math.factorial(m))


# ----------------------------------------------------------------------
# Parseval-derived families
# ----------------------------------------------------------------------

_FORMS = ("hyper", "hahn")


def _check_form(form: str) -> None:
    if form not in _FORMS:
        raise DomainError(f"unknown form {form!r}; pick from {_FORMS}")


def _family_specs(family: str, k, n: int, pp: ParsevalParams) -> list:
    """The rows of family "a" or "b": its t factor, (b1 - t)_|k| times the
    argument-2 2F1 or (b1 - t/2)_|k| times the 3F2 at 1, then its d axis
    factors."""
    k = _as_multiindex(k)
    _check_k_n(k, n)
    kt = k.total
    den = 2 * kt + pp.abs_b
    if family == "a":
        t = _t_spec(k, n, pp.b1, den)
    elif not pp.has_c:
        raise DomainError("b_family requires ParsevalParams with the c pair")
    else:
        t = _t_spec(k, n, pp.b1, den, pp.c1,
                    int(n) + kt + pp.abs_b + pp.abs_c - 1.0)
    return [t._replace(poch=(pp.b1, t.slope, kt)),
            *(_axis_spec(j, k, pp.a1, pp.mu) for j in range(1, k.d + 1))]


def _family_value(family: str, t, x, k, n: int, pp: ParsevalParams,
                  form: str):
    """The family at (t, x), checked by _finite.  In the hyper form one
    _Rows call takes its t row and axis rows; in the hahn form the t row
    of family b and each axis row is a continuous-Hahn polynomial, each
    row is checked by _finite, and so is their product."""
    _check_form(form)
    k = _as_multiindex(k)
    zs = (t, *_coords(x, k.d))
    specs = _family_specs(family, k, n, pp)
    if form == "hyper":
        return _cx_or_array(_finite(_product, specs, *zs))
    t_spec, *axes = specs
    values = [_finite(_product, [t_spec], t) if family == "a"  # no Hahn form
              else _finite(_hahn_value, t_spec, pp.c2, t),
              *(_finite(_hahn_value, s, s.den[0] - s.shift, z)
                for s, z in zip(axes, zs[1:]))]
    return _cx_or_array(_finite(math.prod, values))


class _GammaTable:
    """Values computed once per key and kept, least recently used first
    out, while the bytes of their arrays and of the keys' node bytes (a
    key's last item) stay within max_bytes; a value larger than that is
    returned but not kept.  Kept arrays are read-only."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries = OrderedDict()

    def get(self, key, compute):
        """The value of key: the kept one, or else compute()."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        value = compute()
        size = len(key[-1]) + sum(a.nbytes for a in value)
        if size <= self.max_bytes:
            for a in value:
                a.flags.writeable = False
            self._entries[key] = (value, size)
            self.nbytes += size
            while self.nbytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.nbytes -= dropped
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


# The Gamma parts of the Parseval integrand, keyed by the rows' Gamma slots,
# the reach and the nodes.  At d = 1 they depend only on the family and the
# parameter pairs, so every check of a grid over one parameter set shares
# them, level by level of the ladder.  4 MiB holds a parseval pass (25
# checks) many times over, and a d = 1 level 12 (27,764 nodes, 1.5 MB),
# the deepest a non-converging default ladder climbs to.
_GAMMA_TABLE = _GammaTable(4 << 20)


def _orthogonality_integrand(family: str, n: int, k: MultiIndex, m: int,
                             l: MultiIndex, pp: ParsevalParams):
    """The whole-line ladder integrand of the (n, k) x (m, l) orthogonality
    integral of family "a" or "b",

        int int w(t) Fam(it, ix; pp) Fam(-it, -ix; swapped pp) dt dx,

    with the Gamma weight w = Gamma(b1 - it) Gamma(b2 + it) (family a) or
    Gamma(b1 - it/2) Gamma(c1 + it/2) Gamma(b2 + it/2) Gamma(c2 - it/2)
    (family b), split between the two t factors.  Row 0 holds the
    weighted t factors, row j the axis-j factors; each row is
    F(s) conj(G(s)), with F the (n, k) factor at is and G(s) the
    conjugate of the swapped (m, l) factor at -is.  Every row is finite
    on the whole line, an exact 0 where its Gamma products underflow:
    past |s| = reach, where every Gamma of both sides is, the rows are not
    evaluated.

    The Gamma part of a call (the live nodes, and the Gamma products with
    z = +-is, z at 0 where a product underflows) depends only on the rows'
    Gamma slots, the reach and the nodes, so it comes from _GAMMA_TABLE:
    checks that share a family and parameter pairs (at d = 1, every check
    of a grid over them) share one Gamma table.  A missing entry is
    computed as it would be without the table, so no value depends on
    which checks ran before."""
    swapped = ParsevalParams(pp.a2, pp.a1, pp.b2, pp.b1, pp.c2, pp.c1)
    factors = []
    for kk, nn, p in ((k, n, pp), (l, m, swapped)):
        weight = (((p.b1, -1.0),) if family == "a"
                  else ((p.b1, -0.5), (p.c1, 0.5)))
        t, *axes = _family_specs(family, kk, nn, p)
        factors += [t._replace(gammas=weight), *axes]
    rows = _Rows(factors)
    half = k.d + 1
    sign = np.repeat([1j, -1j], half)[:, None]
    # every row holds a Gamma at g + c z, c != 0, and z = +-is puts its
    # argument at g + ics
    slots = zip(rows.gammas.g.ravel().tolist(),
                np.abs(rows.gammas.c).ravel().tolist())
    reach = max(_gamma_zero_beyond(g) / c for g, c in set(slots))
    key = (tuple((f.gammas, f.den_gamma) for f in factors), reach)

    def gamma_part(s):
        live = np.abs(s) < reach
        return (live, *rows.gammas(sign * s[live]))

    def integrand(s):
        live, pre, z = _GAMMA_TABLE.get(
            (*key, s.dtype.str, s.shape, s.tobytes()), partial(gamma_part, s))
        value = rows(z, (pre, z))
        out = np.zeros((half, s.size), dtype=np.complex128)
        out[:, live] = value[:half] * value[half:]
        return out

    return integrand


def a_family(t, x, k, n: int, pp: ParsevalParams, form: str = "hyper") -> Cx:
    """First Parseval family: argument-2 2F1 in t times the shifted
    Pochhammer (b1 - t)_|k| times the axis product.

    t and the entries of x may be complex scalars or broadcastable
    arrays; the orthogonality theorem evaluates them on the imaginary
    slices (it, ix)."""
    return _family_value("a", t, x, k, n, pp, form)


def b_family(t, x, k, n: int, pp: ParsevalParams, form: str = "hyper") -> Cx:
    """Second Parseval family: terminating 3F2 at 1 in t (equivalently a
    degree n-|k| continuous-Hahn polynomial) times (b1 - t/2)_|k| times
    the axis product."""
    return _family_value("b", t, x, k, n, pp, form)


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
    return _exp_in_range(log, "a_norm_rhs")


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
    return _exp_in_range(log, "b_norm_rhs")
