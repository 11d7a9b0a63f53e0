"""Complex special-function kernel: Gamma, Pochhammer, and the
generalized hypergeometric series engine.

Every operation is a pure function.  Arguments may be Python scalars or
numpy arrays; arrays broadcast elementwise and the return matches the
broadcast shape.  Scalar inputs return Python scalars.

Real inputs are kept on the float64 path wherever the computation is
exactly real, so callers composing real quantities never pick up spurious
imaginary dust from the series engine itself.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "Cx",
    "DomainError",
    "PoleError",
    "gamma_cx",
    "log_gamma_cx",
    "pochhammer",
]

# The universal complex value type.  Fields re/im are .real/.imag.
Cx = complex

# A parameter counts as a nonpositive integer when it is within this
# distance of one (real and imaginary part separately).  Terminating
# indices are exact machine integers supplied by callers; the tolerance
# only guards arithmetic drift.
INTEGRALITY_TOL = 1e-10


class DomainError(ValueError):
    """Argument outside the domain an operation is defined on."""


class PoleError(DomainError):
    """Evaluation at (or within integrality tolerance of) a pole."""


# ----------------------------------------------------------------------
# Gamma
# ----------------------------------------------------------------------

# Lanczos approximation, 15-coefficient set with g = 607/128.  Relative
# error ~1e-15 on Re z >= 1/2; the reflection formula covers the rest of
# the plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
])

_LANCZOS_SHIFTS = np.arange(1.0, len(_LANCZOS_C))[:, None]
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG2 = math.log(2.0)


def _nonpositive_int(value) -> int | None:
    """Round ``value`` to a nonpositive integer if it is within
    INTEGRALITY_TOL of one, else return None.  Array inputs return None:
    a termination degree is a scalar."""
    if isinstance(value, np.ndarray) and value.ndim > 0:
        return None
    z = complex(value)
    if z.real > 0.5 or abs(z.imag) >= INTEGRALITY_TOL:
        return None
    r = round(z.real)
    if r > 0 or abs(z.real - r) >= INTEGRALITY_TOL:
        return None
    return int(r)


def _check_gamma_poles(z: np.ndarray, what: str = "gamma") -> None:
    re, im = z.real, z.imag
    r = np.round(re)
    near = (np.abs(im) < INTEGRALITY_TOL) & (np.abs(re - r) < INTEGRALITY_TOL) & (r <= 0)
    if np.any(near):
        bad = np.asarray(z)[near].ravel()[0]
        raise PoleError(f"{what}: argument {bad} is a nonpositive integer (pole)")


def _lanczos_sum(x: np.ndarray) -> np.ndarray:
    # x = z - 1 with Re z >= 1/2.  With x = u + iv each term is
    # c_i/(x+i) = c_i (u+i - iv) / ((u+i)^2 + v^2), so both parts are one
    # real matrix-vector product, exactly conjugate-symmetric in v.
    shape = np.shape(x)
    x = np.ravel(x)
    v = x.imag
    with np.errstate(over="ignore"):
        v2 = v * v  # inf past |v| ~ 1e154, where every term is an exact 0
    u = _LANCZOS_SHIFTS + x.real
    r = u * u
    r += v2
    np.reciprocal(r, out=r)
    s = np.empty(x.shape, dtype=np.complex128)
    s.imag = -v * (_LANCZOS_C[1:] @ r)
    r *= u
    s.real = _LANCZOS_C[0] + _LANCZOS_C[1:] @ r
    return s.reshape(shape)


def _gamma_right(z: np.ndarray) -> np.ndarray:
    # Re z >= 1/2 only.
    x = z - 1.0
    t = x + _LANCZOS_G + 0.5
    e = (x + 0.5) * np.log(t) - t
    # exp is an exact 0 below Re e ~ -745 either way; a real -inf exponent
    # spares it the phase of an imaginary part that may be near 1e301
    e[e.real < -800.0] = -np.inf
    return _SQRT_TWO_PI * np.exp(e) * _lanczos_sum(x)


def _gamma_left(w: np.ndarray) -> np.ndarray:
    # Re w < 1/2: Gamma(w) = pi / (sin(pi w) Gamma(1 - w)), w = u + iv, with
    # sin(pi w) = e^(pi |v|) s / 2 for a bounded s.  e^(pi |v|) joins the
    # exponential of Gamma(1 - w), so nothing overflows where Gamma(w) is finite.
    u, av = w.real, np.abs(w.imag)
    s = np.sin(np.pi * u) * (1.0 + np.exp(-2.0 * np.pi * av)) \
        - 1j * np.sign(w.imag) * np.cos(np.pi * u) * np.expm1(-2.0 * np.pi * av)
    x = -w  # (1 - w) - 1
    t = x + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * np.exp(t - (x + 0.5) * np.log(t) - np.pi * av) \
        / (s * _lanczos_sum(x))


def gamma_cx(z):
    """Gamma function for complex scalars or arrays.

    Raises PoleError at (or within integrality tolerance of) nonpositive
    integers.  Satisfies the recurrence and reflection identities to
    ~1e-13 relative, and is exactly conjugate-symmetric.
    """
    zc = np.asarray(z, dtype=np.complex128)
    scalar = zc.ndim == 0
    zc = np.atleast_1d(zc)
    right = zc.real >= 0.5
    if right.all():  # no pole lies right of Re z = 1/2
        out = _gamma_right(zc)
    else:
        _check_gamma_poles(zc)
        out = np.empty_like(zc)
        if right.any():
            out[right] = _gamma_right(zc[right])
        out[~right] = _gamma_left(zc[~right])
    return complex(out[0]) if scalar else out.reshape(np.shape(np.asarray(z)))


def _gamma_zero_beyond(re: float) -> float:
    """A height y0 with gamma_cx(re + iy) an exact 0 for every real
    |y| >= y0.

    Right of Re 1/2, _gamma_right cuts its exponent to an exact 0 below
    Re e = -800.  With a = re + G - 1/2 > 0 (G the Lanczos g) and t = a +
    iy, Re e = (re - 1/2) log|t| - |y| atan(|y|/a) - a, and atan(u) >=
    pi/2 - 1/u bounds it by B(y) = (re - 1/2) log|t| - pi |y|/2.  Left of
    1/2, _gamma_left's exponent is at most a + B(y), with a = G + 1/2 - re
    and t = a - iy, and its exp is an exact 0 below about -745.  Both
    bounds fall with |y|; y0 puts them below -801.  A first y0 takes
    log|t| <= log a + |y|/a for re > 1/2, log|t| >= log a left of it;
    for re > 1/2, each step y <- (801 + (re - 1/2) log|t|) / (pi/2) then
    stays at or above the crossing."""
    k = re - 0.5
    if k >= 0.0:
        a, lift = re + _LANCZOS_G - 0.5, 0.0
    else:
        a = lift = _LANCZOS_G + 0.5 - re
    y = (801.0 + lift + k * math.log(a)) / (0.5 * math.pi - max(k, 0.0) / a)
    for _ in range(3 if k > 0.0 else 0):
        y = (801.0 + k * math.log(math.hypot(a, y))) / (0.5 * math.pi)
    return max(y, 0.0)


def log_gamma_cx(z):
    """Principal branch of log Gamma.

    exp(log_gamma_cx(z)) == gamma_cx(z) wherever both are finite; real
    and increasing on the positive real axis.  The Lanczos log form right
    of Re z = 1/2, and by reflection left of it, in constant time
    however far left z lies.
    """
    zc = np.asarray(z, dtype=np.complex128)
    scalar = zc.ndim == 0
    zc = np.atleast_1d(zc)
    _check_gamma_poles(zc, what="log_gamma")
    left = zc.real < 0.5
    w = np.where(left, 1.0 - zc, zc)
    x = w - 1.0
    t = x + _LANCZOS_G + 0.5
    lg = _LOG_SQRT_TWO_PI + (x + 0.5) * np.log(t) - t + np.log(_lanczos_sum(x))
    if left.any():
        # logGamma(z) = log pi - L(z) - logGamma(1 - z), L the branch of
        # log sin(pi z) continuous on Im z >= 0 with L(1/2) = 0:
        # -log 2 + pi y + i pi (1/2 - x) + log(1 - e^(2 pi i z)), z = x + iy;
        # below the axis, the conjugate of L at the conjugate.  e^(2 pi i z)
        # takes x mod 1 exactly.
        zl = zc[left]
        below = zl.imag < 0.0
        y = np.abs(zl.imag)
        frac = np.fmod(zl.real, 1.0)
        log_sin = (math.pi * y - _LOG2
                   + 1j * math.pi * (0.5 - zl.real)
                   + np.log(-np.expm1(2j * math.pi * frac - 2.0 * math.pi * y)))
        log_sin = np.where(below, np.conj(log_sin), log_sin)
        lg[left] = _LOG_PI - log_sin - lg[left]
        # on the real axis the imaginary part is pi floor(x) exactly
        real = left & (zc.imag == 0.0)
        lg.imag[real] = math.pi * np.floor(zc.real[real])
    return complex(lg[0]) if scalar else lg.reshape(np.shape(np.asarray(z)))


# ----------------------------------------------------------------------
# Pochhammer
# ----------------------------------------------------------------------

def pochhammer(alpha, n: int):
    """Rising factorial (alpha)_n, the iterated product of alpha + j over
    j < n.  Zero is a valid value (alpha a nonpositive integer with
    n > |alpha|): the product reaches it exactly."""
    if n < 0:
        raise DomainError("pochhammer: n must be a nonnegative integer")
    arr = np.asarray(alpha)
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    out = np.ones(arr.shape, dtype=dtype)
    a = arr.astype(dtype)
    for j in range(n):
        out = out * (a + j)
    return out if out.ndim else out[()]


# the logs of the least normal and the largest finite double
_LOG_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _exp_in_range(log_value: float, what: str) -> float:
    """exp of a norm assembled in log space; DomainError, not inf, 0 or
    OverflowError, where the norm lies past the double range."""
    if not _LOG_RANGE[0] <= log_value <= _LOG_RANGE[1]:
        raise DomainError(f"{what} lies past the double range (log {log_value:.6g})")
    return math.exp(log_value)


def _signed_log_pochhammer(alpha: float, n: int) -> tuple[float, float]:
    """(sign, log|.|) of the real rising factorial, for log-space norm
    assembly.  Overflow-safe for any n."""
    if n == 0:
        return 1.0, 0.0
    sign = 1.0
    log_abs = 0.0
    a = float(alpha)
    j = 0
    # Peel off the (few) nonpositive factors directly.
    while j < n and a + j <= 0.5:
        f = a + j
        if f == 0.0:
            return 0.0, -math.inf
        if f < 0.0:
            sign = -sign
        log_abs += math.log(abs(f))
        j += 1
    if j < n:
        log_abs += math.lgamma(a + n) - math.lgamma(a + j)
    return sign, log_abs


# ----------------------------------------------------------------------
# Generalized hypergeometric series
# ----------------------------------------------------------------------

def _series_dtype(values) -> type:
    for v in values:
        if np.iscomplexobj(np.asarray(v)):
            return np.complex128
    return np.float64


def _series_terms(numerator, denominator) -> int:
    """The number of terms of a terminating pFq: -a for its first
    nonpositive-integer numerator a.  Raises DomainError when no scalar
    numerator stops the series, and PoleError when a scalar denominator b
    reaches b + j = 0 at a term j < the number of terms."""
    stops = [-m for a in numerator if (m := _nonpositive_int(a)) is not None]
    if not stops:
        raise DomainError(
            "terminating pFq: no numerator parameter is a nonpositive integer")
    n_terms = min(stops)  # series stops at the first vanishing factor
    for b in denominator:
        m = _nonpositive_int(b)
        if m is not None and -m < n_terms:
            raise PoleError(
                f"terminating pFq: denominator parameter {b} hits a "
                f"nonpositive integer before the series terminates")
    return n_terms


def _pfq_terminating(numerator, denominator, argument):
    """Finite sum of the terminating pFq via the term-ratio recurrence.

    Valid for any argument (including 1 and 2) because the sum is finite.
    """
    n_terms = _series_terms(numerator, denominator)
    dtype = _series_dtype(list(numerator) + list(denominator) + [argument])
    shape = np.broadcast(*numerator, *denominator, argument).shape
    term = np.ones(shape, dtype=dtype)
    total = term.copy()
    x = np.asarray(argument, dtype=dtype)
    numerator = [np.asarray(a, dtype=dtype) for a in numerator]
    denominator = [np.asarray(b, dtype=dtype) for b in denominator]
    for j in range(n_terms):
        factor = x / (j + 1.0)
        for a in numerator:
            factor = factor * (a + j)
        for b in denominator:
            factor = factor / (b + j)
        term = term * factor
        total = total + term
    return total if shape else total[()]
