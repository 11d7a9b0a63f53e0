"""Complex special-function kernel: Gamma, Beta, Pochhammer, and the
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

import numpy as np

__all__ = [
    "Cx",
    "DomainError",
    "PoleError",
    "INTEGRALITY_TOL",
    "gamma_cx",
    "log_gamma_cx",
    "beta_cx",
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


def _nonpositive_int(value) -> int | None:
    """Round ``value`` to a nonpositive integer if it is within
    INTEGRALITY_TOL of one, else return None.  Array inputs return None
    (only scalar parameters can carry termination/pole semantics)."""
    if isinstance(value, np.ndarray) and value.ndim > 0:
        return None
    z = complex(value)
    if abs(z.imag) >= INTEGRALITY_TOL:
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
    return _SQRT_TWO_PI * np.exp((x + 0.5) * np.log(t) - t) * _lanczos_sum(x)


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


def log_gamma_cx(z):
    """Principal branch of log Gamma.

    exp(log_gamma_cx(z)) == gamma_cx(z) wherever both are finite; real
    and increasing on the positive real axis.  Computed by shifting the
    argument right of Re z = 1/2 with principal logs and applying the
    Lanczos log form there.
    """
    zc = np.asarray(z, dtype=np.complex128)
    scalar = zc.ndim == 0
    zc = np.atleast_1d(zc)
    _check_gamma_poles(zc, what="log_gamma")
    w = zc.copy()
    shift = np.zeros_like(zc)
    # logGamma(z) = logGamma(z+m) - sum of principal Log(z+j); the identity
    # stays on the principal branch on the cut plane.
    mask = w.real < 0.5
    while np.any(mask):
        shift[mask] += np.log(w[mask])
        w[mask] += 1.0
        mask = w.real < 0.5
    x = w - 1.0
    t = x + _LANCZOS_G + 0.5
    lg = _LOG_SQRT_TWO_PI + (x + 0.5) * np.log(t) - t + np.log(_lanczos_sum(x))
    lg -= shift
    return complex(lg[0]) if scalar else lg.reshape(np.shape(np.asarray(z)))


def beta_cx(a, b):
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), in log space.
    Raises PoleError when a, b or a + b is a pole of Gamma."""
    ac = np.asarray(a, dtype=np.complex128)
    bc = np.asarray(b, dtype=np.complex128)
    scalar = ac.ndim == 0 and bc.ndim == 0
    val = np.exp(log_gamma_cx(ac) + log_gamma_cx(bc) - log_gamma_cx(ac + bc))
    return complex(val) if scalar else val


# ----------------------------------------------------------------------
# Pochhammer
# ----------------------------------------------------------------------

_POCHHAMMER_SWITCH = 40


def _pochhammer_product(alpha, n: int):
    arr = np.asarray(alpha)
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    out = np.ones(arr.shape, dtype=dtype)
    a = arr.astype(dtype)
    for j in range(n):
        out = out * (a + j)
    return out


def _pochhammer_loggamma(alpha, n: int):
    a = np.asarray(alpha, dtype=np.complex128)
    val = np.exp(log_gamma_cx(np.atleast_1d(a) + n) - log_gamma_cx(np.atleast_1d(a)))
    val = val.reshape(a.shape) if a.ndim else val[0]
    if not np.iscomplexobj(np.asarray(alpha)):
        val = val.real
    return val


def pochhammer(alpha, n: int):
    """Rising factorial (alpha)_n.

    Iterated product for small n, log-Gamma ratio for large n.  Zero is a
    valid value (alpha a nonpositive integer with n > |alpha|).
    """
    if n < 0:
        raise DomainError("pochhammer: n must be a nonnegative integer")
    if n == 0:
        arr = np.asarray(alpha)
        one = np.ones(arr.shape, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64)
        return one if arr.ndim else one[()]
    if n < _POCHHAMMER_SWITCH:
        out = _pochhammer_product(alpha, n)
        return out if out.ndim else out[()]
    npint = _nonpositive_int(alpha) if not (isinstance(alpha, np.ndarray) and alpha.ndim) else None
    if npint is not None and -npint < n:
        return 0.0
    out = np.asarray(_pochhammer_loggamma(alpha, n))
    return out if out.ndim else out[()]


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


def _pfq_terminating(numerator, denominator, argument):
    """Finite sum of the terminating pFq via the term-ratio recurrence.

    Valid for any argument (including 1 and 2) because the sum is finite.
    """
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
    dtype = _series_dtype(list(numerator) + list(denominator) + [argument])
    shape = np.broadcast_shapes(*[np.shape(v) for v in
                                  (*numerator, *denominator, argument)])
    term = np.ones(shape, dtype=dtype)
    total = term.copy()
    x = np.asarray(argument, dtype=dtype)
    for j in range(n_terms):
        factor = x / (j + 1.0)
        for a in numerator:
            factor = factor * (np.asarray(a, dtype=dtype) + j)
        for b in denominator:
            factor = factor / (np.asarray(b, dtype=dtype) + j)
        term = term * factor
        total = total + term
    return total if shape else total[()]
