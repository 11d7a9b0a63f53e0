"""One-variable orthogonal polynomial families: Gegenbauer, Laguerre,
Jacobi, continuous Hahn, with their orthogonality norm constants.

Evaluation goes through the terminating hypergeometric form in every
case; no three-term recurrences live here (recurrence evaluators exist
only inside the test suite, as independent oracles).

Arguments may be scalars or numpy arrays (broadcasting elementwise).
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import (
    DomainError,
    _exp_in_range,
    _pfq_terminating,
    _signed_log_pochhammer,
    pochhammer,
)

__all__ = [
    "gegenbauer",
    "gegenbauer_norm",
    "laguerre",
    "laguerre_norm",
    "jacobi",
    "jacobi_norm",
    "continuous_hahn",
]

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _check_degree(n) -> int:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"degree must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_mu(mu: float) -> float:
    # mu = 0 degenerates the hypergeometric normalization ((2mu)_n = 0 and
    # the norm constant hits the Gamma pole); rejected rather than
    # renormalized.
    if not mu > -0.5:
        raise DomainError(f"gegenbauer parameter requires mu > -1/2, got {mu}")
    if mu == 0.0:
        raise DomainError("gegenbauer parameter mu = 0 is excluded")
    return float(mu)


def gegenbauer(n: int, mu: float, x):
    """Gegenbauer polynomial C_n^(mu)(x) via the terminating 2F1 form
    ((2mu)_n / n!) 2F1(-n, n+2mu; mu+1/2; (1-x)/2)."""
    n = _check_degree(n)
    mu = _check_mu(mu)
    lead = pochhammer(2.0 * mu, n) / math.factorial(n)
    arg = (1.0 - np.asarray(x, dtype=np.float64)) / 2.0
    return lead * _pfq_terminating((-n, n + 2.0 * mu), (mu + 0.5,), arg)


def gegenbauer_norm(n: int, mu: float) -> float:
    """h_n^mu = (2mu)_n Gamma(mu+1/2) Gamma(1/2) / (n! (n+mu) Gamma(mu)),
    the squared L2 norm against the weight (1-x^2)^(mu-1/2) on [-1, 1]."""
    n = _check_degree(n)
    mu = _check_mu(mu)
    sign, log_poch = _signed_log_pochhammer(2.0 * mu, n)
    # For mu in (-1/2, 0): Gamma(mu) < 0 and (2mu)_n < 0 for n >= 1; the
    # signs cancel and h stays positive.  n + mu < 0 only at n = 0 where
    # it pairs with Gamma(mu) as Gamma(mu+1) > 0.
    nm = n + mu
    sign *= math.copysign(1.0, nm)
    if mu < 0.0:
        sign = -sign  # sign of Gamma(mu) on (-1, 0)
    log_h = (log_poch - math.lgamma(n + 1) + math.lgamma(mu + 0.5)
             + 0.5 * math.log(math.pi) - math.log(abs(nm)) - math.lgamma(mu))
    return sign * _exp_in_range(log_h, "gegenbauer_norm")


def laguerre(n: int, alpha: float, t):
    """Laguerre polynomial L_n^alpha(t) = ((alpha+1)_n / n!) 1F1(-n; alpha+1; t)."""
    n = _check_degree(n)
    if not alpha > -1.0:
        raise DomainError(f"laguerre requires alpha > -1, got {alpha}")
    lead = pochhammer(alpha + 1.0, n) / math.factorial(n)
    return lead * _pfq_terminating((-n,), (alpha + 1.0,), np.asarray(t, dtype=np.float64))


def laguerre_norm(n: int, alpha: float) -> float:
    """Gamma(alpha+n+1)/n!, the squared norm against t^alpha e^-t on (0, inf)."""
    n = _check_degree(n)
    if not alpha > -1.0:
        raise DomainError(f"laguerre_norm requires alpha > -1, got {alpha}")
    return _exp_in_range(math.lgamma(alpha + n + 1.0) - math.lgamma(n + 1.0),
                         "laguerre_norm")


def jacobi(n: int, alpha: float, beta: float, t):
    """Jacobi polynomial P_n^(alpha,beta)(t) =
    ((alpha+1)_n / n!) 2F1(-n, n+alpha+beta+1; alpha+1; (1-t)/2)."""
    n = _check_degree(n)
    if not (alpha > -1.0 and beta > -1.0):
        raise DomainError(f"jacobi requires alpha, beta > -1, got {alpha}, {beta}")
    lead = pochhammer(alpha + 1.0, n) / math.factorial(n)
    arg = (1.0 - np.asarray(t, dtype=np.float64)) / 2.0
    return lead * _pfq_terminating((-n, n + alpha + beta + 1.0), (alpha + 1.0,), arg)


def jacobi_norm(n: int, alpha: float, beta: float) -> float:
    """2^(alpha+beta+1) Gamma(n+alpha+1) Gamma(n+beta+1) /
    ((2n+alpha+beta+1) Gamma(n+alpha+beta+1) n!), the squared norm against
    (1-t)^alpha (1+t)^beta on [-1, 1].

    Assembled through Gamma(n+alpha+beta+2) so the n = 0 case stays finite
    as alpha+beta approaches -1 (the displayed (2n+a+b+1)Gamma(n+a+b+1)
    product has a removable singularity there).
    """
    n = _check_degree(n)
    if not (alpha > -1.0 and beta > -1.0):
        raise DomainError(f"jacobi_norm requires alpha, beta > -1, got {alpha}, {beta}")
    log_h = ((alpha + beta + 1.0) * math.log(2.0)
             + math.lgamma(n + alpha + 1.0) + math.lgamma(n + beta + 1.0)
             - math.lgamma(n + alpha + beta + 2.0) - math.lgamma(n + 1.0))
    if n > 0:
        log_h += math.log((n + alpha + beta + 1.0) / (2.0 * n + alpha + beta + 1.0))
    return _exp_in_range(log_h, "jacobi_norm")


def continuous_hahn(k: int, x, a, b, c, d):
    """Continuous Hahn polynomial
    p_k(x; a, b, c, d) = i^k ((a+c)_k (a+d)_k / k!)
                         3F2(-k, k+a+b+c+d-1, a+ix; a+c, a+d; 1).

    x and the parameters are complex-compatible; x may be an array.
    Raises DomainError where the value is not finite, as where the
    series overflows at large |x|.
    """
    k = _check_degree(k)
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    xc = np.asarray(x, dtype=np.complex128)
    lead = (_I_POWERS[k % 4] * pochhammer(a + c, k) * pochhammer(a + d, k)
            / math.factorial(k))
    with np.errstate(over="ignore", invalid="ignore"):
        out = lead * _pfq_terminating(
            (-k, k + a + b + c + d - 1.0, a + 1j * xc),
            (a + c, a + d),
            1.0,
        )
    if not np.isfinite(out).all():
        raise DomainError("continuous_hahn is not finite at this argument")
    return out if np.ndim(x) else complex(out)
