"""Multi-index machinery, the orthogonal basis on the unit ball with its
norm constants, and the Laguerre/Jacobi bases on the cone
V^{d+1} = {(t, x) : ||x|| <= t}, with the one-variable factors that both
bases are products of.

Point arguments are d coordinates; each coordinate may be a scalar or an
array (all broadcasting together), so basis evaluation vectorizes over
batches of points.  At d = 1 the point may be a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _LOG2, DomainError, _exp_in_range, _signed_log_pochhammer
from .univariate import gegenbauer, jacobi, jacobi_norm, laguerre, laguerre_norm

__all__ = [
    "MultiIndex",
    "LaguerreConeParams",
    "JacobiConeParams",
    "ball_op",
    "ball_norm",
    "laguerre_cone",
    "jacobi_cone",
    "cone_norm",
]

# ball_op rejects points whose partial-norm complement is below this when
# a division by sqrt(1 - ||x_{j-1}||^2) is required; the analytic factor
# annihilates the singularity but the floating composition does not.
PARTIAL_NORM_GUARD = 1e-14

# past this t the Laguerre-weighted cone integrand is below 1e-230 for
# every parameter set the library accepts, but computing it in floating
# point produces inf * 0
_T_TAIL_CUTOFF = 600.0


class MultiIndex:
    """Multi-index k = (k_1, ..., k_d) with cached tail sums
    |k^j| = k_j + ... + k_d (1-based j; |k^{d+1}| = 0)."""

    __slots__ = ("components", "_tails")

    def __init__(self, components):
        if isinstance(components, MultiIndex):
            comps = components.components
        elif isinstance(components, (int, np.integer)):
            comps = (int(components),)
        else:
            comps = tuple(int(c) for c in components)
        if len(comps) < 1:
            raise DomainError("MultiIndex requires d >= 1")
        if any(c < 0 for c in comps):
            raise DomainError(f"MultiIndex components must be nonnegative: {comps}")
        object.__setattr__(self, "components", comps)
        tails = [0] * (len(comps) + 2)
        for j in range(len(comps), 0, -1):
            tails[j] = comps[j - 1] + tails[j + 1]
        object.__setattr__(self, "_tails", tuple(tails))

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def total(self) -> int:
        """|k| = k_1 + ... + k_d."""
        return self._tails[1]

    def tail(self, j: int) -> int:
        """|k^j| = k_j + ... + k_d for 1 <= j <= d+1 (zero at d+1)."""
        if not 1 <= j <= self.d + 1:
            raise DomainError(f"tail index {j} outside 1..{self.d + 1}")
        return self._tails[j]

    def lambda_j(self, j: int, mu: float) -> float:
        """The Gegenbauer parameter of factor j: mu + |k^{j+1}| + (d-j)/2."""
        return mu + self.tail(j + 1) + (self.d - j) / 2.0

    def __getitem__(self, i):
        return self.components[i]

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        return isinstance(other, MultiIndex) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"MultiIndex({self.components})"


def _as_multiindex(k) -> MultiIndex:
    return k if isinstance(k, MultiIndex) else MultiIndex(k)


@dataclass(frozen=True)
class LaguerreConeParams:
    """Weight parameters (beta, mu) of the Laguerre cone family; the
    constraint beta > -d is checked where the dimension is known."""
    beta: float
    mu: float

    def __post_init__(self):
        if not self.mu > -0.5:
            raise DomainError(f"requires mu > -1/2, got {self.mu}")

    def validate_dimension(self, d: int) -> None:
        if not self.beta > -d:
            raise DomainError(f"requires beta > -d = {-d}, got beta = {self.beta}")


@dataclass(frozen=True)
class JacobiConeParams:
    """Weight parameters (beta, mu, gamma) of the Jacobi cone family."""
    beta: float
    mu: float
    gamma: float

    def __post_init__(self):
        if not self.mu > -0.5:
            raise DomainError(f"requires mu > -1/2, got {self.mu}")
        if not self.gamma > -1.0:
            raise DomainError(f"requires gamma > -1, got {self.gamma}")

    def validate_dimension(self, d: int) -> None:
        if not self.beta > -d:
            raise DomainError(f"requires beta > -d = {-d}, got beta = {self.beta}")


def _coords(x, d: int):
    """The d coordinates of the point x, as given: a sequence, the rows of
    an array, or at d = 1 a scalar."""
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        seq = (x,)
    else:
        seq = tuple(x)
    if len(seq) != d:
        raise DomainError(f"coordinate vector has {len(seq)} entries, expected {d}")
    return seq


def ball_op(k, mu: float, p):
    """Orthogonal basis polynomial on the unit ball,

        P_k^mu(x) = prod_j (1-||x_{j-1}||^2)^(k_j/2)
                    C_{k_j}^(lambda_j)( x_j / sqrt(1-||x_{j-1}||^2) ),

    with lambda_j = mu + |k^{j+1}| + (d-j)/2.
    """
    k = _as_multiindex(k)
    coords = [np.asarray(c, dtype=np.float64) for c in _coords(p, k.d)]
    value = None
    part = 0.0
    for j in range(1, k.d + 1):
        xj = coords[j - 1]
        kj = k[j - 1]
        if kj > 0:
            comp = 1.0 - part
            if np.any(comp < PARTIAL_NORM_GUARD):
                raise DomainError(
                    f"ball_op: partial norm reaches 1 at factor {j} with k_{j} > 0")
            factor = comp ** (kj / 2.0) * gegenbauer(
                kj, k.lambda_j(j, mu), xj / np.sqrt(comp))
            value = factor if value is None else value * factor
        part = part + xj * xj
    if value is None:
        shape = np.broadcast_shapes(*[c.shape for c in coords])
        value = np.ones(shape, dtype=np.float64)
    return value if np.ndim(value) else float(value)


def _ball_factor(k: MultiIndex, mu: float, j: int, s):
    """Factor j of ball_op(k, mu, .) in the cube coordinates s of
    y_j = s_j sqrt(1 - ||y_{<j}||^2): (1 - s^2)^(|k^{j+1}|/2)
    C_{k_j}^(lambda_j)(s).  ball_op(k, mu, y(s)) is the product of the
    factors j = 1..d, each at its own s_j."""
    return (((1.0 - s) * (1.0 + s)) ** (k.tail(j + 1) / 2.0)
            * gegenbauer(k[j - 1], k.lambda_j(j, mu), s))


def ball_norm(k, mu: float) -> float:
    """Squared norm of ball_op(k, mu, .) against (1-||x||^2)^(mu-1/2):

        pi^(d/2) Gamma(mu+1/2) (mu+d/2)_{|k|} / Gamma(mu+(d+1)/2+|k|)
        * prod_j (mu+(d-j)/2)_{|k^j|} (2mu+2|k^{j+1}|+d-j)_{k_j}
                 / ( k_j! (mu+(d-j+1)/2)_{|k^j|} ),

    assembled in log space with sign tracking (the two possibly-negative
    Pochhammers for mu in (-1/2, 0) cancel).
    """
    k = _as_multiindex(k)
    if not mu > -0.5 or mu == 0.0:
        raise DomainError(f"ball_norm requires mu > -1/2, mu != 0, got {mu}")
    d = k.d
    sign, log_h = _signed_log_pochhammer(mu + d / 2.0, k.total)
    log_h += (0.5 * d * math.log(math.pi) + math.lgamma(mu + 0.5)
              - math.lgamma(mu + (d + 1) / 2.0 + k.total))
    for j in range(1, d + 1):
        s1, l1 = _signed_log_pochhammer(mu + (d - j) / 2.0, k.tail(j))
        s2, l2 = _signed_log_pochhammer(2.0 * mu + 2.0 * k.tail(j + 1) + d - j, k[j - 1])
        s3, l3 = _signed_log_pochhammer(mu + (d - j + 1) / 2.0, k.tail(j))
        if s3 == 0.0:
            raise DomainError("ball_norm: denominator Pochhammer vanishes")
        sign *= s1 * s2 * s3
        log_h += l1 + l2 - l3 - math.lgamma(k[j - 1] + 1.0)
    if sign <= 0.0:
        raise DomainError(f"ball_norm degenerates at k = {k.components}, mu = {mu}")
    return sign * _exp_in_range(log_h, "ball_norm")


def _cone_point(p, d: int):
    t = np.asarray(p[0], dtype=np.float64)
    coords = _coords(p[1], d)
    if np.any(t <= 0.0):
        raise DomainError("cone basis evaluation requires t > 0")
    return t, coords


def _t_factor(params, k: MultiIndex, n: int, t):
    """q_{n-m}^(alpha_m)(t) t^m with m = |k| and alpha_m = d + 2m + 2mu - 1,
    the t factor of the cone basis element: the element at (t, t y) is
    this times ball_op(k, mu, y).  q is L^(alpha+beta) for the Laguerre
    cone and P^((alpha+beta, gamma)) at 1 - 2t for the Jacobi one."""
    m = k.total
    if n < m:
        raise DomainError(f"cone basis requires |k| <= n, got |k| = {m} > n = {n}")
    alpha = k.d + 2.0 * m + 2.0 * params.mu - 1.0
    if isinstance(params, JacobiConeParams):
        q = jacobi(n - m, alpha + params.beta, params.gamma, 1.0 - 2.0 * t)
    else:
        q = laguerre(n - m, alpha + params.beta, t)
    return q * t ** m


def _cone_value(k, n: int, params, p):
    """The cone basis element of params' family at p = (t, x): its t
    factor times ball_op(k, mu, x/t)."""
    k = _as_multiindex(k)
    params.validate_dimension(k.d)
    t, coords = _cone_point(p, k.d)
    return (_t_factor(params, k, n, t)
            * ball_op(k, params.mu, [c / t for c in coords]))


def laguerre_cone(k, n: int, params: LaguerreConeParams, p):
    """Laguerre cone basis L_{n-m}^(2m+2mu+beta+d-1)(t) t^m P_k^mu(x/t)."""
    return _cone_value(k, n, params, p)


def jacobi_cone(k, n: int, params: JacobiConeParams, p):
    """Jacobi cone basis P_{n-m}^((2m+2mu+beta+d-1, gamma))(1-2t) t^m P_k^mu(x/t)."""
    return _cone_value(k, n, params, p)


def cone_norm(k, n: int, params) -> float:
    """Squared norm of laguerre_cone(k, n, params, .) or jacobi_cone(k, n,
    params, .) against the weight (t^2 - ||x||^2)^(mu-1/2) t^beta times
    e^-t on ||x|| < t, or times (1-t)^gamma on ||x|| < t < 1: with
    m = |k| and alpha = 2m + 2mu + beta + d - 1, ball_norm(k, mu) times
    laguerre_norm(n - m, alpha), or times 2^-(alpha+gamma+1)
    jacobi_norm(n - m, alpha, gamma) (the radial integral in
    t = (1 - s)/2), assembled in log space."""
    k = _as_multiindex(k)
    params.validate_dimension(k.d)
    m = k.total
    if n < m:
        raise DomainError(f"cone_norm requires |k| <= n, got |k| = {m} > n = {n}")
    alpha = 2.0 * m + 2.0 * params.mu + params.beta + k.d - 1.0
    log_h = math.log(ball_norm(k, params.mu))
    if isinstance(params, JacobiConeParams):
        log_h += (math.log(jacobi_norm(n - m, alpha, params.gamma))
                  - (alpha + params.gamma + 1.0) * _LOG2)
    else:
        log_h += math.log(laguerre_norm(n - m, alpha))
    return _exp_in_range(log_h, "cone_norm")
