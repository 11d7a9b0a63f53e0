"""Multi-index machinery, the orthogonal basis on the unit ball with its
norm constants, and the Laguerre/Jacobi bases on the cone
V^{d+1} = {(t, x) : ||x|| <= t}.

Point arguments are d coordinates; each coordinate may be a scalar or an
array (all broadcasting together), so basis evaluation vectorizes over
batches of points.
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
    "space_dimension",
    "ball_weight",
    "ball_op",
    "ball_norm",
    "cone_basis",
    "laguerre_cone",
    "jacobi_cone",
    "cone_norm",
    "cone_inner_product_separated",
]

# ball_op rejects points whose partial-norm complement is below this when
# a division by sqrt(1 - ||x_{j-1}||^2) is required; the analytic factor
# annihilates the singularity but the floating composition does not.
PARTIAL_NORM_GUARD = 1e-14

_BOUNDARY_SLACK = 1e-12

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


def space_dimension(n: int, d: int) -> int:
    """Dimension of the space of orthogonal polynomials of total degree n
    in d variables: binomial(n+d-1, n)."""
    if n < 0 or d < 1:
        raise DomainError(f"space_dimension requires n >= 0, d >= 1, got {n}, {d}")
    return math.comb(n + d - 1, n)


def _coords(p, d: int):
    """Extract d coordinate arrays from a sequence or array."""
    coords = [np.asarray(c, dtype=np.float64) for c in p]
    if len(coords) != d:
        raise DomainError(f"expected {d} coordinates, got {len(coords)}")
    return coords


def ball_weight(mu: float, p):
    """(1 - ||p||^2)^(mu - 1/2), the classical weight on the unit ball."""
    coords = [np.asarray(c, dtype=np.float64) for c in p]
    nsq = sum(c * c for c in coords)
    comp = 1.0 - nsq
    if mu < 0.5 and np.any(comp <= 0.0):
        raise DomainError("ball_weight: ||p|| reaches 1 with mu < 1/2")
    if np.any(comp < -_BOUNDARY_SLACK):
        raise DomainError("ball_weight: point outside the unit ball")
    return np.maximum(comp, 0.0) ** (mu - 0.5)


def ball_op(k, mu: float, p):
    """Orthogonal basis polynomial on the unit ball,

        P_k^mu(x) = prod_j (1-||x_{j-1}||^2)^(k_j/2)
                    C_{k_j}^(lambda_j)( x_j / sqrt(1-||x_{j-1}||^2) ),

    with lambda_j = mu + |k^{j+1}| + (d-j)/2.
    """
    k = _as_multiindex(k)
    coords = _coords(p, k.d)
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


def cone_basis(q, k, n: int, p, mu: float):
    """Generic cone basis element q_{n-m}^(alpha_m)(t) t^m P_k^mu(x/t)
    with m = |k| and alpha_m = d + 2m + 2mu - 1.

    q(degree, alpha, t) evaluates the caller's one-dimensional family; it
    receives the geometric exponent alpha_m and folds in any parameters of
    its own weight (the Laguerre instantiation uses L^(alpha+beta), the
    Jacobi one P^((alpha+beta, gamma)) at 1-2t).
    """
    k = _as_multiindex(k)
    m = k.total
    if n < m:
        raise DomainError(f"cone basis requires |k| <= n, got |k| = {m} > n = {n}")
    t, coords = _cone_point(p, k.d)
    alpha_m = k.d + 2.0 * m + 2.0 * mu - 1.0
    radial = q(n - m, alpha_m, t)
    return radial * t ** m * ball_op(k, mu, [c / t for c in coords])


def laguerre_cone(k, n: int, params: LaguerreConeParams, p):
    """Laguerre cone basis L_{n-m}^(2m+2mu+beta+d-1)(t) t^m P_k^mu(x/t)."""
    k = _as_multiindex(k)
    params.validate_dimension(k.d)
    return cone_basis(lambda deg, alpha, t: laguerre(deg, alpha + params.beta, t),
                      k, n, p, params.mu)


def jacobi_cone(k, n: int, params: JacobiConeParams, p):
    """Jacobi cone basis P_{n-m}^((2m+2mu+beta+d-1, gamma))(1-2t) t^m P_k^mu(x/t)."""
    k = _as_multiindex(k)
    params.validate_dimension(k.d)
    return cone_basis(lambda deg, alpha, t: jacobi(deg, alpha + params.beta,
                                                   params.gamma, 1.0 - 2.0 * t),
                      k, n, p, params.mu)


def cone_norm(k, n: int, params) -> float:
    """Squared norm of laguerre_cone(k, n, params, .) or jacobi_cone(k, n,
    params, .) in cone_inner_product_separated: with m = |k| and alpha =
    2m + 2mu + beta + d - 1, ball_norm(k, mu) times laguerre_norm(n - m,
    alpha), or times 2^-(alpha+gamma+1) jacobi_norm(n - m, alpha, gamma)
    (the radial integral in t = (1 - s)/2), assembled in log space."""
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


# Deep tanh-sinh levels place cube nodes within 3e-15 of the sphere,
# under ball_op's partial-norm guard.  Shrinking such points radially
# onto ||y||^2 = 1 - 1e-12 keeps every partial norm clear of the guard
# (partial sums never exceed the full norm) and perturbs an integral by
# O(1e-15): the displaced nodes carry double-exponentially small
# quadrature weight.
_NSQ_LIMIT = 1.0 - 1e-12


def _cube_to_ball(s):
    """Map cube coordinates s in (-1, 1)^d onto the unit ball by
    y_j = s_j sqrt(1 - ||y_{<j}||^2).  Returns (y, Jacobian, 1 - ||y||^2)
    with y shrunk onto ||y||^2 <= _NSQ_LIMIT; the last is the product of
    the (1 - s_j^2), taken before the shrink, so it stays positive and
    accurate next to the sphere and a weight singular there stays exact."""
    y = []
    jac = 1.0
    rest = 1.0  # 1 - ||y_{<j}||^2
    for sj in s:
        r = np.sqrt(rest)
        y.append(sj * r)
        jac = jac * r
        rest = rest * ((1.0 - sj) * (1.0 + sj))
    nsq = sum(v * v for v in y)
    shrink = np.sqrt(_NSQ_LIMIT / np.maximum(nsq, _NSQ_LIMIT))
    return [v * shrink for v in y], jac, rest


def cone_inner_product_separated(f, g, d: int, params, cfg=None):
    """Inner product of f and g over the cone, as the separated iterated
    integral

        int_0^T [ int_{B^d} f(t,ty) g(t,ty) (1-||y||^2)^(mu-1/2) dy ]
                t^(d+2mu-1) w(t) dt,

    with (T, w) = (inf, t^beta e^-t) for Laguerre parameters and
    (1, t^beta (1-t)^gamma) for Jacobi parameters.  The ball integral
    runs over the cube (-1, 1)^d, mapped onto the ball by
    y_j = s_j sqrt(1 - ||y_{<j}||^2).

    f and g take (t, x) where x is a length-d coordinate sequence; both
    must be vectorized over coordinate arrays.  Returns the
    IntegralResult from the quadrature oracle.
    """
    from .quadrature import QuadratureConfig, integrate_tensor

    if cfg is None:
        cfg = QuadratureConfig()
    params.validate_dimension(d)
    mu = params.mu
    beta = params.beta
    if isinstance(params, JacobiConeParams):
        gamma = params.gamma
        t_box = (0.0, 1.0)

        def t_weight(t):
            return t ** (d + 2.0 * mu - 1.0 + beta) * (1.0 - t) ** gamma
    else:
        t_box = (0.0, math.inf)

        def t_weight(t):
            return t ** (d + 2.0 * mu - 1.0 + beta) * np.exp(-t)

    def integrand(t, *s):
        y, jac, rest = _cube_to_ball(s)
        # the exp-sinh t-ladder probes magnitudes where t^p overflows
        # while e^-t underflows; the true product is below 1e-230 past
        # t = 600, so those points are an exact zero instead of inf * 0
        dead = t > _T_TAIL_CUTOFF
        t = np.where(dead, 1.0, t)
        x = [t * v for v in y]
        value = f(t, x) * g(t, x) * rest ** (mu - 0.5) * jac * t_weight(t)
        return np.where(dead, 0.0, value)

    return integrate_tensor(integrand, [t_box] + [(-1.0, 1.0)] * d, cfg)
