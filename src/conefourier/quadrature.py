"""Independent numerical oracle: tanh-sinh double-exponential quadrature
with level doubling, adaptive Gauss-Kronrod as a cross-check, and
numerical Fourier transforms.

Nothing in this module calls the closed-form transforms; every operation
consumes a raw integrand callable.  Integrands must be vectorized: they
are called on numpy arrays of abscissas and return arrays of matching
shape.  Both 1-d rules are vector-valued: an integrand may return shape
batch + (nodes,), and the rule integrates every row on one shared node
set, converging only when every row does.  A separable integrand stacks
its 1-d factors as rows of one call, and fourier_num transforms such
rows, one frequency per row, on the whole-line sinh-sinh ladder of
integrate_1d: no change of variable, so a factor's slow tail stays a
tail and never becomes an endpoint singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .kernel import Cx, DomainError

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "NonConvergenceError",
    "integrate_1d",
    "fourier_num",
]

_RULES = ("double-exponential", "adaptive-GK")

# Frequencies past this are rejected: the Gamma-type decay of every
# in-scope transform makes them numerically uninformative, and plain
# double-exponential quadrature stops resolving the oscillation.
MAX_FREQUENCY = 8.0

# The adaptive-GK rule cuts an infinite end of an interval this far past
# its finite end, or at -60 and 60 on the whole line.
_TRUNCATION_RADIUS = 60.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Rule selection and tolerance contract for the oracle.

    max_levels bounds the tanh-sinh level-doubling ladder; under the
    adaptive-GK rule the same field bounds the subdivision budget (the
    interval limit is 2^max_levels, capped at 4096).
    """
    rule: str = "double-exponential"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_levels: int = 12

    def __post_init__(self):
        if self.rule not in _RULES:
            raise DomainError(f"unknown quadrature rule {self.rule!r}; pick from {_RULES}")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_levels < 3:
            raise DomainError("max_levels must be at least 3")


@dataclass(frozen=True)
class IntegralResult:
    value: Cx
    error_estimate: float
    evaluations: int
    converged: bool


class NonConvergenceError(RuntimeError):
    """Raised when an integral misses its tolerance contract; carries the
    best available result."""

    def __init__(self, message: str, result: IntegralResult):
        super().__init__(message)
        self.result = result


# ----------------------------------------------------------------------
# Double-exponential node tables
# ----------------------------------------------------------------------

# tanh-sinh abscissa cap: |(pi/2) sinh(tau)| <= _TS_CAP keeps 1-|u| a few
# ulps above zero so nodes never collapse onto an endpoint.
_TS_CAP = 17.5
# exp-sinh / sinh-sinh cap keeps exp((pi/2) sinh tau) inside double range.
_ES_CAP = 690.0


def _level_taus(level: int, tau_max: float) -> np.ndarray:
    """New tau abscissas introduced at this level (h = 2^-level): all
    integer multiples of h at level 0, odd multiples afterwards."""
    h = 2.0 ** (-level)
    kmax = int(math.floor(tau_max / h))
    if level == 0:
        ks = np.arange(-kmax, kmax + 1)
    else:
        ks = np.arange(-(kmax | 1), kmax + 1, 2)
        if ks.size and ks[0] < -kmax:
            ks = ks[1:]
    return ks * h


@lru_cache(maxsize=None)
def _tanh_sinh_table(level: int):
    """(u, w) on (-1, 1): u = tanh((pi/2) sinh tau), w = u'(tau)."""
    tau = _level_taus(level, math.asinh(2.0 * _TS_CAP / math.pi))
    a = 0.5 * math.pi * np.sinh(tau)
    u = np.tanh(a)
    # sech^2(a) without overflow: 4 e^{-2|a|} / (1 + e^{-2|a|})^2
    e = np.exp(-2.0 * np.abs(a))
    w = 0.5 * math.pi * np.cosh(tau) * (4.0 * e / (1.0 + e) ** 2)
    keep = np.abs(u) < 1.0
    return u[keep], w[keep]


@lru_cache(maxsize=None)
def _exp_sinh_table(level: int):
    """(x, w) on (0, inf): x = exp((pi/2) sinh tau), w = x'(tau)."""
    tau = _level_taus(level, math.asinh(2.0 * _ES_CAP / math.pi))
    x = np.exp(0.5 * math.pi * np.sinh(tau))
    w = 0.5 * math.pi * np.cosh(tau) * x
    keep = (x > 0.0) & np.isfinite(w)
    return x[keep], w[keep]


@lru_cache(maxsize=None)
def _sinh_sinh_table(level: int):
    """(x, w) on (-inf, inf): x = sinh((pi/2) sinh tau)."""
    tau = _level_taus(level, math.asinh(2.0 * _ES_CAP / math.pi))
    a = 0.5 * math.pi * np.sinh(tau)
    x = np.sinh(a)
    w = 0.5 * math.pi * np.cosh(tau) * np.cosh(a)
    keep = np.isfinite(x) & np.isfinite(w)
    return x[keep], w[keep]


def _de_tables(a: float, b: float):
    """Pick the double-exponential transform for the interval.  Returns a
    per-level (nodes, weights) supplier in original coordinates plus a
    truncated-tail factor: the tail of the transformed integral beyond the
    outermost node at x is of order |f(x)| * tail_factor(x)."""
    finite_a = math.isfinite(a)
    finite_b = math.isfinite(b)
    if finite_a and finite_b:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def table(level):
            u, w = _tanh_sinh_table(level)
            return mid + half * u, half * w

        def tail_factor(x):
            return abs((b - x) * (x - a)) / half
    elif finite_a and not finite_b:
        def table(level):
            x, w = _exp_sinh_table(level)
            return a + x, w

        def tail_factor(x):
            return x - a
    elif not finite_a and finite_b:
        def table(level):
            x, w = _exp_sinh_table(level)
            return b - x, w

        def tail_factor(x):
            return b - x
    else:
        def table(level):
            return _sinh_sinh_table(level)

        def tail_factor(x):
            return math.hypot(1.0, x)
    return table, tail_factor


# Acceptance starts at level 3, so levels 0-3 are always evaluated: their
# nodes go to the integrand in one call.
_FIRST_LEVELS = 4


def _meets(err, value, cfg: QuadratureConfig):
    """The tolerance contract, row by row."""
    return (err <= cfg.abs_tol) | (err <= cfg.rel_tol * abs(value))


def _within(err, value, cfg: QuadratureConfig) -> bool:
    """The tolerance contract, met only when every row meets it."""
    return bool(_meets(err, value, cfg).all())


def _de_integrate(f, a: float, b: float, cfg: QuadratureConfig) -> IntegralResult:
    table, tail_factor = _de_tables(a, b)
    first = [table(level) for level in range(_FIRST_LEVELS)]
    head = np.asarray(f(np.concatenate([x for x, _ in first])), dtype=np.complex128)
    ends = np.cumsum([x.size for x, _ in first]).tolist()
    first_fx = [head[..., end - x.size:end] for (x, _), end in zip(first, ends)]
    partial = 0.0 + 0.0j
    l1 = 0.0
    sums = []
    evals = 0
    value = 0.0 + 0.0j
    err = math.inf
    tail = math.inf
    for level in range(cfg.max_levels + 1):
        x, w = first[level] if level < _FIRST_LEVELS else table(level)
        if x.size:
            fx = (first_fx[level] if level < _FIRST_LEVELS
                  else np.asarray(f(x), dtype=np.complex128))
            fw = fx * w
            # np.add.reduce is np.sum without its Python wrapper, whose
            # cost would show on the many small scalar ladders
            partial = partial + np.add.reduce(fw, axis=-1)
            l1 = l1 + np.add.reduce(abs(fw), axis=-1)
            evals += x.size
            # honest truncation term: the integrand tail beyond the
            # outermost sampled nodes (factor 2 covers power growth up to
            # sigma ~ -0.95 at a finite endpoint)
            tail = 2.0 * (abs(fx[..., 0]) * tail_factor(float(x[0]))
                          + abs(fx[..., -1]) * tail_factor(float(x[-1])))
        h = 2.0 ** (-level)
        value = h * partial
        sums.append(value)
        if level >= 3:
            e1 = abs(sums[-1] - sums[-2])
            if level == 3:
                # the first acceptance level does not extrapolate: a
                # ladder that has not reached the quadratic regime yet
                # would make e1^2/e2 fall below the true error
                extrap = e1
            else:
                e2 = abs(sums[-1] - sums[-3])
                # min(e1, e1^2/e2) as e1 * (e1 / max(e1, e2)): exactly e1
                # where e2 <= e1, e2 = 0 included; (e1 == 0) keeps 0/0 out
                extrap = e1 * (e1 / (np.fmax(e1, e2) + (e1 == 0.0)))
            # roundoff floor: the sum carries noise of ~4 eps times the
            # integral of |f|, which a value cancelling to 0 does not show
            err = extrap + tail + 4.0 * 2.2e-16 * h * l1
            if _within(err, value, cfg):
                return IntegralResult(value, err, evals, True)
    # a NaN sample at the outermost nodes makes the estimate infinite
    return IntegralResult(value, np.fmin(err, math.inf), evals, False)


# ----------------------------------------------------------------------
# Gauss-Kronrod 15(7)
# ----------------------------------------------------------------------

_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G_WEIGHTS = np.zeros(15)
_G_WEIGHTS[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk_eval(f, a: float, b: float):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _GK_NODES), dtype=np.complex128)
    k = half * np.sum(fx * _GK_WEIGHTS, axis=-1)
    g = half * np.sum(fx * _G_WEIGHTS, axis=-1)
    return k, np.abs(k - g)


def _gk_truncate(a: float, b: float):
    """Infinite ends move _TRUNCATION_RADIUS past the finite end, or past
    0 when both are infinite."""
    R = _TRUNCATION_RADIUS
    lo = a if math.isfinite(a) else (b if math.isfinite(b) else 0.0) - R
    hi = b if math.isfinite(b) else (a if math.isfinite(a) else 0.0) + R
    return lo, hi


def _gk_integrate(f, a: float, b: float, cfg: QuadratureConfig) -> IntegralResult:
    """Adaptive GK; with batched values every row shares one subdivision,
    which always splits the interval with the largest row error.  It
    starts from the two halves: one 15-point panel over a whole (-60, 60)
    can miss a peak between its nodes and accept a wrong value with a
    zero error estimate."""
    import heapq

    a, b = _gk_truncate(a, b)
    limit = min(2 ** cfg.max_levels, 4096)
    m = 0.5 * (a + b)
    (lval, lerr), (rval, rerr) = _gk_eval(f, a, m), _gk_eval(f, m, b)
    heap = [(-np.max(lerr), 0, a, m, lval, lerr),
            (-np.max(rerr), 1, m, b, rval, rerr)]
    heapq.heapify(heap)
    count, evals = 2, 30
    total_val, total_err = lval + rval, lerr + rerr
    while count < limit:
        if _within(total_err, total_val, cfg):
            return IntegralResult(total_val, total_err, evals, True)
        neg, _, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        if im <= ia or im >= ib:  # interval at floating resolution
            heapq.heappush(heap, (0.0, count, ia, ib, ival, ierr))
            count += 1
            continue
        lval, lerr = _gk_eval(f, ia, im)
        rval, rerr = _gk_eval(f, im, ib)
        evals += 30
        total_val = total_val + (lval + rval - ival)
        total_err = total_err + (lerr + rerr - ierr)
        heapq.heappush(heap, (-np.max(lerr), count, ia, im, lval, lerr))
        heapq.heappush(heap, (-np.max(rerr), count + 1, im, ib, rval, rerr))
        count += 2
    return IntegralResult(total_val, total_err, evals,
                          _within(total_err, total_val, cfg))


# ----------------------------------------------------------------------
# Public drivers
# ----------------------------------------------------------------------

def _interval(interval) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if math.isnan(a) or math.isnan(b) or not a < b:
        raise DomainError(f"invalid interval ({a}, {b})")
    return a, b


def _integrate_1d_result(f, interval, cfg: QuadratureConfig) -> IntegralResult:
    a, b = _interval(interval)
    if cfg.rule == "double-exponential":
        return _de_integrate(f, a, b, cfg)
    return _gk_integrate(f, a, b, cfg)


def integrate_1d(f, interval, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate a vectorized callable over an open interval.

    interval is (a, b) with either end possibly infinite.  Endpoint
    singularities of integrable power type are handled by the primary
    double-exponential rule; endpoints are never sampled.  Raises
    NonConvergenceError (carrying the best result) when the tolerance
    contract cannot be met.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    result = _integrate_1d_result(f, interval, cfg)
    if not result.converged:
        raise NonConvergenceError(
            f"integral over {interval} did not converge: estimate "
            f"{np.max(result.error_estimate):.3e} after {result.evaluations} "
            "evaluations",
            result)
    return result


# ----------------------------------------------------------------------
# Fourier transforms
# ----------------------------------------------------------------------

def fourier_num(f, xi, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Numerical Fourier transforms

        int exp(-i xi x) f(x) dx

    over the whole line, one per row of f: f is a vectorized callable of
    one variable, returning shape (x.size,) or one row per factor, shape
    (rows, x.size).  xi is a scalar or one frequency per row; the result
    holds one value per row.  |xi| above 8 is rejected.

    The primary evaluation is always the double-exponential sinh-sinh
    ladder of integrate_1d on the whole line; it raises
    NonConvergenceError when it misses the contract.  Selecting
    rule="adaptive-GK" in cfg additionally runs adaptive-GK on the
    truncated line on the same rows; the primary's non-convergence or a
    disagreement beyond 10x the combined error estimates then clears the
    converged flag instead.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(np.abs(xi) > MAX_FREQUENCY):
        raise DomainError(
            f"fourier_num rejects |xi| > {MAX_FREQUENCY}: Gamma-type decay makes "
            "such values numerically uninformative")
    xi = xi[..., None]  # broadcasts against (rows, x.size)

    def wave(x):
        return f(x) * np.exp(-1j * (xi * x))

    line = (-math.inf, math.inf)
    if cfg.rule != "adaptive-GK":
        return integrate_1d(wave, line, cfg)
    primary = _integrate_1d_result(wave, line,
                                   replace(cfg, rule="double-exponential"))
    check = _integrate_1d_result(wave, line, cfg)
    gap = abs(primary.value - check.value)
    disagree = np.any(gap > 10.0 * (primary.error_estimate
                                    + check.error_estimate))
    return IntegralResult(
        primary.value, np.fmax(primary.error_estimate, gap),
        primary.evaluations + check.evaluations,
        bool(primary.converged and check.converged and not disagree))
