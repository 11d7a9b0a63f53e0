"""Independent numerical oracle: tanh-sinh double-exponential quadrature
with level doubling, adaptive Gauss-Kronrod as a cross-check, tensor
iterated integration, numerical Fourier transforms, and the Parseval
frequency integral of separable functions as a product of truncated 1-d
integrals.

Nothing in this module calls the closed-form transforms; every operation
consumes a raw integrand callable.  Integrands must be vectorized: they
are called on numpy arrays of abscissas and return arrays of matching
shape.  Both 1-d rules are vector-valued: an integrand may return shape
batch + (nodes,), and the rule integrates every row on one shared node
set, converging only when every row does.  Tensor integration uses this
to integrate the inner axes for all outer nodes of a level in one call.
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
    "integrate_tensor",
    "fourier_num",
    "parseval_lhs",
]

_RULES = ("double-exponential", "adaptive-GK")

# Frequencies past this are rejected: the Gamma-type decay of every
# in-scope transform makes them numerically uninformative, and plain
# double-exponential quadrature stops resolving the oscillation.
MAX_FREQUENCY = 8.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Rule selection and tolerance contract for the oracle.

    max_levels bounds the tanh-sinh level-doubling ladder; under the
    adaptive-GK rule the same field bounds the subdivision budget (the
    interval limit is 2^max_levels, capped at 4096).  truncation_radius
    truncates infinite tails under the GK path only.
    """
    rule: str = "double-exponential"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_levels: int = 12
    truncation_radius: float = 60.0

    def __post_init__(self):
        if self.rule not in _RULES:
            raise DomainError(f"unknown quadrature rule {self.rule!r}; pick from {_RULES}")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_levels < 3:
            raise DomainError("max_levels must be at least 3")
        if not self.truncation_radius > 0.0:
            raise DomainError("truncation_radius must be positive")

    def tightened(self, factor: float) -> "QuadratureConfig":
        return replace(self, abs_tol=self.abs_tol * factor, rel_tol=self.rel_tol * factor)


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


def _within(err, value, cfg: QuadratureConfig) -> bool:
    """The tolerance contract, met only when every row meets it."""
    return bool(((err <= cfg.abs_tol) | (err <= cfg.rel_tol * abs(value))).all())


def _de_integrate(f, a: float, b: float, cfg: QuadratureConfig) -> IntegralResult:
    table, tail_factor = _de_tables(a, b)
    first = [table(level) for level in range(_FIRST_LEVELS)]
    head = np.asarray(f(np.concatenate([x for x, _ in first])), dtype=np.complex128)
    ends = np.cumsum([x.size for x, _ in first]).tolist()
    first_fx = [head[..., end - x.size:end] for (x, _), end in zip(first, ends)]
    partial = 0.0 + 0.0j
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
            # np.add.reduce is np.sum without its Python wrapper, whose
            # cost would show on the many small scalar ladders
            partial = partial + np.add.reduce(fx * w, axis=-1)
            evals += x.size
            # honest truncation term: the integrand tail beyond the
            # outermost sampled nodes (factor 2 covers power growth up to
            # sigma ~ -0.95 at a finite endpoint)
            tail = 2.0 * (abs(fx[..., 0]) * tail_factor(float(x[0]))
                          + abs(fx[..., -1]) * tail_factor(float(x[-1])))
        h = 2.0 ** (-level)
        value = h * partial
        sums.append(value)
        if level >= 2:
            e1 = abs(sums[-1] - sums[-2])
            e2 = abs(sums[-1] - sums[-3])
            # min(e1, e1^2/e2) as e1 * (e1 / max(e1, e2)): exactly e1
            # where e2 <= e1, e2 = 0 included; (e1 == 0) keeps 0/0 out
            extrap = e1 * (e1 / (np.fmax(e1, e2) + (e1 == 0.0)))
            # roundoff floor: summation noise makes estimates below
            # ~4 eps |value| meaningless
            err = extrap + tail + 4.0 * 2.2e-16 * abs(value)
            if level >= 3 and _within(err, value, cfg):
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


def _gk_truncate(a: float, b: float, radius: float):
    if not math.isfinite(a):
        a = (b if math.isfinite(b) else 0.0) - radius
    if not math.isfinite(b):
        b = a + radius if math.isfinite(a) else radius
    return a, b


def _gk_integrate(f, a: float, b: float, cfg: QuadratureConfig) -> IntegralResult:
    """Adaptive GK; with batched values every row shares one subdivision,
    which always splits the interval with the largest row error."""
    import heapq

    a, b = _gk_truncate(a, b, cfg.truncation_radius)
    limit = min(2 ** cfg.max_levels, 4096)
    val, err = _gk_eval(f, a, b)
    heap = [(-np.max(err), 0, a, b, val, err)]
    count = 1
    evals = 15
    total_val, total_err = val, err
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
            f"{result.error_estimate:.3e} after {result.evaluations} evaluations",
            result)
    return result


# integrate_tensor asks at most this many points of one integrand call,
# and gives one batched inner integral at most this many rows: an axis
# with more is taken in slices of its nodes, so that 3-4 axes run in
# bounded memory.
_MAX_POINTS = 1 << 15


def integrate_tensor(f, boxes, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Iterated integration over a tensor of intervals (dimension <= 4).

    boxes[0] is the outermost axis; every box is a pair of numbers.  f is
    called as f(*coords) with one coordinate array per axis, all of one
    shape, and must return an array of that shape.  The outer nodes of
    each rule level are integrated over the inner axes in one batched
    call.  Inner-level tolerances tighten by a factor of 10 per nesting
    level; the error estimate is the outer one plus the largest inner
    one.  Raises NonConvergenceError naming the failing axis.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    boxes = [_interval(box) for box in boxes]
    dims = len(boxes)
    if not 1 <= dims <= 4:
        raise DomainError(f"integrate_tensor supports 1..4 dimensions, got {dims}")
    evals = 0
    inner_err = 0.0
    bad_axis = None

    def integrate(axis: int, outer: list) -> IntegralResult:
        # outer: one array per outer axis, holding those coordinates for
        # each row of the batch (no rows at the top level)
        nonlocal inner_err, bad_axis
        rows = outer[0].size if outer else 1
        step = max(1, _MAX_POINTS // rows)

        def g(x):
            nonlocal evals
            parts = []
            for i in range(0, x.size, step):
                xs = x[i:i + step]
                if axis == dims - 1:
                    evals += rows * xs.size
                    parts.append(f(*np.broadcast_arrays(
                        *[c[:, None] for c in outer], xs)))
                else:
                    inner = [np.repeat(c, xs.size) for c in outer]
                    inner.append(np.tile(xs, rows))
                    value = integrate(axis + 1, inner).value
                    parts.append(np.reshape(value, (rows, xs.size) if outer
                                            else xs.shape))
            return np.concatenate(parts, axis=-1)

        res = _integrate_1d_result(g, boxes[axis], cfg.tightened(10.0 ** (-axis)))
        if not res.converged and bad_axis is None:
            bad_axis = axis
        if axis > 0:
            inner_err = max(inner_err, float(np.max(res.error_estimate)))
        return res

    top = integrate(0, [])
    result = IntegralResult(top.value, top.error_estimate + inner_err, evals,
                            top.converged and bad_axis is None)
    if not result.converged:
        raise NonConvergenceError(
            f"tensor integral did not converge on axis {bad_axis or 0}", result)
    return result


# ----------------------------------------------------------------------
# Fourier transforms and the Parseval frequency integral
# ----------------------------------------------------------------------

def _fourier_axes(xi, t_axis):
    xi = [float(v) for v in np.atleast_1d(np.asarray(xi, dtype=np.float64))]
    if any(abs(v) > MAX_FREQUENCY for v in xi):
        raise DomainError(
            f"fourier_num rejects |xi| > {MAX_FREQUENCY}: Gamma-type decay makes "
            "such values numerically uninformative")
    if t_axis not in (None, "laguerre", "jacobi"):
        raise DomainError(f"unknown t_axis {t_axis!r}")
    return xi


def fourier_num(f, xi, cfg: QuadratureConfig | None = None,
                t_axis: str | None = None, cross_check: bool | None = None) -> IntegralResult:
    """Numerical Fourier transform

        int exp(-i <xi, x>) f(x1, ..., xn) dx

    over the whole space.  Every x-axis is mapped through u = tanh(x); with
    t_axis set, the LAST axis is a cone t-axis instead, substituted
    u = e^t then v = u/(1+u) ("laguerre") or u = (1+tanh t)/2 ("jacobi").
    f takes the axes in the same order as xi, one coordinate array per
    axis, all of one shape, and must return an array of that shape.
    |xi| components above 8 are rejected.

    The primary evaluation is always double-exponential on the transformed
    domain.  Selecting rule="adaptive-GK" in cfg (or passing
    cross_check=True) additionally runs adaptive-GK in original truncated
    coordinates; a disagreement beyond 10x the combined error estimates
    clears the converged flag.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if cross_check is None:
        cross_check = cfg.rule == "adaptive-GK"
    xi = _fourier_axes(xi, t_axis)
    dims = len(xi)
    n_x = dims - 1 if t_axis else dims

    def integrand(*us):
        coords = []
        jac = 1.0
        phase = 0.0
        for j in range(n_x):
            u = us[j]
            x = np.arctanh(u)
            coords.append(x)
            jac = jac / ((1.0 - u) * (1.0 + u))
            phase = phase + xi[j] * x
        if t_axis == "laguerre":
            v = us[-1]
            t = np.log(v) - np.log1p(-v)  # t = ln(v/(1-v))
            coords.append(t)
            jac = jac / (v * (1.0 - v))
            phase = phase + xi[-1] * t
        elif t_axis == "jacobi":
            u = us[-1]
            t = 0.5 * (np.log(u) - np.log1p(-u))  # atanh(2u - 1)
            coords.append(t)
            jac = jac / (2.0 * u * (1.0 - u))
            phase = phase + xi[-1] * t
        return f(*coords) * np.exp(-1j * phase) * jac

    boxes = [(-1.0, 1.0)] * n_x + ([(0.0, 1.0)] if t_axis else [])
    de_cfg = replace(cfg, rule="double-exponential")
    try:
        primary = integrate_tensor(integrand, boxes, de_cfg)
    except NonConvergenceError as exc:
        if not cross_check:
            raise
        primary = exc.result
    if not cross_check:
        return primary

    R = cfg.truncation_radius

    def raw(*coords):
        phase = sum(x * v for x, v in zip(xi, coords))
        return f(*coords) * np.exp(-1j * phase)

    gk_cfg = replace(cfg, rule="adaptive-GK")
    gk_boxes = [(-R, R)] * dims
    try:
        check = integrate_tensor(raw, gk_boxes, gk_cfg)
    except NonConvergenceError as exc:
        check = exc.result
    disagree = abs(primary.value - check.value) > 10.0 * (
        primary.error_estimate + check.error_estimate)
    return IntegralResult(
        primary.value,
        max(primary.error_estimate, abs(primary.value - check.value)),
        primary.evaluations + check.evaluations,
        primary.converged and check.converged and not disagree)


def _parseval_box(integrand, abs_tol: float) -> tuple[float, bool]:
    """Half-width of the truncated frequency interval for one factor:
    grown from 40 in steps of 8 until |integrand| at both faces, the
    constant of the analytic C e^{-pi R / 4} Gamma-decay envelope, sits
    below abs_tol / 10.  Returns (R, tail_ok); tail_ok is False when the
    cap of 80 is reached first."""
    R = 40.0
    while True:
        faces = np.abs(np.asarray(integrand(np.array([-R, R])),
                                  dtype=np.complex128))
        if faces.max() < abs_tol / 10.0:
            return R, True
        if R >= 80.0:
            return R, False
        R = min(R + 8.0, 80.0)


def parseval_lhs(pairs, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Raw frequency-space inner product of separable functions,

        int F(xi) conj(G(xi)) dxi = prod_j int F_j(s) conj(G_j(s)) ds,

    given as the 1-d factor pairs [(F_0, G_0), ..., (F_{n-1}, G_{n-1})],
    n >= 1 (Fubini).  Each factor is integrated on its own truncated
    interval (-R, R) chosen by a face probe; a factor whose tail is still
    above abs_tol / 10 at the half-width cap of 80 emits a tail-bound
    warning and clears the converged flag on the returned result.

    The error estimate bounds the product, prod(|v_j| + e_j) - prod |v_j|,
    which stays honest when one factor vanishes.  Raises
    NonConvergenceError naming the first factor that misses the
    tolerance contract.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    pairs = list(pairs)
    if not pairs:
        raise DomainError("parseval_lhs needs at least one factor pair")
    value, bound, magnitude = 1.0 + 0.0j, 1.0, 1.0
    evals = 0
    bad = None
    unverified = []
    for axis, (F, G) in enumerate(pairs):
        def integrand(s, F=F, G=G):
            return F(s) * np.conj(G(s))

        R, tail_ok = _parseval_box(integrand, cfg.abs_tol)
        res = _integrate_1d_result(integrand, (-R, R), cfg)
        value *= res.value
        bound *= abs(res.value) + res.error_estimate
        magnitude *= abs(res.value)
        evals += res.evaluations
        if not res.converged and bad is None:
            bad = axis
        if not tail_ok:
            unverified.append(axis)
    result = IntegralResult(value, bound - magnitude, evals,
                            bad is None and not unverified)
    if bad is not None:
        raise NonConvergenceError(
            f"parseval factor {bad} did not converge", result)
    if unverified:
        import warnings

        warnings.warn(
            f"parseval_lhs tail bound unverified at half-width 80 on "
            f"factors {unverified}; result flagged non-converged",
            RuntimeWarning, stacklevel=2)
    return result
