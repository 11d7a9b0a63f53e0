"""Closed-form Fourier transforms, their Theta factors and cone t rows,
and the Parseval-derived A/B families."""

import cmath
import math
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

import conefourier.kernel as kernel
import conefourier.transforms as transforms
import conefourier.univariate as univariate

from conefourier import (DomainError, FreqVector, JacobiConeParams,
                         LaguerreConeParams, MultiIndex, ParsevalParams,
                         PoleError, QuadratureConfig, TransformParamsJacobi,
                         TransformParamsLaguerre, a_family, a_norm_rhs,
                         b_family, b_norm_rhs, ball_norm, ball_op,
                         check_identity, cone_norm, f_d,
                         f_d_via_g2, fourier_num, ft_f_closed,
                         ft_g_jacobi_closed, ft_g_laguerre_closed, g_jacobi,
                         g_laguerre, gamma_cx, theta_hahn, pochhammer,
                         theta_hyper)
from conefourier.kernel import _pfq_terminating
from conefourier.verify import _CFG_FOURIER
from conftest import cubature_cx

CFG_FT = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)


def rising(a, n):
    out = 1.0 + 0.0j
    for i in range(n):
        out *= a + i
    return out


def cbeta(p, q):
    return gamma_cx(p) * gamma_cx(q) / gamma_cx(p + q)


# ------------------------------------------------------------------- f_d

def test_f_d_base_cases():
    a, mu = 0.6, 0.9
    for x1 in (-1.3, 0.0, 0.7):
        sech = 1.0 / math.cosh(x1)
        assert f_d((x1,), (0,), a, mu) == pytest.approx(sech ** (2 * a),
                                                        rel=1e-13)
        want = sech ** (2 * a) * 2 * mu * math.tanh(x1)
        assert f_d((x1,), (1,), a, mu) == pytest.approx(want, rel=1e-13,
                                                        abs=1e-15)


def test_f_d_recursion_consistency():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        for _ in range(15):
            k = tuple(int(v) for v in rng.integers(0, 3, size=d))
            if sum(k) > 4:
                continue
            x = tuple(rng.uniform(-1.5, 1.5, size=d))
            a = rng.uniform(0.3, 1.5)
            mu = rng.uniform(0.3, 1.8)
            direct = f_d(x, k, a, mu)
            g2 = f_d_via_g2(x, k, a, mu)
            scale = max(abs(direct), 1e-8)
            assert abs(g2 - direct) <= 1e-12 * scale


def _f_d_mpmath(x, k, a, mu):
    """f_d as the product of its axis factors in 40-digit arithmetic."""
    with mpmath.workdps(40):
        d, value = len(k), mpmath.mpf(1)
        for j in range(1, d + 1):
            tail = sum(k[j:])
            xj = mpmath.mpf(x[j - 1])
            value *= (mpmath.sech(xj) ** (2 * a + tail + mpmath.mpf(d - j) / 2)
                      * mpmath.gegenbauer(k[j - 1], mu + tail
                                          + mpmath.mpf(d - j) / 2,
                                          mpmath.tanh(xj)))
        return float(value)


@pytest.mark.parametrize("x1", [10.0, 15.0, 19.0, 25.0])
def test_f_d_far_out_matches_mpmath(x1):
    # 1 - tanh^2 x cancels far out: the nested ball point lost 5.3e-4
    # relative at x1 = 15 and 3.5e-8 at x1 = 10
    x, k, a, mu = (x1, 0.5), (0, 2), 0.8, 0.6
    want = _f_d_mpmath(x, k, a, mu)
    assert abs(f_d(x, k, a, mu) - want) <= 1e-13 * abs(want)


def test_f_d_is_the_ball_basis_at_the_nested_tanh_point():
    # the paper's definition: prod_j (1 - tanh^2 x_j)^(a + (d-j)/4) times
    # ball_op at y_j = tanh x_j sqrt(prod_{i<j} (1 - tanh^2 x_i))
    rng = np.random.default_rng(18)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            k = tuple(int(v) for v in rng.integers(0, 3, size=d))
            x = rng.uniform(-3.0, 3.0, size=d)
            a, mu = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.8)
            s2 = 1.0 / np.cosh(x) ** 2
            y = np.tanh(x) * np.sqrt(np.concatenate([[1.0], np.cumprod(s2)[:-1]]))
            pref = math.prod(s2[j] ** (a + (d - 1 - j) / 4.0) for j in range(d))
            want = pref * ball_op(k, mu, tuple(y))
            assert f_d(tuple(x), k, a, mu) == pytest.approx(
                want, rel=1e-12, abs=1e-13 * pref)


# ----------------------------------------------------------- cone families

def test_g_laguerre_base_and_decay():
    tp = TransformParamsLaguerre(0.6, 1.1, 0.5, 0.9)
    t, x1 = 0.4, -0.8
    want = (math.exp(-math.exp(t) / 2 + tp.b * t)
            * (1.0 / math.cosh(x1)) ** (2 * tp.a))
    assert g_laguerre(t, (x1,), (0,), 0, tp) == pytest.approx(want, rel=1e-13)
    assert abs(g_laguerre(20.0, (0.3,), (0,), 0, tp)) < 1e-300


def test_g_laguerre_composition():
    tp = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    t, x1 = 0.3, 0.6
    alpha = 2 * 1 + 2 * tp.mu + tp.beta + 1 - 1
    sech = 1.0 / math.cosh(x1)
    want = (math.exp(-math.exp(t) / 2 + (tp.b + 1) * t)
            * sp.eval_genlaguerre(1, alpha, math.exp(t))
            * sech ** (2 * tp.a) * 2 * tp.mu * math.tanh(x1))
    assert g_laguerre(t, (x1,), (1,), 2, tp) == pytest.approx(want, rel=1e-12)


def test_g_laguerre_dead_tail_is_silent():
    # past t = 8 the value is an exact 0; e^((b+|k|) t) must not overflow
    tp = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert g_laguerre(1000.0, (0.3,), (1,), 2, tp) == 0.0
        got = g_laguerre(np.array([0.3, 1000.0]), (0.3,), (1,), 2, tp)
    assert got[0] == g_laguerre(0.3, (0.3,), (1,), 2, tp)
    assert got[1] == 0.0


def test_g_jacobi_base_and_decay():
    tp = TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6)
    t, x1 = -0.5, 0.2
    th = math.tanh(t)
    want = ((1 + th) ** tp.b * (1 - th) ** tp.c
            * (1.0 / math.cosh(x1)) ** (2 * tp.a))
    assert g_jacobi(t, (x1,), (0,), 0, tp) == pytest.approx(want, rel=1e-13)
    assert abs(g_jacobi(40.0, (0.2,), (0,), 0, tp)) < 1e-30
    assert abs(g_jacobi(-40.0, (0.2,), (0,), 0, tp)) < 1e-30


def test_g_jacobi_composition():
    tp = TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6)
    t, x1 = 0.35, -0.45
    th = math.tanh(t)
    alpha = 2 * 1 + 2 * tp.mu + tp.beta + 1 - 1
    sech = 1.0 / math.cosh(x1)
    want = (0.5 * (1 + th) ** (tp.b + 1) * (1 - th) ** tp.c
            * sp.eval_jacobi(1, alpha, tp.gamma, -th)
            * sech ** (2 * tp.a) * 2 * tp.mu * math.tanh(x1))
    assert g_jacobi(t, (x1,), (1,), 2, tp) == pytest.approx(want, rel=1e-12)


_SLOW_TAIL = TransformParamsJacobi(0.9, 0.8, 0.562, 0.5, 0.7, 0.3)


def _jacobi_t_part_mpmath(t, k, n, tp):
    """The t part of g_jacobi at 50 digits, 1 -+ tanh t taken as exact
    complements, from the double parameters the library uses."""
    kt = sum(k)
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        e = mpmath.exp(-2 * abs(t))
        small, big = 2 * e / (1 + e), 2 / (1 + e)
        plus, minus = (big, small) if t >= 0 else (small, big)
        alpha = 2 * kt + 2 * tp.mu + tp.beta + len(k) - 1
        return (plus ** mpmath.mpf(tp.b + kt) * minus ** mpmath.mpf(tp.c)
                * mpmath.jacobi(n - kt, alpha, tp.gamma, -mpmath.tanh(t))
                / 2 ** kt)


def test_jacobi_t_part_keeps_both_tails():
    # 1 - tanh t rounds to 0 past t of about 19 and loses digits well
    # before; the t part must follow its slow e^{-2ct} tail past there
    k, n = (1, 2), 4
    ts = np.array([-30.0, -19.0, -17.0, 0.4, 17.0, 19.0, 30.0])
    got = transforms._jacobi_t_part(ts, MultiIndex(k), n, _SLOW_TAIL)
    for t, value in zip(ts, got):
        want = _jacobi_t_part_mpmath(t, k, n, _SLOW_TAIL)
        assert value != 0.0
        assert abs(value - float(want)) <= 1e-14 * abs(float(want))


def test_ft_g_jacobi_slow_tail_row_vs_mpmath():
    # c = 0.562: the t row decays only like e^{-1.124 t}, here under
    # frequency -5.531; its ladder must converge within its own estimate
    # of the true value, and the whole row must pass, at the default
    # Fourier config and at 1e-11
    k, n, xi = (1, 2), 4, -5.531
    with mpmath.workdps(50):
        want = complex(mpmath.quad(
            lambda t: _jacobi_t_part_mpmath(t, k, n, _SLOW_TAIL)
            * mpmath.expj(-xi * t), [-mpmath.inf, 0, mpmath.inf]))
    params = {"k": k, "n": n, "a": 0.9, "b": 0.8, "c": 0.562, "beta": 0.5,
              "mu": 0.7, "gamma": 0.3, "xi": (-3.001, 0.968, xi)}
    for cfg in (_CFG_FOURIER, QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)):
        res = fourier_num(lambda t: transforms._jacobi_t_part(
            t, MultiIndex(k), n, _SLOW_TAIL), xi, cfg)
        assert abs(res.value - want) <= res.error_estimate
        report = check_identity("ft-g-jacobi", params, cfg)
        assert report.passed, report.reason


# ------------------------------------------------------------ Theta factor

def test_theta_base_cases():
    for xi in (0.0, 0.7, -2.1):
        want = cbeta(0.5 + 0.5j * xi, 0.5 - 0.5j * xi)
        got = theta_hyper(1, 1, 0.5, 1.0, (0,), xi)
        assert abs(got - want) < 1e-13 * abs(want)
    assert theta_hyper(1, 1, 0.5, 1.0, (0,), 0.0) == pytest.approx(math.pi)


def test_theta_dual_forms_agree():
    got_h = theta_hyper(1, 2, 0.8, 1.1, (2, 1), 0.7)
    got_c = theta_hahn(1, 2, 0.8, 1.1, (2, 1), 0.7)
    assert abs(got_h - got_c) < 1e-12 * abs(got_h)
    rng = np.random.default_rng(33)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        j = int(rng.integers(1, d + 1))
        k = tuple(int(v) for v in rng.integers(0, 5, size=d))
        a = rng.uniform(0.2, 2.0)
        mu = rng.uniform(0.3, 2.0)
        xi = rng.uniform(-5.0, 5.0)
        vh = theta_hyper(j, d, a, mu, k, xi)
        vc = theta_hahn(j, d, a, mu, k, xi)
        assert abs(vh - vc) <= 1e-12 * max(abs(vh), 1e-300)


# ------------------------------------------------- the cone t rows' series

def laguerre_t_row(n, k, b, mu, beta, xi):
    """The terminating 2F1 at argument 2 of the Laguerre cone's t row."""
    spec = transforms._laguerre_t_spec(MultiIndex(k), n, b, mu, beta)
    return complex(transforms._product([spec], 1j * xi))


def jacobi_t_row(n, k, b, c, mu, beta, gamma, xi):
    """The terminating 3F2 at 1 of the Jacobi cone's t row."""
    spec = transforms._jacobi_t_spec(MultiIndex(k), n, b, c, mu, beta, gamma)
    return complex(transforms._product([spec], 1j * xi))


def test_laguerre_t_row_values():
    assert laguerre_t_row(2, (2,), 1.3, 0.9, 0.5, 0.4) == pytest.approx(1.0)
    b, mu, beta, xi = 1.3, 0.9, 0.5, 0.4
    want = 1.0 - 2.0 * (b + 1 - 1j * xi) / (2 + 2 * mu + beta + 1)
    got = laguerre_t_row(2, (1,), b, mu, beta, xi)
    assert abs(got - want) < 1e-13 * abs(want)
    # n - |k| = 3: explicit four-term sum
    n, k1 = 4, 1
    num1, num2 = -3.0 + 0.0j, b + k1 - 1j * xi
    den = 2 * k1 + 2 * mu + beta + 1
    want = sum(rising(num1, m) * rising(num2, m) / rising(den, m)
               * 2.0 ** m / math.factorial(m) for m in range(4))
    got = laguerre_t_row(n, (k1,), b, mu, beta, xi)
    assert abs(got - want) < 1e-12 * abs(want)


def test_laguerre_t_row_denominator_pole():
    # 2|k| + 2 mu + beta + d = 0 makes the 2F1's denominator hit zero at
    # term 1
    with pytest.raises(PoleError):
        ft_g_laguerre_closed((0,), 1, TransformParamsLaguerre(0.8, 1.0, -1.5,
                                                              0.25), (0.2, 0.3))


def test_jacobi_t_row_values():
    assert jacobi_t_row(3, (3,), 1.1, 0.8, 0.9, 0.4, 0.6, 1.2) == pytest.approx(1.0)
    b, c, mu, beta, gamma, xi = 1.1, 0.8, 0.9, 0.4, 0.6, 1.2
    # n - |k| = 2 at k = (1,): explicit three-term sum
    n, k1, d = 3, 1, 1
    a1 = -2.0 + 0.0j
    a2 = n + k1 + 2 * mu + beta + gamma + d
    a3 = k1 + b - 0.5j * xi
    d1 = 2 * k1 + 2 * mu + beta + d
    d2 = k1 + b + c
    want = sum(rising(a1, m) * rising(a2, m) * rising(a3, m)
               / (rising(d1, m) * rising(d2, m) * math.factorial(m))
               for m in range(3))
    got = jacobi_t_row(n, (k1,), b, c, mu, beta, gamma, xi)
    assert abs(got - want) < 1e-12 * abs(want)
    # two-term case
    want1 = 1.0 + (-1.0) * (2 + k1 + 2 * mu + beta + gamma + d) * a3 / (d1 * d2)
    got1 = jacobi_t_row(2, (k1,), b, c, mu, beta, gamma, xi)
    assert abs(got1 - want1) < 1e-13 * abs(want1)


# -------------------------------------------------------------- ft_f_closed

def test_closed_transforms_take_array_frequencies():
    # a component may be a float array, all broadcasting together: the
    # array call equals the scalar calls, which still return a complex
    k = (1, 2)
    lag = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    jac = TransformParamsJacobi(0.7, 1.2, 0.9, 0.5, 0.9, 0.4)
    s1 = np.linspace(-4.0, 4.0, 9)[:, None]
    s2 = np.linspace(-3.0, 3.0, 5)[None, :]
    calls = [
        (lambda xi: ft_f_closed(k, 0.8, 0.6, xi), (s1, s2)),
        (lambda xi: ft_g_laguerre_closed(k, 4, lag, xi), (s1, 0.4, s2)),
        (lambda xi: ft_g_jacobi_closed(k, 4, jac, xi), (0.3, s1, s2)),
    ]
    for fn, xi in calls:
        got = fn(xi)
        assert got.shape == (9, 5)
        for i, j in np.ndindex(9, 5):
            point = tuple(float(np.broadcast_to(c, (9, 5))[i, j]) for c in xi)
            want = fn(FreqVector(point))
            assert type(want) is complex
            assert fn(point) == want
            assert abs(got[i, j] - want) <= 1e-14 * abs(want)
    with pytest.raises(DomainError):
        ft_f_closed(k, 0.8, 0.6, (s1, np.full(5, np.inf)))
    with pytest.raises(DomainError):
        ft_f_closed(k, 0.8, 0.6, (s1,))
    assert hash(FreqVector((0.5, 1.0))) == hash(FreqVector((0.5, 1.0)))


@pytest.mark.parametrize("name,kinds", [("ft_f_closed", 1),
                                        ("ft_g_laguerre_closed", 2),
                                        ("ft_g_jacobi_closed", 1)])
def test_closed_transform_makes_one_gamma_call(monkeypatch, name, kinds):
    # one _Rows call takes every Gamma of the theta rows and the t row in
    # one gamma_cx call, with no log Gammas on in-range input, and the
    # series of its kinds (the axis 3F2s with the Jacobi t 3F2; the
    # Laguerre argument-2 2F1) in one compiled loop, with no
    # _pfq_terminating call
    counts = {"rows": 0, "gamma": 0, "log_gamma": 0, "series": 0}
    series_kinds = set()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def rows_call(rows, z):
        series_kinds.update((len(f.num), len(f.den), f.argument)
                            for f in rows.gammas.factors)
        return call(rows, z)

    for key, fn in (("gamma", "gamma_cx"), ("log_gamma", "log_gamma_cx")):
        monkeypatch.setattr(transforms, fn,
                            counting(key, getattr(transforms, fn)))
    call = transforms._Rows.__call__
    monkeypatch.setattr(transforms._Rows, "__call__",
                        counting("rows", rows_call))
    for module in (kernel, univariate):
        monkeypatch.setattr(module, "_pfq_terminating",
                            counting("series", module._pfq_terminating))
    k, xi = (2, 1, 1), (0.3, -1.2, 2.5, 0.7)
    calls = {
        "ft_f_closed": lambda: ft_f_closed(k, 0.8, 0.6, xi[:3]),
        "ft_g_laguerre_closed": lambda: ft_g_laguerre_closed(
            k, 5, TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9), xi),
        "ft_g_jacobi_closed": lambda: ft_g_jacobi_closed(
            k, 5, TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6), xi),
    }
    assert np.isfinite(calls[name]())
    assert counts == {"rows": 1, "gamma": 1, "log_gamma": 0, "series": 0}
    assert len(series_kinds) == kinds
    assert not hasattr(transforms, "beta_cx")
    assert not hasattr(transforms, "_pfq_terminating")


def _series_row(num, den, argument, shift=0.8, slope=0.5j, poch=(0.0, 0.0, 0)):
    return transforms._Factor((), num, shift, slope, den, argument, poch)


def _scalar_route(f, z):
    """Row f at z by the scalar series and pochhammer, one row at a time."""
    value = _pfq_terminating((*f.num, f.shift + f.slope * z), f.den,
                             f.argument)
    shift, slope, n = f.poch
    return value * pochhammer(shift + slope * z, n) if n else value


def test_rows_of_mixed_degrees_match_their_scalar_series():
    # one compiled loop over rows of degrees 0-3 gives each row's own
    # series, bit for bit: a lower-degree row stops on an exact-0 p_j, so
    # a denominator it reaches only past its stop is no pole
    x = np.array([0.3 + 0.2j, -1.1 + 4.0j, 2.5 - 0.5j])
    rows = [_series_row((m, b), (1.2, 2.6), 1.0)
            for m, b in ((0, 1.5), (-1, 0.7), (-3, 2.25), (-2, 0.4))]
    rows.append(_series_row((-1,), (-1.0,), 2.0))
    got = transforms._Rows(rows)(np.tile(x, (len(rows), 1)))
    for r, f in enumerate(rows):
        assert np.array_equal(got[r], _scalar_route(f, x))
    with pytest.raises(DomainError):
        transforms._Rows([rows[0], _series_row((2, 1.0), (2.0,), 1.0)])


def test_rows_denominator_pole_before_stop():
    # a row whose denominator reaches 0 before its series ends raises at
    # the build, as its scalar series does, rather than dividing by zero
    with pytest.raises(PoleError):
        transforms._Rows([_series_row((-1,), (0.0,), 2.0, 1.0, 0.0),
                          _series_row((-1,), (1.0,), 2.0, 2.0, 0.0)])
    with pytest.raises(PoleError):
        transforms._Rows([_series_row((-3,), (2.5,), 1.0, 1.0, 0.0),
                          _series_row((-3,), (-2.0 + 1e-12j,), 1.0, 1.0, 0.0)])
    # a denominator reached only at the series' end is no pole, as for
    # scalars
    rows = [_series_row((-2,), (b,), 1.0, 1.0, 0.0) for b in (-2.0, 1.5)]
    got = transforms._Rows(rows)(np.zeros((2, 1), dtype=complex))
    assert got[0, 0] == _pfq_terminating((-2, 1.0), (-2.0,), 1.0) == 3.0


_ROW = st.tuples(
    st.booleans(),  # a 3F2 at 1, else a 2F1 at 2
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.3, max_value=3.0),
    st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0),
    st.sampled_from((-1.0, -0.5, 0.5, 1.0)),
    st.tuples(st.floats(min_value=0.3, max_value=4.0),
              st.floats(min_value=0.3, max_value=4.0)),
    st.tuples(st.floats(min_value=0.2, max_value=3.0),
              st.sampled_from((-1.0, -0.5)),
              st.integers(min_value=0, max_value=3)))


@given(rows=st.lists(_ROW, min_size=1, max_size=5),
       s=st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1,
                  max_size=6),
       u=st.sampled_from((1.0, 1j, 0.6 + 0.8j)))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_compiled_rows_equal_scalar_series_times_pochhammer(rows, s, u):
    # the compiled series times the Pochhammer column equals, with ==, the
    # row-by-row route of scalar _pfq_terminating times pochhammer
    factors = [_series_row((-m, o) if f32 else (-m,), den if f32 else den[:1],
                           1.0 if f32 else 2.0, shift, slope, poch)
               for f32, m, o, shift, slope, den, poch in rows]
    z = u * np.array(s)
    got = transforms._Rows(factors)(np.tile(z, (len(factors), 1)))
    for r, f in enumerate(factors):
        assert np.array_equal(got[r], _scalar_route(f, z)), f


def test_closed_transforms_vanish_at_huge_frequencies():
    # the Beta/Gamma prefactor underflows to an exact 0 while the
    # terminating series in xi overflows: the value is 0, not inf * 0
    lag = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    jac = TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6)
    calls = [
        (lambda xi: ft_f_closed((2,), 0.8, 0.6, (xi,)), 1e155),
        (lambda xi: ft_g_laguerre_closed((0,), 3, lag, (0.1, xi)), 1e155),
        (lambda xi: ft_g_jacobi_closed((0,), 3, jac, (0.1, xi)), 1e155),
        (lambda xi: theta_hyper(1, 2, 0.8, 0.6, (2, 1), xi), 1e200),
        (lambda xi: theta_hahn(1, 2, 0.8, 0.6, (2, 1), xi), 1e200),
    ]
    for fn, huge in calls:
        assert fn(huge) == 0.0
        got = fn(np.array([0.5, huge]))
        assert got[1] == 0.0
        assert got[0] == fn(np.array([0.5, 0.7]))[0]


@pytest.mark.parametrize("a", [90.0, 200.0])
def test_theta_at_large_a_vs_mpmath(a):
    # Gamma(2 base) overflows past base ~ 86 and Gamma(base) past 171,
    # while the Beta-3F2 factor stays finite: the log-space row takes it
    j, d, mu, k, xi = 1, 2, 0.6, (2, 1), 0.7
    with mpmath.workdps(30):
        base = mpmath.mpf(a) + mpmath.mpf(0.75)
        p = base + 0.5j * mpmath.mpf(xi)
        want = complex(mpmath.beta(p, mpmath.conj(p)) * mpmath.hyp3f2(
            -2, 2 + 2 * (1 + mpmath.mpf(mu) + 0.5), p,
            1 + mpmath.mpf(mu) + 1, 1 + 2 * mpmath.mpf(a) + 0.5, 1))
    for theta in (theta_hyper, theta_hahn):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = theta(j, d, a, mu, k, xi)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("b", [170.0, 200.0, 1000.0])
def test_cone_transforms_at_large_b(b):
    # the Jacobi t row's Gamma ratio is finite although Gamma(b) is not;
    # its value over the ball transform is checked against mpmath.  The
    # Laguerre transform truly overflows there and raises.
    k, n, xi = (1,), 2, (0.5, 0.3)
    params = TransformParamsJacobi(0.8, b, 0.9, 0.4, 0.7, 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = ft_g_jacobi_closed(k, n, params, xi) / ft_f_closed(
            k, params.a, params.mu, xi[:1])
        with pytest.raises(DomainError):
            ft_g_laguerre_closed(k, n, TransformParamsLaguerre(
                0.8, b, 0.4, 0.7), xi)
    with mpmath.workdps(30):
        mu, beta, gamma = (mpmath.mpf(v) for v in (0.7, 0.4, 0.6))
        bb, c, u = mpmath.mpf(b), mpmath.mpf(0.9), 0.5j * mpmath.mpf(xi[1])
        den = 2 + 2 * mu + beta + 1
        want = complex(
            2 ** (bb + c - 1) * mpmath.rf(den, 1)
            * mpmath.gamma(bb + 1 - u) * mpmath.gamma(c + u)
            / mpmath.gamma(1 + bb + c)
            * mpmath.hyp3f2(-1, n + 1 + 2 * mu + beta + gamma + 1, 1 + bb - u,
                            den, 1 + bb + c, 1))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_ft_f_sech_line():
    assert abs(ft_f_closed((0,), 0.5, 1.0, FreqVector((0.0,))) - math.pi) < 1e-14
    for xi in (-2.0, -0.5, 0.3, 1.0, 4.0):
        want = math.pi / math.cosh(math.pi * xi / 2.0)
        got = ft_f_closed((0,), 0.5, 1.0, FreqVector((xi,)))
        assert abs(got - want) < 1e-13 * abs(want)


def test_ft_f_conjugate_symmetry():
    for (k, a, mu, xi) in [((2,), 0.8, 0.6, (1.3,)),
                           ((1, 1), 0.9, 0.8, (0.4, -1.1)),
                           ((0, 2, 1), 0.7, 1.1, (0.5, 1.2, -0.3))]:
        plus = ft_f_closed(k, a, mu, FreqVector(xi))
        minus = ft_f_closed(k, a, mu, FreqVector(tuple(-v for v in xi)))
        assert abs(minus - plus.conjugate()) <= 1e-12 * abs(plus)


def _cubature_transform(f, xi, atol=0.0):
    """The unfactored transform int exp(-i <xi, x>) f(*x) dx, every axis
    cut to (-30, 30), by cubature."""
    def integrand(*xs):
        return f(*xs) * np.exp(-1j * sum(v * x for v, x in zip(xi, xs)))

    return cubature_cx(integrand, [(-30.0, 30.0)] * len(xi), rtol=1e-9,
                       atol=atol)


def test_ft_f_matches_numerical_d2():
    # the closed form, the factored oracle (one ladder of f_d's axis
    # factors) and the unfactored 2-d integral by cubature agree
    k, a, mu = (1, 1), 0.9, 0.8
    xi = (0.4, -1.1)
    closed = ft_f_closed(k, a, mu, FreqVector(xi))
    rep = check_identity("ft-f", {"k": k, "a": a, "mu": mu, "xi": xi})
    assert rep.passed
    # the transform is real, about 1: its imaginary part needs atol
    tensor = _cubature_transform(lambda *xs: f_d(xs, k, a, mu), xi,
                                 atol=1e-10)
    assert abs(closed - tensor) < 1e-6 * abs(tensor)
    assert abs(rep.rhs - tensor) < 1e-6 * abs(tensor)


def test_ft_f_matches_numerical_d3():
    # exercises the j-weighted power of 2 in the prefactor: the two index
    # placements get different exponents and both must match the product
    # of f_d's axis transforms
    for k in [(0, 2, 0), (0, 0, 2)]:
        rep = check_identity("ft-f", {"k": k, "a": 0.8, "mu": 0.6,
                                      "xi": (0.0, 0.0, 0.0)})
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) < 1e-6 * abs(rep.rhs)


# ------------------------------------------------------------ ft_g closed

def test_ft_g_laguerre_collapse():
    tp0 = TransformParamsLaguerre(0.5, 1.0, 0.5, 1.0)
    got = ft_g_laguerre_closed((0,), 0, tp0, FreqVector((0.0, 0.0)))
    assert abs(got - 2 * math.pi) < 1e-13

    tp = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    for xi1, xi2 in [(0.6, -0.8), (0.0, 1.0), (-1.4, 0.2)]:
        want = (2 ** (2 * tp.a + tp.b - 1j * xi2 - 1)
                * gamma_cx(tp.b - 1j * xi2)
                * cbeta(tp.a + 0.5j * xi1, tp.a - 0.5j * xi1))
        got = ft_g_laguerre_closed((0,), 0, tp, FreqVector((xi1, xi2)))
        assert abs(got - want) < 1e-13 * abs(want)


def test_ft_g_laguerre_matches_numerical():
    # the closed form, the factored oracle (an x ladder times a t ladder)
    # and the unfactored (x, t) integral by cubature agree
    tp = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    xi = (0.6, -0.8)
    closed = ft_g_laguerre_closed((1,), 2, tp, FreqVector(xi))
    rep = check_identity("ft-g-laguerre", {"n": 2, "k": (1,), "a": 0.7,
                                           "b": 1.2, "beta": 0.5, "mu": 0.9,
                                           "xi": xi})
    assert rep.passed
    tensor = _cubature_transform(
        lambda x, t: g_laguerre(t, (x,), (1,), 2, tp), xi)
    assert abs(closed - tensor) < 1e-6 * abs(tensor)
    assert abs(rep.rhs - tensor) < 1e-6 * abs(tensor)


def test_ft_g_jacobi_collapse():
    tp = TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6)
    for xi1, xi2 in [(0.6, -0.8), (1.3, 0.4)]:
        want = (2 ** (tp.b + tp.c + 2 * tp.a - 2)
                * gamma_cx(tp.b - 0.5j * xi2) * gamma_cx(tp.c + 0.5j * xi2)
                / gamma_cx(tp.b + tp.c)
                * cbeta(tp.a + 0.5j * xi1, tp.a - 0.5j * xi1))
        got = ft_g_jacobi_closed((0,), 0, tp, FreqVector((xi1, xi2)))
        assert abs(got - want) < 1e-13 * abs(want)


def test_ft_g_jacobi_separable_case():
    # a = 1/2, b = c = 1 at xi = 0 separates into
    # int (1+tanh)(1-tanh) dt * int sech x dx = 2 * pi
    tp = TransformParamsJacobi(0.5, 1.0, 1.0, 0.5, 1.0, 0.5)
    closed = ft_g_jacobi_closed((0,), 0, tp, FreqVector((0.0, 0.0)))
    assert abs(closed - 2 * math.pi) < 1e-13
    # the t section at x = 0 and the x section at t = 0 (both 1 there)
    res = fourier_num(lambda s: np.stack([g_jacobi(s, (0.0,), (0,), 0, tp),
                                          g_jacobi(0.0, (s,), (0,), 0, tp)]),
                      0.0, CFG_FT)
    assert res.value == pytest.approx([2.0, math.pi], rel=1e-6)
    assert abs(closed - np.prod(res.value)) < 1e-6 * abs(closed)


def test_ft_g_jacobi_matches_numerical():
    # the closed form, the factored oracle and the unfactored (x, t)
    # integral by cubature agree
    tp = TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6)
    xi = (0.3, 1.4)
    closed = ft_g_jacobi_closed((1,), 2, tp, FreqVector(xi))
    rep = check_identity("ft-g-jacobi", {"n": 2, "k": (1,), "a": 0.8,
                                         "b": 1.1, "c": 0.9, "beta": 0.4,
                                         "mu": 0.7, "gamma": 0.6, "xi": xi})
    assert rep.passed
    assert abs(closed - rep.rhs) < 1e-6 * abs(rep.rhs)
    tensor = _cubature_transform(
        lambda x, t: g_jacobi(t, (x,), (1,), 2, tp), xi)
    assert abs(closed - tensor) < 1e-6 * abs(tensor)
    assert abs(rep.rhs - tensor) < 1e-6 * abs(tensor)


# ------------------------------------------------------------ A/B families

def test_parseval_params_couplings():
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    assert pp.abs_a == pytest.approx(1.4)
    assert pp.mu == pytest.approx(0.9)
    assert pp.beta == pytest.approx(1.6 - 2.8)
    assert not pp.has_c
    ppc = ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)
    assert ppc.gamma == pytest.approx(0.6)
    with pytest.raises(DomainError):
        ParsevalParams(0.8, 0.6, 0.9, -0.7)


@pytest.mark.parametrize("make", [
    lambda: TransformParamsLaguerre(0.7, 1.2 + 0.5j, 0.5, 0.9),
    lambda: TransformParamsJacobi(0.8, 1 + 1j, 0.9, 0.4, 0.7, 0.6),
    lambda: ParsevalParams(0.8, 0.6, 0.9, 0.7j)],
    ids=["laguerre-b", "jacobi-b", "parseval-b2"])
def test_transform_parameters_reject_complex_values(make):
    # a complex value is not a positive real: DomainError, not float()'s
    # TypeError
    with pytest.raises(DomainError, match="positive real"):
        make()


def test_transform_parameters_are_cone_parameters():
    lag = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    jac = TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6)
    assert cone_norm((1, 0), 2, lag) == cone_norm(
        (1, 0), 2, LaguerreConeParams(0.5, 0.9))
    assert cone_norm((1, 0), 2, jac) == cone_norm(
        (1, 0), 2, JacobiConeParams(0.4, 0.7, 0.6))
    with pytest.raises(DomainError):
        TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, -1.0)  # gamma <= -1


def test_a_family_base_cases():
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    x1 = 0.35j
    want = gamma_cx(pp.a1 - x1 / 2.0) * gamma_cx(pp.a1 + x1 / 2.0)
    for t in (0.2j, -1.1j):
        got = a_family(t, (x1,), (0,), 0, pp)
        assert abs(got - want) < 1e-13 * abs(want)
    t = 0.6j
    factor = 1.0 - 2.0 * (pp.b1 - t) / pp.abs_b
    got = a_family(t, (x1,), (0,), 1, pp)
    assert abs(got - want * factor) < 1e-13 * abs(want * factor)


def test_b_family_base_cases():
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)
    x1 = -0.7j
    want = gamma_cx(pp.a1 - x1 / 2.0) * gamma_cx(pp.a1 + x1 / 2.0)
    got = b_family(0.4j, (x1,), (0,), 0, pp)
    assert abs(got - want) < 1e-13 * abs(want)
    t = 0.4j
    abc = pp.abs_b + pp.abs_c
    factor = 1.0 - abc * (pp.b1 - t / 2.0) / (pp.abs_b * (pp.b1 + pp.c1))
    got = b_family(t, (x1,), (0,), 1, pp)
    assert abs(got - want * factor) < 1e-13 * abs(want * factor)


def test_b_family_requires_c_pair():
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    with pytest.raises(DomainError):
        b_family(0.2j, (0.1j,), (0,), 0, pp)


def test_ab_families_hahn_form_equivalence():
    rng = np.random.default_rng(37)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        pp = ParsevalParams(rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5),
                            rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5),
                            rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
        k = tuple(int(v) for v in rng.integers(0, 3, size=d))
        n = sum(k) + int(rng.integers(0, 3))
        t = 1j * rng.uniform(-2.0, 2.0)
        x = tuple(1j * rng.uniform(-2.0, 2.0) for _ in range(d))
        va = a_family(t, x, k, n, pp, form="hyper")
        vah = a_family(t, x, k, n, pp, form="hahn")
        assert abs(va - vah) <= 1e-11 * max(abs(va), 1e-280)
        vb = b_family(t, x, k, n, pp, form="hyper")
        vbh = b_family(t, x, k, n, pp, form="hahn")
        assert abs(vb - vbh) <= 1e-11 * max(abs(vb), 1e-280)


def test_ab_families_zero_where_gamma_pair_underflows():
    # at |x| = 1e160 the axis Gamma pair underflows to 0 while the
    # terminating 3F2 overflows: the family is exactly 0, not inf * 0
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)
    xs = np.array([1e160j, 0.3j])
    for fam in (a_family, b_family):
        for form in ("hyper", "hahn"):
            assert fam(0.0, (1e160j,), (2,), 2, pp, form=form) == 0.0
            got = fam(0.0, (xs,), (2,), 2, pp, form=form)
            assert got[0] == 0.0
            want = fam(0.0, (0.3j,), (2,), 2, pp, form=form)
            assert abs(got[1] - want) < 1e-13 * abs(want)


@pytest.mark.parametrize("x", [345.0, 700.0, -700.0, 1e5, 1e8, 1e12, 1e16])
def test_axis_gamma_pair_far_on_the_real_axis_vs_mpmath(x):
    # Gamma(0.8 - x/2) underflows as Gamma(0.8 + x/2) overflows past
    # |x| ~ 342; the reflected pair keeps the finite product, accurate
    # out to x = 1e16, where 0.8 - x/2 rounds to an integer in doubles
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = a_family(0.3j, (x,), (0,), 0, pp)
    with mpmath.workdps(40):
        half = mpmath.mpf(x) / 2
        want = complex(mpmath.gamma(mpmath.mpf(0.8) - half)
                       * mpmath.gamma(mpmath.mpf(0.8) + half))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_ab_families_raise_where_the_product_overflows():
    # the t factor is a polynomial in t: at |t| = 1e160 it overflows, and
    # the family raises instead of returning inf or NaN
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)
    for fam in (a_family, b_family):
        with pytest.raises(DomainError):
            fam(1e160j, (0.5,), (1,), 2, pp)
        with pytest.raises(DomainError):
            fam(np.array([0.3j, 1e160j]), (0.5,), (1,), 2, pp)
        assert np.isfinite(fam(1e100j, (0.5,), (1,), 2, pp))


def test_a_norm_rhs_collapse():
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    h0 = ball_norm(MultiIndex([0]), pp.mu)
    want = (4 * math.pi ** 2 * 2.0 ** (-2 * pp.abs_a - pp.abs_b + 2) * h0
            * math.gamma(pp.abs_b) * math.gamma(2 * pp.a1)
            * math.gamma(2 * pp.a2))
    got = a_norm_rhs(0, (0,), pp)
    assert got == pytest.approx(want, rel=1e-12)
    assert b_norm_rhs(0, (0,), ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)) > 0


# ------------------------------------------------- finite or DomainError

_K = (2, 1)


def _params(s):
    """The evaluators' parameters, with a, b, c, the Parseval pairs and
    the cone norms' beta scaled by s: s = 120 and 250 put Gamma(b) of the
    cone transforms, Gamma(2a) of the theta factors and both Parseval
    norms past overflow, and s = 250 the Laguerre cone norm."""
    return {"a": 0.8 * s,
            "lag": TransformParamsLaguerre(0.7 * s, 1.2 * s, 0.5, 0.9),
            "jac": TransformParamsJacobi(0.8 * s, 1.1 * s, 0.9 * s, 0.4, 0.7,
                                         0.6),
            "pp": ParsevalParams(0.8 * s, 0.6 * s, 0.9 * s, 0.7 * s, 1.1 * s,
                                 0.5 * s),
            "cones": (LaguerreConeParams(0.9 * s, 0.9),
                      JacobiConeParams(0.9 * s, 0.7, 0.6))}


# name -> (t, x, xi, u, form, params) -> the calls to check; the families
# take the real line (u = 1) and the imaginary slice (u = i)
_EVALUATORS = {
    "f_d": lambda t, x, xi, u, form, p: [
        partial(f_d, (x, xi), _K, p["a"], 0.6)],
    "g_laguerre": lambda t, x, xi, u, form, p: [
        partial(g_laguerre, t, (x, xi), _K, 4, p["lag"])],
    "g_jacobi": lambda t, x, xi, u, form, p: [
        partial(g_jacobi, t, (x, xi), _K, 4, p["jac"])],
    "a_family": lambda t, x, xi, u, form, p: [
        partial(a_family, u * t, (u * x, u * xi), _K, 4, p["pp"], form)],
    "b_family": lambda t, x, xi, u, form, p: [
        partial(b_family, u * t, (u * x, u * xi), _K, 4, p["pp"], form)],
    "theta_hyper": lambda t, x, xi, u, form, p: [
        partial(theta_hyper, j, 2, p["a"], 0.6, _K, xi) for j in (1, 2)],
    "theta_hahn": lambda t, x, xi, u, form, p: [
        partial(theta_hahn, j, 2, p["a"], 0.6, _K, xi) for j in (1, 2)],
    "ft_f_closed": lambda t, x, xi, u, form, p: [
        partial(ft_f_closed, _K, p["a"], 0.6, (x, xi))],
    "ft_g_laguerre_closed": lambda t, x, xi, u, form, p: [
        partial(ft_g_laguerre_closed, _K, 4, p["lag"], (x, xi, t))],
    "ft_g_jacobi_closed": lambda t, x, xi, u, form, p: [
        partial(ft_g_jacobi_closed, _K, 4, p["jac"], (x, xi, t))],
    "a_norm_rhs": lambda t, x, xi, u, form, p: [
        partial(a_norm_rhs, 4, _K, p["pp"])],
    "b_norm_rhs": lambda t, x, xi, u, form, p: [
        partial(b_norm_rhs, 4, _K, p["pp"])],
    "cone_norm": lambda t, x, xi, u, form, p: [
        partial(cone_norm, _K, 4, cone) for cone in p["cones"]],
}

_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@given(t=_FINITE, x=_FINITE, xi=_FINITE, u=st.sampled_from((1.0, 1j)),
       form=st.sampled_from(("hyper", "hahn")),
       scale=st.sampled_from((1.0, 120.0, 250.0)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_public_evaluators_finite_or_domain_error(name, t, x, xi, u, form,
                                                  scale):
    for call in _EVALUATORS[name](t, x, xi, u, form, _params(scale)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                value = call()
            except DomainError:
                continue
        assert np.isfinite(value).all(), (name, call.args)
