"""Closed-form Fourier transforms, the Theta/Lambda/Xi factors, and the
Parseval-derived A/B families."""

import cmath
import math

import numpy as np
import pytest
from scipy import special as sp

from conefourier import (DomainError, FreqVector, MultiIndex, ParsevalParams,
                         PoleError, QuadratureConfig, TransformParamsJacobi,
                         TransformParamsLaguerre, a_family, a_norm_rhs,
                         b_family, b_norm_rhs, ball_norm, f_d, f_d_via_g1,
                         f_d_via_g2, fourier_num, ft_f_closed,
                         ft_g_jacobi_closed, ft_g_laguerre_closed, g_jacobi,
                         g_laguerre, gamma_cx, lambda_factor, theta_hahn,
                         theta_hyper, xi_factor)

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
            g1 = f_d_via_g1(x, k, a, mu)
            g2 = f_d_via_g2(x, k, a, mu)
            scale = max(abs(direct), 1e-8)
            assert abs(g1 - direct) <= 1e-12 * scale
            assert abs(g2 - direct) <= 1e-12 * scale


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


# ------------------------------------------------------ Lambda, Xi factors

def test_lambda_factor_values():
    assert lambda_factor(2, (2,), 1.3, 0.9, 0.5, 0.4) == pytest.approx(1.0)
    b, mu, beta, xi = 1.3, 0.9, 0.5, 0.4
    want = 1.0 - 2.0 * (b + 1 - 1j * xi) / (2 + 2 * mu + beta + 1)
    got = lambda_factor(2, (1,), b, mu, beta, xi)
    assert abs(got - want) < 1e-13 * abs(want)
    # n - |k| = 3: explicit four-term sum
    n, k1 = 4, 1
    num1, num2 = -3.0 + 0.0j, b + k1 - 1j * xi
    den = 2 * k1 + 2 * mu + beta + 1
    want = sum(rising(num1, m) * rising(num2, m) / rising(den, m)
               * 2.0 ** m / math.factorial(m) for m in range(4))
    got = lambda_factor(n, (k1,), b, mu, beta, xi)
    assert abs(got - want) < 1e-12 * abs(want)


def test_lambda_factor_denominator_pole():
    # 2|k| + 2 mu + beta + d = 0 makes the denominator hit zero at term 1
    with pytest.raises(PoleError):
        lambda_factor(1, (0,), 1.0, 0.25, -1.5, 0.3)


def test_xi_factor_values():
    assert xi_factor(3, (3,), 1.1, 0.8, 0.9, 0.4, 0.6, 1.2) == pytest.approx(1.0)
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
    got = xi_factor(n, (k1,), b, c, mu, beta, gamma, xi)
    assert abs(got - want) < 1e-12 * abs(want)
    # two-term case
    want1 = 1.0 + (-1.0) * (2 + k1 + 2 * mu + beta + gamma + d) * a3 / (d1 * d2)
    got1 = xi_factor(2, (k1,), b, c, mu, beta, gamma, xi)
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


def test_ft_f_matches_numerical_d2():
    k, a, mu = (1, 1), 0.9, 0.8
    xi = (0.4, -1.1)
    closed = ft_f_closed(k, a, mu, FreqVector(xi))
    res = fourier_num(lambda *xs: f_d(xs, k, a, mu), xi, CFG_FT)
    assert res.converged
    assert abs(closed - res.value) < 1e-6 * abs(res.value)


def test_ft_f_matches_numerical_d3():
    # exercises the j-weighted power of 2 in the prefactor: the two index
    # placements get different exponents and both must match the integral
    a, mu = 0.8, 0.6
    for k in [(0, 2, 0), (0, 0, 2)]:
        closed = ft_f_closed(k, a, mu, FreqVector((0.0, 0.0, 0.0)))
        res = fourier_num(lambda *xs: f_d(xs, k, a, mu), (0.0, 0.0, 0.0),
                          CFG_FT)
        assert abs(closed - res.value) < 1e-6 * abs(res.value)


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
    tp = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    xi = (0.6, -0.8)
    closed = ft_g_laguerre_closed((1,), 2, tp, FreqVector(xi))
    res = fourier_num(lambda x, t: g_laguerre(t, (x,), (1,), 2, tp), xi,
                      CFG_FT, t_axis="laguerre")
    assert abs(closed - res.value) < 1e-6 * abs(res.value)


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
    res = fourier_num(lambda x, t: g_jacobi(t, (x,), (0,), 0, tp),
                      (0.0, 0.0), CFG_FT, t_axis="jacobi")
    assert abs(closed - res.value) < 1e-6 * abs(res.value)


def test_ft_g_jacobi_matches_numerical():
    tp = TransformParamsJacobi(0.8, 1.1, 0.9, 0.4, 0.7, 0.6)
    xi = (0.3, 1.4)
    closed = ft_g_jacobi_closed((1,), 2, tp, FreqVector(xi))
    res = fourier_num(lambda x, t: g_jacobi(t, (x,), (1,), 2, tp), xi,
                      CFG_FT, t_axis="jacobi")
    assert abs(closed - res.value) < 1e-6 * abs(res.value)


# ------------------------------------------------------------ A/B families

def test_parseval_params_couplings():
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    assert pp.abs_a == pytest.approx(1.4)
    assert pp.mu == pytest.approx(0.9)
    assert pp.beta == pytest.approx(1.6 - 2.8)
    assert not pp.has_c
    ppc = ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)
    assert ppc.gamma == pytest.approx(0.6)
    # matched overrides pass, mismatched are rejected
    ParsevalParams(0.8, 0.6, 0.9, 0.7, mu=0.9)
    with pytest.raises(DomainError):
        ParsevalParams(0.8, 0.6, 0.9, 0.7, mu=0.8)
    with pytest.raises(DomainError):
        ParsevalParams(0.8, 0.6, 0.9, -0.7)


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


def test_a_norm_rhs_collapse():
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    h0 = ball_norm(MultiIndex([0]), pp.mu)
    want = (4 * math.pi ** 2 * 2.0 ** (-2 * pp.abs_a - pp.abs_b + 2) * h0
            * math.gamma(pp.abs_b) * math.gamma(2 * pp.a1)
            * math.gamma(2 * pp.a2))
    got = a_norm_rhs(0, (0,), pp)
    assert got == pytest.approx(want, rel=1e-12)
    assert b_norm_rhs(0, (0,), ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)) > 0
