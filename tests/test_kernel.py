"""Complex Gamma/Beta/Pochhammer and the hypergeometric evaluators."""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefourier import (DomainError, PoleError, gamma_cx, log_gamma_cx,
                         pochhammer)
from conefourier.kernel import (_LANCZOS_C, _LANCZOS_G, _SQRT_TWO_PI,
                                _gamma_zero_beyond, _lanczos_sum,
                                _pfq_terminating)


# ---------------------------------------------------------------- gamma

def test_gamma_factorial():
    assert gamma_cx(5) == pytest.approx(24.0, rel=1e-14)


def test_gamma_half():
    assert gamma_cx(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_half_plus_i_modulus():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y); recomputed: 0.5205909636...
    z = gamma_cx(0.5 + 1.0j)
    assert abs(z) ** 2 == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-12)
    assert abs(z) == pytest.approx(0.520591, abs=5e-7)


@pytest.mark.parametrize("z", [0, -1, -2, -7, 0.0 + 0.0j])
def test_gamma_pole(z):
    with pytest.raises(DomainError):
        gamma_cx(z)


def test_gamma_recurrence_sweep():
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 10.0), rng.uniform(-5.0, 5.0))
        lhs = gamma_cx(z + 1)
        rhs = z * gamma_cx(z)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_gamma_reflection_sweep():
    rng = np.random.default_rng(12)
    count = 0
    while count < 100:
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-5.0, 5.0))
        if abs(z.real - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
            continue
        count += 1
        val = gamma_cx(z) * gamma_cx(1 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) < 1e-11


def test_gamma_conjugate_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = complex(rng.uniform(-3.0, 6.0), rng.uniform(0.1, 5.0))
        if abs(z.real - round(z.real)) < 0.05:
            continue
        a = gamma_cx(np.conj(z))
        b = np.conj(gamma_cx(z))
        assert abs(a - b) / abs(b) < 1e-14


def _straddling_points(n, seed):
    # interleaved points on both sides of Re z = 1/2, clear of the poles
    rng = np.random.default_rng(seed)
    z = rng.uniform(-4.0, 6.0, n) + 1j * rng.uniform(-20.0, 20.0, n)
    z.real[::2] = np.abs(z.real[::2]) + 0.5
    z.real[1::2] = -np.abs(z.real[1::2]) + 0.45
    z.imag[np.abs(z.imag) < 0.1] += 0.3
    return z


def test_gamma_array_conjugate_symmetry_is_exact():
    z = _straddling_points(200, 14)
    assert np.array_equal(gamma_cx(np.conj(z)), np.conj(gamma_cx(z)))


def test_gamma_array_matches_scalar_calls():
    z = _straddling_points(101, 15).reshape(1, 101)
    got = gamma_cx(z)
    assert got.shape == (1, 101)
    want = np.array([gamma_cx(complex(v)) for v in z.ravel()])
    # only the summation order of the Lanczos series may differ
    assert np.all(np.abs(got.ravel() - want) <= 1e-14 * np.abs(want))


def test_lanczos_sum_matches_term_loop():
    # reference: the series summed term by term in complex arithmetic;
    # 16 eps of the absolute term sum covers 14 terms' reordered roundings
    rng = np.random.default_rng(16)
    x = rng.uniform(-0.5, 30.0, 2000) + 1j * rng.uniform(-50.0, 50.0, 2000)
    want = np.full(x.shape, _LANCZOS_C[0], dtype=np.complex128)
    size = np.full(x.shape, abs(_LANCZOS_C[0]))
    for i in range(1, len(_LANCZOS_C)):
        want += _LANCZOS_C[i] / (x + i)
        size += np.abs(_LANCZOS_C[i] / (x + i))
    got = _lanczos_sum(x)
    assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * size)


def test_gamma_pole_inside_array():
    with pytest.raises(PoleError):
        gamma_cx(np.array([1.5 + 2.0j, 0.7, -3.0, 2.5 - 1.0j]))


def test_gamma_underflow_is_exact_zero_without_warning():
    z = np.array([0.8 + 1e160j, 0.8 - 1e160j, 3.0 + 1e300j, 0.8 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gamma_cx(z)
    assert np.all(got[:3] == 0.0)
    assert got[3] == gamma_cx(0.8 + 1j)


def test_gamma_exp_skip_keeps_every_value():
    # right of Re z = 1/2 an exponent below -800 becomes a real -inf; exp
    # gives the same exact 0 that the phase-carrying exponent gave
    re = np.linspace(0.5, 12.0, 24)
    im = np.concatenate([-np.logspace(np.log10(400.0), 300.0, 200),
                         np.logspace(np.log10(400.0), 300.0, 200)])
    z = (re[:, None] + 1j * im).ravel()
    x = z - 1.0
    t = x + _LANCZOS_G + 0.5
    with np.errstate(all="ignore"):
        want = _SQRT_TWO_PI * np.exp((x + 0.5) * np.log(t) - t) * _lanczos_sum(x)
    got = gamma_cx(z)
    assert np.all(got == want)
    assert np.any(want != 0.0) and np.any(want == 0.0)


@pytest.mark.parametrize("z", [-0.5 + 230j, 0.3 + 300j, 0.3 - 300j])
def test_gamma_reflection_far_off_axis_vs_mpmath(z):
    # sin(pi z) overflows past |Im z| ~ 226 while Gamma(1 - z) underflows;
    # the reflection must still give the finite value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gamma_cx(z)
        arr = gamma_cx(np.array([z, 2.0 + 1j]))
    want = complex(mpmath.gamma(z))
    assert abs(got - want) <= 1e-12 * abs(want)
    assert arr[0] == got


# ------------------------------------------------------------ log_gamma

def test_log_gamma_values():
    assert log_gamma_cx(1) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma_cx(5) == pytest.approx(math.log(24.0), rel=1e-14)


def _stirling_log_gamma(z):
    # asymptotic series with six Bernoulli corrections; excellent at z = 200
    corr = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260),
            Fraction(-1, 1680), Fraction(1, 1188), Fraction(-691, 360360)]
    out = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2 * math.pi)
    for i, c in enumerate(corr):
        out += float(c) / z ** (2 * i + 1)
    return out


def test_log_gamma_large_argument_vs_stirling():
    assert log_gamma_cx(200.0) == pytest.approx(_stirling_log_gamma(200.0),
                                                rel=1e-13)


def test_exp_log_gamma_matches_gamma():
    for z in [0.3, 2.7, 4.0 + 1.5j, 0.5 - 2.0j, 9.25]:
        assert cmath.exp(log_gamma_cx(z)) == pytest.approx(gamma_cx(z),
                                                           rel=1e-12)


@pytest.mark.parametrize("z", [-1e3 + 0.5j, -1e3 - 0.5j, -1e5 + 0.5j,
                               -1e8 + 0.5j])
def test_log_gamma_far_left_matches_mpmath(z):
    # reflection, not one unit step per shift: constant time however far
    # left, on mpmath's branch
    want = complex(mpmath.loggamma(z))
    assert abs(log_gamma_cx(z) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("re", [0.05, 0.3, 0.5, 0.8, 3.0, 108.0, 275.0])
def test_gamma_is_an_exact_zero_past_its_height(re):
    # on both Lanczos branches, every |y| >= the height gives an exact 0
    y0 = _gamma_zero_beyond(re)
    y = y0 * np.concatenate([np.linspace(1.0, 3.0, 501),
                             np.logspace(0.0, 290.0, 59)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(gamma_cx(re + 1j * y) == 0.0)
        assert np.all(gamma_cx(re - 1j * y) == 0.0)
        # and the height is not far past the last nonzero value
        assert gamma_cx(complex(re, y0 - 60.0)) != 0.0


# ----------------------------------------------------------------- beta
# B(a, b) as the Gamma quotient the closed forms use

def _beta(a, b):
    return gamma_cx(a) * gamma_cx(b) / gamma_cx(np.add(a, b))


def test_beta_ones():
    assert _beta(1, 1) == pytest.approx(1.0, rel=1e-14)


def test_beta_half_half():
    assert _beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_complex_pair_vs_quadrature():
    # B(1+i, 1-i) = integral_0^1 x^i (1-x)^(-i) dx, the a + i xi/2 pattern
    a, b = 1 + 1j, 1 - 1j
    oracle = mpmath.quad(lambda x: x ** (a - 1) * (1 - x) ** (b - 1), [0, 1])
    assert _beta(a, b) == pytest.approx(complex(oracle), rel=1e-12)


@pytest.mark.parametrize("a,b", [(-1.0, 2.5), (2.5, -3.0), (1.5, -1.5),
                                 (np.array([0.5, 1.5]), np.array([0.5, -2.0]))])
def test_beta_pole_raises(a, b):
    # at a, at b, and at a + b (Gamma(a + b) in the denominator)
    with pytest.raises(PoleError):
        _beta(a, b)


# ------------------------------------------------------------ pochhammer

def test_pochhammer_values():
    assert pochhammer(2.5 + 1j, 0) == 1
    assert pochhammer(1.0, 6) == pytest.approx(720.0, rel=1e-14)
    assert pochhammer(-3.0, 5) == 0.0


def test_pochhammer_agrees_with_mpmath_at_large_n():
    # the iterated product loses at most about one rounding per factor
    rng = np.random.default_rng(24)
    cases = [(alpha, n) for alpha in (0.75, 3.2, 2.0 + 0.5j)
             for n in (38, 39, 40, 41, 42, 55, 80, 119)]
    for _ in range(60):
        re = rng.uniform(-30.0, 30.0)
        alpha = complex(re, rng.uniform(-30.0, 30.0)) if rng.random() < 0.5 else re
        cases.append((alpha, int(rng.integers(40, 120))))
    with mpmath.workdps(40):
        for alpha, n in cases:
            got = pochhammer(alpha, n)
            want = complex(mpmath.rf(mpmath.mpmathify(alpha), n))
            assert abs(got - want) <= 1e-14 * abs(want), (alpha, n)


@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_pochhammer_recurrence(n, alpha):
    # (alpha)_{n+1} = (alpha)_n * (alpha + n)
    lhs = pochhammer(alpha, n + 1)
    rhs = pochhammer(alpha, n) * (alpha + n)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ------------------------------------------------- terminating series

def test_terminating_2f1_one_step():
    b, c, z = 1.7, 2.4, 0.35
    got = _pfq_terminating((-1, b), (c,), z)
    assert got == pytest.approx(1 - b * z / c, rel=1e-14)


def test_terminating_2f1_argument_two():
    got = _pfq_terminating((-2, 1), (1,), 2)
    assert got == pytest.approx(1.0, rel=1e-13)  # 1 - 4 + 4


def test_terminating_3f2_complex_vs_direct_sum():
    # 3F2(-3, 5, 1+2i; 2, 4; 1): four explicit terms with exact factors
    num = (-3, 5, 1 + 2j)
    den = (2, 4)

    def rise(a, m):
        out = 1 + 0j
        for p in range(m):
            out *= a + p
        return out

    oracle = 0j
    for m in range(4):
        term = rise(num[0], m) * rise(num[1], m) * rise(num[2], m)
        term /= rise(den[0], m) * rise(den[1], m) * math.factorial(m)
        oracle += term
    got = _pfq_terminating(num, den, 1)
    assert got == pytest.approx(oracle, rel=1e-14)


def test_terminating_requires_nonpositive_numerator():
    with pytest.raises(DomainError):
        _pfq_terminating((0.5, 1.2), (2.0,), 1.0)


def test_terminating_denominator_pole_before_stop():
    with pytest.raises(PoleError):
        _pfq_terminating((-5, 1), (-3,), 1.0)


def test_terminating_denominator_pole_after_stop_is_fine():
    # series stops at 2 terms; the -3 denominator is never reached
    got = _pfq_terminating((-1, 2), (-3,), 1.0)
    assert got == pytest.approx(1 + 2.0 / 3.0, rel=1e-14)


@given(st.integers(min_value=0, max_value=6),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.3, max_value=4.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_terminating_real_inputs_stay_real(n, b, c, z):
    got = _pfq_terminating((-n, b), (c,), z)
    got = complex(got)
    assert abs(got.imag) <= 1e-13 * abs(got.real) or abs(got) < 1e-290
