"""Gegenbauer, Laguerre, Jacobi, and continuous Hahn families."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from conefourier import (DomainError, continuous_hahn, gegenbauer,
                         gegenbauer_norm, jacobi, jacobi_norm, laguerre,
                         laguerre_norm)


def rising(a, n):
    out = 1.0
    for p in range(n):
        out *= a + p
    return out


# ------------------------------------------------------------ gegenbauer

def test_gegenbauer_degree_zero_and_one():
    assert gegenbauer(0, 0.8, 0.37) == pytest.approx(1.0)
    assert gegenbauer(1, 0.8, 0.37) == pytest.approx(2 * 0.8 * 0.37, rel=1e-14)


@pytest.mark.parametrize("n,mu", [(2, 0.6), (4, 1.3), (6, 2.5)])
def test_gegenbauer_at_one(n, mu):
    assert gegenbauer(n, mu, 1.0) == pytest.approx(
        rising(2 * mu, n) / math.factorial(n), rel=1e-13)


@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_gegenbauer_matches_scipy(n, mu, x):
    # the hypergeometric route cancels to ~eps relative to C_n(1), so
    # structural zeros carry that scale as absolute floor
    want = sp.eval_gegenbauer(n, mu, x)
    floor = 1e-11 * gegenbauer(n, mu, 1.0)
    assert gegenbauer(n, mu, x) == pytest.approx(want, rel=1e-10, abs=floor)


@given(st.integers(min_value=0, max_value=9),
       st.floats(min_value=0.3, max_value=2.5, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_gegenbauer_parity(n, mu, x):
    # near x = -1 the series runs at argument ~1 with ~4^n alternating
    # terms, so the identity holds to 1e-13 relative with a cancellation
    # floor at the coefficient scale C_n(1)
    lhs = gegenbauer(n, mu, -x)
    rhs = (-1.0) ** n * gegenbauer(n, mu, x)
    floor = 1e-10 * gegenbauer(n, mu, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=floor)


@pytest.mark.parametrize("mu", [-0.5, -0.8, 0.0])
def test_gegenbauer_mu_domain(mu):
    with pytest.raises(DomainError):
        gegenbauer(2, mu, 0.1)
    with pytest.raises(DomainError):
        gegenbauer_norm(2, mu)


def test_gegenbauer_is_polynomial_of_exact_degree():
    # the (n+1)-th divided difference over n+2 Chebyshev points vanishes
    for n, mu in [(3, 0.7), (5, 1.4), (7, 2.2)]:
        m = n + 2
        xs = np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
        dd = np.array([gegenbauer(n, mu, x) for x in xs])
        scale = np.max(np.abs(dd))
        for order in range(1, m):
            dd = (dd[1:] - dd[:-1]) / (xs[order:] - xs[:-order])
        assert abs(dd[0]) < 1e-9 * max(scale, 1.0)


def test_gegenbauer_norm_legendre_cases():
    assert gegenbauer_norm(0, 0.5) == pytest.approx(2.0, rel=1e-13)
    # integral of x^2 over [-1, 1]
    assert gegenbauer_norm(1, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_gegenbauer_norm_vs_quadrature():
    n, mu = 2, 1.0
    xq, wq = sp.roots_jacobi(n + 2, mu - 0.5, mu - 0.5)
    oracle = wq @ (np.array([gegenbauer(n, mu, x) for x in xq]) ** 2)
    assert gegenbauer_norm(n, mu) == pytest.approx(oracle, rel=1e-12)


# -------------------------------------------------------------- laguerre

def test_laguerre_degree_zero_and_one():
    assert laguerre(0, 1.3, 2.2) == pytest.approx(1.0)
    assert laguerre(1, 1.3, 2.2) == pytest.approx(1.3 + 1 - 2.2, rel=1e-13)


@pytest.mark.parametrize("n,alpha", [(2, 0.0), (3, 1.5), (5, 0.4)])
def test_laguerre_at_zero(n, alpha):
    assert laguerre(n, alpha, 0.0) == pytest.approx(
        rising(alpha + 1, n) / math.factorial(n), rel=1e-13)


@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=-0.9, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_laguerre_matches_scipy(n, alpha, t):
    want = sp.eval_genlaguerre(n, alpha, t)
    assert laguerre(n, alpha, t) == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_laguerre_norm_values():
    assert laguerre_norm(0, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert laguerre_norm(2, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert laguerre_norm(3, 1.5) == pytest.approx(math.gamma(5.5) / 6.0,
                                                  rel=1e-13)


def test_laguerre_norm_vs_quadrature():
    n, alpha = 3, 1.5
    tq, wq = sp.roots_genlaguerre(n + 2, alpha)
    oracle = wq @ (np.array([laguerre(n, alpha, t) for t in tq]) ** 2)
    assert laguerre_norm(n, alpha) == pytest.approx(oracle, rel=1e-12)


def test_laguerre_alpha_domain():
    with pytest.raises(DomainError):
        laguerre(2, -1.0, 0.5)
    with pytest.raises(DomainError):
        laguerre_norm(2, -1.2)


# ---------------------------------------------------------------- jacobi

@pytest.mark.parametrize("n,alpha,beta", [(2, 0.5, 1.5), (4, 2.0, 0.3)])
def test_jacobi_at_one(n, alpha, beta):
    assert jacobi(n, alpha, beta, 1.0) == pytest.approx(
        rising(alpha + 1, n) / math.factorial(n), rel=1e-13)


def test_jacobi_degree_one_at_minus_one():
    assert jacobi(1, 0.7, 1.1, -1.0) == pytest.approx(-(1.1 + 1), rel=1e-13)


def test_jacobi_legendre_p2_at_zero():
    assert jacobi(2, 0.0, 0.0, 0.0) == pytest.approx(-0.5, rel=1e-13)


@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=-0.9, max_value=2.5, allow_nan=False),
       st.floats(min_value=-0.9, max_value=2.5, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_jacobi_matches_scipy(n, alpha, beta, t):
    want = sp.eval_jacobi(n, alpha, beta, t)
    assert jacobi(n, alpha, beta, t) == pytest.approx(want, rel=1e-9,
                                                      abs=1e-10)


def test_jacobi_norm_values():
    assert jacobi_norm(0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert jacobi_norm(1, 0.0, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_jacobi_norm_vs_quadrature():
    n, alpha, beta = 2, 1.0, 0.5
    sq, wq = sp.roots_jacobi(n + 2, alpha, beta)
    oracle = wq @ (np.array([jacobi(n, alpha, beta, s) for s in sq]) ** 2)
    assert jacobi_norm(n, alpha, beta) == pytest.approx(oracle, rel=1e-12)


def test_jacobi_parameter_domain():
    with pytest.raises(DomainError):
        jacobi(2, -1.0, 0.0, 0.2)
    with pytest.raises(DomainError):
        jacobi_norm(1, 0.0, -1.5)


# ------------------------------------------------------- continuous Hahn

def test_hahn_degree_zero():
    assert continuous_hahn(0, 0.3, 1, 1, 1, 1) == pytest.approx(1.0 + 0.0j)


def test_hahn_degree_one_vanishes_at_origin():
    # p_1(0; a,a,a,a) = 0 because the two-term 3F2 cancels exactly
    assert abs(continuous_hahn(1, 0.0, 0.7, 0.7, 0.7, 0.7)) < 1e-14


def test_hahn_degree_two_vs_direct_sum():
    # three explicit terms of the defining series at x = 1/2, all ones
    k, x = 2, 0.5
    a = b = c = d = 1.0
    pref = 1j ** k * rising(a + c, k) * rising(a + d, k) / math.factorial(k)
    total = 0j
    for m in range(k + 1):
        num = (rising(-k, m) * rising(k + a + b + c + d - 1, m)
               * rising(a + 1j * x, m))
        den = rising(a + c, m) * rising(a + d, m) * math.factorial(m)
        total += num / den
    oracle = pref * total
    got = continuous_hahn(k, x, a, b, c, d)
    assert got == pytest.approx(oracle, rel=1e-13)


@given(st.integers(min_value=0, max_value=5),
       st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
       st.floats(min_value=0.3, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.3, max_value=2.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_hahn_conjugation(k, x, a, b):
    # for real a, b and the c = b, d = a pattern:
    # conj(p_k(x)) = (-1)^k p_k(-x)
    lhs = np.conj(continuous_hahn(k, x, a, b, b, a))
    rhs = (-1.0) ** k * continuous_hahn(k, -x, a, b, b, a)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_hahn_is_degree_k_in_x():
    # leading divided difference over k+2 points must vanish
    k, a, b = 4, 0.9, 1.4
    xs = np.linspace(-2.0, 2.0, k + 2)
    dd = np.array([continuous_hahn(k, x, a, b, b, a) for x in xs])
    scale = np.max(np.abs(dd))
    for order in range(1, k + 2):
        dd = (dd[1:] - dd[:-1]) / (xs[order:] - xs[:-order])
    assert abs(dd[0]) < 1e-9 * scale


def test_hahn_large_argument_is_finite_or_domain_error():
    # the degree-3 series grows as x^3: finite at x = 1e100, past the
    # double range at 1e200, where it raises with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(continuous_hahn(3, 1e100, 0.5, 0.6, 0.7, 0.8))
        for x in (1e200, np.array([0.5, 1e200])):
            with pytest.raises(DomainError, match="not finite"):
                continuous_hahn(3, x, 0.5, 0.6, 0.7, 0.8)
