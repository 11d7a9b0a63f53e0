"""Multi-indices, the ball basis and norm, and the cone bases."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from conefourier import (DomainError, JacobiConeParams, LaguerreConeParams,
                         MultiIndex, ball_norm, ball_op, check_identity,
                         cone_norm, f_d, jacobi, jacobi_cone, laguerre,
                         laguerre_cone)
from conftest import (ball_inner_oracle, cone_jacobi_inner_oracle,
                      cone_laguerre_inner_oracle)
from conefourier.multivariate import _ball_factor
from conefourier.verify import _ball_rows


# ------------------------------------------------------------ MultiIndex

@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=5))
@settings(max_examples=60, deadline=None)
def test_multiindex_tail_sums_consistent(parts):
    k = MultiIndex(parts)
    assert k.d == len(parts)
    assert k.total == sum(parts)
    for j in range(1, k.d + 1):
        assert k.tail(j) == parts[j - 1] + k.tail(j + 1)
    assert k.tail(k.d + 1) == 0


def test_multiindex_rejects_bad_input():
    with pytest.raises(DomainError):
        MultiIndex([])
    with pytest.raises(DomainError):
        MultiIndex([1, -2])


# ---------------------------------------------------------------- ball_op

def test_ball_op_zero_index_is_one():
    assert ball_op((0, 0), 0.8, (0.3, -0.2)) == pytest.approx(1.0)
    assert ball_op((0, 0, 0), 1.4, (0.1, 0.2, 0.3)) == pytest.approx(1.0)


def test_ball_op_first_degree_collapses():
    mu, x1, x2 = 0.8, 0.31, -0.44
    got = ball_op((1, 0), mu, (x1, x2))
    assert got == pytest.approx((2 * mu + 1) * x1, rel=1e-13)
    got = ball_op((0, 1), mu, (x1, x2))
    assert got == pytest.approx(2 * mu * x2, rel=1e-13)


def test_scalar_point_at_d1():
    # at d = 1 every point parser takes a scalar; a wrong count raises
    assert ball_op((1,), 0.6, 0.5) == pytest.approx(0.6, rel=1e-15)
    assert laguerre_cone((1,), 1, LaguerreConeParams(0.5, 0.9),
                         (1.0, 0.5)) == pytest.approx(0.9, rel=1e-15)
    assert jacobi_cone((1,), 1, JacobiConeParams(0.5, 0.9, 0.3),
                       (0.5, 0.2)) == pytest.approx(0.36, rel=1e-15)
    assert f_d(0.5, (1,), 0.8, 0.6) == f_d((0.5,), (1,), 0.8, 0.6)
    with pytest.raises(DomainError):
        ball_op((1, 0), 0.6, 0.5)
    with pytest.raises(DomainError):
        laguerre_cone((1, 0), 1, LaguerreConeParams(0.5, 0.9), (1.0, 0.5))


def test_ball_op_partial_norm_guard():
    # dividing factor demanded (k_2 > 0) while 1 - x_1^2 is below the guard
    x1 = 1.0 - 4e-16
    with pytest.raises(DomainError):
        ball_op((0, 2), 0.8, (x1, 0.0))
    # no division needed: the same point is fine for k = (2, 0)
    ball_op((2, 0), 0.8, (x1, 0.0))


@pytest.mark.parametrize("signs", itertools.product((1.0, -1.0), repeat=3))
def test_cube_to_ball_points_clear_the_partial_norm_guard(signs):
    # a cube node next to s_1 = +-1 maps within 1e-15 of the sphere, where
    # ball_op's partial-norm guard refuses k_2 > 0; the axis factors and
    # the ball-orth rows take s itself, never divide, and stay finite
    s = [sg * v for sg, v in zip(signs, (1.0 - 1e-15, 0.5, 0.3))]
    with pytest.raises(DomainError):
        ball_op((0, 1, 1), 0.7, (s[0], 0.0, 0.0))
    for k in [MultiIndex([0, 0, 1]), MultiIndex([0, 1, 1])]:
        for j, sj in enumerate(s, start=1):
            assert np.all(np.isfinite(_ball_factor(k, 0.7, j, sj)))
        for sj in s:
            assert np.all(np.isfinite(_ball_rows(k, k, 0.7, np.array([sj]))))


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=4),
       st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=4,
                max_size=4))
@settings(max_examples=40, deadline=None)
def test_ball_op_is_the_product_of_its_axis_factors(parts, s):
    k = MultiIndex(parts)
    s = s[:k.d]
    rep = check_identity("basis-factor", {"basis": "ball", "k": parts,
                                          "mu": 0.7, "s": s})
    assert rep.passed


def test_ball_norm_constant_case():
    for mu in (0.7, 1.0, 2.3):
        assert ball_norm(MultiIndex([0, 0]), mu) == pytest.approx(
            math.pi / (mu + 0.5), rel=1e-13)


@pytest.mark.parametrize("k,mu", [((1, 0), 1.0), ((1, 1, 0), 0.7)])
def test_ball_norm_vs_tensor_quadrature(k, mu):
    oracle = ball_inner_oracle(k, k, mu)
    assert ball_norm(MultiIndex(list(k)), mu) == pytest.approx(oracle,
                                                               rel=1e-12)


def test_ball_orthogonality_spot():
    # independent separated quadrature: distinct indices integrate to zero
    mu = 0.7
    idx = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for k, l in itertools.combinations(idx, 2):
        val = ball_inner_oracle(k, l, mu)
        scale = math.sqrt(ball_norm(MultiIndex(list(k)), mu)
                          * ball_norm(MultiIndex(list(l)), mu))
        assert abs(val) < 1e-12 * scale


# --------------------------------------------------------------- cone bases

def cone_basis(q, k, n, p, mu):
    """The cone basis element q_{n-m}^(alpha_m)(t) t^m P_k^mu(x/t) with
    m = |k| and alpha_m = d + 2m + 2mu - 1, for a radial family q(degree,
    alpha, t) written by the test."""
    t, x = p
    m = sum(k)
    alpha = len(k) + 2.0 * m + 2.0 * mu - 1.0
    return q(n - m, alpha, t) * t ** m * ball_op(k, mu, [c / t for c in x])


def test_cone_basis_constant():
    q = lambda deg, alpha, t: laguerre(deg, alpha, t)
    got = cone_basis(q, (0,), 0, (2.0, (0.5,)), 0.9)
    assert got == pytest.approx(laguerre(0, 1.8, 2.0), rel=1e-13)
    assert laguerre_cone((0,), 0, LaguerreConeParams(0.0, 0.9),
                         (2.0, (0.5,))) == pytest.approx(got, rel=1e-13)


def test_cone_basis_degree_one_collapses():
    mu, beta = 0.9, 0.5
    q = lambda deg, alpha, t: laguerre(deg, alpha + beta, t)
    params = LaguerreConeParams(beta, mu)
    # k = 1, n = 1: radial degree 0, t * 2 mu * (x/t) = 2 mu x
    for got in (cone_basis(q, (1,), 1, (1.7, (0.3,)), mu),
                laguerre_cone((1,), 1, params, (1.7, (0.3,)))):
        assert got == pytest.approx(2 * mu * 0.3, rel=1e-13)
    # k = 0, n = 1: L_1^(2mu+beta)(t) = 2mu + beta + 1 - t
    for got in (cone_basis(q, (0,), 1, (1.7, (0.3,)), mu),
                laguerre_cone((0,), 1, params, (1.7, (0.3,)))):
        assert got == pytest.approx(2 * mu + beta + 1 - 1.7, rel=1e-13)


def test_laguerre_cone_values():
    params = LaguerreConeParams(0.5, 1.0)
    assert laguerre_cone((0, 0), 0, params, (2.0, (0.3, 0.1))) == pytest.approx(1.0)
    p1 = LaguerreConeParams(0.5, 0.9)
    assert laguerre_cone((1,), 1, p1, (1.3, (0.2,))) == pytest.approx(
        2 * 0.9 * 0.2, rel=1e-13)
    # d = 2, k = (1,0), n = 2 at (2, 0.3, 0.1): scipy Laguerre times the
    # closed first-degree ball factor (2 mu + 1) x1 / t
    got = laguerre_cone((1, 0), 2, params, (2.0, (0.3, 0.1)))
    alpha = 2 * 1 + 2 * 1.0 + 0.5 + 2 - 1
    oracle = sp.eval_genlaguerre(1, alpha, 2.0) * 2.0 * (2 * 1.0 + 1) * (0.3 / 2.0)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_jacobi_cone_values():
    params = JacobiConeParams(0.5, 1.0, 0.5)
    assert jacobi_cone((0,), 0, params, (0.4, (0.1,))) == pytest.approx(1.0)
    # k = 0, n = 1 at t = 1: jacobi factor at -1
    got = jacobi_cone((0,), 1, params, (1.0, (0.2,)))
    assert got == pytest.approx(-(0.5 + 1.0), rel=1e-12)
    # k = 1, n = 2: scipy Jacobi radial times t * 2 mu * (x/t)
    got = jacobi_cone((1,), 2, params, (0.4, (0.1,)))
    alpha = 2 * 1 + 2 * 1.0 + 0.5 + 1 - 1
    oracle = (sp.eval_jacobi(1, alpha, 0.5, 1 - 2 * 0.4)
              * 0.4 * 2 * 1.0 * (0.1 / 0.4))
    assert got == pytest.approx(oracle, rel=1e-12)


def test_cone_point_requires_positive_t():
    params = LaguerreConeParams(0.5, 1.0)
    with pytest.raises(DomainError):
        laguerre_cone((0, 0), 0, params, (0.0, (0.0, 0.0)))
    with pytest.raises(DomainError):
        jacobi_cone((0,), 1, JacobiConeParams(0.5, 1.0, 0.5), (-0.2, (0.0,)))


def test_cone_bases_match_generic_composition():
    rng = np.random.default_rng(21)
    lag = LaguerreConeParams(0.7, 1.1)
    jac = JacobiConeParams(0.4, 0.8, 0.6)
    for _ in range(10):
        t = rng.uniform(0.2, 0.9)
        x = rng.uniform(-0.4, 0.4, size=2) * t
        p = (t, (x[0], x[1]))
        k = tuple(int(v) for v in rng.integers(0, 3, size=2))
        n = int(sum(k) + rng.integers(0, 3))
        ql = lambda deg, alpha, tt: laguerre(deg, alpha + lag.beta, tt)
        assert laguerre_cone(k, n, lag, p) == pytest.approx(
            cone_basis(ql, k, n, p, lag.mu), rel=1e-13, abs=1e-13)
        qj = lambda deg, alpha, tt: jacobi(deg, alpha + jac.beta, jac.gamma,
                                           1 - 2 * tt)
        assert jacobi_cone(k, n, jac, p) == pytest.approx(
            cone_basis(qj, k, n, p, jac.mu), rel=1e-13, abs=1e-13)


def test_inner_cone_factor_is_polynomial():
    # t^m P_k(x/t) must reproduce as a total-degree-m polynomial in (t, x)
    rng = np.random.default_rng(22)
    mu = 0.9
    for k in [(1, 0), (1, 1), (2, 1)]:
        m = sum(k)
        npts = 2 * (m + 1) ** 2
        pts = []
        vals = []
        for _ in range(npts):
            t = rng.uniform(0.5, 2.0)
            x = rng.uniform(-0.6, 0.6, size=2) * t
            pts.append((t, x[0], x[1]))
            vals.append(t ** m * ball_op(k, mu, (x[0] / t, x[1] / t)))
        powers = [(i, j, l) for i in range(m + 1) for j in range(m + 1)
                  for l in range(m + 1) if i + j + l <= m]
        A = np.array([[t ** i * x1 ** j * x2 ** l for (i, j, l) in powers]
                      for (t, x1, x2) in pts])
        vals = np.array(vals)
        _, res, _, _ = np.linalg.lstsq(A, vals, rcond=None)
        resid = math.sqrt(res[0]) if res.size else 0.0
        assert resid < 1e-9 * max(1.0, np.linalg.norm(vals))


# ------------------------------------------- cone inner products

def _cone_inner(ident, n, k, m, l, **weights):
    """The cone-orth check's quadrature of the inner product, its lhs."""
    rep = check_identity(ident, {"n": n, "k": k, "m": m, "l": l, **weights})
    assert not rep.reason
    return rep.lhs.real


def test_cone_inner_product_constant_laguerre():
    # the element n = 0, k = (0) is 1; at d = 1 its square integrates to
    # Gamma(2mu+beta+1) * B(1/2, mu+1/2)
    beta, mu = 0.5, 0.9
    value = _cone_inner("cone-orth-laguerre", 0, (0,), 0, (0,),
                        beta=beta, mu=mu)
    want = (math.gamma(2 * mu + beta + 1)
            * math.gamma(0.5) * math.gamma(mu + 0.5) / math.gamma(mu + 1))
    assert value == pytest.approx(want, rel=1e-9)


def test_cone_inner_product_orthogonality_laguerre():
    beta, mu = 0.5, 0.9
    value = _cone_inner("cone-orth-laguerre", 0, (0,), 1, (1,),
                        beta=beta, mu=mu)
    diag = cone_laguerre_inner_oracle(1, 1, 1, 1, beta, mu)
    assert abs(value) < 1e-6 * diag


def test_cone_inner_product_jacobi_diagonal():
    beta, mu, gamma = 0.4, 0.7, 0.6
    value = _cone_inner("cone-orth-jacobi", 2, (1,), 2, (1,),
                        beta=beta, mu=mu, gamma=gamma)
    oracle = cone_jacobi_inner_oracle(2, 1, 2, 1, beta, mu, gamma)
    assert oracle > 0
    assert value == pytest.approx(oracle, rel=1e-7)


# --------------------------------------------------------------- cone norms

_LAG = LaguerreConeParams(0.5, 0.9)
_JAC = JacobiConeParams(0.5, 0.9, 0.6)


def test_cone_norm_matches_separated_oracles_d1():
    # the 10 states n <= 3 of test_03, against the scipy Gauss rules
    for n in range(4):
        for k in range(n + 1):
            assert cone_norm((k,), n, _LAG) == pytest.approx(
                cone_laguerre_inner_oracle(n, k, n, k, 0.5, 0.9), rel=1e-13)
            assert cone_norm((k,), n, _JAC) == pytest.approx(
                cone_jacobi_inner_oracle(n, k, n, k, 0.5, 0.9, 0.6),
                rel=1e-13)


@pytest.mark.parametrize("n,k", [(0, (0, 0)), (1, (1, 0)), (1, (0, 1)),
                                 (2, (1, 1)), (3, (1, 0)), (3, (0, 2))])
def test_cone_norm_is_ball_oracle_times_radial_gauss_d2(n, k):
    # in x = t y the squared basis element is q(t)^2 t^(2|k|) P_k(y)^2, so
    # the norm is the ball norm times a radial integral of weight t^alpha
    # e^-t, or t^alpha (1-t)^gamma, alpha = 2|k| + 2mu + beta + 1
    m = sum(k)
    ball = ball_inner_oracle(k, k, 0.9)
    alpha = 2 * m + 2 * 0.9 + 0.5 + 1
    tq, tw = sp.roots_genlaguerre(n - m + 2, alpha)
    radial = tw @ sp.eval_genlaguerre(n - m, alpha, tq) ** 2
    assert cone_norm(k, n, _LAG) == pytest.approx(ball * radial, rel=1e-13)
    sq, sw = sp.roots_jacobi(n - m + 2, alpha, 0.6)
    radial = (sw @ sp.eval_jacobi(n - m, alpha, 0.6, sq) ** 2
              * 2.0 ** (-alpha - 0.6 - 1))
    assert cone_norm(k, n, _JAC) == pytest.approx(ball * radial, rel=1e-13)


def test_cone_norm_domain_errors():
    for params in (_LAG, _JAC):
        with pytest.raises(DomainError):
            cone_norm((1, 1), 1, params)  # n < |k|
    with pytest.raises(DomainError):
        cone_norm((0, 0), 0, LaguerreConeParams(-2.0, 0.9))  # beta <= -d
    with pytest.raises(DomainError):
        cone_norm((0,), 0, JacobiConeParams(-1.0, 0.9, 0.6))
