"""Identity catalog and check engine."""

import itertools
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conefourier.kernel as kernel
import conefourier.quadrature as quadrature
import conefourier.transforms as transforms
import conefourier.univariate as univariate
import conefourier.verify as verify
from conefourier import (DomainError, JacobiConeParams, LaguerreConeParams,
                         MultiIndex, NonConvergenceError, ParsevalParams,
                         QuadratureConfig, a_family, b_family, ball_op,
                         check_identity,
                         cone_norm, default_grids, f_d, fourier_num, gamma_cx,
                         integrate_1d, jacobi_cone, laguerre_cone, run_suite)
from conefourier.transforms import (_family_specs, _finite,
                                    _orthogonality_integrand, _product)
from conftest import cubature_cx

_PP_ARGS = {"a1": 0.8, "a2": 0.6, "b1": 0.9, "b2": 0.7, "c1": 1.1, "c2": 0.5}

CATALOG = {
    "gegenbauer-orth", "laguerre-orth", "jacobi-orth", "ball-orth",
    "ball-eigen", "cone-orth-laguerre", "cone-orth-jacobi", "ft-f",
    "ft-g-laguerre", "ft-g-jacobi", "theta-dual", "fd-recursion",
    "parseval-a", "parseval-b", "norm-constants", "basis-factor",
}


def test_identity_catalog_is_closed():
    assert set(verify.IDENTITY_IDS) == CATALOG
    assert len(verify.IDENTITY_IDS) == 16


def test_default_grids_cover_catalog():
    grids = default_grids()
    assert set(grids) == CATALOG
    for rows in grids.values():
        assert len(list(rows)) > 0


def test_default_grids_follow_catalog_order():
    assert list(default_grids()) == list(verify.IDENTITY_IDS)


def test_check_gegenbauer_orth_example():
    rep = check_identity("gegenbauer-orth", {"n": 2, "m": 2, "mu": 1.0})
    assert rep.passed
    assert rep.rel_err < 1e-10
    assert rep.id == "gegenbauer-orth"


def test_check_theta_dual_example():
    rep = check_identity("theta-dual",
                         {"j": 1, "d": 1, "k": (3,), "a": 0.5, "mu": 1.0,
                          "xi": 2.0})
    assert rep.passed
    assert rep.rel_err < 1e-12


def test_check_ft_f_pi_example():
    rep = check_identity("ft-f", {"k": (0,), "a": 0.5, "mu": 1.0,
                                  "xi": (0.0,)})
    assert rep.passed
    assert abs(rep.lhs - math.pi) < 1e-12
    assert abs(rep.rhs - math.pi) < 1e-5


def test_check_unknown_identity_rejected():
    with pytest.raises(DomainError):
        check_identity("riemann-hypothesis", {})


def test_nonconvergence_becomes_failed_report():
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30, max_levels=4)
    rep = check_identity("gegenbauer-orth", {"n": 4, "m": 4, "mu": 0.3}, cfg)
    assert not rep.passed
    assert rep.reason


_BALL_D2 = [(0, 0), (1, 0), (2, 0)]
_BALL_D3 = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1), (2, 0, 1)]


@pytest.mark.parametrize(
    "k,l,mu,bound",
    [((1, 0, 1), (1, 0, 1), 0.7, 1e-12),
     ((1, 1, 0), (1, 1, 0), 0.7, 1e-12),
     ((1, 0, 1), (0, 1, 1), 0.7, 1e-12),
     ((2, 0, 1), (0, 0, 1), 0.7, 1e-12)]
    # mu < 1/2: the weight is singular on the sphere; the iterated tensor
    # rule failed 17 of these 25 pairs, each axis row converges alone
    + [(k, l, 0.3, 1e-11) for k in _BALL_D3 for l in _BALL_D3],
    ids=[f"k{i}-l{i}" for i in range(4)]
    + [f"mu0.3-k{''.join(map(str, k))}-l{''.join(map(str, l))}"
       for k in _BALL_D3 for l in _BALL_D3])
def test_ball_orth_d3(k, l, mu, bound):
    rep = check_identity("ball-orth", {"k": k, "l": l, "mu": mu})
    assert not rep.reason
    assert rep.passed
    assert rep.rel_err < bound


@pytest.mark.parametrize("k,l", [(k, l) for k in _BALL_D2 for l in _BALL_D2],
                         ids=[f"mu0.3-k{k[0]}{k[1]}-l{l[0]}{l[1]}"
                              for k in _BALL_D2 for l in _BALL_D2])
def test_ball_orth_singular_weight_d2(k, l):
    # mu < 1/2: the ladder converges only if the weight (1 - s^2)^(mu-1/2)
    # of the last axis is not capped next to s = +-1
    rep = check_identity("ball-orth", {"k": k, "l": l, "mu": 0.3})
    assert not rep.reason
    assert rep.passed
    assert rep.rel_err < 1e-11


def test_report_passed_implies_finite():
    reps = run_suite(["theta-dual", "fd-recursion", "norm-constants"])
    assert reps
    for rep in reps:
        assert rep.passed
        assert math.isfinite(abs(rep.lhs)) and math.isfinite(abs(rep.rhs))
        assert rep.rel_err <= rep.tol


def test_ft_f_default_grid_shape():
    reps = run_suite(["ft-f"])
    assert len(reps) == 40
    assert all(r.passed for r in reps)
    dims = [len(r.params_dict()["k"]) for r in reps]
    assert [dims.count(d) for d in (1, 2, 3)] == [36, 2, 2]


def test_empty_selection():
    result = run_suite([])
    assert len(result) == 0
    assert list(result) == []


def test_suite_determinism():
    sel = ["theta-dual", "fd-recursion"]
    r1 = run_suite(sel)
    r2 = run_suite(sel)
    assert [repr(r) for r in r1] == [repr(r) for r in r2]
    # sorted by (id, params)
    keys = [(r.id, r.params) for r in r1]
    assert keys == sorted(keys)


def test_failure_isolation(monkeypatch):
    grids = {
        "gegenbauer-orth": [{"n": 2, "m": 2, "mu": 1.0}],
        "laguerre-orth": [{"n": 2, "m": 2, "alpha": 0.5}],
        "jacobi-orth": [{"n": 2, "m": 2, "alpha": 0.5, "beta": 1.5}],
    }
    sel = list(grids)
    baseline = run_suite(sel, grids=grids)
    assert all(r.passed for r in baseline)
    real = verify.laguerre_norm
    monkeypatch.setattr(verify, "laguerre_norm",
                        lambda n, alpha: 1.01 * real(n, alpha))
    perturbed = run_suite(sel, grids=grids)
    outcomes = {r.id: r.passed for r in perturbed}
    assert outcomes == {"gegenbauer-orth": True, "laguerre-orth": False,
                        "jacobi-orth": True}


def test_multivariate_checks_never_call_the_tensor_rule():
    # every multivariate orthogonality and Fourier check is a product of
    # 1-d ladders, and the oracle has no tensor driver left to call
    assert not [name for name in vars(quadrature) if "tensor" in name]
    ids = ["ball-orth", "cone-orth-laguerre", "cone-orth-jacobi",
           "parseval-a", "parseval-b", "ft-f", "ft-g-laguerre",
           "ft-g-jacobi"]
    result = run_suite(ids)
    assert all(r.passed for r in result)
    assert {r.id for r in result} == set(ids)
    dims = {len(r.params_dict()["k"]) for r in result}
    assert {1, 2, 3} <= dims


_FT_IDS = ["ft-f", "ft-g-laguerre", "ft-g-jacobi"]
_GK_FOURIER = QuadratureConfig(rule="adaptive-GK", abs_tol=1e-7, rel_tol=1e-7)


def test_ft_rows_converge_under_the_gk_cross_check():
    # a GK run that starts from one panel over (-60, 60) accepted 0 for
    # this odd transform's imaginary part with a zero error estimate, and
    # the cross-check flagged the disagreement
    res = fourier_num(lambda x: f_d((x,), (1,), 0.75, 0.8), 1.0, _GK_FOURIER)
    assert res.converged
    result = run_suite(_FT_IDS, cfg=_GK_FOURIER)
    assert all(r.passed for r in result)
    assert {len(r.params_dict()["k"]) for r in result} == {1, 2, 3}


@pytest.mark.parametrize("id", _FT_IDS)
def test_ft_check_fails_when_the_cross_check_disagrees(monkeypatch, id):
    real = quadrature._gk_integrate

    def shifted(*args):
        res = real(*args)
        return replace(res, value=res.value + 1e-3)

    monkeypatch.setattr(quadrature, "_gk_integrate", shifted)
    params = default_grids()[id][-1]
    rep = check_identity(id, params, _GK_FOURIER)
    assert not rep.passed
    assert "did not converge" in rep.reason


def test_cone_orth_d3_laguerre_diagonal_is_cheap():
    # the iterated tensor rule took 2.11e9 evaluations for this diagonal
    params = {"n": 1, "k": (0, 0, 1), "m": 1, "l": (0, 0, 1),
              "beta": 0.5, "mu": 0.3}
    rep = check_identity("cone-orth-laguerre", params)
    assert rep.passed
    assert rep.evals < 10_000


def _tanh_cube(us):
    """y_j = s_j sqrt(1 - ||y_<j||^2) at s_j = tanh(u_j), with the Jacobian
    in u and 1 - ||y||^2; the map moves the sphere, where the weight is
    singular, out to infinity, and y is shrunk onto ||y||^2 <= 1 - 1e-12
    to stay clear of ball_op's partial-norm guard at nodes next to it."""
    y, jac, rest = [], 1.0, 1.0
    for u in us:
        s, sech2 = np.tanh(u), 1.0 / np.cosh(u) ** 2
        r = np.sqrt(rest)
        y.append(s * r)
        jac = jac * r * sech2
        rest = rest * sech2
    nsq = sum(v * v for v in y)
    shrink = np.sqrt((1.0 - 1e-12) / np.maximum(nsq, 1.0 - 1e-12))
    return [v * shrink for v in y], jac, rest


def test_ball_orth_factorization_matches_tensor():
    # the factored oracle integrates one row per axis; the same d = 2
    # diagonal integrated unfactored by cubature must agree
    k, mu = (1, 1), 0.7

    def integrand(u1, u2):
        y, jac, rest = _tanh_cube((u1, u2))
        return ball_op(k, mu, y) ** 2 * rest ** (mu - 0.5) * jac

    factored = check_identity("ball-orth", {"k": k, "l": k, "mu": mu})
    assert factored.passed
    tensor = cubature_cx(integrand, [(-20.0, 20.0)] * 2, rtol=1e-11)
    assert abs(tensor - factored.lhs) <= 1e-9 * abs(tensor)


def test_cone_orth_factorization_matches_tensor():
    # one t ladder times the ball rows; the same d = 2 diagonal integrated
    # unfactored over (t, s1, s2) must agree.  t = 1/(1 + e^(-2u)) keeps
    # both t and 1 - t exact next to their endpoints
    params = {"n": 1, "k": (0, 1), "m": 1, "l": (0, 1), "beta": 0.4,
              "mu": 0.7, "gamma": 0.6}
    cone = JacobiConeParams(0.4, 0.7, 0.6)

    def integrand(u, u1, u2):
        t = 1.0 / (1.0 + np.exp(-2.0 * u))
        rest_t = 1.0 / (1.0 + np.exp(2.0 * u))
        y, jac, rest = _tanh_cube((u1, u2))
        value = jacobi_cone((0, 1), 1, cone, (t, [t * v for v in y]))
        # the weight t^(d + 2 mu - 1 + beta) (1 - t)^gamma, times
        # dt/du = 2 t (1 - t)
        return (value ** 2 * rest ** (cone.mu - 0.5) * jac
                * t ** (2 + 2 * cone.mu - 1 + cone.beta)
                * rest_t ** cone.gamma * 2.0 * t * rest_t)

    factored = check_identity("cone-orth-jacobi", params)
    assert factored.passed
    tensor = cubature_cx(integrand, [(-12.0, 12.0)] * 3, rtol=1e-8)
    assert abs(tensor - factored.lhs) <= 1e-7 * abs(tensor)


def test_cone_orth_laguerre_factorization_matches_tensor():
    # the Laguerre cone at d = 1: t = e^u and s = tanh u, integrated
    # unfactored, against the factored lhs and the closed-form norm
    params = {"n": 2, "k": (1,), "m": 2, "l": (1,), "beta": 0.5, "mu": 0.9}
    cone = LaguerreConeParams(0.5, 0.9)

    def integrand(u, u1):
        t = np.exp(u)
        y, jac, rest = _tanh_cube((u1,))
        value = laguerre_cone((1,), 2, cone, (t, [t * y[0]]))
        # the weight t^(d + 2 mu - 1 + beta) e^(-t), times dt/du = t
        return (value ** 2 * rest ** (cone.mu - 0.5) * jac
                * t ** (1 + 2 * cone.mu - 1 + cone.beta) * np.exp(-t) * t)

    factored = check_identity("cone-orth-laguerre", params)
    assert factored.passed
    tensor = cubature_cx(integrand, [(-40.0, 6.5), (-12.0, 12.0)], rtol=1e-10)
    assert abs(tensor - factored.lhs) <= 1e-7 * abs(tensor)
    assert abs(tensor - factored.rhs) <= 1e-7 * abs(tensor)


def test_cone_orth_d3_returns_a_report():
    # d = 3 cube nodes next to the sphere once put ball_op under its
    # partial-norm guard on the first level, and the check raised
    params = {"n": 1, "k": (0, 0, 1), "m": 1, "l": (0, 0, 1),
              "beta": 0.4, "mu": 0.7, "gamma": 0.6}
    rep = check_identity("cone-orth-jacobi", params,
                         QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8,
                                          max_levels=3))
    assert rep.evals > 0
    assert rep.passed or rep.reason


@pytest.mark.parametrize("n,k,m,l", [(1, (1,), 1, (1,)), (1, (0,), 0, (0,))],
                         ids=["diagonal", "off-diagonal"])
def test_cone_orth_under_gk_is_judged_against_cone_norm(n, k, m, l):
    # the check's one integral goes through adaptive-GK when cfg asks for
    # it, and is then judged against the closed-form norm
    params = {"n": n, "k": k, "m": m, "l": l, "beta": 0.5, "mu": 0.9}
    rep = check_identity("cone-orth-laguerre", params,
                         QuadratureConfig(rule="adaptive-GK"))
    assert rep.passed
    if (n, k) == (m, l):
        assert rep.rhs == cone_norm(k, n, LaguerreConeParams(0.5, 0.9))
    else:
        assert rep.rhs == 0.0


def test_offdiagonal_scale_survives_an_overflowing_norm_product():
    # both norms are finite (6.2e180 and 4.0e182) but their product is
    # not; an infinite scale divided every error down to rel_err 0, and
    # this row passed under a loose absolute tolerance with lhs 6.4e178
    params = {"n": 1, "k": (0,), "m": 0, "l": (0,),
              **{key: 40.0 * v for key, v in _PP_ARGS.items()
                 if key not in ("c1", "c2")}}
    rep = check_identity("parseval-a", params,
                         QuadratureConfig(abs_tol=1e300, rel_tol=1e-7))
    assert abs(rep.lhs) > 1e178
    assert not rep.passed
    assert rep.rel_err > rep.tol


def test_fd_recursion_judges_on_the_points_envelope(monkeypatch):
    # f_d is 5.3e-27 at x_1 = 15: on the scale max(1, |rhs|), a g2 route
    # off by 1e-6 relative passed with rel_err 5.3e-33.  The envelope
    # prod_j sech^2(x_j)^e_j C_{k_j}^(lambda_j)(1) bounds |f_d| and sees it
    params = {"x": (15.0, 0.5), "k": (0, 2), "a": 0.8, "mu": 0.6}
    assert check_identity("fd-recursion", params).passed
    # where the envelope underflows both routes give 0, judged without 0/0
    assert check_identity("fd-recursion", {**params, "x": (400.0, 0.5)}).passed
    g2 = verify.f_d_via_g2
    monkeypatch.setattr(verify, "f_d_via_g2",
                        lambda *args: g2(*args) * (1.0 + 1e-6))
    rep = check_identity("fd-recursion", params)
    assert not rep.passed
    assert rep.rel_err > 1e-8


def test_basis_factor_judges_on_the_points_envelope(monkeypatch):
    # ball_op is 1.5e-21 at s_1 = 0.9999999: on the scale max(1, |rhs|),
    # a ball_op off by 1e-6 relative passed with rel_err 1.5e-27.  The
    # envelope prod_j (1 - s_j^2)^(|k_>j|/2) C_{k_j}^(lambda_j)(1) bounds
    # |ball_op| and sees it
    params = {"basis": "ball", "k": (0, 6), "mu": 0.6, "s": (0.9999999, 0.3)}
    rep = check_identity("basis-factor", params)
    assert rep.passed
    # its own rounding now shows (3.7e-12; 4.7e-32 on the old scale)
    assert rep.rel_err > 1e-20
    cone = {"basis": "jacobi-cone", "k": (0, 6), "n": 7, "mu": 0.6,
            "beta": 0.4, "gamma": 0.6, "t": 0.35, "s": (0.99999, 0.3)}
    assert check_identity("basis-factor", cone).passed
    ball = verify.ball_op
    monkeypatch.setattr(verify, "ball_op",
                        lambda *args: ball(*args) * (1.0 + 1e-6))
    rep = check_identity("basis-factor", params)
    assert not rep.passed
    assert rep.rel_err > 1e-8
    # a cone row's envelope carries the t factor both sides share
    monkeypatch.setitem(verify._CONE_BASES, "jacobi-cone",
                        ("jacobi", lambda *args: jacobi_cone(*args)
                         * (1.0 + 1e-6)))
    assert not check_identity("basis-factor", cone).passed


def test_ball_eigen_default_rows_cover_d1_to_d4_at_roundoff():
    rows = default_grids()["ball-eigen"]
    assert {len(row["k"]) for row in rows} == {1, 2, 3, 4}
    for row in rows:
        rep = check_identity("ball-eigen", row)
        assert rep.passed and rep.rel_err <= 1e-13


def test_ball_eigen_fails_on_a_bent_ball_op(monkeypatch):
    # central differences at tol 1e-4 passed every d = 2 default row of a
    # ball_op off by 1 + 1e-7 x_1^2, at rel_err 1.3e-9 to 3.5e-7
    ball = verify.ball_op
    monkeypatch.setattr(verify, "ball_op", lambda k, mu, p: ball(k, mu, p)
                        * (1.0 + 1e-7 * np.asarray(p[0]) ** 2))
    reports = run_suite(["ball-eigen"])
    assert not any(r.passed for r in reports)
    assert len(reports) == 10


@st.composite
def _ball_eigen_rows(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    radius, norm = draw(st.floats(0.0, 0.95)), math.hypot(*v)
    # a subnormal norm divides to components off the unit sphere
    x = ([radius * (c / norm) for c in v] if norm >= sys.float_info.min
         else [0.0] * d)
    return {"k": tuple(k), "mu": draw(st.floats(0.2, 2.5)), "x": tuple(x)}


@settings(max_examples=200, deadline=None)
@given(_ball_eigen_rows())
def test_ball_eigen_holds_on_its_domain(row):
    # the domain next to ball-eigen's tolerance in the catalog
    assert check_identity("ball-eigen", row).passed


def test_ball_eigen_judges_a_nodal_plane_on_the_envelope():
    # ball_op vanishes at x (C_3 is odd) but rounds on the scale of its
    # factors: on the scale max(|rhs|, 0.05 (n + d)|n + 2 mu - 1|) this
    # row read 8.1e-8
    row = {"k": (2, 3, 2, 3), "mu": 2.5, "x": (0.0, 0.0, 0.0, 0.95)}
    assert check_identity("ball-eigen", row).passed


def test_ball_eigen_at_a_zero_eigenvalue():
    # (n + d)(n + 2 mu - 1) is 0 at k = 0, mu = 1/2, and so is either side
    rep = check_identity("ball-eigen", {"k": (0, 0), "mu": 0.5,
                                        "x": (0.1, 0.2)})
    assert rep.passed
    assert rep.abs_err == 0.0


@pytest.mark.parametrize("x", [(1.2, 0.0), (0.6, 0.8), (0.0, -1.0)])
def test_ball_eigen_rejects_a_point_off_the_open_ball(x):
    with pytest.raises(DomainError):
        check_identity("ball-eigen", {"k": (2, 0), "mu": 0.7, "x": x})


def test_report_refuses_a_non_finite_scale():
    rep = verify._report("ball-orth", {}, 1.0, 0.0, 0, 0.0, scale=math.inf)
    assert rep.rel_err == 0.0
    assert not rep.passed


@pytest.mark.parametrize("scale", [60.0, 120.0])
@pytest.mark.parametrize("family", ["a", "b"])
def test_parseval_norm_past_double_range_raises(family, scale):
    # the norms are taken before the integral, so the check raises
    # DomainError without integrating or overflowing on the way
    params = {"n": 0, "k": (0,), "m": 0, "l": (0,),
              **{key: scale * v for key, v in _PP_ARGS.items()}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="double range"):
            check_identity(f"parseval-{family}", params)


@pytest.mark.parametrize("family", ["a", "b"])
def test_parseval_factorization_matches_tensor(family):
    # the factored oracle integrates one 1-d factor per axis; the same
    # d = 1 diagonal integrated unfactored by cubature over the (t, x)
    # square must agree
    params = {"n": 0, "k": (0,), "m": 0, "l": (0,), "a1": 0.8, "a2": 0.6,
              "b1": 0.9, "b2": 0.7, "c1": 1.1, "c2": 0.5}
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)
    swapped = ParsevalParams(0.6, 0.8, 0.7, 0.9, 0.5, 1.1)
    if family == "a":
        fam = a_family
        weight = lambda b, c, t: gamma_cx(b - 1j * t)
    else:
        fam = b_family
        weight = lambda b, c, t: (gamma_cx(b - 0.5j * t)
                                  * gamma_cx(c + 0.5j * t))

    def integrand(t, x):
        F = weight(pp.b1, pp.c1, t) * fam(1j * t, (1j * x,), (0,), 0, pp)
        G = weight(pp.b2, pp.c2, t) * np.conj(
            fam(-1j * t, (-1j * x,), (0,), 0, swapped))
        return F * np.conj(G)

    factored = check_identity(f"parseval-{family}", params)
    assert factored.passed
    # the imaginary part integrates to about 0; lhs is about 9 and 18
    tensor = cubature_cx(integrand, [(-40.0, 40.0)] * 2, rtol=1e-9,
                         atol=1e-9)
    assert abs(tensor - factored.lhs) <= 1e-7 * abs(tensor)


_D1_STATES = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
_PP = ParsevalParams(0.8, 0.6, 0.9, 0.7, 1.1, 0.5)
_LINE = (-math.inf, math.inf)


def _d1_integrands():
    for family in "ab":
        for (n, k), (m, l) in itertools.combinations_with_replacement(
                _D1_STATES, 2):
            yield (family, n, k, m, l), _orthogonality_integrand(
                family, n, MultiIndex([k]), m, MultiIndex([l]), _PP)


def test_parseval_factor_estimates_cover_true_error():
    # every row of every shared ladder of the d = 1 grid, at the checks'
    # tolerances, against a 1e-15 run of the same ladder: no error
    # estimate falls below the true error.  A row that cancels to 0 cannot
    # meet 1e-15 above its roundoff floor; the failed run still carries
    # the deepest values as its result.
    tight = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
    under = []
    for case, f in _d1_integrands():
        res = integrate_1d(f, _LINE, verify._CFG_PARSEVAL)
        try:
            ref = integrate_1d(f, _LINE, tight)
        except NonConvergenceError as exc:
            ref = exc.result
        for row in np.flatnonzero(np.abs(res.value - ref.value)
                                  > res.error_estimate):
            under.append((*case, int(row)))
    assert under == []


def _public_rows(family, n, k, m, l, s):
    """The rows of the orthogonality integrand from the family's rows and
    gamma_cx, one _product per row at a time."""
    swapped = ParsevalParams(_PP.a2, _PP.a1, _PP.b2, _PP.b1, _PP.c2, _PP.c1)
    (tf, *axes_f), (tg, *axes_g) = (_family_specs(family, k, n, _PP),
                                    _family_specs(family, l, m, swapped))
    row = lambda spec, z: _finite(_product, [spec], z)
    if family == "a":
        weight = lambda p, t: gamma_cx(p.b1 - 1j * t)
    else:
        weight = lambda p, t: gamma_cx(p.b1 - 0.5j * t) * gamma_cx(p.c1 + 0.5j * t)
    rows = [weight(_PP, s) * row(tf, 1j * s) * weight(swapped, -s)
            * row(tg, -1j * s)]
    return np.array(rows + [row(f, 1j * s) * row(g, -1j * s)
                            for f, g in zip(axes_f, axes_g)])


@pytest.mark.parametrize("family", ["a", "b"])
@pytest.mark.parametrize("n,k,m,l", [
    (2, (1,), 2, (2,)), (2, (1, 1), 3, (0, 2)), (3, (1, 0, 1), 3, (1, 1, 1))])
def test_orthogonality_rows_match_public_factors(family, n, k, m, l):
    # moderate s only: past it the single t rows' polynomials overflow
    # where the stacked rows take them at 0 beside an underflowed weight
    s = np.linspace(-30.0, 30.0, 121)
    got = _orthogonality_integrand(family, n, MultiIndex(k), m,
                                   MultiIndex(l), _PP)(s)
    want = _public_rows(family, n, k, m, l, s)
    assert got.shape == want.shape == (len(k) + 1, s.size)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("family", ["a", "b"])
def test_parseval_pairs_vanish_at_far_nodes(family):
    # the sinh-sinh rule samples out to |s| ~ 1e299: every row there is
    # an exact 0, with no overflow or inf * 0 on the way
    f = _orthogonality_integrand(family, 2, MultiIndex([1, 1]), 2,
                                 MultiIndex([2, 0]), _PP)
    far = np.array([-1e300, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(f(far) == 0.0)


def test_parseval_check_makes_at_most_one_gamma_call_per_ladder_call(
        monkeypatch):
    # one _Rows call per integrand call takes the t weights and every axis
    # pair of both sides in at most one gamma_cx call, and the series of
    # both kinds (family a: the argument-2 2F1 and the axis 3F2s) in its
    # compiled loop, with no _pfq_terminating call; one integrand call
    # takes the DE levels 0-3, each later call one level.  A second check
    # of the same family and parameters takes every Gamma product from
    # the table and makes no gamma_cx call
    counts = {"integrand": 0, "rows": 0, "gamma": 0, "series": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(transforms, "gamma_cx",
                        counting("gamma", transforms.gamma_cx))
    monkeypatch.setattr(transforms._Rows, "__call__",
                        counting("rows", transforms._Rows.__call__))
    for module in (kernel, univariate):
        monkeypatch.setattr(module, "_pfq_terminating",
                            counting("series", module._pfq_terminating))
    ladder = verify.integrate_1d
    monkeypatch.setattr(verify, "integrate_1d", lambda f, interval, cfg: ladder(
        counting("integrand", f), interval, cfg))
    for family in "ab":
        for params, gammas in (({"n": 2, "k": (1,), "m": 2, "l": (1,)}, 1),
                               ({"n": 1, "k": (0,), "m": 2, "l": (2,)}, 0)):
            before = dict(counts)
            report = check_identity(f"parseval-{family}",
                                    {**params, **_PP_ARGS})
            assert report.passed
            calls = {key: counts[key] - before[key] for key in counts}
            assert calls["integrand"] >= 1
            assert calls["gamma"] <= gammas * calls["integrand"]
            assert calls == {"integrand": calls["integrand"],
                             "rows": calls["integrand"],
                             "gamma": calls["gamma"], "series": 0}
            if gammas:
                # 2 rows on levels 0..(calls + 2): 217 nodes through level 4
                assert report.evals == 2 * _ladder_nodes(
                    calls["integrand"] + 2)


def _ladder_nodes(level):
    return sum(quadrature._sinh_sinh_table(j)[0].size for j in range(level + 1))


def _grid_integrands(pairs, pp):
    for family in "ab":
        for (n, k), (m, l) in pairs:
            yield _orthogonality_integrand(family, n, MultiIndex(k), m,
                                           MultiIndex(l), pp)


_D1_PAIRS = [((n, (k,)), (m, (l,))) for (n, k), (m, l)
             in itertools.combinations_with_replacement(_D1_STATES, 2)]
# the d = 2 and d = 3 pairs of the acceptance grids
_D23_PAIRS = [((1, (1, 0)), (1, l)) for l in ((1, 0), (0, 1))] + [
    ((1, (0, 0, 1)), (1, (0, 0, 1))), ((1, (1, 0, 0)), (1, (1, 0, 0))),
    ((2, (1, 0, 1)), (2, (1, 0, 1))), ((1, (1, 0, 0)), (1, (0, 1, 0))),
    ((1, (0, 0, 1)), (2, (0, 0, 1)))]


@pytest.mark.parametrize("pairs,pp", [
    (_D1_PAIRS + _D23_PAIRS, _PP),
    # slots of g < 1/2, on _gamma_left's branch: b2 in the a weight, c2
    # in the b weight, a2 in the swapped axis pair
    (_D1_PAIRS, ParsevalParams(0.8, 0.3, 0.9, 0.3, 1.1, 0.3)),
    # parameters past Gamma overflow, as in the finite-or-DomainError
    # property
    (_D1_PAIRS, ParsevalParams(*(120.0 * v for v in (0.8, 0.6, 0.9, 0.7,
                                                     1.1, 0.5)))),
    (_D1_PAIRS, ParsevalParams(*(250.0 * v for v in (0.8, 0.6, 0.9, 0.7,
                                                     1.1, 0.5)))),
], ids=["grid", "g-below-half", "scale-120", "scale-250"])
def test_parseval_integrand_skips_only_exact_zeros(monkeypatch, pairs, pp):
    # on sinh-sinh levels 0-8, the integrand equals, node for node with
    # ==, the integrand that evaluates its rows everywhere: every node it
    # skips past its reach is an exact 0 there, and the others are the
    # same values (the same NaN where, at the large scales, the product of
    # the two sides overflows near s = 0)
    nodes = np.concatenate([quadrature._sinh_sinh_table(j)[0]
                            for j in range(9)])
    points = []
    rows_call = transforms._Rows.__call__

    def counting(rows, z, gammas=None):
        points.append(z.shape[1])
        return rows_call(rows, z, gammas)

    monkeypatch.setattr(transforms._Rows, "__call__", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # that overflow
        skipping = [f(nodes) for f in _grid_integrands(pairs, pp)]
        assert max(points) < nodes.size / 2  # most of the ladder is skipped
        monkeypatch.setattr(transforms, "_gamma_zero_beyond",
                            lambda re: math.inf)
        for got, f in zip(skipping, _grid_integrands(pairs, pp)):
            assert np.array_equal(got, f(nodes), equal_nan=True)


def _d1_grid_outputs(order):
    rows = [(f"parseval-{family}", {"n": n, "k": (k,), "m": m, "l": (l,),
                                     **_PP_ARGS})
            for family in "ab" for (n, k), (m, l)
            in itertools.combinations_with_replacement(_D1_STATES, 2)]
    out = {}
    for i in order(range(len(rows))):
        r = check_identity(*rows[i])
        out[i] = (repr(r.lhs), repr(r.rhs), r.evals, r.passed)  # bitwise
    return out


def test_parseval_gamma_table_changes_no_value_and_stays_bounded():
    # test_09's and test_10's d = 1 grids give the same lhs, rhs and evals
    # bit for bit whichever checks ran before: forward, reversed, and
    # again from an empty table
    forward = _d1_grid_outputs(list)
    assert transforms._GAMMA_TABLE.nbytes > 0
    assert _d1_grid_outputs(reversed) == forward
    transforms._GAMMA_TABLE.clear()
    assert _d1_grid_outputs(list) == forward
    assert all(passed for *_, passed in forward.values())
    # 200 jittered parameter sets and a ladder that climbs to level 12
    # (ROADMAP item 9's s = 20 off-diagonal) keep the table in its bound,
    # evicting the grid's entries
    table = transforms._GAMMA_TABLE
    grid_keys = set(table._entries)
    rng = np.random.default_rng(19)
    for _ in range(200):
        pp = {key: v * rng.uniform(0.98, 1.02) for key, v in _PP_ARGS.items()}
        check_identity("parseval-b", {"n": 1, "k": (1,), "m": 1, "l": (1,),
                                      **pp})
    scaled = {key: 20.0 * _PP_ARGS[key] for key in ("a1", "a2", "b1", "b2")}
    report = check_identity("parseval-a", {"n": 1, "k": (0,), "m": 0,
                                           "l": (0,), **scaled})
    assert not report.passed and "did not converge" in report.reason
    assert not grid_keys & set(table._entries)
    assert table.nbytes == sum(size for _, size in table._entries.values())
    assert 0 < table.nbytes <= table.max_bytes


def test_parseval_oracle_never_reflects_a_gamma_pair(monkeypatch):
    # the oracle works on the imaginary axis, where every Gamma product is
    # finite, so its stacked rows carry no reflection of the pair: on
    # every node of the first nine levels, the rows are finite and the
    # axis factors of the d = 1 and d = 3 states never reflect
    def refuse(*args):
        raise AssertionError("reflected Gamma pair on the Parseval axis")

    monkeypatch.setattr(transforms, "_reflected_pair", refuse)
    nodes = np.concatenate([quadrature._sinh_sinh_table(j)[0]
                            for j in range(9)])
    for _, f in _d1_integrands():
        assert np.isfinite(f(nodes)).all()
    k3 = MultiIndex([1, 0, 1])
    for family in ("a", "b"):
        f = _orthogonality_integrand(family, 3, k3, 3, MultiIndex([1, 1, 1]),
                                     _PP)
        assert np.isfinite(f(nodes)).all()
        for k, n in (((2,), 2), (k3, 3)):
            for axis in _family_specs(family, k, n, _PP)[1:]:
                _finite(_product, [axis], 1j * nodes)
    result = run_suite(["parseval-a", "parseval-b"])
    assert all(r.passed for r in result)
