"""Quadrature oracle: 1-d and tensor drivers, Fourier path, honesty."""

import inspect
import math

import numpy as np
import pytest

import conefourier.quadrature as quadrature
from conefourier import (DomainError, IntegralResult, NonConvergenceError,
                         QuadratureConfig, fourier_num, gamma_cx,
                         integrate_1d, integrate_tensor, parseval_lhs)


def _check_contract(res, cfg):
    if res.converged:
        assert res.error_estimate <= max(cfg.abs_tol,
                                         cfg.rel_tol * abs(res.value))


def test_unit_interval():
    cfg = QuadratureConfig()
    res = integrate_1d(lambda x: np.ones_like(x), (0.0, 1.0), cfg)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-13)
    _check_contract(res, cfg)


def test_de_ladder_batches_first_four_levels():
    calls = []

    def f(x):
        calls.append(np.array(x))
        return 1.0 / (1.0 + 25.0 * x * x)

    # unreachable tolerances run the whole ladder, levels 0..6
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_levels=6)
    with pytest.raises(NonConvergenceError) as err:
        integrate_1d(f, (-1.0, 1.0), cfg)
    levels = [quadrature._tanh_sinh_table(level)[0] for level in range(7)]
    assert len(calls) == 4
    np.testing.assert_array_equal(calls[0], np.concatenate(levels[:4]))
    for got, want in zip(calls[1:], levels[4:]):
        np.testing.assert_array_equal(got, want)
    assert err.value.result.evaluations == sum(x.size for x in levels)
    # the unit-interval integral keeps the per-level ladder's figures
    calls.clear()
    res = integrate_1d(lambda x: calls.append(x) or np.ones_like(x), (0.0, 1.0))
    assert len(calls) == 1
    assert res.evaluations == 49
    assert res.value == 0.9999999999999971


def test_endpoint_singular_arcsine():
    # the sigma = -1/2 wall: node truncation discards a sqrt-sized chunk
    # of singular mass, so the rule certifies ~1e-7 here, honestly
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)
    res = integrate_1d(lambda x: (1.0 - x * x) ** -0.5, (-1.0, 1.0), cfg)
    assert res.converged
    assert res.value == pytest.approx(math.pi, rel=5e-7)
    assert abs(res.value - math.pi) <= 10.0 * res.error_estimate


def test_halfline_gamma_integral():
    z = 0.5 + 0.5j
    f = lambda t: np.exp((z - 1.0) * np.log(t) - t)
    res = integrate_1d(f, (0.0, math.inf))
    want = gamma_cx(z)
    assert res.converged
    assert abs(res.value - want) < 1e-10 * abs(want)


def test_endpoints_never_sampled():
    seen = []

    def f(x):
        assert np.all((x > 0.0) & (x < 1.0))
        seen.append(x)
        return np.log(x) * np.log1p(-x)  # blows up at either endpoint

    res = integrate_1d(f, (0.0, 1.0))
    assert res.converged
    assert res.value == pytest.approx(2.0 - math.pi ** 2 / 6.0, rel=1e-10)
    assert seen


def test_nonconvergence_carries_best_result():
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_levels=5)
    with pytest.raises(NonConvergenceError) as err:
        integrate_1d(lambda x: 1.0 / (1.0 + 25.0 * x * x), (0.0, 1.0), cfg)
    res = err.value.result
    assert isinstance(res, IntegralResult)
    assert not res.converged
    assert res.evaluations > 0
    assert res.error_estimate >= 0.0
    want = math.atan(5.0) / 5.0
    assert res.value == pytest.approx(want, rel=1e-8)
    assert "did not converge" in str(err.value)


def test_tensor_unit_square():
    res = integrate_tensor(lambda x, y: np.ones_like(y), [(0, 1), (0, 1)])
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_tensor_ball_weight():
    # mu = 1 weight over the disk in iterated coordinates y = v sqrt(1-x^2),
    # which moves every singularity to a box endpoint
    f = lambda x, v: (1.0 - x * x) * np.sqrt(1.0 - v * v)
    res = integrate_tensor(f, [(-1, 1), (-1, 1)])
    assert res.converged
    assert res.value == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)


def test_tensor_first_degree_orthogonality():
    # x * y * sqrt(1 - x^2 - y^2): first-degree basis pair against the
    # mu = 1 ball weight, written in closed form to stay module-local
    f = lambda x, y: (3.0 * x) * (2.0 * y) * np.maximum(
        1.0 - x * x - y * y, 0.0) ** 0.5
    res = integrate_tensor(f, [(-1, 1), (-1, 1)])
    assert abs(res.value) < 1e-10


@pytest.mark.parametrize("rule", ["double-exponential", "adaptive-GK"])
def test_rules_integrate_batches_row_by_row(rule):
    # a (3, n) batch of integrands against three scalar calls
    run = (quadrature._de_integrate if rule == "double-exponential"
           else quadrature._gk_integrate)
    cfg = QuadratureConfig(rule=rule)
    c = np.array([-1.0, 0.5, 2.0 + 1.0j])
    batch = run(lambda x: np.exp(c[:, None] * x), 0.0, 1.0, cfg)
    assert batch.converged
    assert np.shape(batch.value) == np.shape(batch.error_estimate) == (3,)
    scalars = [run(lambda x, ci=ci: np.exp(ci * x), 0.0, 1.0, cfg) for ci in c]
    for i, (ci, one) in enumerate(zip(c, scalars)):
        assert one.converged
        truth = (np.exp(ci) - 1.0) / ci
        assert abs(batch.value[i] - truth) <= max(cfg.abs_tol,
                                                  cfg.rel_tol * abs(truth))
        assert abs(batch.value[i] - one.value) <= (batch.error_estimate[i]
                                                   + one.error_estimate)
    if rule == "double-exponential":
        # rows refine together: the batch stops at the level of its
        # slowest row, and that row matches its scalar call bit for bit
        slow = max(range(3), key=lambda i: scalars[i].evaluations)
        assert batch.evaluations == scalars[slow].evaluations
        assert batch.value[slow] == scalars[slow].value


def test_tensor_3d_slices_to_point_cap():
    sizes = []

    def f(x, y, z):
        sizes.append(x.size)
        assert x.shape == y.shape == z.shape
        return np.exp(x + 2.0 * y) * np.cos(z)

    res = integrate_tensor(f, [(0, 1), (0, 1), (-1, 1)])
    assert max(sizes) <= quadrature._MAX_POINTS
    # the first inner batch alone holds 49^3 points, so calls were sliced
    assert sum(sizes[:4]) > quadrature._MAX_POINTS
    assert res.evaluations == sum(sizes)
    want = (math.e - 1.0) * (math.e ** 2 - 1.0) / 2.0 * 2.0 * math.sin(1.0)
    assert res.value == pytest.approx(want, rel=1e-10)


def test_tensor_failure_names_axis():
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_levels=3)
    f = lambda x, y: np.exp(-x) / (1.0 + y * y)
    with pytest.raises(NonConvergenceError) as err:
        integrate_tensor(f, [(0, 1), (0, 1)], cfg)
    assert "axis" in str(err.value)


def test_linearity():
    rng = np.random.default_rng(5)
    f = lambda x: np.exp(-x * x)
    g = lambda x: 1.0 / (1.0 + x * x)
    iv = (0.0, 1.0)
    vf = integrate_1d(f, iv).value
    vg = integrate_1d(g, iv).value
    for _ in range(5):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        combo = integrate_1d(lambda x: a * f(x) + b * g(x), iv).value
        want = a * vf + b * vg
        assert abs(combo - want) <= 1e-12 * abs(want)


def test_de_vs_gk_cross_agreement():
    rng = np.random.default_rng(7)
    cfg_de = QuadratureConfig()
    cfg_gk = QuadratureConfig(rule="adaptive-GK")
    for _ in range(20):
        s = rng.uniform(-1.0, 1.0)
        w = rng.uniform(0.0, 4.0)
        c = rng.normal(size=3)
        f = lambda x: (np.exp(s * x) * np.cos(w * x)
                       + c[0] + c[1] * x + c[2] * x * x)
        r1 = integrate_1d(f, (0.0, 1.0), cfg_de)
        r2 = integrate_1d(f, (0.0, 1.0), cfg_gk)
        assert abs(r1.value - r2.value) < 5.0 * (r1.error_estimate
                                                 + r2.error_estimate)


def test_error_estimate_honesty():
    # randomized closed-form sweep; the estimate must bound the truth
    # within 10x in at least 95 of 100 cases
    rng = np.random.default_rng(9)
    ok = 0
    for case in range(100):
        kind = case % 3
        if kind == 0:
            p = rng.uniform(0.2, 3.0)
            c = rng.uniform(0.5, 2.0)
            f = lambda x: x ** p
            iv = (0.0, c)
            truth = c ** (p + 1.0) / (p + 1.0)
        elif kind == 1:
            a = rng.uniform(-2.0, 2.0)
            f = lambda x: np.exp(a * x)
            iv = (0.0, 1.0)
            truth = (math.exp(a) - 1.0) / a
        else:
            b = rng.uniform(0.0, 1.0)
            f = lambda x: (1.0 + b * x * x) * np.sqrt(1.0 - x * x)
            iv = (-1.0, 1.0)
            truth = math.pi / 2.0 + b * math.pi / 8.0
        res = integrate_1d(f, iv)
        if abs(res.value - truth) <= 10.0 * res.error_estimate:
            ok += 1
    assert ok >= 95


def test_fourier_sech_pair():
    # plain sech maps to the sigma = -1/2 transformed integrand, so the
    # certificate tops out near 1e-7 (see the arcsine test)
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)
    res0 = fourier_num(lambda x: 1.0 / np.cosh(x), 0.0, cfg)
    assert res0.converged
    assert res0.value == pytest.approx(math.pi, rel=1e-6)
    res1 = fourier_num(lambda x: 1.0 / np.cosh(x), 1.0, cfg)
    want = math.pi / math.cosh(math.pi / 2.0)
    assert res1.value == pytest.approx(want, rel=1e-6)
    assert abs(complex(res1.value).imag) < 1e-8


def test_fourier_rejects_large_frequency():
    with pytest.raises(DomainError):
        fourier_num(lambda x: 1.0 / np.cosh(x), 9.0)
    with pytest.raises(DomainError):
        fourier_num(lambda x, y: np.exp(-x * x - y * y), (0.5, -8.5))


def test_fourier_cross_check_agrees():
    cfg = QuadratureConfig(rule="adaptive-GK", abs_tol=1e-6, rel_tol=1e-6)
    res = fourier_num(lambda x: 1.0 / np.cosh(x), 0.5, cfg)
    assert res.converged
    assert res.value == pytest.approx(math.pi / math.cosh(math.pi / 4.0),
                                      rel=1e-6)


def test_parseval_classical_pair():
    F = lambda xi: math.pi / np.cosh(math.pi * xi / 2.0)
    res = parseval_lhs([(F, F)])
    # Parseval for sech: (2 pi) * int sech^2 = 4 pi
    assert res.value == pytest.approx(4.0 * math.pi, rel=1e-10)
    # any number of factors multiplies (a d = 4 family has five)
    res5 = parseval_lhs([(F, F)] * 5)
    assert res5.value == pytest.approx((4.0 * math.pi) ** 5, rel=1e-9)
    with pytest.raises(DomainError):
        parseval_lhs([])


def test_parseval_vanishing_factor_error_covers_zero():
    # int (x^2 - 1/4) e^{-2 x^2} dx = 0, which quadrature resolves only
    # to roundoff: the product error bound must still cover |value - 0|
    gauss = lambda x: np.exp(-x * x)
    cfg = QuadratureConfig()
    res = parseval_lhs([(gauss, gauss),
                        (lambda x: (x * x - 0.25) * gauss(x), gauss)], cfg)
    assert res.value != 0.0
    assert res.converged
    assert res.error_estimate >= abs(res.value)
    assert res.error_estimate <= cfg.abs_tol


def test_oracle_is_transform_independent():
    # dependency direction: the oracle consumes raw callables only
    src = inspect.getsource(quadrature)
    assert "from .transforms" not in src
    assert "from conefourier.transforms" not in src
    assert "import transforms" not in src


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rule="simpson")
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_levels=2)
