"""Quadrature oracle: 1-d driver, Fourier path, honesty."""

import inspect
import math
from functools import partial

from dataclasses import replace

import numpy as np
import pytest

import conefourier.quadrature as quadrature
from conefourier import (DomainError, IntegralResult, NonConvergenceError,
                         ParsevalParams, QuadratureConfig, fourier_num,
                         gamma_cx, integrate_1d)
from conefourier.transforms import _family_specs, _finite, _product
from conefourier.verify import _row_product

_LINE = (-math.inf, math.inf)


def _ladder(f, interval):
    """A _row_product ladder: f's rows on one batched 1-d rule."""
    return partial(integrate_1d, f, interval)


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


def test_de_left_half_line_mirrors_the_right():
    # (-inf, b) takes the exp-sinh nodes reflected through b
    left = integrate_1d(np.exp, (-math.inf, 0.0))
    right = integrate_1d(lambda x: np.exp(-x), (0.0, math.inf))
    assert left.converged
    assert left.value == pytest.approx(1.0, rel=1e-14)
    assert left.evaluations == right.evaluations == 217
    assert left.value == right.value
    assert left.error_estimate == right.error_estimate


@pytest.mark.parametrize("f,max_levels,evals", [
    (lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 5, 480),
    # a +-1e6 step whose halves cancel: the roundoff stays above abs_tol
    # and the whole 4096-panel budget is spent
    (lambda x: np.where(x < 0.5, -1e6, 1e6), 12, 61440)],
    ids=["interior-singularity", "cancelling-step"])
def test_gk_unconverged_raises_with_its_budget_spent(f, max_levels, evals):
    cfg = QuadratureConfig(rule="adaptive-GK", max_levels=max_levels)
    with pytest.raises(NonConvergenceError) as err:
        integrate_1d(f, (0.0, 1.0), cfg)
    res = err.value.result
    assert not res.converged
    assert res.evaluations == evals
    assert res.error_estimate > max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


def test_de_first_acceptance_level_does_not_extrapolate():
    # a Parseval axis factor on the whole line whose ladder is not yet in
    # its quadratic regime at level 3: an extrapolated estimate there
    # came out 10x below the true error
    pp = ParsevalParams(0.8, 0.6, 0.9, 0.7)
    swapped = ParsevalParams(0.6, 0.8, 0.7, 0.9)
    (_, f), (_, g) = (_family_specs("a", (2,), 2, pp),
                      _family_specs("a", (2,), 2, swapped))
    h = lambda x: (_finite(_product, [f], 1j * x)
                   * np.conj(_finite(_product, [g], -1j * x)))
    line = (-math.inf, math.inf)
    res = integrate_1d(h, line, QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7))
    ref = integrate_1d(h, line, QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15))
    assert res.error_estimate >= abs(res.value - ref.value)


@pytest.mark.parametrize("interval,want", [
    ((-math.inf, math.inf), math.sqrt(math.pi)),
    ((0.0, math.inf), 0.5 * math.sqrt(math.pi)),
    ((-math.inf, 0.0), 0.5 * math.sqrt(math.pi)),
])
def test_gk_truncates_infinite_ends(interval, want):
    cfg = QuadratureConfig(rule="adaptive-GK")
    res = integrate_1d(lambda x: np.exp(-x * x), interval, cfg)
    assert res.value == pytest.approx(want, rel=1e-10)


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


def _sech(x):
    """sech x without overflow at the sinh-sinh nodes, which reach 1e299."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


def test_fourier_sech_pair():
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    res0 = fourier_num(_sech, 0.0, cfg)
    assert res0.converged
    assert res0.value == pytest.approx(math.pi, rel=1e-12)
    res1 = fourier_num(_sech, 1.0, cfg)
    want = math.pi / math.cosh(math.pi / 2.0)
    assert res1.value == pytest.approx(want, rel=1e-12)
    assert abs(complex(res1.value).imag) < 1e-12


def test_fourier_rejects_large_frequency():
    with pytest.raises(DomainError):
        fourier_num(_sech, 9.0)
    with pytest.raises(DomainError):
        fourier_num(lambda x: np.stack([np.exp(-x * x)] * 2), (0.5, -8.5))


def test_fourier_cross_check_agrees():
    cfg = QuadratureConfig(rule="adaptive-GK", abs_tol=1e-6, rel_tol=1e-6)
    res = fourier_num(_sech, 0.5, cfg)
    assert res.converged
    assert res.value == pytest.approx(math.pi / math.cosh(math.pi / 4.0),
                                      rel=1e-6)


def test_fourier_rows_take_one_frequency_each():
    # one row per factor, one frequency per row, one value per row
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)
    want = [math.pi, math.pi / math.cosh(math.pi / 2.0)]
    res = fourier_num(lambda x: np.stack([_sech(x), _sech(x)]), (0.0, 1.0),
                      cfg)
    assert res.converged
    assert np.shape(res.value) == (2,)
    assert res.value == pytest.approx(want, rel=1e-6)
    # a scalar frequency is shared by every row
    res = fourier_num(lambda x: np.stack([_sech(x), 2.0 * _sech(x)]), 1.0, cfg)
    assert res.value == pytest.approx([want[1], 2.0 * want[1]], rel=1e-6)


def test_gk_whole_line_splits_before_accepting():
    # on (-60, 60) the nodes of one 15-point panel next to 0 sit at
    # |x| >= 12.5, where x^2 e^{-x^2} is an exact 0: that panel reads 0
    # with a zero error estimate
    cfg = QuadratureConfig(rule="adaptive-GK", abs_tol=1e-10, rel_tol=1e-10)
    res = integrate_1d(lambda x: x * x * np.exp(-x * x), _LINE, cfg)
    assert res.converged
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)


def test_fourier_cross_check_flags_a_disagreement(monkeypatch):
    real = quadrature._gk_integrate
    monkeypatch.setattr(
        quadrature, "_gk_integrate",
        lambda *args: replace(real(*args), value=real(*args).value + 1e-3))
    cfg = QuadratureConfig(rule="adaptive-GK", abs_tol=1e-6, rel_tol=1e-6)
    res = fourier_num(_sech, 0.5, cfg)
    assert not res.converged
    assert res.error_estimate == pytest.approx(1e-3, rel=1e-3)


def test_row_product_fails_an_unconverged_ladder():
    # a ladder can report no convergence while every row's estimate meets
    # the contract, as a cross-check that disagrees within the tolerance
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    good = _ladder(lambda x: np.exp(-x * x)[None], (-30.0, 30.0))

    def flagged(cfg):
        return IntegralResult(np.array([2.0]), np.array([1e-12]), 10, False)

    with pytest.raises(NonConvergenceError, match="ladder 1 did not") as err:
        _row_product([good, flagged], cfg)
    assert not err.value.result.converged
    assert err.value.result.value == pytest.approx(2.0 * math.sqrt(math.pi))


def test_parseval_classical_pair():
    # pi sech(pi xi / 2) in a form that cannot overflow: the whole-line
    # ladder samples out to |xi| ~ 1e299
    def F(xi):
        e = np.exp(-0.5 * math.pi * np.abs(xi))
        return 2.0 * math.pi * e / (1.0 + e * e)

    def rows(count):
        return [_ladder(lambda s: np.tile(F(s) * np.conj(F(s)), (count, 1)),
                        _LINE)]

    cfg = QuadratureConfig()
    res = _row_product(rows(1), cfg)
    # Parseval for sech: (2 pi) * int sech^2 = 4 pi
    assert res.value == pytest.approx(4.0 * math.pi, rel=1e-10)
    # any number of rows multiplies (a d = 4 family has five)
    res5 = _row_product(rows(5), cfg)
    assert res5.value == pytest.approx((4.0 * math.pi) ** 5, rel=1e-9)
    assert res5.evaluations == 5 * res.evaluations
    # and so do the rows of separate ladders, on any interval
    half = _row_product(
        rows(2) + [_ladder(lambda s: np.exp(-s)[None], (0.0, 1.0))], cfg)
    assert half.value == pytest.approx((4.0 * math.pi) ** 2
                                       * (1.0 - math.exp(-1.0)), rel=1e-9)


def test_parseval_vanishing_factor_error_covers_zero():
    # int (x^2 - 1/4) e^{-2 x^2} dx = 0, which quadrature resolves only
    # to roundoff: the product error bound must still cover |value - 0|.
    # half = e^{-x^2/2} without overflow at the whole line's far nodes
    # (past |x| = 1e3 both forms are an exact 0)
    half = lambda x: np.exp(-0.5 * np.abs(x) * np.minimum(np.abs(x), 1e3))
    gauss = lambda x: half(x) ** 2
    cfg = QuadratureConfig()
    res = _row_product([_ladder(lambda x: np.stack([
        gauss(x) * gauss(x), ((x * half(x)) ** 2 - 0.25 * gauss(x)) * gauss(x)]),
        _LINE)], cfg)
    assert res.value != 0.0
    assert res.converged
    assert res.error_estimate >= abs(res.value)
    assert res.error_estimate <= cfg.abs_tol


def test_parseval_names_first_row_that_misses():
    # rows 1 and 3 jump at s = 0.3, which the ladder cannot resolve in
    # six levels; rows 0 and 2 converge
    gauss = lambda s: np.exp(-np.abs(s) * np.minimum(np.abs(s), 1e3))
    jump = lambda s: np.where(s < 0.3, 1.0, -1.0) * gauss(s)
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8, max_levels=6)
    with pytest.raises(NonConvergenceError, match="row 1 did not") as err:
        _row_product([_ladder(lambda s: np.stack([gauss(s), jump(s), gauss(s),
                                                  jump(s)]), _LINE)], cfg)
    res = err.value.result
    assert not res.converged
    assert res.evaluations > 0
    assert res.error_estimate > cfg.abs_tol
    # rows are numbered across ladders, in ladder order
    with pytest.raises(NonConvergenceError, match="row 2 did not"):
        _row_product([_ladder(lambda s: np.stack([gauss(s), gauss(s)]), _LINE),
                      _ladder(lambda s: jump(s)[None], _LINE)], cfg)


def test_de_roundoff_floor_follows_the_absolute_integral():
    # an odd integrand cancels to 0 while the sum of |f w| does not: the
    # estimate keeps ~4 eps of the integral of |f| (1 here)
    res = integrate_1d(lambda x: x * np.exp(-np.abs(x) * np.minimum(np.abs(x), 1e3)),
                       (-math.inf, math.inf))
    assert abs(res.value) < 1e-16
    assert res.error_estimate >= 0.99 * 4.0 * 2.2e-16


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
