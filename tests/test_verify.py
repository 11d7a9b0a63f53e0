"""Identity catalog and check engine."""

import math

import numpy as np
import pytest

import conefourier.verify as verify
from conefourier import (DomainError, ParsevalParams, QuadratureConfig,
                         a_family, b_family, check_identity, default_grids,
                         gamma_cx, integrate_tensor, run_suite)

CATALOG = {
    "gegenbauer-orth", "laguerre-orth", "jacobi-orth", "ball-orth",
    "ball-eigen", "cone-orth-laguerre", "cone-orth-jacobi", "ft-f",
    "ft-g-laguerre", "ft-g-jacobi", "theta-dual", "fd-recursion",
    "parseval-a", "parseval-b", "norm-constants",
}


def test_identity_catalog_is_closed():
    assert set(verify.IDENTITY_IDS) == CATALOG
    assert len(verify.IDENTITY_IDS) == 15


def test_default_grids_cover_catalog():
    grids = default_grids()
    assert set(grids) == CATALOG
    for rows in grids.values():
        assert len(list(rows)) > 0


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


def test_report_passed_implies_finite():
    reps = run_suite(["theta-dual", "fd-recursion", "norm-constants"])
    assert reps
    for rep in reps:
        assert rep.passed
        assert math.isfinite(abs(rep.lhs)) and math.isfinite(abs(rep.rhs))
        assert rep.rel_err <= rep.tol


def test_ft_f_default_grid_shape():
    reps = run_suite(["ft-f"])
    assert len(reps) == 36
    assert all(r.passed for r in reps)


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


def test_jobs_match_serial():
    sel = ["fd-recursion"]
    serial = run_suite(sel, jobs=1)
    parallel = run_suite(sel, jobs=4)
    assert [repr(r) for r in serial] == [repr(r) for r in parallel]


@pytest.mark.parametrize("family", ["a", "b"])
def test_parseval_factorization_matches_tensor(family):
    # the factored oracle integrates one 1-d factor per axis; the same
    # d = 1 diagonal integrated unfactored over the (t, x) square must agree
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
    tensor = integrate_tensor(integrand, [(-40.0, 40.0)] * 2,
                              verify._CFG_PARSEVAL)
    assert abs(tensor.value - factored.lhs) <= 1e-7 * abs(tensor.value)
