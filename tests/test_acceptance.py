"""End-to-end acceptance runs.

Each test is one criterion; the print line carries the measured maxima
so a verbose run doubles as the evidence record.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import special as sp

from conefourier import (MultiIndex, ball_norm, beta_cx,
                         cone_inner_product_separated, f_d, f_d_via_g1,
                         f_d_via_g2, ft_g_laguerre_closed, FreqVector,
                         gamma_cx, gegenbauer, gegenbauer_norm, jacobi,
                         jacobi_norm, JacobiConeParams, jacobi_cone,
                         laguerre, laguerre_norm, LaguerreConeParams,
                         laguerre_cone, pochhammer, run_suite, theta_hahn,
                         theta_hyper, TransformParamsLaguerre)
from conefourier.cli import main as cli_main
from conftest import ball_inner_oracle


def _gram_check(evaluate, norm, nodes, weights, max_deg, rel_tol):
    E = np.array([evaluate(n, nodes) for n in range(max_deg + 1)])
    gram = E @ (weights[:, None] * E.T)
    diags = np.array([norm(n) for n in range(max_deg + 1)])
    worst_diag = 0.0
    worst_off = 0.0
    for n in range(max_deg + 1):
        for m in range(max_deg + 1):
            if n == m:
                worst_diag = max(worst_diag,
                                 abs(gram[n, n] - diags[n]) / diags[n])
            else:
                scale = math.sqrt(diags[n] * diags[m])
                worst_off = max(worst_off, abs(gram[n, m]) / scale)
    assert worst_diag < rel_tol
    assert worst_off < rel_tol
    return worst_diag, worst_off


def test_01_univariate_orthogonality():
    start = time.time()
    worst = 0.0
    for mu in (0.3, 1.0, 2.5):
        x, w = sp.roots_jacobi(8, mu - 0.5, mu - 0.5)
        d, o = _gram_check(lambda n, xs: gegenbauer(n, mu, xs),
                           lambda n: gegenbauer_norm(n, mu), x, w, 6, 1e-10)
        worst = max(worst, d, o)
    for alpha in (0.0, 0.5, 2.0):
        x, w = sp.roots_genlaguerre(8, alpha)
        d, o = _gram_check(lambda n, xs: laguerre(n, alpha, xs),
                           lambda n: laguerre_norm(n, alpha), x, w, 6, 1e-10)
        worst = max(worst, d, o)
    for alpha, beta in ((0.0, 0.0), (0.5, 1.5), (2.0, 0.3)):
        x, w = sp.roots_jacobi(8, alpha, beta)
        d, o = _gram_check(lambda n, xs: jacobi(n, alpha, beta, xs),
                           lambda n: jacobi_norm(n, alpha, beta), x, w, 6,
                           1e-10)
        worst = max(worst, d, o)
    took = time.time() - start
    assert took < 10.0
    print(f"PASS univariate orthogonality: 3x3 settings, degrees <= 6, "
          f"worst normalized error {worst:.2e}, {took:.2f}s")


def test_02_ball_orthogonality_and_eigen():
    start = time.time()
    indices = [k for k in itertools.product(range(5), range(5))
               if sum(k) <= 4]
    assert len(indices) == 15
    worst_diag = 0.0
    worst_off = 0.0
    for mu in (0.7, 1.5):
        norms = {k: ball_norm(MultiIndex(list(k)), mu) for k in indices}
        max_norm = max(norms.values())
        for k, l in itertools.combinations_with_replacement(indices, 2):
            val = ball_inner_oracle(k, l, mu)
            if k == l:
                worst_diag = max(worst_diag, abs(val - norms[k]) / norms[k])
            else:
                worst_off = max(worst_off, abs(val) / max_norm)
    assert worst_diag < 1e-8
    assert worst_off < 1e-8

    rng = np.random.default_rng(2)
    ks = [k for k in itertools.product(range(4), range(4)) if sum(k) <= 3]
    rows = []
    for i in range(20):
        r = rng.uniform(0.1, 0.6)
        phi = rng.uniform(0.0, 2 * math.pi)
        rows.append({"k": ks[i % len(ks)], "mu": 1.0,
                     "x": (r * math.cos(phi), r * math.sin(phi))})
    result = run_suite(["ball-eigen"], grids={"ball-eigen": rows})
    assert len(result) == 20
    assert all(r.passed and r.rel_err < 1e-4 for r in result)
    took = time.time() - start
    assert took < 60.0
    print(f"PASS ball basis: 225 pairs x mu in (0.7, 1.5), worst diag "
          f"{worst_diag:.2e}, worst off {worst_off:.2e}; eigen check max "
          f"rel {max(r.rel_err for r in result):.2e}, {took:.2f}s")


def test_03_cone_orthogonality():
    start = time.time()
    states = [(n, k) for n in range(4) for k in range(n + 1)]
    assert len(states) == 10

    beta, mu, gamma = 0.5, 0.9, 0.6
    xg, wg = sp.roots_jacobi(12, mu - 0.5, mu - 0.5)

    def lag_inner(n, k, m, l):
        alpha_k = 2 * k + 2 * mu + beta
        alpha_l = 2 * l + 2 * mu + beta
        tq, twq = sp.roots_genlaguerre(12, k + l + 2 * mu + beta)
        tv = twq @ (laguerre(n - k, alpha_k, tq) * laguerre(m - l, alpha_l, tq))
        bv = wg @ (gegenbauer(k, mu, xg) * gegenbauer(l, mu, xg))
        return tv * bv

    def jac_inner(n, k, m, l):
        alpha_k = 2 * k + 2 * mu + beta
        alpha_l = 2 * l + 2 * mu + beta
        A = k + l + 2 * mu + beta
        sq, swq = sp.roots_jacobi(12, A, gamma)
        tv = swq @ (jacobi(n - k, alpha_k, gamma, sq)
                    * jacobi(m - l, alpha_l, gamma, sq)) * 2.0 ** (-A - gamma - 1)
        bv = wg @ (gegenbauer(k, mu, xg) * gegenbauer(l, mu, xg))
        return tv * bv

    worst = {"laguerre": 0.0, "jacobi": 0.0}
    for name, inner in (("laguerre", lag_inner), ("jacobi", jac_inner)):
        diags = {s: inner(s[0], s[1], s[0], s[1]) for s in states}
        assert all(v > 0 for v in diags.values())
        for (n, k), (m, l) in itertools.combinations(states, 2):
            val = inner(n, k, m, l)
            scale = math.sqrt(diags[(n, k)] * diags[(m, l)])
            worst[name] = max(worst[name], abs(val) / scale)
        assert worst[name] < 1e-6

    # engine spot checks against the same separated references
    lag_params = LaguerreConeParams(beta, mu)
    f11 = lambda t, x: laguerre_cone((1,), 1, lag_params, (t, x))
    res = cone_inner_product_separated(f11, f11, 1, lag_params)
    assert res.value == pytest.approx(lag_inner(1, 1, 1, 1), rel=1e-7)
    jac_params = JacobiConeParams(beta, mu, gamma)
    g21 = lambda t, x: jacobi_cone((1,), 2, jac_params, (t, x))
    res = cone_inner_product_separated(g21, g21, 1, jac_params)
    assert res.value == pytest.approx(jac_inner(2, 1, 2, 1), rel=1e-7)
    g00 = lambda t, x: jacobi_cone((0,), 0, jac_params, (t, x))
    res = cone_inner_product_separated(g00, g21, 1, jac_params)
    assert abs(res.value) < 1e-6 * jac_inner(2, 1, 2, 1)

    took = time.time() - start
    assert took < 60.0
    print(f"PASS cone bases: 55 pairs per family, worst off-diagonal ratio "
          f"laguerre {worst['laguerre']:.2e}, jacobi {worst['jacobi']:.2e}, "
          f"{took:.2f}s")


def test_04_theta_dual_sweep():
    start = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        j = int(rng.integers(1, d + 1))
        k = tuple(int(v) for v in rng.integers(0, 5, size=d))
        a = rng.uniform(0.2, 2.0)
        mu = rng.uniform(0.3, 2.0)
        xi = rng.uniform(-5.0, 5.0)
        vh = theta_hyper(j, d, a, mu, k, xi)
        vc = theta_hahn(j, d, a, mu, k, xi)
        worst = max(worst, abs(vh - vc) / max(abs(vh), 1e-300))
    took = time.time() - start
    assert worst < 1e-12
    assert took < 1.0
    print(f"PASS theta dual forms: 200-point sweep, worst rel "
          f"{worst:.2e}, {took:.2f}s")


def _assert_all_pass(result, what):
    bad = [r for r in result if not r.passed]
    assert not bad, f"{what}: {len(bad)} failures, first: {bad[0]}"
    return max(r.rel_err for r in result)


def test_05_ft_f_grid():
    start = time.time()
    axis = (-2.0, -0.5, 0.0, 1.0)
    rows = [{"k": (k,), "a": 0.8, "mu": 0.6, "xi": (xi,)}
            for k in range(4) for xi in axis]
    rows += [{"k": k, "a": 0.7, "mu": 0.9, "xi": xi}
             for k in itertools.product(range(3), range(3)) if sum(k) <= 2
             for xi in itertools.product(axis, axis)]
    assert len(rows) == 16 + 6 * 16
    result = run_suite(["ft-f"], grids={"ft-f": rows})
    worst = _assert_all_pass(result, "ft-f")
    took = time.time() - start
    assert worst < 1e-6
    assert took < 60.0
    print(f"PASS ft-f vs numerical transform: {len(result)} checks "
          f"(d=1 k<=3, d=2 |k|<=2 with the j-weighted 2-power), worst rel "
          f"{worst:.2e}, {took:.1f}s")


def test_06_ft_g_laguerre_grid():
    start = time.time()
    axis = (-2.0, -0.5, 0.0, 1.0)
    settings = [(0.7, 1.2, 0.5, 0.9), (0.9, 0.8, 0.2, 0.6)]
    rows = [{"n": n, "k": (k,), "a": a, "b": b, "beta": bt, "mu": mu,
             "xi": (x1, x2)}
            for (n, k) in ((0, 0), (1, 0), (1, 1), (2, 1))
            for (a, b, bt, mu) in settings
            for x1 in axis for x2 in axis]
    assert len(rows) == 128
    result = run_suite(["ft-g-laguerre"], grids={"ft-g-laguerre": rows})
    worst = _assert_all_pass(result, "ft-g-laguerre")
    assert worst < 1e-6

    # printed one-dimensional specialization as literal vectors
    tp = TransformParamsLaguerre(0.7, 1.2, 0.5, 0.9)
    for xi1, xi2 in ((0.6, -0.8), (-1.4, 0.2), (0.0, 1.0)):
        want = (2 ** (2 * tp.a + tp.b - 1j * xi2 - 1)
                * gamma_cx(tp.b - 1j * xi2)
                * beta_cx(tp.a + 0.5j * xi1, tp.a - 0.5j * xi1))
        got = ft_g_laguerre_closed((0,), 0, tp, FreqVector((xi1, xi2)))
        assert abs(got - want) < 1e-13 * abs(want)
    took = time.time() - start
    assert took < 60.0
    print(f"PASS ft-g-laguerre vs numerical transform: 128 grid checks + "
          f"collapse vectors, worst rel {worst:.2e}, {took:.1f}s")


def test_07_ft_g_jacobi_grid():
    start = time.time()
    axis = (-2.0, -0.5, 0.0, 1.0)
    settings = [(0.8, 1.1, 0.9, 0.4, 0.7, 0.6), (0.6, 0.9, 1.3, 0.2, 0.8, 1.1)]
    rows = [{"n": n, "k": (k,), "a": a, "b": b, "c": c, "beta": bt,
             "mu": mu, "gamma": gm, "xi": (x1, x2)}
            for (n, k) in ((0, 0), (1, 0), (1, 1), (2, 1))
            for (a, b, c, bt, mu, gm) in settings
            for x1 in axis for x2 in axis]
    assert len(rows) == 128
    result = run_suite(["ft-g-jacobi"], grids={"ft-g-jacobi": rows})
    worst = _assert_all_pass(result, "ft-g-jacobi")
    assert worst < 1e-6
    took = time.time() - start
    assert took < 60.0
    print(f"PASS ft-g-jacobi vs numerical transform: 128 grid checks, "
          f"worst rel {worst:.2e}, {took:.1f}s")


def test_08_fd_recursions():
    start = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        k = tuple(int(v) for v in rng.integers(0, 3, size=d))
        while sum(k) > 4:
            k = tuple(int(v) for v in rng.integers(0, 3, size=d))
        x = tuple(rng.uniform(-1.5, 1.5, size=d))
        a = rng.uniform(0.3, 1.5)
        mu = rng.uniform(0.3, 1.8)
        direct = f_d(x, k, a, mu)
        scale = max(abs(direct), 1e-12)
        worst = max(worst,
                    abs(f_d_via_g1(x, k, a, mu) - direct) / scale,
                    abs(f_d_via_g2(x, k, a, mu) - direct) / scale)
    took = time.time() - start
    assert worst < 1e-12
    assert took < 1.0
    print(f"PASS recursion paths: 50 random points at d in (2, 3), worst "
          f"rel {worst:.2e}, {took:.2f}s")


def _parseval_rows(base, states):
    rows = []
    for (n, k), (m, l) in itertools.combinations_with_replacement(states, 2):
        row = dict(base)
        row.update({"n": n, "k": (k,), "m": m, "l": (l,)})
        rows.append(row)
    return rows


_D1_STATES = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


def _d2_spots(base):
    return [dict(base, n=1, k=(1, 0), m=1, l=l) for l in ((1, 0), (0, 1))]


def _d3_d4_spots(base):
    # the norms' power of 2 drops by (d-1)(d-2)/2: 1 at d = 3 and 3 at
    # d = 4, where a wrong shift such as d - 2 would still be off by 2
    pairs = [((1, (0, 0, 1)), (1, (0, 0, 1))),
             ((1, (1, 0, 0)), (1, (1, 0, 0))),
             ((2, (1, 0, 1)), (2, (1, 0, 1))),
             ((1, (1, 0, 0)), (1, (0, 1, 0))),
             ((1, (0, 0, 1)), (2, (0, 0, 1))),
             ((2, (1, 0, 0, 1)), (2, (1, 0, 0, 1)))]
    return [dict(base, n=n, k=k, m=m, l=l) for (n, k), (m, l) in pairs]


def test_09_parseval_a_family():
    start = time.time()
    base = {"a1": 0.8, "a2": 0.6, "b1": 0.9, "b2": 0.7}
    rows = _parseval_rows(base, _D1_STATES)
    assert len(rows) == 21
    rows += _d2_spots(base) + _d3_d4_spots(base)
    result = run_suite(["parseval-a"], grids={"parseval-a": rows})
    worst = _assert_all_pass(result, "parseval-a")
    took = time.time() - start
    assert took < 60.0
    print(f"PASS A-family Parseval: 21 d=1 pairs + d=2 and d=3 diagonal "
          f"and off-diagonal spots + a d=4 diagonal (rel tol 1e-5), worst "
          f"rel {worst:.2e}, {took:.1f}s")


def test_10_parseval_b_family():
    start = time.time()
    base = {"a1": 0.8, "a2": 0.6, "b1": 0.9, "b2": 0.7, "c1": 1.1,
            "c2": 0.5}
    rows = _parseval_rows(base, _D1_STATES)
    rows += _d2_spots(base) + _d3_d4_spots(base)
    result = run_suite(["parseval-b"], grids={"parseval-b": rows})
    worst = _assert_all_pass(result, "parseval-b")
    took = time.time() - start
    assert took < 60.0
    print(f"PASS B-family Parseval: 21 d=1 pairs + d=2 and d=3 diagonal "
          f"and off-diagonal spots + a d=4 diagonal (rel tol 1e-5), worst "
          f"rel {worst:.2e}, {took:.1f}s")


def test_11_kernel_sweeps():
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(0.5, 10.0), rng.uniform(-10.0, 10.0))
        g1 = gamma_cx(z + 1)
        worst = max(worst, abs(g1 - z * gamma_cx(z)) / abs(g1))
    assert worst < 1e-12
    refl_worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
        if abs(z.real - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
            continue
        lhs = gamma_cx(z) * gamma_cx(1.0 - z)
        rhs = math.pi / complex(np.sin(np.pi * np.complex128(z)))
        refl_worst = max(refl_worst, abs(lhs - rhs) / abs(rhs))
    assert refl_worst < 1e-11
    conj_worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(0.2, 6.0), rng.uniform(-6.0, 6.0))
        conj_worst = max(conj_worst,
                         abs(gamma_cx(z.conjugate())
                             - gamma_cx(z).conjugate()) / abs(gamma_cx(z)))
    assert conj_worst < 1e-14
    poch_worst = 0.0
    for alpha in (0.75, 3.2, 2.0 + 0.5j):
        for n in (5, 39, 40, 41, 60):
            lhs = pochhammer(alpha, n + 1)
            rhs = pochhammer(alpha, n) * (alpha + n)
            poch_worst = max(poch_worst, abs(lhs - rhs) / abs(rhs))
    assert poch_worst < 1e-12
    beta_worst = 0.0
    for _ in range(50):
        p = complex(rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0))
        q = complex(rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0))
        beta_worst = max(beta_worst,
                         abs(beta_cx(p, q) - beta_cx(q, p)) / abs(beta_cx(p, q)))
        want = gamma_cx(p) * gamma_cx(q) / gamma_cx(p + q)
        beta_worst = max(beta_worst,
                         abs(beta_cx(p, q) - want) / abs(want))
    assert beta_worst < 1e-12
    took = time.time() - start
    assert took < 1.0
    print(f"PASS kernel sweeps: recurrence {worst:.2e}, reflection "
          f"{refl_worst:.2e}, conjugation {conj_worst:.2e}, pochhammer "
          f"{poch_worst:.2e}, beta {beta_worst:.2e}, {took:.2f}s")


def test_12_suite_determinism(tmp_path, capsys):
    start = time.time()
    f1, f2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = cli_main(["suite", "--all", "--out", str(f1)])
    code2 = cli_main(["suite", "--all", "--out", str(f2)])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["summary"]["passed"] == doc["summary"]["total"] > 0
    took = time.time() - start
    assert took < 60.0
    print(f"PASS determinism: suite --all twice, {doc['summary']['total']} "
          f"reports, byte-identical files ({len(b1)} bytes), {took:.1f}s")
