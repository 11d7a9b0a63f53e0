"""Shared quadrature oracles built on scipy, and a fixture that empties
the Parseval Gamma table before each test.

The inner products of the product bases separate into one-dimensional
Jacobi- and Laguerre-weight integrals of polynomials, so Gauss rules with
enough nodes evaluate them to machine precision.  The unfactored
multivariate integrals go to scipy's adaptive cubature.  Every oracle
here uses scipy's independent evaluators, node tables and rules, never
the library's own code paths.
"""

import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import cubature

from conefourier import transforms


@pytest.fixture(autouse=True)
def _empty_gamma_table():
    """Each test starts from an empty Parseval Gamma table, so that a test
    that patches gamma_cx, _gamma_zero_beyond or _reflected_pair is never
    served an entry computed before its patch."""
    transforms._GAMMA_TABLE.clear()


def cubature_cx(f, box, rtol, atol=0.0):
    """The unfactored integral of f over box, one (lo, hi) pair per axis,
    by scipy's gk21 cubature; f takes one coordinate array per axis.  Its
    real and imaginary parts are two output columns, since cubature casts
    a complex output to real.  Each column must meet atol + rtol |column|,
    so a part that integrates to about 0 needs atol.  The integral must
    converge."""
    lo, hi = np.array(box, dtype=np.float64).T

    def columns(x):
        value = np.asarray(f(*x.T), dtype=np.complex128)
        return np.stack([value.real, value.imag], axis=-1)

    res = cubature(columns, lo, hi, rule="gk21", rtol=rtol, atol=atol)
    assert res.status == "converged"
    return complex(res.estimate[0], res.estimate[1])


def ball_inner_oracle(k, l, mu):
    """<P_k, P_l> over the unit ball with weight (1-|x|^2)^(mu-1/2).

    In the iterated coordinates x_j = u_j * sqrt(1 - |x_{j-1}|^2) the
    integrand factors axis by axis, each factor being a polynomial times
    a (1-u^2) power, integrated exactly by Gauss-Jacobi.
    """
    k = tuple(int(v) for v in k)
    l = tuple(int(v) for v in l)
    d = len(k)
    assert len(l) == d
    total = 1.0
    for j in range(1, d + 1):
        tail_k = sum(k[j:])
        tail_l = sum(l[j:])
        lam_k = mu + tail_k + (d - j) / 2.0
        lam_l = mu + tail_l + (d - j) / 2.0
        expo = mu - 0.5 + (d - j) / 2.0 + (tail_k + tail_l) / 2.0
        nodes = (k[j - 1] + l[j - 1]) // 2 + 3
        xq, wq = sp.roots_jacobi(nodes, expo, expo)
        total *= wq @ (sp.eval_gegenbauer(k[j - 1], lam_k, xq)
                       * sp.eval_gegenbauer(l[j - 1], lam_l, xq))
    return float(total)


def cone_laguerre_inner_oracle(n, k, m, l, beta, mu):
    """<L_{k,n}, L_{l,m}> over the unbounded cone at d = 1.

    x = t*y separates the integral into a generalized Gauss-Laguerre
    t-factor and a Gauss-Jacobi ball factor.
    """
    k, l = int(k), int(l)
    alpha_k = 2 * k + 2 * mu + beta
    alpha_l = 2 * l + 2 * mu + beta
    t_expo = k + l + 2 * mu + beta
    nodes = (n - k + m - l) // 2 + 3
    tq, wq = sp.roots_genlaguerre(nodes, t_expo)
    t_int = wq @ (sp.eval_genlaguerre(n - k, alpha_k, tq)
                  * sp.eval_genlaguerre(m - l, alpha_l, tq))
    nodes = (k + l) // 2 + 3
    yq, wyq = sp.roots_jacobi(nodes, mu - 0.5, mu - 0.5)
    y_int = wyq @ (sp.eval_gegenbauer(k, mu, yq) * sp.eval_gegenbauer(l, mu, yq))
    return float(t_int * y_int)


def cone_jacobi_inner_oracle(n, k, m, l, beta, mu, gamma):
    """<J_{k,n}, J_{l,m}> over the bounded cone at d = 1.

    The radial factor lives on 0 < t < 1 with weight t^A (1-t)^gamma;
    s = 1 - 2t maps it onto a standard Gauss-Jacobi rule.
    """
    k, l = int(k), int(l)
    alpha_k = 2 * k + 2 * mu + beta
    alpha_l = 2 * l + 2 * mu + beta
    A = k + l + 2 * mu + beta
    nodes = (n - k + m - l) // 2 + 3
    sq, wq = sp.roots_jacobi(nodes, A, gamma)
    t_int = (wq @ (sp.eval_jacobi(n - k, alpha_k, gamma, sq)
                   * sp.eval_jacobi(m - l, alpha_l, gamma, sq))
             ) * 2.0 ** (-A - gamma - 1.0)
    nodes = (k + l) // 2 + 3
    yq, wyq = sp.roots_jacobi(nodes, mu - 0.5, mu - 0.5)
    y_int = wyq @ (sp.eval_gegenbauer(k, mu, yq) * sp.eval_gegenbauer(l, mu, yq))
    return float(t_int * y_int)
