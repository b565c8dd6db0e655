"""Quadrature-free check of the equilibrium reference ``FNE_TABLE``.

The helper below evaluates the gradient of the reduced objective Jt for the
Gaussian game from closed-form truncated-normal moments. It uses numpy and
``scipy.stats.norm`` only and finds the silent set itself, from the sign of
the silent cost minus the transmit cost, so the reference rows are checked
without the package's quadrature engine or reactive module. The package
enters only in the last two tests: its certificate must accept every row, and
its gradients must match the helper's.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from jamgame import GameInstance, ReactivePoint, certify_fne, evaluate, gaussian

from conftest import FNE_TABLE, TABLE1

C = D = 1.0
ROUNDING_TOL = 1e-5  # residual scale of 6-decimal coordinates


def _square(h):
    """Coefficients of (x - h)^2 in the powers (1, x, x^2)."""
    return np.array([h * h, -2.0 * h, 1.0])


def _silent_intervals(diff):
    """Intervals where the quadratic ``diff`` (powers 1, x, x^2) is negative."""
    roots = np.roots(diff[::-1])
    cuts = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12)
    edges = [-math.inf, *cuts, math.inf]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(lo) and math.isinf(hi):
            probe = 0.0
        elif math.isinf(lo):
            probe = hi - 1.0
        elif math.isinf(hi):
            probe = lo + 1.0
        else:
            probe = 0.5 * (lo + hi)
        if diff @ [1.0, probe, probe * probe] < 0.0:
            out.append((lo, hi))
    return out


def _truncated_moments(lo, hi, sigma):
    """(E[1; A], E[X; A], E[X^2; A]) for X ~ N(0, sigma^2), A = (lo, hi)."""
    a, b = lo / sigma, hi / sigma
    z_pdf = lambda z: 0.0 if math.isinf(z) else z * norm.pdf(z)
    m0 = norm.cdf(b) - norm.cdf(a)
    m1 = sigma * (norm.pdf(a) - norm.pdf(b))
    m2 = sigma * sigma * (m0 + z_pdf(a) - z_pdf(b))
    return np.array([m0, m1, m2])


def oracle_gradient(sigma2, alpha, beta, xhat0, xhat1, c=C, d=D):
    """(dJt/dxhat0, dJt/dxhat1, dJt/dalpha, dJt/dbeta) for the Gaussian game.

    Each branch cost is a quadratic in x; the branch the sensor picks is the
    cheaper one, and the switch points contribute nothing (both costs agree
    there), so every partial derivative is a branch derivative integrated
    over that branch's set.
    """
    sq0, sq1 = _square(xhat0), _square(xhat1)
    const = np.array([1.0, 0.0, 0.0])
    transmit = beta * sq1 + (c - d * beta) * const
    silent = alpha * sq1 + (1.0 - alpha) * sq0 - d * alpha * const
    sigma = math.sqrt(sigma2)
    m_silent = sum((_truncated_moments(lo, hi, sigma)
                    for lo, hi in _silent_intervals(silent - transmit)), np.zeros(3))
    m_transmit = np.array([1.0, 0.0, sigma2]) - m_silent
    dev0 = np.array([-xhat0, 1.0, 0.0])
    dev1 = np.array([-xhat1, 1.0, 0.0])
    return np.array([
        -2.0 * (1.0 - alpha) * dev0 @ m_silent,
        -2.0 * beta * dev1 @ m_transmit - 2.0 * alpha * dev1 @ m_silent,
        (sq1 - sq0 - d * const) @ m_silent,
        (sq1 - d * const) @ m_transmit,
    ])


def kkt_residuals(sigma2, row):
    """Residuals of the four first-order conditions of an FNE at ``row``.

    xhat minimizes (gradient zero); each blocking probability maximizes over
    [0, 1] (gradient zero inside, nonnegative at 1, nonpositive at 0).
    """
    alpha, beta, xhat0, xhat1 = row
    g = oracle_gradient(sigma2, alpha, beta, xhat0, xhat1)
    theta_res = []
    for t, q in ((alpha, g[2]), (beta, g[3])):
        if t >= 1.0:
            theta_res.append(max(-q, 0.0))
        elif t <= 0.0:
            theta_res.append(max(q, 0.0))
        else:
            theta_res.append(abs(q))
    return np.array([abs(g[0]), abs(g[1]), *theta_res]), g


@pytest.mark.parametrize("sigma2", sorted(FNE_TABLE))
def test_reference_row_satisfies_first_order_conditions(sigma2):
    residuals, _ = kkt_residuals(sigma2, FNE_TABLE[sigma2])
    assert np.max(residuals) <= ROUNDING_TOL, residuals


@pytest.mark.parametrize("sigma2", [2.0, 3.0, 4.0, 5.0])
def test_always_block_rows_have_box_signs_and_unit_gap(sigma2):
    alpha, beta, xhat0, xhat1 = FNE_TABLE[sigma2]
    _, g = kkt_residuals(sigma2, FNE_TABLE[sigma2])
    assert beta == 1.0 and 0.0 < alpha < 1.0
    assert g[3] > 0.1  # blocking a busy channel strictly pays: beta = 1 is the KKT point
    assert abs((xhat0 - xhat1) ** 2 - D) <= ROUNDING_TOL


def test_sigma1_reference_row_matches_benchmark_record():
    assert np.max(np.abs(np.array(FNE_TABLE[1.0]) - np.array(TABLE1[1.0]))) < 1e-4


@pytest.mark.parametrize("sigma2", [2.0, 3.0, 4.0, 5.0])
def test_oracle_rejects_benchmark_rows_above_sigma1(sigma2):
    # The same check, applied to the benchmark record, finds the O(1)
    # theta-side residual that keeps those rows from being equilibria.
    residuals, _ = kkt_residuals(sigma2, TABLE1[sigma2])
    assert np.max(residuals[:2]) < 2e-4
    assert np.max(residuals[2:]) > 0.5


@pytest.mark.parametrize("sigma2", sorted(FNE_TABLE))
def test_reference_row_certifies(sigma2):
    alpha, beta, xhat0, xhat1 = FNE_TABLE[sigma2]
    inst = GameInstance(gaussian(sigma2), C, D)
    assert certify_fne(inst, ReactivePoint((xhat0, xhat1), (alpha, beta)), 1e-5).certified


def test_oracle_matches_package_gradients():
    rng = np.random.default_rng(5)
    for k in range(20):
        sigma2 = (1.0, 3.0)[k % 2]
        xhat = tuple(rng.uniform(-1.5, 1.5, 2))
        theta = (float(rng.uniform(0.05, 0.95)), 1.0 if k % 4 < 2 else float(rng.uniform(0.05, 0.95)))
        inst = GameInstance(gaussian(sigma2), C, D)
        p = ReactivePoint(xhat, theta)
        package = np.array(evaluate(inst, *p.xhat, *p.theta)[0][1:])
        oracle = oracle_gradient(sigma2, *theta, *xhat)
        assert np.max(np.abs(package - oracle)) < 1e-8, (sigma2, p, package, oracle)
