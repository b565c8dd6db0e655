import logging
import math

import numpy as np
import pytest
from scipy.special import ndtr

from jamgame import gaussian
from jamgame.quadrature import (
    AccuracyWarning,
    IntegrationError,
    PiecewiseIntegrand,
    integrate,
)

from conftest import expectation, support

log = logging.getLogger(__name__)


def trapezoid_oracle(g, lo, hi, n=2000):
    x = np.linspace(lo, hi, n + 1)
    return float(np.trapezoid(g(x), x))


def test_gauss_kronrod_polynomial_exactness():
    # the 15-point Kronrod rule integrates degree <= 22 exactly; this pins
    # the embedded node/weight constants
    rng = np.random.default_rng(0)
    coef = rng.normal(size=23)
    p = np.polynomial.Polynomial(coef)
    exact = p.integ()(1.0) - p.integ()(-1.0)
    got = integrate(PiecewiseIntegrand(p, (), (-1.0, 1.0)), tol=1e-13)
    assert got.value == pytest.approx(exact, abs=1e-12)


def test_integrate_density_normalization():
    d = gaussian(1.0)
    R, _ = support(d)
    r = integrate(PiecewiseIntegrand(d.pdf, (), (-R, R)))
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.error <= 1e-10


def test_integrate_min_quadratic_against_trapezoid_oracle():
    d = gaussian(1.0)

    def g(x):
        return np.minimum(x * x, 1.0) * d.pdf(x)

    oracle = trapezoid_oracle(g, -10.0, 10.0)
    r = integrate(PiecewiseIntegrand(g, (-1.0, 1.0), (-10.0, 10.0)))
    assert r.value == pytest.approx(oracle, abs=1e-3)
    assert r.value == pytest.approx(0.5160, abs=1e-3)


def test_integrate_odd_integrand_vanishes():
    d = gaussian(1.0)
    r = integrate(PiecewiseIntegrand(lambda x: x * d.pdf(x), (), (-10.0, 10.0)))
    assert abs(r.value) < 1e-10


def test_expectation_variance():
    assert expectation(gaussian(2.0), lambda x: x * x) == pytest.approx(2.0, abs=1e-8)


def test_expectation_indicator_tail():
    d = gaussian(1.0)
    v = expectation(d, lambda x: (np.abs(x) > 1.0).astype(float), kinks=(-1.0, 1.0))
    two_q = 2.0 * float(ndtr(-1.0))
    assert v == pytest.approx(two_q, abs=1e-4)
    assert v == pytest.approx(0.3173, abs=1e-4)


def test_expectation_hinge_against_trapezoid_oracle():
    d = gaussian(1.0)

    def g(x):
        return np.maximum(1.0 - x * x, 0.0)

    oracle = trapezoid_oracle(lambda x: g(x) * d.pdf(x), -1.0, 1.0, n=20000)
    assert expectation(d, g, kinks=(-1.0, 1.0)) == pytest.approx(oracle, abs=1e-6)


def test_kink_split_beats_unsplit_on_evaluations():
    d = gaussian(1.0)

    def g(x):
        return np.minimum(x * x, 1.0) * d.pdf(x)

    dom = (-10.0, 10.0)
    split = integrate(PiecewiseIntegrand(g, (-1.0, 1.0), dom), tol=1e-9)
    unsplit = integrate(PiecewiseIntegrand(g, (), dom), tol=1e-9)
    log.info(
        "kink handling: split neval=%d, unsplit neval=%d (value gap %.2e)",
        split.neval, unsplit.neval, abs(split.value - unsplit.value),
    )
    assert abs(split.value - unsplit.value) < 1e-6
    assert split.neval < unsplit.neval


def test_integrate_linearity():
    d = gaussian(1.0)
    dom = (-10.0, 10.0)

    def g1(x):
        return np.minimum(x * x, 1.0) * d.pdf(x)

    def g2(x):
        return np.abs(x) * d.pdf(x)

    a, b = 2.5, -0.75
    combo = integrate(PiecewiseIntegrand(lambda x: a * g1(x) + b * g2(x), (-1.0, 0.0, 1.0), dom))
    v1 = integrate(PiecewiseIntegrand(g1, (-1.0, 1.0), dom))
    v2 = integrate(PiecewiseIntegrand(g2, (0.0,), dom))
    assert combo.value == pytest.approx(a * v1.value + b * v2.value, abs=1e-9)


def test_duplicate_kinks_are_harmless():
    d = gaussian(1.0)

    def g(x):
        return np.minimum(x * x, 1.0) * d.pdf(x)

    dom = (-10.0, 10.0)
    base = integrate(PiecewiseIntegrand(g, (-1.0, 1.0), dom)).value
    dup = integrate(PiecewiseIntegrand(g, (-1.0, -1.0, 1.0, 1.0, 1.0), dom)).value
    assert abs(base - dup) <= 1e-12


def test_kinks_outside_domain_are_clipped():
    d = gaussian(1.0)
    r = integrate(PiecewiseIntegrand(d.pdf, (-50.0, 50.0), (-10.0, 10.0)))
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_nonfinite_integrand_raises_with_location():
    def g(x):
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(IntegrationError, match="x ="):
        integrate(PiecewiseIntegrand(g, (), (0.0, 1.0)))


def test_budget_exhaustion_warns():
    def wild(x):
        return np.sin(1000.0 * x) * np.sin(997.0 * x)

    with pytest.warns(AccuracyWarning):
        integrate(PiecewiseIntegrand(wild, (), (0.0, 20.0)), tol=1e-14, max_intervals=8)


def test_vector_integrand_components_match_scalar_runs():
    d = gaussian(1.5)

    def vec(x):
        return np.stack([x * x, np.minimum(x * x, 1.0), np.ones_like(x)], axis=1)

    v = expectation(d, vec, kinks=(-1.0, 1.0))
    assert v.shape == (3,)
    assert v[0] == pytest.approx(expectation(d, lambda x: x * x), abs=1e-10)
    assert v[1] == pytest.approx(
        expectation(d, lambda x: np.minimum(x * x, 1.0), kinks=(-1.0, 1.0)), abs=1e-10
    )
    assert v[2] == pytest.approx(1.0, abs=1e-10)


def test_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        integrate(PiecewiseIntegrand(np.cos, (), (0.0, 1.0)), tol=0.0)


def test_empty_domain_integrates_to_zero():
    r = integrate(PiecewiseIntegrand(np.cos, (), (1.0, 1.0)))
    assert r.value == 0.0 and r.neval == 0
