"""The closed-form partial-moment kernel against adaptive quadrature.

The reference below is the pointwise formulation of the reduced game: the
min (Jt) and max (G) of the transmit and silent branch costs and their
branch-selected parameter derivatives, integrated against the density by
the tests' quadrature oracle ``conftest.expectation``, which splits at
the finite ends of the silent interval and at the density's own
breakpoints. The kernel instead dots quadratic coefficients with
truncated moments. The hypothesis profile is derandomised, so every run
draws the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jamgame import (
    GameInstance,
    ReactivePoint,
    Tabulated,
    evaluate,
    gaussian,
    jam_marginal,
    laplace,
    objective,
    silent_interval,
    threshold_policy,
)
from jamgame.reactive import _second_order

from conftest import expectation, support

KERNEL_TOL = 1e-12
QUAD_TOL = 1e-13
HESSIAN_TOL = 1e-7


def _table(variance=1.7, shape=1.6, knots_per_side=24):
    """Tabulated exp(-|x/a|^shape), the kind of table the CLI loads."""
    a = math.sqrt(variance * math.gamma(1.0 / shape) / math.gamma(3.0 / shape))
    half = np.linspace(0.0, a * 40.0 ** (1.0 / shape), knots_per_side + 1)
    x = np.concatenate([-half[:0:-1], half])
    return Tabulated(x, np.exp(-((np.abs(x) / a) ** shape)))


TABLE = _table()
FAMILIES = {
    "gaussian": lambda s2: gaussian(s2),
    "laplace": lambda s2: laplace(sigma2=s2),
    "tabulated": lambda s2: TABLE,
}


def _reference(inst, p):
    """[Jt, dJt/dxhat0, dJt/dxhat1, dJt/dalpha, dJt/dbeta, G, dG/dxhat0,
    dG/dxhat1] by quadrature of the branch costs."""
    x0, x1 = p.xhat
    a, b = p.theta
    d = inst.d
    lo, hi = silent_interval(p.xhat, p.theta, inst.c, d)
    kinks = [e for e in (lo, hi) if math.isfinite(e)] if lo < hi else []

    def rows(x):
        trans = b * (x - x1) ** 2 + inst.c - d * b
        silent = a * (x - x1) ** 2 + (1.0 - a) * (x - x0) ** 2 - d * a
        tx = trans <= silent  # ties transmit
        sx = ~tx
        dev0, dev1 = x - x0, x - x1
        return np.stack([
            np.minimum(trans, silent),
            -2.0 * (1.0 - a) * dev0 * sx,
            np.where(tx, -2.0 * b * dev1, -2.0 * a * dev1),
            (dev1**2 - dev0**2 - d) * sx,
            (dev1**2 - d) * tx,
            np.maximum(trans, silent),
            -2.0 * (1.0 - a) * dev0 * tx,
            np.where(sx, -2.0 * b * dev1, -2.0 * a * dev1),
        ], axis=1)

    return expectation(inst.dist, rows, kinks=kinks, tol=QUAD_TOL)


def _kernel(inst, p):
    jt, g = evaluate(inst, *p.xhat, *p.theta)
    return np.array(jt + g[:3])


unit = st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=90, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    sigma2=st.floats(0.5, 5.0),
    c=st.floats(0.0, 2.0),
    d=st.floats(0.0, 2.0),
    u0=st.floats(-2.0, 2.0),
    u1=st.floats(-2.0, 2.0),
    alpha=unit,
    beta=unit,
)
# the edges where the CCP step pins a coordinate or the silent set degenerates
@example(family="gaussian", sigma2=2.0, c=1.0, d=1.0, u0=0.6, u1=-0.4, alpha=1.0, beta=0.3)
@example(family="laplace", sigma2=1.5, c=0.7, d=1.2, u0=0.3, u1=-0.8, alpha=0.0, beta=0.0)
@example(family="tabulated", sigma2=1.0, c=1.0, d=1.0, u0=0.8, u1=-0.2, alpha=0.6, beta=1.0)
@example(family="gaussian", sigma2=1.0, c=1.0, d=1.0, u0=0.0, u1=-0.5, alpha=0.0, beta=1.0)
@example(family="laplace", sigma2=3.0, c=2.0, d=1.0, u0=0.0, u1=0.0, alpha=0.0, beta=1.0)
def test_kernel_matches_quadrature(family, sigma2, c, d, u0, u1, alpha, beta):
    dist = FAMILIES[family](sigma2)
    inst = GameInstance(dist, c, d)
    p = ReactivePoint((u0 * dist.scale, u1 * dist.scale), (alpha, beta))
    err = np.max(np.abs(_kernel(inst, p) - _reference(inst, p)))
    assert err <= KERNEL_TOL, (family, p, err)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    sigma2=st.floats(0.5, 5.0),
    c=st.floats(0.0, 2.0),
    d=st.floats(0.0, 2.0),
    u0=st.floats(-2.0, 2.0),
    u1=st.floats(-2.0, 2.0),
    phi=unit,
    lo=st.floats(-3.0, 3.0) | st.just(-math.inf),
    width=st.floats(0.0, 4.0) | st.just(math.inf),
)
# a silent half-line, the whole line, and an empty silent set
@example(family="gaussian", sigma2=1.0, c=1.0, d=1.0, u0=0.3, u1=-0.2, phi=0.4,
         lo=0.5, width=math.inf)
@example(family="laplace", sigma2=2.0, c=0.5, d=1.0, u0=0.0, u1=0.0, phi=0.7,
         lo=-math.inf, width=math.inf)
@example(family="tabulated", sigma2=1.0, c=1.0, d=0.5, u0=-0.6, u1=0.9, phi=0.2,
         lo=0.1, width=0.0)
def test_frozen_rule_matches_quadrature(family, sigma2, c, d, u0, u1, phi, lo, width):
    # a rule frozen at any silent interval, not the sensor's best response:
    # the transmit cost A outside it and the silent cost B inside
    dist = FAMILIES[family](sigma2)
    inst = GameInstance(dist, c, d)
    x0, x1 = u0 * dist.scale, u1 * dist.scale
    silent = (lo * dist.scale, lo * dist.scale + width * dist.scale)
    assume(silent != threshold_policy(c, phi, x0))

    def cost(x):
        trans = phi * (x - x1) ** 2 + c - d * phi
        quiet = phi * (x - x1) ** 2 + (1.0 - phi) * (x - x0) ** 2 - d * phi
        return np.where((x > silent[0]) & (x < silent[1]), quiet, trans)

    kinks = [e for e in silent if math.isfinite(e)]
    got = objective(inst, phi, (x0, x1), silent=silent)
    assert got == pytest.approx(expectation(dist, cost, kinks=kinks, tol=QUAD_TOL),
                                abs=KERNEL_TOL)
    # the best response is the pointwise cheaper branch, so no frozen rule beats it
    assert got >= objective(inst, phi, (x0, x1)) - KERNEL_TOL


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_partial_moments_match_quadrature(family):
    dist = FAMILIES[family](2.0)
    edges = [-math.inf, -3.1, -0.4, 0.0, 0.25, 1.7, math.inf]
    for lo in edges:
        for hi in edges:
            got = np.asarray(dist.partial_moments(lo, hi))
            if not lo < hi:
                assert np.all(got == 0.0)
                continue
            R, _ = support(dist)
            inside = lambda x: ((x > lo) & (x < hi)).astype(float)
            ref = [expectation(dist, lambda x, k=k: inside(x) * x**k,
                               kinks=[e for e in (lo, hi) if abs(e) < R], tol=QUAD_TOL)
                   for k in range(3)]
            assert np.max(np.abs(got - ref)) <= KERNEL_TOL, (lo, hi)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_diagonal_identities(family):
    # theta = (phi, phi) is the non-sensing game: its objective against the
    # quadrature of the closed-form expression, and its jamming marginal
    # (tail second moments) against the sum of the reactive theta gradient
    inst = GameInstance(FAMILIES[family](2.0), 0.8, 1.1)
    s = inst.dist.scale
    for phi in (0.0, 0.3, 0.7887, 0.95):
        for xhat in ((0.0, 0.0), (0.4 * s, -0.7 * s), (-1.1 * s, 0.2 * s)):
            x0, x1 = xhat
            jt = evaluate(inst, x0, x1, phi, phi)[0][0]
            assert objective(inst, phi, xhat) == jt
            closed = expectation(
                inst.dist,
                lambda x: np.minimum((1.0 - phi) * (x - x0) ** 2, inst.c)
                + phi * ((x - x1) ** 2 - inst.d),
                kinks=[x0 - math.sqrt(inst.c / (1.0 - phi)), x0 + math.sqrt(inst.c / (1.0 - phi))],
                tol=QUAD_TOL,
            )
            assert jt == pytest.approx(closed, abs=KERNEL_TOL)
        q = evaluate(inst, 0.0, 0.0, phi, phi)[0][3:]
        assert q[0] + q[1] == pytest.approx(jam_marginal(inst, phi), abs=1e-14)


def _hessian_error(inst, z, h=1e-6):
    """Largest gap between ``_second_order``'s Hessian and central differences
    of ``evaluate``'s gradient rows, relative to the Hessian's largest entry
    (or 1). None where the silent interval S changes shape inside the
    stencil (S appears, or an end crosses the radius R), since the Hessian
    jumps there, or where an end moves by 1e-4 of S's width or of s, since
    the differences are then no finer than S. At beta = 1 the beta
    difference is one-sided (second order): past the box the silent cost is
    no longer convex in x."""
    jt, hess = _second_order(inst, *z)
    assert jt == evaluate(inst, *z)[0]
    s, R = inst.dist.scale, support(inst.dist)[0]
    steps = [h * s] * 2 + [h] * 2
    ks = [(0, -1, -2) if j == 3 and z[3] == 1.0 else (1, -1) for j in range(4)]

    def at(j, k):
        w = list(z)
        w[j] += k * steps[j]
        return w

    def ends(w):
        # S's ends inside R, where the density lives; None for an empty S
        lo, hi = silent_interval(w[:2], w[2:], inst.c, inst.d)
        return [e for e in (lo, hi) if abs(e) < R] if lo < hi else None

    center = ends(z)
    lo, hi = silent_interval(z[:2], z[2:], inst.c, inst.d)
    fine = 1e-4 * min(s, hi - lo)
    for j in range(4):
        for k in ks[j]:
            e = ends(at(j, k))
            if (e is None) != (center is None) or e is not None and (
                    len(e) != len(center) or any(abs(a - b) > fine for a, b in zip(e, center))):
                return None

    def grad(j, k):
        return np.array(evaluate(inst, *at(j, k))[0][1:])

    fd = np.empty((4, 4))
    for j in range(4):
        if ks[j] == (1, -1):
            fd[:, j] = (grad(j, 1) - grad(j, -1)) / (2.0 * steps[j])
        else:
            fd[:, j] = (3.0 * grad(j, 0) - 4.0 * grad(j, -1) + grad(j, -2)) / (2.0 * steps[j])
    return float(np.max(np.abs(np.array(hess) - fd)) / max(1.0, np.max(np.abs(hess))))


@settings(derandomize=True, max_examples=90, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    sigma2=st.floats(0.5, 5.0),
    c=st.floats(0.0, 2.0),
    d=st.floats(0.0, 2.0),
    u0=st.floats(-2.0, 2.0),
    u1=st.floats(-2.0, 2.0),
    alpha=unit,
    beta=unit,
)
def test_hessian_matches_central_differences(family, sigma2, c, d, u0, u1, alpha, beta):
    dist = FAMILIES[family](sigma2)
    err = _hessian_error(GameInstance(dist, c, d), (u0 * dist.scale, u1 * dist.scale, alpha, beta))
    assume(err is not None)
    assert err <= HESSIAN_TOL, (family, u0, u1, alpha, beta)


# (family, c, d, xhat / scale, theta, what S is there, given its ends and R)
HESSIAN_EDGES = {
    "alpha-one": ("gaussian", 1.0, 1.0, (0.6, -0.4), (1.0, 0.3), lambda lo, hi, R: lo < hi),
    "theta-zero": ("laplace", 0.7, 1.2, (0.3, -0.8), (0.0, 0.0), lambda lo, hi, R: lo < hi),
    "half-line": ("gaussian", 1.0, 1.0, (0.8, -0.2), (0.6, 1.0),
                  lambda lo, hi, R: abs(lo) < R and hi == math.inf),
    "table-half-line": ("tabulated", 1.0, 1.0, (0.8, -0.2), (0.6, 1.0),
                        lambda lo, hi, R: abs(lo) < R and hi == math.inf),
    "empty": ("laplace", 0.5, 2.0, (0.3, -0.2), (0.2, 0.8), lambda lo, hi, R: not lo < hi),
    "table-end-past-R": ("tabulated", 2.0, 1.0, (0.5, -0.5), (0.3, 0.999),
                         lambda lo, hi, R: abs(lo) < R < hi < math.inf),
}


@pytest.mark.parametrize("edge", sorted(HESSIAN_EDGES))
def test_hessian_at_the_edges(edge):
    family, c, d, (u0, u1), theta, holds = HESSIAN_EDGES[edge]
    dist = FAMILIES[family](2.0)
    z = (u0 * dist.scale, u1 * dist.scale, *theta)
    assert holds(*silent_interval(z[:2], z[2:], c, d), support(dist)[0])
    err = _hessian_error(GameInstance(dist, c, d), z)
    assert err is not None and err <= HESSIAN_TOL
