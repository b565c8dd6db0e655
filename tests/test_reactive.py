import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jamgame.reactive as reactive
from jamgame.cli import main
from jamgame import (
    GameInstance,
    PolicyBundle,
    ReactivePoint,
    SolverOptions,
    Tabulated,
    Termination,
    certify_fne,
    gaussian,
    jam_marginal,
    laplace,
    objective,
    silent_interval,
    solve_gda,
    solve_pga_ccp,
)
from jamgame.reactive import (
    POLISH_EVERY,
    SolverTrace,
    TraceRow,
    _ascend,
    _ccp_xhat,
    _residuals,
    default_init,
)

from conftest import TABLE1, exp_power_table, expectation, f_quadratic, g_row, jt_row


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2 * h)
    return out


def random_interior_points(rng, n, scale=1.0):
    for _ in range(n):
        xhat = tuple(rng.uniform(-1.5 * scale, 1.5 * scale, 2))
        theta = tuple(rng.uniform(0.05, 0.95, 2))
        yield ReactivePoint(xhat, theta)


def d_coefficients(xhat, theta, c, d):
    """(a2, a1, a0) of D(x) = silent cost - transmit cost = a2 x^2 + a1 x + a0."""
    (x0, x1), (a, b) = xhat, theta
    return (
        1.0 - b,
        -2.0 * ((a - b) * x1 + (1.0 - a) * x0),
        (a - b) * x1 * x1 + (1.0 - a) * x0 * x0 - c + d * (b - a),
    )


class TestSilentInterval:
    def test_diagonal_theta_reduces_to_symmetric_thresholds(self):
        phi = 0.36
        lo, hi = silent_interval((0.0, 0.0), (phi, phi), c=1.0, d=1.0)
        tau = math.sqrt(1.0 / (1.0 - phi))
        assert lo == pytest.approx(-tau, abs=1e-12)
        assert hi == pytest.approx(tau, abs=1e-12)

    def test_reference_point_is_asymmetric_and_matches_root_oracle(self):
        a, b, x0, x1 = TABLE1[1.0]
        lo, hi = silent_interval((x0, x1), (a, b), c=1.0, d=1.0)
        assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
        oracle = np.sort(np.roots(d_coefficients((x0, x1), (a, b), 1.0, 1.0)).real)
        assert lo == pytest.approx(oracle[0], abs=1e-10)
        assert hi == pytest.approx(oracle[1], abs=1e-10)
        assert abs(lo + hi) > 0.1  # not mirror-symmetric

    def test_transmit_indicator_matches_roots(self):
        lo, hi = silent_interval((0.4, -0.2), (0.1, 0.3), c=1.0, d=1.0)
        xs = np.array([lo - 1.0, 0.5 * (lo + hi), hi + 1.0])
        bundle = PolicyBundle(lo, hi, 0.1, 0.3, (0.4, -0.2), "Reactive")
        assert list(bundle.transmit(xs)) == [True, False, True]

    def test_beta_one_constant_cases(self):
        # alpha=0, beta=1, xhat=(0,0): the comparison degenerates to the
        # constant d - c
        assert silent_interval((0.0, 0.0), (0.0, 1.0), c=1.0, d=1.0) == (0.0, 0.0)
        assert silent_interval((0.0, 0.0), (0.0, 1.0), c=2.0, d=1.0) == (-math.inf, math.inf)

    def test_beta_one_half_line(self):
        interval = silent_interval((0.0, -0.5), (0.0, 1.0), c=1.0, d=1.0)
        # linear coefficient a1 = -2[(0-1)(-0.5)] = -1: transmit left of the
        # root -a0/a1 = -0.25, silent right of it
        assert d_coefficients((0.0, -0.5), (0.0, 1.0), 1.0, 1.0)[1] == pytest.approx(-1.0)
        assert interval == (-0.25, math.inf)
        rule = PolicyBundle(*interval, 0.0, 1.0, (0.0, -0.5), "Reactive")
        root = interval[0]
        assert rule.transmit(root - 1.0) and not rule.transmit(root + 1.0)

    def test_always_transmit_when_free(self):
        assert silent_interval((0.0, 0.0), (0.0, 0.0), c=0.0, d=1.0) == (0.0, 0.0)

    def test_silent_interval_shapes(self):
        lo, hi = silent_interval((0.5169, -0.4831), (0.0760, 0.3172), 1.0, 1.0)
        assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
        assert silent_interval((0.0, 0.0), (0.0, 1.0), 1.0, 1.0) == (0.0, 0.0)
        lo, hi = silent_interval((0.0, 0.0), (0.0, 1.0), 2.0, 1.0)
        assert math.isinf(lo) and math.isinf(hi)


def classified_silent_interval(xhat, theta, c, d):
    """The silent interval as the shape classification of D computed it:
    roots of the stable quadratic formula sorted by ``sorted``, a half-line,
    or an empty silent or transmit set."""
    a2, a1, a0 = d_coefficients(xhat, theta, c, d)
    if a2 > 0.0:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc > 0.0:
            q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1 if a1 != 0 else 1.0))
            r1, r2 = q / a2, (a0 / q if q != 0.0 else -a1 / a2)
            lo, hi = sorted((r1, r2))
            return (lo, hi)
        return (0.0, 0.0)
    if a1 != 0.0:
        r = -a0 / a1
        return (-math.inf, r) if a1 > 0 else (r, math.inf)
    return (0.0, 0.0) if a0 >= 0.0 else (-math.inf, math.inf)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    x0=st.floats(-3.0, 3.0),
    x1=st.floats(-3.0, 3.0),
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 1.0),
    c=st.floats(0.0, 3.0),
    d=st.floats(0.0, 3.0),
)
# beta = 1 with a1 = 0 and a0 of either sign
@example(x0=0.0, x1=0.0, alpha=0.0, beta=1.0, c=1.0, d=1.0)
@example(x0=0.0, x1=0.0, alpha=0.0, beta=1.0, c=2.0, d=1.0)
@example(x0=-0.0, x1=0.0, alpha=1.0, beta=1.0, c=0.0, d=0.0)
# beta = 1 half-lines of either slope
@example(x0=0.0, x1=-0.5, alpha=0.0, beta=1.0, c=1.0, d=1.0)
@example(x0=0.0, x1=0.5, alpha=0.0, beta=1.0, c=1.0, d=1.0)
@example(x0=0.7, x1=-0.2, alpha=0.3, beta=1.0, c=0.4, d=1.5)
# a discriminant of exactly 0: (1 - phi)(x - xhat0)^2 - c with c = 0
@example(x0=0.0, x1=0.0, alpha=0.5, beta=0.5, c=0.0, d=1.0)
@example(x0=1.0, x1=0.0, alpha=0.5, beta=0.5, c=0.0, d=1.0)
# a1 = 0 with a positive discriminant
@example(x0=0.0, x1=0.0, alpha=0.2, beta=0.6, c=1.0, d=0.5)
@example(x0=0.5, x1=-1.0, alpha=0.5, beta=0.25, c=1.0, d=1.0)
# the diagonal alpha = beta
@example(x0=0.4, x1=-0.9, alpha=0.36, beta=0.36, c=1.0, d=1.0)
@example(x0=-1.2, x1=0.3, alpha=0.0, beta=0.0, c=0.7, d=2.0)
def test_silent_interval_matches_classification_bit_for_bit(x0, x1, alpha, beta, c, d):
    args = ((x0, x1), (alpha, beta), c, d)
    assert repr(silent_interval(*args)) == repr(classified_silent_interval(*args))


class TestObjective:
    @pytest.mark.parametrize("phi", [0.0, 0.25, 0.5, 0.7887])
    @pytest.mark.parametrize("xhat", [(0.0, 0.0), (0.7, -0.4), (-1.2, 0.3)])
    def test_diagonal_matches_nonsensing(self, g2, phi, xhat):
        p = ReactivePoint(xhat, (phi, phi))
        assert jt_row(g2, p)[0] == pytest.approx(objective(g2, phi, xhat), abs=1e-8)

    def test_never_jam_reduces_to_min_expectation(self, g1):
        p = ReactivePoint((0.0, 0.0), (0.0, 0.0))
        assert jt_row(g1, p)[0] == pytest.approx(0.5160, abs=1e-3)

    def test_mirror_symmetry(self, g1):
        a, b, x0, x1 = TABLE1[1.0]
        p = ReactivePoint((x0, x1), (a, b))
        assert jt_row(g1, p)[0] == pytest.approx(
            jt_row(g1, p.mirrored())[0], abs=1e-10
        )

    def test_concave_in_theta_midpoint(self, g1):
        rng = np.random.default_rng(7)
        for _ in range(12):
            xhat = tuple(rng.uniform(-1.5, 1.5, 2))
            t1 = rng.uniform(0, 1, 2)
            t2 = rng.uniform(0, 1, 2)
            mid = tuple(0.5 * (t1 + t2))
            j_mid = jt_row(g1, ReactivePoint(xhat, mid))[0]
            j_avg = 0.5 * (
                jt_row(g1, ReactivePoint(xhat, tuple(t1)))[0]
                + jt_row(g1, ReactivePoint(xhat, tuple(t2)))[0]
            )
            assert j_mid >= j_avg - 1e-8


class TestGradients:
    def test_symmetric_point_has_zero_xhat_gradient(self, g1):
        for theta in [(0.2, 0.6), (0.5, 0.5), (0.0, 0.3)]:
            g = jt_row(g1, ReactivePoint((0.0, 0.0), theta))[1:3]
            assert np.max(np.abs(g)) < 1e-12

    def test_grad_theta_closed_form_at_origin(self, g1):
        # alpha-component: -d P(|X| < 1); beta-component: M(1) - d P(|X| >= 1)
        p = ReactivePoint((0.0, 0.0), (0.0, 0.0))
        q = jt_row(g1, p)[3:]
        p_in = expectation(g1.dist, lambda x: (np.abs(x) < 1.0).astype(float), kinks=(-1.0, 1.0))
        expected = (-p_in, g1.dist.tail_second_moment(1.0) - (1.0 - p_in))
        assert q[0] == pytest.approx(expected[0], abs=1e-8)
        assert q[1] == pytest.approx(expected[1], abs=1e-8)
        assert q[0] == pytest.approx(-0.6827, abs=1e-3)
        assert q[1] == pytest.approx(0.4840, abs=1e-3)

    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.7887])
    def test_grad_theta_diagonal_sums_to_jam_marginal(self, g2, phi):
        q = jt_row(g2, ReactivePoint((0.0, 0.0), (phi, phi)))[3:]
        assert q[0] + q[1] == pytest.approx(jam_marginal(g2, phi), abs=1e-8)

    def test_reference_point_near_xhat_stationarity(self, g1):
        # the benchmark sigma2=1 point is quoted to 4 decimals; the gradient
        # norm at the rounded coordinates sits at rounding scale (~5e-5),
        # not at the solver's 1e-5 certification level
        a, b, x0, x1 = TABLE1[1.0]
        g = jt_row(g1, ReactivePoint((x0, x1), (a, b)))[1:3]
        assert np.linalg.norm(g) < 1e-4

    def test_finite_difference_match(self, g1):
        rng = np.random.default_rng(3)
        for p in random_interior_points(rng, 5):
            gx = jt_row(g1, p)[1:3]
            fd = fd_gradient(
                lambda v: jt_row(g1, ReactivePoint(tuple(v), p.theta))[0], p.xhat
            )
            assert np.max(np.abs(gx - fd)) < 1e-6

            q = jt_row(g1, p)[3:]
            fd = fd_gradient(
                lambda v: jt_row(g1, ReactivePoint(p.xhat, tuple(v)))[0], p.theta
            )
            assert np.max(np.abs(q - fd)) < 1e-6

    def test_specific_random_point_matches_fd(self, g1):
        p = ReactivePoint((0.3, -0.2), (0.1, 0.4))
        fd = fd_gradient(lambda v: jt_row(g1, ReactivePoint(tuple(v), p.theta))[0], p.xhat)
        assert np.max(np.abs(jt_row(g1, p)[1:3] - fd)) < 1e-6


class TestLaplaceInstance:
    def test_gradients_and_identity_with_density_kink(self, lap1):
        # the Laplace density has its own breakpoint at 0, merged into the
        # quadrature splits alongside the transmit-region roots
        p = ReactivePoint((0.45, -0.3), (0.15, 0.35))
        fd = fd_gradient(lambda v: jt_row(lap1, ReactivePoint(tuple(v), p.theta))[0],
                         p.xhat)
        assert np.max(np.abs(jt_row(lap1, p)[1:3] - fd)) < 1e-6
        fq = fd_gradient(lambda v: jt_row(lap1, ReactivePoint(p.xhat, tuple(v)))[0],
                         p.theta)
        assert np.max(np.abs(jt_row(lap1, p)[3:] - fq)) < 1e-6
        f_val, g_val = f_quadratic(lap1, p), g_row(lap1, p)[0]
        assert f_val - g_val == pytest.approx(jt_row(lap1, p)[0], abs=1e-8)

    def test_diagonal_identity(self, lap1):
        for phi in (0.0, 0.4):
            p = ReactivePoint((0.2, -0.1), (phi, phi))
            assert jt_row(lap1, p)[0] == pytest.approx(
                objective(lap1, phi, p.xhat), abs=1e-8
            )


class TestDcDecomposition:
    def test_parts_at_origin(self, g1):
        p = ReactivePoint((0.0, 0.0), (0.0, 0.0))
        f_val, g_val = jt_row(g1, p)[0] + g_row(g1, p)[0], g_row(g1, p)[0]
        assert f_val == pytest.approx(g1.dist.variance + g1.c, abs=1e-12)
        oracle = expectation(g1.dist, lambda x: np.maximum(x * x, 1.0), kinks=(-1.0, 1.0))
        assert g_val == pytest.approx(oracle, abs=1e-9)

    def test_identity_at_reference_point(self, g2):
        a, b, x0, x1 = TABLE1[2.0]
        p = ReactivePoint((x0, x1), (a, b))
        f_val, g_val = f_quadratic(g2, p), g_row(g2, p)[0]
        assert f_val - g_val == pytest.approx(jt_row(g2, p)[0], abs=1e-8)

    def test_full_jam_closed_form(self, g2):
        p = ReactivePoint((0.0, 0.0), (1.0, 1.0))
        f_val = jt_row(g2, p)[0] + g_row(g2, p)[0]
        assert f_val == pytest.approx(2.0 * g2.dist.variance + g2.c - 2.0 * g2.d, abs=1e-12)

    def test_identity_at_random_points(self, g1):
        rng = np.random.default_rng(11)
        for p in random_interior_points(rng, 8):
            f_val, g_val = f_quadratic(g1, p), g_row(g1, p)[0]
            assert f_val - g_val == pytest.approx(jt_row(g1, p)[0], abs=1e-8)

    def test_g_is_convex_in_xhat_midpoint(self, g1):
        rng = np.random.default_rng(13)
        for _ in range(12):
            theta = tuple(rng.uniform(0, 1, 2))
            u = rng.uniform(-1.5, 1.5, 2)
            v = rng.uniform(-1.5, 1.5, 2)
            mid = tuple(0.5 * (u + v))
            g_mid = g_row(g1, ReactivePoint(mid, theta))[0]
            g_avg = 0.5 * (
                g_row(g1, ReactivePoint(tuple(u), theta))[0]
                + g_row(g1, ReactivePoint(tuple(v), theta))[0]
            )
            assert g_mid <= g_avg + 1e-8


class TestGradG:
    def test_zero_at_symmetric_point(self, g1):
        g = g_row(g1, ReactivePoint((0.0, 0.0), (0.3, 0.6)))[1:3]
        assert np.max(np.abs(g)) < 1e-12

    def test_gradient_difference_recovers_grad_xhat(self, g1):
        rng = np.random.default_rng(17)
        for p in random_interior_points(rng, 6):
            a, b = p.theta
            grad_f = np.array([2 * (1 - a) * p.xhat[0], 2 * (a + b) * p.xhat[1]])
            assert np.max(np.abs(grad_f - g_row(g1, p)[1:3] - jt_row(g1, p)[1:3])) < 1e-8

    def test_finite_difference_match(self, g1):
        rng = np.random.default_rng(19)
        for p in random_interior_points(rng, 5):
            fd = fd_gradient(
                lambda v: g_row(g1, ReactivePoint(tuple(v), p.theta))[0], p.xhat
            )
            assert np.max(np.abs(g_row(g1, p)[1:3] - fd)) < 1e-6


def ascend(theta, grad, step):
    """The solver's projected ascent step on both coordinates of theta."""
    return [_ascend(t, q, step) for t, q in zip(theta, grad)]


def ccp_update(inst, xhat, theta):
    """The solver's CCP update of xhat at (xhat, theta)."""
    return _ccp_xhat(g_row(inst, ReactivePoint(xhat, theta)), *theta)


class TestSteps:
    def test_pga_clamps_upper(self):
        assert ascend((0.9, 0.5), (2.0, 0.0), 0.1) == [1.0, 0.5]

    def test_pga_fixed_point(self):
        assert ascend((0.5, 0.5), (0.0, 0.0), 0.1) == [0.5, 0.5]

    def test_pga_clamps_lower(self):
        out = ascend((0.05, 0.2), (-1.0, 1.0), 0.1)
        assert out[0] == 0.0 and out[1] == pytest.approx(0.3)

    def test_ccp_zero_theta_pins_xhat1(self, g1):
        out = ccp_update(g1, (0.7, -0.4), (0.0, 0.0))
        assert out[1] == 0.0

    def test_ccp_alpha_one_pins_xhat0(self, g1):
        out = ccp_update(g1, (0.7, -0.4), (1.0, 0.5))
        assert out[0] == 0.0

    def test_ccp_descends(self, g1):
        a, b, _, _ = TABLE1[1.0]
        s = g1.dist.scale
        xhat = (s, -s)
        new = ccp_update(g1, xhat, (a, b))
        before = jt_row(g1, ReactivePoint(xhat, (a, b)))[0]
        after = jt_row(g1, ReactivePoint(tuple(new), (a, b)))[0]
        assert after <= before + 1e-9
        assert after < before - 1e-4  # strict progress from this far start


class TestCertification:
    def test_lp_gap_matches_vertex_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            q = rng.normal(size=2)
            theta = rng.uniform(0, 1, 2)
            gap = _residuals([0.0, 0.0, 0.0, *q], *theta, 1.0)[1]
            vertices = [(i, j) for i in (0.0, 1.0) for j in (0.0, 1.0)]
            best = max(q[0] * (v0 - theta[0]) + q[1] * (v1 - theta[1]) for v0, v1 in vertices)
            assert gap == pytest.approx(best, abs=1e-12)
            assert gap >= -1e-15

    def test_zero_gradients_certify(self):
        assert _residuals([0.0] * 5, 0.4, 0.6, 1e-5) == (0.0, 0.0, True)

    def test_solver_point_certifies(self, g1, pga_g1):
        point, _, cert = pga_g1
        assert cert.certified
        recheck = certify_fne(g1, point, 1e-5)
        assert recheck.certified
        assert recheck.grad_norm <= 1e-5 and recheck.lp_gap <= 1e-5

    def test_reference_row_sigma1_certifies_at_rounding_scale(self, g1):
        a, b, x0, x1 = TABLE1[1.0]
        cert = certify_fne(g1, ReactivePoint((x0, x1), (a, b)), 2e-4)
        assert cert.certified

    @pytest.mark.parametrize("sigma2", [2.0, 3.0, 4.0, 5.0])
    def test_reference_rows_above_sigma1_are_not_stationary(self, sigma2):
        # TABLE1 is the verbatim benchmark record, not the equilibrium
        # reference. Its sigma2 >= 2 rows satisfy the xhat-side stationarity
        # (gradient at 4-decimal rounding scale) but carry an O(1) theta-side
        # ascent gap, so they are not first-order equilibria of the c = d = 1
        # game the solvers target. The equilibria of that game are FNE_TABLE,
        # solved from closed-form truncated-normal moments without this
        # package and checked in test_fne_reference.py.
        inst = GameInstance(gaussian(sigma2), 1.0, 1.0)
        a, b, x0, x1 = TABLE1[sigma2]
        cert = certify_fne(inst, ReactivePoint((x0, x1), (a, b)), 1e-5)
        assert cert.grad_norm < 2e-4
        assert cert.lp_gap > 0.5
        assert not cert.certified

    def test_perturbed_point_fails(self, g1, pga_g1):
        point, _, _ = pga_g1
        moved = ReactivePoint((point.xhat[0] + 0.1, point.xhat[1]), point.theta)
        cert = certify_fne(g1, moved, 1e-5)
        assert not cert.certified
        assert cert.grad_norm > 1e-5

    def test_mirror_certification(self, g1, pga_g1):
        point, _, _ = pga_g1
        cert = certify_fne(g1, point.mirrored(), 1e-5)
        assert cert.certified


class TestPgaCcp:
    def test_converges_to_reference_row(self, pga_g1):
        point, trace, cert = pga_g1
        assert cert.certified
        assert trace.terminated_by is Termination.EPSILON_FNE
        a, b, x0, x1 = TABLE1[1.0]
        got = (point.theta[0], point.theta[1], point.xhat[0], point.xhat[1])
        assert np.max(np.abs(np.array(got) - np.array((a, b, x0, x1)))) < 2e-2

    def test_sigma2_five_boundary_beta(self):
        # From the default init the large-variance instances settle on
        # always-blocking transmissions (beta = 1, boundary FNE). At such a
        # point with interior alpha, stationarity forces
        # (xhat0 - xhat1)^2 = d, which the solution satisfies to epsilon scale.
        inst = GameInstance(gaussian(5.0), 1.0, 1.0)
        point, trace, cert = solve_pga_ccp(inst)
        assert cert.certified
        assert point.theta[1] == 1.0
        assert 0.0 < point.theta[0] < 1.0
        assert (point.xhat[0] - point.xhat[1]) ** 2 == pytest.approx(inst.d, abs=1e-3)

    def test_symmetric_init_is_a_stationary_trap_pointwise(self, g1):
        # at xhat = (0, 0) every xhat gradient vanishes and the CCP step
        # returns (0, 0) up to rounding, for any theta
        for theta in [(0.5, 0.5), (0.2, 0.8)]:
            assert np.max(np.abs(jt_row(g1, ReactivePoint((0.0, 0.0), theta))[1:3])) < 1e-12
            assert np.max(np.abs(ccp_update(g1, (0.0, 0.0), theta))) < 1e-10

    def test_symmetric_init_run_still_certifies(self, g1):
        # in floating point the symmetric manifold is unstable: rounding in
        # the closed-form kernel (the two roots of the silent interval are
        # not exact mirrors, ~1e-16) seeds an escape and the run certifies
        point, trace, cert = solve_pga_ccp(g1, ReactivePoint((0.0, 0.0), (0.5, 0.5)))
        assert cert.certified
        early = trace.rows[: 5]
        assert all(abs(r.xhat0) < 1e-12 and abs(r.xhat1) < 1e-12 for r in early)

    def test_trace_ccp_descent_every_iteration(self, pga_g1):
        _, trace, _ = pga_g1
        assert all(r.ccp_descent <= 1e-9 for r in trace.rows[1:])

    def test_trace_values_finite_and_contiguous(self, pga_g1):
        _, trace, _ = pga_g1
        ks = [r.k for r in trace.rows]
        assert ks == list(range(len(ks)))
        for r in trace.rows:
            for fname in ("xhat0", "xhat1", "alpha", "beta", "objective",
                          "grad_xhat_norm", "lp_gap"):
                assert math.isfinite(getattr(r, fname))

    def test_canonical_representative_has_positive_xhat0(self, g1):
        init = ReactivePoint((-1.0, 1.0), (0.5, 0.5))
        point, _, cert = solve_pga_ccp(g1, init)
        assert cert.certified
        assert point.xhat[0] > 0

    def test_max_iters_budget_reported(self, g1):
        point, trace, cert = solve_pga_ccp(
            g1, opts=SolverOptions(max_iters=3, record_trace=False)
        )
        assert trace.terminated_by is Termination.MAX_ITERS
        assert not cert.certified

    def test_iterations_counted_without_trace(self, g1):
        # the count comes from the solver, not from the recorded rows: a
        # recorded trace holds row 0 plus one row per iteration
        for solve in (solve_pga_ccp, solve_gda):
            _, full, _ = solve(g1, opts=SolverOptions(max_iters=60))
            _, bare, _ = solve(g1, opts=SolverOptions(max_iters=60, record_trace=False))
            assert full.iterations > 0
            assert bare.iterations == full.iterations
            assert bare.rows == []
            assert len(full.rows) == full.iterations + 1

    @pytest.mark.parametrize("make_dist,sigma2,c,d", [
        (gaussian, 3.6097, 0.371189, 1.89533),
        (gaussian, 4.48127, 0.183528, 1.47286),
        (gaussian, 1.16887, 0.304005, 1.1201),
        (lambda v: laplace(sigma2=v), 1.39782, 1.30493, 0.366801),
    ], ids=["gaussian-3.61", "gaussian-4.48", "gaussian-1.17", "laplace-1.40"])
    def test_newton_jump_certifies_slow_instances(self, make_dist, sigma2, c, d):
        # without the jump these stop uncertified at 500 iterations (theta
        # 2-cycles or creeps toward a bound); the jump lands on a certified
        # point of the face and the next ordinary iteration certifies it
        inst = GameInstance(make_dist(sigma2), c, d)
        point, trace, cert = solve_pga_ccp(inst, opts=SolverOptions(max_iters=500))
        assert cert.certified and trace.terminated_by is Termination.EPSILON_FNE
        assert trace.polished_at is not None
        assert trace.iterations == trace.polished_at + 1
        assert all(r.ccp_descent <= 1e-9 for r in trace.rows[1:])
        assert certify_fne(inst, point, 1e-5).certified

    def test_far_tail_silent_interval_does_not_certify(self):
        # theta = (0, 0), xhat = (8.50, -0.53) passed the certificate only
        # because its silent interval lies 9 sigma out, where the density
        # underflows, and was valued at c; the stationary point is the
        # symmetric xhat0 = 0, which the jump reaches by its least-squares
        # step (xhat1 drops out of the first-order system at alpha = beta = 0)
        inst = GameInstance(gaussian(0.86369), 0.112821, 1.68056)
        point, trace, cert = solve_pga_ccp(inst, opts=SolverOptions(max_iters=500))
        assert cert.certified and trace.polished_at is not None
        assert abs(point.xhat[0]) <= 1e-6 * inst.dist.scale
        assert jt_row(inst, point)[0] < inst.c


class TestGda:
    def test_reaches_same_fne_as_pga_ccp(self, pga_g1, gda_g1):
        p1, t1, c1 = pga_g1
        p2, t2, c2 = gda_g1
        assert c2.certified
        v1 = np.array([p1.theta[0], p1.theta[1], p1.xhat[0], p1.xhat[1]])
        v2 = np.array([p2.theta[0], p2.theta[1], p2.xhat[0], p2.xhat[1]])
        assert np.max(np.abs(v1 - v2)) < 2e-2

    def test_pga_ccp_needs_no_more_iterations(self, pga_g1, gda_g1):
        _, t1, _ = pga_g1
        _, t2, _ = gda_g1
        assert t1.iterations <= t2.iterations

    def test_equal_step_sizes_still_terminate(self, g1):
        # the two-timescale guidance is about worst-case cycling; on this
        # instance an equal-step run happens to certify, and the contract
        # only promises a clean termination status either way
        point, trace, cert = solve_gda(
            g1, opts=SolverOptions(step_size=0.1, descent_step=0.1, max_iters=1500)
        )
        assert trace.terminated_by in (
            Termination.EPSILON_FNE, Termination.STALLED, Termination.MAX_ITERS
        )
        assert all(math.isfinite(r.objective) for r in trace.rows)

    def test_gda_rows_mark_ccp_field_nan(self, gda_g1):
        _, trace, _ = gda_g1
        assert all(math.isnan(r.ccp_descent) for r in trace.rows)

    def test_divergence_raises_floating_point_error(self, g1):
        # a descent step this large makes xhat blow up; the kernel stops at
        # the first coefficient that overflows, without numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                solve_gda(g1, opts=SolverOptions(descent_step=50.0, max_iters=2000))

    def test_no_newton_jump(self, gda_g1):
        # GDA stays the plain baseline
        _, trace, _ = gda_g1
        assert trace.polished_at is None

    def test_agrees_with_pga_ccp_on_boundary_instance(self, g2):
        # two independent algorithms settle on the same always-block
        # equilibrium for the variance-2 instance
        p1, _, c1 = solve_pga_ccp(g2)
        p2, _, c2 = solve_gda(g2)
        assert c1.certified and c2.certified
        assert p1.theta[1] == 1.0 and p2.theta[1] == 1.0
        v1 = np.array([*p1.theta, *p1.xhat])
        v2 = np.array([*p2.theta, *p2.xhat])
        assert np.max(np.abs(v1 - v2)) < 1e-3


class TestSolverOptions:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverOptions(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverOptions(step_size=-0.1)
        # every comparison fails on NaN, so NaN is refused, and so is inf
        for bad in (math.nan, math.inf):
            for field in ("epsilon", "step_size", "descent_step"):
                with pytest.raises(ValueError, match="positive and finite"):
                    SolverOptions(**{field: bad})


TRACE_FIELDS = [f.name for f in dataclasses.fields(TraceRow)]


class TestTraceCsv:
    def test_csv_shape_and_determinism(self, g1, tmp_path, capsys):
        # solve-reactive --trace-out writes every row of the solve, every
        # field in its bits, and a rerun writes the same bytes
        texts = []
        for tag in ("a", "b"):
            path = tmp_path / f"trace_{tag}.csv"
            main(["solve-reactive", "--sigma2", "1", "--c", "1", "--d", "1",
                  "--max-iters", "40", "--trace-out", str(path)])
            texts.append(path.read_text())
        assert texts[0] == texts[1]
        header, *lines = texts[0].splitlines()
        assert header.split(",") == TRACE_FIELDS
        assert TRACE_FIELDS[:8] == [
            "k", "xhat0", "xhat1", "alpha", "beta", "objective",
            "grad_xhat_norm", "lp_gap",
        ]
        _, trace, _ = solve_pga_ccp(g1, opts=SolverOptions(max_iters=40))
        assert len(lines) == len(trace.rows) > 1
        for line, row in zip(lines, trace.rows):
            cells = line.split(",")
            assert int(cells[0]) == row.k
            assert _bits(*map(float, cells[1:])) == _bits(*dataclasses.astuple(row)[1:])


def _reference_solve(inst, init, opts, ccp):
    """The solver loop written on ReactivePoints: np.clip for the ascent, a
    ReactivePoint per step, the CCP step (or the xhat gradient) written
    out, and the kernel's Jt at both ends of the CCP descent. It checks the
    loop's bookkeeping, not the jump, so it jumps with ``_newton_jump``."""
    p = init or default_init(inst)
    trace = SolverTrace()
    cert = certify_fne(inst, p, opts.epsilon)
    q = jt_row(inst, p)[3:]
    if opts.record_trace:
        trace.rows.append(TraceRow(0, *p.xhat, *p.theta, jt_row(inst, p)[0],
                                   cert.grad_norm, cert.lp_gap, 0.0, 0.0 if ccp else math.nan))
    best = (max(cert.grad_norm, cert.lp_gap), p, q)
    stall_count = 0
    k = 0
    while not cert.certified and k < opts.max_iters:
        k += 1
        step = opts.step_size
        theta = np.clip(np.asarray(p.theta) + step * np.asarray(q), 0.0, 1.0)
        at_theta = ReactivePoint(p.xhat, tuple(theta))
        if ccp:
            # the pseudo-inverse solve on grad G, written out
            a, b = at_theta.theta
            g = g_row(inst, at_theta)[1:3]
            xhat_new = np.array([g[0] / (2.0 * (1.0 - a)) if a < 1.0 else 0.0,
                                 g[1] / (2.0 * (a + b)) if a + b > 0.0 else 0.0])
            assert np.array_equal(xhat_new, _ccp_xhat(g_row(inst, at_theta), a, b))
        else:
            gx = np.asarray(jt_row(inst, at_theta)[1:3])
            xhat_new = np.asarray(p.xhat) - opts.descent_step * gx
        p_new = ReactivePoint(tuple(xhat_new), at_theta.theta)
        cert = certify_fne(inst, p_new, opts.epsilon)
        q = jt_row(inst, p_new)[3:]
        if opts.record_trace:
            j_after = jt_row(inst, p_new)[0]
            descent = j_after - jt_row(inst, at_theta)[0] if ccp else math.nan
            trace.rows.append(TraceRow(k, *p_new.xhat, *p_new.theta, j_after, cert.grad_norm,
                                       cert.lp_gap, step, descent))
        moved = math.dist((*p.xhat, *p.theta), (*p_new.xhat, *p_new.theta))
        p = p_new
        if cert.certified:
            break
        stall_count = stall_count + 1 if moved < reactive.STALL_TOL else 0
        if stall_count >= reactive.STALL_ITERS:
            trace.terminated_by = Termination.STALLED
            break
        if not ccp:
            continue
        best = min(best, (max(cert.grad_norm, cert.lp_gap), p, q), key=lambda b: b[0])
        if k % POLISH_EVERY == 0 and k < opts.max_iters:
            jumped = reactive._newton_jump(inst, best[1], best[2], opts.epsilon)
            if jumped is not None:
                p, q = jumped[0], jt_row(inst, jumped[0])[3:]
                trace.polished_at = k
    trace.iterations = k
    if cert.certified:
        trace.terminated_by = Termination.EPSILON_FNE
        if p.xhat[0] < 0.0:
            p = p.mirrored()
            cert = certify_fne(inst, p, opts.epsilon)
    return p, trace, cert


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _multistart_point(inst, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    s = inst.dist.scale
    return ReactivePoint(tuple(rng.uniform(-2 * s, 2 * s, 2)), tuple(rng.uniform(0, 1, 2)))


class TestLoopMatchesReference:
    """The float loop gives every bit the ReactivePoint loop gave: each trace
    field (nan for GDA's descent, in the same bits), the counts, the stop,
    the jump, the returned point and its certificate."""

    INSTANCES = {
        "gaussian": lambda: GameInstance(gaussian(3.6097), 0.371189, 1.89533),
        "laplace": lambda: GameInstance(laplace(sigma2=1.39782), 1.30493, 0.366801),
        "table": lambda: GameInstance(exp_power_table(2.75, 2.2), 0.8, 1.1),
    }

    @staticmethod
    def assert_same(got, ref):
        (p, trace, cert), (p_ref, trace_ref, cert_ref) = got, ref
        assert len(trace.rows) == len(trace_ref.rows)
        for row, row_ref in zip(trace.rows, trace_ref.rows):
            fields = [getattr(row, f) for f in TRACE_FIELDS]
            fields_ref = [getattr(row_ref, f) for f in TRACE_FIELDS]
            assert _bits(*fields) == _bits(*fields_ref)
        assert trace.iterations == trace_ref.iterations
        assert trace.terminated_by is trace_ref.terminated_by
        assert trace.polished_at == trace_ref.polished_at
        assert _bits(*p.xhat, *p.theta) == _bits(*p_ref.xhat, *p_ref.theta)
        assert cert == cert_ref

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "table"])
    @pytest.mark.parametrize("ccp", [True, False], ids=["pga-ccp", "gda"])
    @pytest.mark.parametrize("start", ["default", "multistart", "mirrored"])
    def test_solves_match(self, family, ccp, start):
        inst = self.INSTANCES[family]()
        s = inst.dist.scale
        init = {"default": None, "multistart": _multistart_point(inst, 12345),
                "mirrored": ReactivePoint((-s, s), (0.5, 0.5))}[start]
        opts = SolverOptions(descent_step=0.1, max_iters=500)
        run = solve_pga_ccp if ccp else solve_gda
        got = run(inst, init, opts)
        self.assert_same(got, _reference_solve(inst, init, opts, ccp))
        if ccp and start == "default" and family != "table":
            assert got[1].polished_at is not None  # these two runs jump

    @pytest.mark.parametrize("ccp", [True, False], ids=["pga-ccp", "gda"])
    def test_max_iters_and_stall_stops_match(self, ccp, monkeypatch):
        inst = self.INSTANCES["gaussian"]()
        run = solve_pga_ccp if ccp else solve_gda
        for opts, stall, stop in (
            (SolverOptions(max_iters=7), None, Termination.MAX_ITERS),
            (SolverOptions(), (1.0, 3), Termination.STALLED),
            (SolverOptions(max_iters=0), None, Termination.MAX_ITERS),
        ):
            with monkeypatch.context() as m:
                if stall is not None:
                    m.setattr(reactive, "STALL_TOL", stall[0])
                    m.setattr(reactive, "STALL_ITERS", stall[1])
                got = run(inst, None, opts)
                assert got[1].terminated_by is stop
                self.assert_same(got, _reference_solve(inst, None, opts, ccp))

    def test_untraced_solve_matches(self):
        inst = self.INSTANCES["laplace"]()
        opts = SolverOptions(max_iters=500, record_trace=False)
        got = solve_pga_ccp(inst, None, opts)
        assert got[1].rows == []
        self.assert_same(got, _reference_solve(inst, None, opts, True))


def _gap_terms(jt, theta):
    return [max(q * (0.0 - t), q * (1.0 - t)) for q, t in zip(jt[3:], theta)]


class TestLoopResiduals:
    """The loop carries its residuals as floats: the returned certificate
    and every trace row's grad_xhat_norm and lp_gap are bit for bit those
    of ``certify_fne`` at the same point, which evaluates the kernel's row
    there afresh."""

    # the far-tail instance certifies at theta = (0, 0) with both gap terms
    # -0.0, and its second run starts there with both terms -0.0; all GDA
    # runs but that one stop uncertified at 300 iterations
    DECK = [
        (lambda: GameInstance(gaussian(0.86369), 0.112821, 1.68056), None),
        (lambda: GameInstance(gaussian(0.86369), 0.112821, 1.68056), "theta-zero"),
        (lambda: GameInstance(gaussian(1.0), 1.0, 1.0), None),
        (lambda: GameInstance(gaussian(3.6097), 0.371189, 1.89533), None),
        (lambda: GameInstance(laplace(sigma2=1.39782), 1.30493, 0.366801), None),
        (lambda: GameInstance(exp_power_table(2.75, 2.2), 1.3, 0.37), None),
        (lambda: GameInstance(gaussian(2.0), 0.5, 0.8), "multistart"),
    ]

    @staticmethod
    def reference(inst, xhat, theta, eps):
        return certify_fne(inst, ReactivePoint(xhat, theta), eps)

    @pytest.mark.parametrize("ccp", [True, False], ids=["pga-ccp", "gda"])
    def test_certificate_and_rows_match_certificate_bits(self, ccp):
        run = solve_pga_ccp if ccp else solve_gda
        negative_zero_terms = 0
        for make, start in self.DECK:
            inst = make()
            init = {None: None, "multistart": _multistart_point(inst, 777),
                    "theta-zero": ReactivePoint((1.0, -1.0), (0.0, 0.0))}[start]
            certs = []
            for record in (True, False):
                opts = SolverOptions(max_iters=300, record_trace=record)
                p, trace, cert = run(inst, init, opts)
                ref = self.reference(inst, p.xhat, p.theta, opts.epsilon)
                assert _bits(cert.grad_norm, cert.lp_gap) == _bits(ref.grad_norm, ref.lp_gap)
                assert (cert.epsilon, cert.certified) == (ref.epsilon, ref.certified)
                certs.append(cert)
                for row in trace.rows:
                    theta = (row.alpha, row.beta)
                    ref = self.reference(inst, (row.xhat0, row.xhat1), theta, opts.epsilon)
                    assert _bits(row.grad_xhat_norm, row.lp_gap) == _bits(ref.grad_norm,
                                                                           ref.lp_gap)
                    jt = reactive.evaluate(inst, row.xhat0, row.xhat1, *theta)[0]
                    negative_zero_terms += all(math.copysign(1.0, v) < 0.0 and v == 0.0
                                               for v in _gap_terms(jt, theta))
            assert _bits(certs[0].grad_norm, certs[0].lp_gap) == _bits(certs[1].grad_norm,
                                                                       certs[1].lp_gap)
        assert negative_zero_terms > 0  # rows whose two gap terms are -0.0 were checked

    def test_negative_zero_gap_terms_write_positive_zero(self, tmp_path, capsys):
        # sum(...) from the int 0 turns -0.0 + -0.0 into 0.0; the JSON must
        # keep that bit rather than write "lp_gap": -0.0
        inst = self.DECK[0][0]()
        p, _, cert = solve_pga_ccp(inst, opts=SolverOptions(max_iters=500))
        assert cert.certified and p.theta == (0.0, 0.0)
        terms = _gap_terms(reactive.evaluate(inst, *p.xhat, *p.theta)[0], p.theta)
        assert terms == [0.0, 0.0] and all(math.copysign(1.0, v) < 0.0 for v in terms)
        out = tmp_path / "far_tail.json"
        main(["solve-reactive", "--dist", "gaussian", "--sigma2", "0.86369", "--c", "0.112821",
              "--d", "1.68056", "--max-iters", "500", "--out", str(out)])
        capsys.readouterr()
        text = out.read_text()
        assert '"lp_gap": 0.0' in text and '"lp_gap": -0.0' not in text


@pytest.mark.parametrize("variance,shape", [(1.25, 1.5), (2.75, 2.2), (4.25, 1.8)])
def test_table_solve_reads_no_scalar_pdf(variance, shape, monkeypatch):
    # the Hessian reads its end densities from the moments pass: once the
    # table is built, a jumping solve never calls pdf
    inst = GameInstance(exp_power_table(variance, shape), 1.3, 0.37)
    counts = {"pdf": 0, "second_order": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Tabulated, "pdf", spy("pdf", Tabulated.pdf))
    monkeypatch.setattr(reactive, "_second_order", spy("second_order", reactive._second_order))
    _, trace, cert = solve_pga_ccp(inst, opts=SolverOptions(max_iters=500))
    assert cert.certified and trace.polished_at is not None
    assert counts["second_order"] > 0
    assert counts["pdf"] == 0
