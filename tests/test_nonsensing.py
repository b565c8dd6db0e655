import json
import math

import numpy as np
import pytest

from jamgame import (
    GameInstance,
    Regime,
    Tabulated,
    expectation,
    gaussian,
    jam_marginal,
    laplace,
    objective,
    solve_equilibrium,
    threshold_policy,
    verify_saddle,
)
from jamgame.dist import InadmissibleDistributionError
from jamgame.nonsensing import (
    NonSensingEquilibrium,
    TransmitRule,
    fixed_policy_objective,
)

from conftest import exp_power_table


def test_game_instance_rejects_negative_costs():
    with pytest.raises(ValueError):
        GameInstance(gaussian(1.0), -0.5, 1.0)
    with pytest.raises(ValueError):
        GameInstance(gaussian(1.0), 1.0, -2.0)


class TestThresholdPolicy:
    def test_transmits_outside_threshold(self):
        rule = threshold_policy(c=1.0, phi=0.0, xhat0=0.0)
        assert rule.transmit(2.0)
        assert not rule.transmit(0.5)

    def test_example_phi_tilde_keeps_x2_silent(self):
        # tau = sqrt(1 / (1 - 0.7887)) = 2.176 > 2
        rule = threshold_policy(c=1.0, phi=0.7887, xhat0=0.0)
        assert not rule.transmit(2.0)
        assert rule.transmit(2.2)

    def test_zero_cost_transmits_everywhere(self):
        rule = threshold_policy(c=0.0, phi=0.3, xhat0=0.0)
        xs = np.array([-5.0, -0.1, 0.2, 3.0])
        assert rule.transmit(xs).all()

    def test_tie_resolves_to_transmit(self):
        rule = threshold_policy(c=1.0, phi=0.0, xhat0=0.0)
        assert rule.transmit(1.0) and rule.transmit(-1.0)

    def test_phi_one_never_transmits(self):
        rule = threshold_policy(c=1.0, phi=1.0)
        assert not rule.transmit(np.array([-100.0, 0.0, 100.0])).any()

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            threshold_policy(c=1.0, phi=1.5)


class TestObjective:
    def test_no_jam_matches_min_expectation(self, g1):
        assert objective(g1, 0.0, (0.0, 0.0)) == pytest.approx(0.5160, abs=1e-3)

    def test_full_jam_is_variance_minus_d(self, g2):
        assert objective(g2, 1.0, (3.7, 0.0)) == g2.dist.variance - g2.d

    def test_value_consistent_with_solver(self, g2, eq_g2):
        assert objective(g2, 0.7887, (0.0, 0.0)) == pytest.approx(eq_g2.value, abs=1e-6)


class TestJamMarginal:
    def test_reference_values(self, g1, g2):
        assert jam_marginal(g1, 0.0) == pytest.approx(-0.1988, abs=1e-3)
        assert jam_marginal(g2, 0.0) == pytest.approx(0.8378, abs=1e-3)
        assert jam_marginal(g2, 0.7887) == pytest.approx(0.0, abs=1e-3)

    def test_rejects_phi_one(self, g1):
        with pytest.raises(ValueError):
            jam_marginal(g1, 1.0)

    def test_strictly_decreasing(self, g2):
        phis = np.linspace(0.0, 0.99, 100)
        vals = [jam_marginal(g2, p) for p in phis]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_approaches_minus_d_near_one(self, g1):
        assert jam_marginal(g1, 1.0 - 1e-9) == pytest.approx(-g1.d, abs=1e-6)


class TestSolveEquilibrium:
    def test_sigma2_one_no_jam(self, eq_g1):
        assert eq_g1.regime is Regime.NO_JAM
        assert eq_g1.phi_star == 0.0
        assert eq_g1.xhat == (0.0, 0.0)
        assert eq_g1.threshold == pytest.approx(1.0)

    def test_sigma2_two_interior(self, g2, eq_g2):
        assert eq_g2.regime is Regime.INTERIOR_JAM
        assert eq_g2.phi_star == pytest.approx(0.7887, abs=1e-3)
        # the root condition holds to solver precision
        assert abs(jam_marginal(g2, eq_g2.phi_star)) < 1e-8
        assert eq_g2.threshold == pytest.approx(
            math.sqrt(1.0 / (1.0 - eq_g2.phi_star)), abs=1e-12
        )

    def test_expensive_jamming_never_jams(self):
        inst = GameInstance(gaussian(1.0), 1.0, 100.0)
        assert solve_equilibrium(inst).regime is Regime.NO_JAM

    def test_tie_is_interior_with_zero_root(self):
        d = gaussian(1.0)
        inst = GameInstance(d, 1.0, d.tail_second_moment(1.0))
        eq = solve_equilibrium(inst)
        assert eq.regime is Regime.INTERIOR_JAM
        assert eq.phi_star == 0.0

    def test_regime_boundary_continuity(self):
        d = gaussian(1.0)
        m = d.tail_second_moment(1.0)
        above = solve_equilibrium(GameInstance(d, 1.0, m * (1.0 + 1e-3)))
        assert abs(above.phi_star) <= 1e-3
        below = solve_equilibrium(GameInstance(d, 1.0, m * (1.0 - 1e-3)))
        assert below.regime is Regime.INTERIOR_JAM
        # first-order scale: phi ~ (m - d) / |G'(0)| = m*1e-3 / f(1) ~ 3.3e-3
        assert 0.0 < below.phi_star <= 5e-3

    def test_monotone_in_costs(self):
        d = gaussian(2.0)
        # non-increasing in d at fixed c
        phis_d = [solve_equilibrium(GameInstance(d, 1.0, dd)).phi_star
                  for dd in np.linspace(0.2, 2.5, 12)]
        assert all(a >= b - 1e-9 for a, b in zip(phis_d, phis_d[1:]))
        # and non-increasing in c at fixed d: in the interior regime the root
        # satisfies phi = 1 - c / M^{-1}(d)^2, so raising c lowers phi
        phis_c = [solve_equilibrium(GameInstance(d, cc, 1.0)).phi_star
                  for cc in np.linspace(0.2, 2.5, 12)]
        assert all(a >= b - 1e-9 for a, b in zip(phis_c, phis_c[1:]))

    def test_zero_cost_boundary_always_jams(self):
        # free transmission with jamming cheaper than the variance: the
        # jamming marginal is variance - d > 0 for every phi, so phi* = 1;
        # every transmission is blocked and the threshold 0 keeps the
        # sensor transmitting, which the saddle check confirms
        inst = GameInstance(gaussian(2.0), 0.0, 1.0)
        eq = solve_equilibrium(inst)
        assert eq.regime is Regime.ALWAYS_JAM
        assert eq.phi_star == 1.0
        assert eq.threshold == 0.0
        assert eq.value == pytest.approx(inst.dist.variance - inst.d, abs=1e-12)
        assert verify_saddle(inst, eq, phi_points=21, xhat_points=21).ok

    def test_free_jamming_always_jams(self):
        # d = 0: the jamming marginal is the tail second moment, >= 0 for
        # every phi, so phi* = 1 and the sensor never transmits
        inst = GameInstance(laplace(sigma2=1.5), 1.0, 0.0)
        eq = solve_equilibrium(inst)
        assert eq.regime is Regime.ALWAYS_JAM
        assert eq.phi_star == 1.0 and math.isinf(eq.threshold)
        assert eq.value == pytest.approx(inst.dist.variance, abs=1e-12)
        assert verify_saddle(inst, eq, phi_points=21, xhat_points=21).ok

    def test_zero_cost_with_expensive_jamming_is_fine(self):
        eq = solve_equilibrium(GameInstance(gaussian(1.0), 0.0, 2.0))
        assert eq.regime is Regime.NO_JAM

    def test_refuses_inadmissible_distribution(self, bimodal_table):
        # the refusal comes where the table is built, so no instance of an
        # inadmissible density reaches the solver
        x, f = bimodal_table
        with pytest.raises(InadmissibleDistributionError) as refused:
            Tabulated(x, f)
        report = refused.value.report
        locs = [loc for kind, loc, _ in report.violations if kind == "unimodality"]
        assert locs and all(0.0 < loc < 3.0 for loc in locs)

    def test_closed_form_solves_run_no_admissibility_check(self, monkeypatch):
        import jamgame.dist
        import jamgame.nonsensing

        calls = []
        check = jamgame.dist.check_symmetric_unimodal
        for module in (jamgame.dist, jamgame.nonsensing):
            if hasattr(module, "check_symmetric_unimodal"):
                monkeypatch.setattr(module, "check_symmetric_unimodal",
                                    lambda d: calls.append(d) or check(d))
        for d in (gaussian(2.0), laplace(sigma2=2.0)):
            eq = solve_equilibrium(GameInstance(d, 1.0, 1.0))
            assert eq.regime is Regime.INTERIOR_JAM
        assert calls == []

    def test_laplace_instance_solves(self, lap1):
        eq = solve_equilibrium(lap1)
        # M(1) = e^{-sqrt 2}(1 + sqrt 2 + 1) for b = 1/sqrt(2) ... just check the
        # regime is consistent with the marginal at 0
        if jam_marginal(lap1, 0.0) < 0:
            assert eq.regime is Regime.NO_JAM
        else:
            assert abs(jam_marginal(lap1, eq.phi_star)) < 1e-8

    def test_json_round_trip(self, eq_g2):
        payload = json.loads(eq_g2.to_json())
        assert set(payload) == {"phi_star", "xhat0", "xhat1", "threshold", "value", "regime"}
        assert payload["regime"] == "InteriorJam"
        assert payload["xhat0"] == 0.0


def _halving_bisection_phi(inst: GameInstance, xtol: float = 1e-10) -> tuple[Regime, float]:
    """The root-find in phi that solve_equilibrium used before the threshold
    Newton method: halve 1 - phi until the jamming marginal turns negative
    (always jam if it never does above 1 - 1e-12), bisect to xtol, then take
    one Newton step with the phi-derivative if it stays in the bracket."""
    g0 = jam_marginal(inst, 0.0)
    if g0 <= 0.0:
        return (Regime.NO_JAM if g0 < 0.0 else Regime.INTERIOR_JAM), 0.0
    delta = 0.25
    while jam_marginal(inst, 1.0 - delta) >= 0.0:
        delta *= 0.5
        if delta < 1e-12:
            return Regime.ALWAYS_JAM, 1.0
    lo, hi = 0.0, 1.0 - delta
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if jam_marginal(inst, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    phi = 0.5 * (lo + hi)
    tau = math.sqrt(inst.c / (1.0 - phi))
    slope = -float(inst.dist.pdf(tau)) * tau**3 / (1.0 - phi)
    if slope < 0.0:
        newton = phi - jam_marginal(inst, phi) / slope
        if lo <= newton <= hi:
            phi = newton
    return Regime.INTERIOR_JAM, phi


ROOT_FAMILIES = {
    "gaussian": lambda: gaussian(1.0),
    "laplace": lambda: laplace(sigma2=2.0),
    "tabulated": lambda: exp_power_table(1.3, 1.5, knots_per_side=30),
}


@pytest.mark.parametrize("family", list(ROOT_FAMILIES))
def test_threshold_newton_matches_phi_bisection(family, monkeypatch):
    dist = ROOT_FAMILIES[family]()
    grid = np.linspace(0.05, 3.0, 14)
    cases = [(float(c), float(d)) for c in grid for d in grid]
    cases += [(0.0, 0.5), (0.0, dist.variance), (0.0, 2.0 * dist.variance), (1.0, 0.0),
              (0.0, 0.0), (0.5, 1.5 * dist.variance), (2.0, 4.0 * dist.variance)]

    calls = 0
    tail = type(dist).tail_second_moment

    def counted(self, t):
        nonlocal calls
        calls += 1
        return tail(self, t)

    counts = []
    for c, d in cases:
        inst = GameInstance(dist, c, d)
        regime, phi = _halving_bisection_phi(inst)
        calls = 0
        with monkeypatch.context() as m:
            m.setattr(type(dist), "tail_second_moment", counted)
            eq = solve_equilibrium(inst)
        assert eq.regime is regime, (c, d)
        assert abs(eq.phi_star - phi) <= 1e-12, (c, d, eq.phi_star, phi)
        if regime is Regime.INTERIOR_JAM and phi > 0.0:
            counts.append(calls)
    # the grid has interior roots, and the bisection in phi spent 38 on average
    assert len(counts) >= 40
    assert np.mean(counts) <= 10 and max(counts) <= 16


def test_cube_root_inverts_cubes_across_the_bracket():
    # the threshold search works in v = tau^3 and needs no math.cbrt
    from jamgame.nonsensing import _cbrt

    for tau in np.geomspace(1e-6, 1e6, 61):
        assert _cbrt(float(tau) ** 3) == pytest.approx(float(tau), rel=2e-15)


def test_xtol_bounds_the_error_in_phi():
    inst = GameInstance(laplace(sigma2=3.0), 0.4, 0.2)
    exact = solve_equilibrium(inst).phi_star
    for xtol in (1e-2, 1e-4, 1e-6):
        assert abs(solve_equilibrium(inst, xtol=xtol).phi_star - exact) <= xtol


def test_regime_decided_at_the_last_halving_point():
    # d just below and just above M(tau) at phi = 1 - 2^-39, the last point
    # the halving search in phi tested
    dist, c = gaussian(1.0), 9.0 * 2.0**-39  # tau = 3 at that point
    m = dist.tail_second_moment(math.sqrt(c / 2.0**-39))
    for d, regime in ((m * (1.0 - 1e-9), Regime.ALWAYS_JAM),
                      (m * (1.0 + 1e-9), Regime.INTERIOR_JAM)):
        inst = GameInstance(dist, c, d)
        assert solve_equilibrium(inst).regime is regime
        assert _halving_bisection_phi(inst)[0] is regime


class TestVerifySaddle:
    def test_interior_equilibrium_clean(self, g2, eq_g2):
        rep = verify_saddle(g2, eq_g2, phi_points=101, xhat_points=101, tol=1e-6)
        assert rep.ok
        assert rep.worst_jammer_excess <= 1e-6
        assert rep.worst_coordinator_shortfall <= 1e-6

    def test_no_jam_equilibrium_clean_and_maximized_at_zero(self, g1, eq_g1):
        rep = verify_saddle(g1, eq_g1, phi_points=101, xhat_points=101, tol=1e-6)
        assert rep.ok
        rule = TransmitRule(-eq_g1.threshold, eq_g1.threshold)
        curve = [fixed_policy_objective(g1, rule, eq_g1.xhat, p)
                 for p in np.linspace(0.0, 1.0, 101)]
        assert int(np.argmax(curve)) == 0

    def test_jammer_curve_is_linear_with_marginal_slope(self, g2, eq_g2):
        # with the coordinator frozen, the objective is affine in phi and its
        # slope equals the jamming marginal at the frozen threshold, which
        # vanishes at an interior saddle
        rule = TransmitRule(-eq_g2.threshold, eq_g2.threshold)
        phis = np.linspace(0.0, 1.0, 5)
        vals = [fixed_policy_objective(g2, rule, eq_g2.xhat, p) for p in phis]
        slopes = np.diff(vals) / np.diff(phis)
        predicted = g2.dist.tail_second_moment(eq_g2.threshold) - g2.d
        assert np.allclose(slopes, predicted, atol=1e-9)
        assert abs(predicted) < 1e-9

    def test_perturbed_point_fails_jammer_side(self, g2, eq_g2):
        phi_bad = eq_g2.phi_star + 0.1
        fake = NonSensingEquilibrium(
            phi_star=phi_bad,
            xhat=(0.0, 0.0),
            threshold=math.sqrt(g2.c / (1.0 - phi_bad)),
            value=objective(g2, phi_bad, (0.0, 0.0)),
            regime=Regime.INTERIOR_JAM,
        )
        rep = verify_saddle(g2, fake, phi_points=51, xhat_points=11, tol=1e-6)
        assert rep.jammer_violations


@pytest.mark.parametrize("make_dist", [gaussian, lambda v: laplace(sigma2=v)],
                         ids=["gaussian", "laplace"])
@pytest.mark.parametrize("phi", [0.0, 0.7887])
def test_estimator_optimum_at_zero_coarse(make_dist, phi):
    # coarse version of the estimator-optimality sweep (the acceptance suite
    # runs the fine grid): the reduced objective over xhat0 is minimized at 0
    inst = GameInstance(make_dist(1.0), 1.0, 1.0)
    grid = np.linspace(-3.0, 3.0, 121)
    vals = [objective(inst, phi, (float(x0), 0.0)) for x0 in grid]
    assert abs(grid[int(np.argmin(vals))]) <= 0.05 + 1e-12
