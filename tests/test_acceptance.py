"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each criterion prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to
see them live). Criterion 5 is split into the certification half (5a) and a
per-row coordinate comparison (5b) against ``FNE_TABLE``: first-order
equilibria of the Gaussian c = d = 1 game derived independently of the
package, from closed-form truncated-normal moments and the game's
first-order conditions (``test_fne_reference.py`` re-checks them). For
variance >= 2 those equilibria always block a busy channel (beta = 1). The
published benchmark rows kept in ``TABLE1`` are not the reference here: for
variance >= 2 they leave a theta-side ascent gap of 0.87..3.86 under the
game's own gradient formulas, four orders above their rounding noise, so
they are not equilibria of the game they are attributed to.
"""

import math
import time

import numpy as np
import pytest

from jamgame import (
    GameInstance,
    ReactivePoint,
    Regime,
    SolverOptions,
    bundle_from_nonsensing,
    bundle_from_reactive,
    certify_fne,
    gaussian,
    jam_marginal,
    laplace,
    objective,
    simulate,
    solve_equilibrium,
    solve_gda,
    solve_pga_ccp,
    verify_saddle,
)
from jamgame.cli import _policy_json, _write_json, main
from jamgame.reactive import default_init

from conftest import FNE_TABLE, TABLE1, closed_form_violations, f_quadratic, g_row, jt_row


def report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{tag}] {criterion} ({elapsed:.2f}s){suffix}")


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2 * h)
    return out


def test_criterion_1_tail_moment_regression():
    t0 = time.perf_counter()
    m1 = gaussian(1.0).tail_second_moment(1.0)
    m2 = gaussian(2.0).tail_second_moment(1.0)
    elapsed = time.perf_counter() - t0
    ok = abs(m1 - 0.8012) <= 1e-3 and abs(m2 - 1.8378) <= 1e-3 and elapsed < 1.0
    report("criterion 1: tail moment regression", ok,
           elapsed, f"M(1)={m1:.6f}, {m2:.6f}")
    assert abs(m1 - 0.8012) <= 1e-3
    assert abs(m2 - 1.8378) <= 1e-3
    assert elapsed < 1.0


def test_criterion_2_nonsensing_equilibrium():
    t0 = time.perf_counter()
    eq2 = solve_equilibrium(GameInstance(gaussian(2.0), 1.0, 1.0))
    eq1 = solve_equilibrium(GameInstance(gaussian(1.0), 1.0, 1.0))
    elapsed = time.perf_counter() - t0
    ok = (abs(eq2.phi_star - 0.7887) <= 1e-3 and eq1.phi_star == 0.0
          and eq1.regime is Regime.NO_JAM and elapsed < 1.0)
    report("criterion 2: non-sensing equilibrium", ok, elapsed,
           f"phi*(s2=2)={eq2.phi_star:.6f}, phi*(s2=1)={eq1.phi_star}")
    assert abs(eq2.phi_star - 0.7887) <= 1e-3
    assert eq1.phi_star == 0.0
    assert elapsed < 1.0


def test_criterion_3_saddle_verification():
    t0 = time.perf_counter()
    worst = []
    for s2 in (1.0, 2.0):
        inst = GameInstance(gaussian(s2), 1.0, 1.0)
        rep = verify_saddle(inst, solve_equilibrium(inst), xhat_points=101, tol=1e-6)
        worst.append((rep.worst_jammer_excess, rep.worst_coordinator_shortfall))
        assert rep.ok, f"saddle violated at sigma2={s2}: {worst[-1]}"
    elapsed = time.perf_counter() - t0
    report("criterion 3: saddle verification", elapsed < 30.0, elapsed,
           f"worst excesses {worst}")
    assert elapsed < 30.0


def test_criterion_4_estimator_optimum_grid():
    t0 = time.perf_counter()
    argmins = {}
    for name, make in (("gaussian", gaussian), ("laplace", lambda v: laplace(sigma2=v))):
        inst = GameInstance(make(1.0), 1.0, 1.0)
        scale = 1.0  # sigma = sqrt(variance) = 1 for both instances
        grid = np.arange(-3.0, 3.0 + 1e-12, 0.01 * scale)
        for phi in (0.0, 0.3, 0.7887):
            vals = [objective(inst, phi, (float(x0), 0.0)) for x0 in grid]
            best = float(grid[int(np.argmin(vals))])
            argmins[(name, phi)] = best
            assert abs(best) <= 0.01 * scale + 1e-12, (name, phi, best)
    elapsed = time.perf_counter() - t0
    report("criterion 4: estimator optimum at the mean", elapsed < 60.0, elapsed,
           f"argmins within one cell of 0 for {len(argmins)} cases")
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def table_runs():
    runs = {}
    t0 = time.perf_counter()
    for s2 in (1.0, 2.0, 3.0, 4.0, 5.0):
        inst = GameInstance(gaussian(s2), 1.0, 1.0)
        runs[s2] = solve_pga_ccp(inst, default_init(inst),
                                 SolverOptions(epsilon=1e-5))
    return runs, time.perf_counter() - t0


def test_criterion_5_certified_fne_from_default_init(table_runs):
    runs, elapsed = table_runs
    all_certified = all(cert.certified for _, _, cert in runs.values())
    report("criterion 5a: PGA-CCP certifies an epsilon-FNE for each variance",
           all_certified and elapsed < 300.0, elapsed,
           ", ".join(f"s2={s2:g}: {t.iterations} iters" for s2, (_, t, _) in runs.items()))
    assert all_certified
    assert elapsed < 300.0


@pytest.mark.parametrize("sigma2", [1.0, 2.0, 3.0, 4.0, 5.0])
def test_criterion_5_coordinates_match_reference_table(table_runs, sigma2):
    runs, _ = table_runs
    point, _, cert = runs[sigma2]
    ref = np.array(FNE_TABLE[sigma2])
    direct = np.array([point.theta[0], point.theta[1], point.xhat[0], point.xhat[1]])
    mirrored = np.array([point.theta[0], point.theta[1], -point.xhat[0], -point.xhat[1]])
    err = min(np.max(np.abs(direct - ref)), np.max(np.abs(mirrored - ref)))
    ok = err < 2e-2
    report(f"criterion 5b: coordinates vs independent equilibrium (sigma2={sigma2:g})", ok,
           0.0, f"max coordinate error {err:.4f}")
    assert ok, (
        f"sigma2={sigma2:g}: certified FNE {direct.round(4).tolist()} is "
        f"{err:.3f} away from the independently derived equilibrium "
        f"{ref.tolist()} (FNE_TABLE; its derivation is in conftest.py and "
        f"test_fne_reference.py checks it without the package's quadrature)"
    )


def test_criterion_6_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for s2 in (1.0, 2.0):
        inst = GameInstance(gaussian(s2), 1.0, 1.0)
        s = inst.dist.scale
        for _ in range(20):
            p = ReactivePoint(tuple(rng.uniform(-1.5 * s, 1.5 * s, 2)),
                              tuple(rng.uniform(0.05, 0.95, 2)))
            gx = jt_row(inst, p)[1:3]
            fx = fd_gradient(lambda v: jt_row(inst, ReactivePoint(tuple(v), p.theta))[0],
                             p.xhat)
            q = jt_row(inst, p)[3:]
            fq = fd_gradient(lambda v: jt_row(inst, ReactivePoint(p.xhat, tuple(v)))[0],
                             p.theta)
            gg = g_row(inst, p)[1:3]
            fg = fd_gradient(lambda v: g_row(inst, ReactivePoint(tuple(v), p.theta))[0],
                             p.xhat)
            err = max(np.max(np.abs(gx - fx)), np.max(np.abs(q - fq)), np.max(np.abs(gg - fg)))
            worst = max(worst, float(err))
            assert err < 1e-6, (s2, p, err)
    elapsed = time.perf_counter() - t0
    report("criterion 6: gradients vs central differences", elapsed < 60.0, elapsed,
           f"worst |analytic - fd| = {worst:.2e}")
    assert elapsed < 60.0


def test_criterion_7_diagonal_identity():
    t0 = time.perf_counter()
    inst = GameInstance(gaussian(2.0), 1.0, 1.0)
    worst = 0.0
    for x0 in np.linspace(-1.0, 1.0, 5):
        for x1 in np.linspace(-1.0, 1.0, 5):
            for phi in (0.0, 0.25, 0.5, 0.7887):
                a = jt_row(inst, ReactivePoint((float(x0), float(x1)), (phi, phi)))[0]
                b = objective(inst, phi, (float(x0), float(x1)))
                worst = max(worst, abs(a - b))
                assert abs(a - b) <= 1e-8, (x0, x1, phi, a - b)
    elapsed = time.perf_counter() - t0
    report("criterion 7: diagonal identity", elapsed < 30.0, elapsed,
           f"worst |Jt - J| = {worst:.2e}")
    assert elapsed < 30.0


def test_criterion_8_dc_identity_and_ccp_descent(table_runs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    inst = GameInstance(gaussian(1.0), 1.0, 1.0)
    worst_dc = 0.0
    for _ in range(25):
        p = ReactivePoint(tuple(rng.uniform(-1.5, 1.5, 2)), tuple(rng.uniform(0, 1, 2)))
        f_val, g_val = f_quadratic(inst, p), g_row(inst, p)[0]
        gap = abs(f_val - g_val - jt_row(inst, p)[0])
        worst_dc = max(worst_dc, gap)
        assert gap <= 1e-8
    runs, _ = table_runs
    worst_descent = -math.inf
    for s2, (_, trace, _) in runs.items():
        for row in trace.rows[1:]:
            worst_descent = max(worst_descent, row.ccp_descent)
            assert row.ccp_descent <= 1e-9, (s2, row.k, row.ccp_descent)
    elapsed = time.perf_counter() - t0
    report("criterion 8: DC identity and CCP descent", elapsed < 60.0, elapsed,
           f"worst |F-G-Jt| = {worst_dc:.2e}, worst descent margin = {worst_descent:.2e}")
    assert elapsed < 60.0


def test_criterion_9_solver_comparison():
    t0 = time.perf_counter()
    inst = GameInstance(gaussian(1.0), 1.0, 1.0)
    init = default_init(inst)
    _, t_pga, c_pga = solve_pga_ccp(inst, init, SolverOptions(step_size=0.1, epsilon=1e-5))
    _, t_gda, c_gda = solve_gda(
        inst, init, SolverOptions(step_size=0.1, descent_step=0.01, epsilon=1e-5)
    )
    elapsed = time.perf_counter() - t0
    ok = (c_pga.certified and c_gda.certified
          and t_pga.iterations <= t_gda.iterations and elapsed < 120.0)
    report("criterion 9: PGA-CCP vs GDA", ok, elapsed,
           f"iterations {t_pga.iterations} <= {t_gda.iterations} "
           f"(ratio {t_gda.iterations / max(t_pga.iterations, 1):.1f}x; "
           "only the ordering is asserted)")
    assert c_pga.certified and c_gda.certified
    assert t_pga.iterations <= t_gda.iterations
    assert elapsed < 120.0


def test_criterion_10_simulator_agreement():
    t0 = time.perf_counter()
    details = []

    g2 = GameInstance(gaussian(2.0), 1.0, 1.0)
    eq2 = solve_equilibrium(g2)
    res = simulate(g2, bundle_from_nonsensing(eq2), n=10**6, seed=1010)
    gap = abs(res.empirical_cost - eq2.value) / res.std_error
    details.append(f"nonsensing {gap:.2f} SE")
    assert gap <= 3.0

    for s2 in (1.0, 3.0, 5.0):
        inst = GameInstance(gaussian(s2), 1.0, 1.0)
        a, b, x0, x1 = TABLE1[s2]
        p = ReactivePoint((x0, x1), (a, b))
        bundle = bundle_from_reactive(p, inst)
        res = simulate(inst, bundle, n=10**6, seed=1000 + int(s2))
        analytic = jt_row(inst, p)[0]
        gap = abs(res.empirical_cost - analytic) / res.std_error
        details.append(f"s2={s2:g} {gap:.2f} SE")
        assert gap <= 3.0

        n_idle = res.event_counts[(0, 0)] + res.event_counts[(0, 1)]
        n_busy = res.event_counts[(1, 0)] + res.event_counts[(1, 1)]
        alpha_hat = res.event_counts[(0, 1)] / n_idle
        beta_hat = res.event_counts[(1, 1)] / n_busy
        se_a = math.sqrt(max(a * (1 - a), 1e-12) / n_idle)
        se_b = math.sqrt(max(b * (1 - b), 1e-12) / n_busy)
        assert abs(alpha_hat - a) <= 3.0 * se_a
        assert abs(beta_hat - b) <= 3.0 * se_b

    elapsed = time.perf_counter() - t0
    report("criterion 10: simulator agreement", elapsed < 120.0, elapsed,
           "; ".join(details))
    assert elapsed < 120.0


def test_criterion_11_property_suites(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    for d in (gaussian(1.0), gaussian(2.0), laplace(sigma2=1.0)):
        failed, mass = closed_form_violations(d)
        assert failed == []
        assert 1.0 - 1e-8 <= mass <= 1.0 + 1e-12

    inst2 = GameInstance(gaussian(2.0), 1.0, 1.0)
    phis = np.linspace(0.0, 0.99, 100)
    marg = [jam_marginal(inst2, p) for p in phis]
    assert all(a > b for a, b in zip(marg, marg[1:]))

    inst1 = GameInstance(gaussian(1.0), 1.0, 1.0)
    for _ in range(10):
        xhat = tuple(rng.uniform(-1.5, 1.5, 2))
        t1, t2 = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        j_mid = jt_row(inst1, ReactivePoint(xhat, tuple(0.5 * (t1 + t2))))[0]
        j_avg = 0.5 * (jt_row(inst1, ReactivePoint(xhat, tuple(t1)))[0]
                       + jt_row(inst1, ReactivePoint(xhat, tuple(t2)))[0])
        assert j_mid >= j_avg - 1e-8

        theta = tuple(rng.uniform(0, 1, 2))
        u, v = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
        g_mid = g_row(inst1, ReactivePoint(tuple(0.5 * (u + v)), theta))[0]
        g_avg = 0.5 * (g_row(inst1, ReactivePoint(tuple(u), theta))[0]
                       + g_row(inst1, ReactivePoint(tuple(v), theta))[0])
        assert g_mid <= g_avg + 1e-8

    point, _, cert = solve_pga_ccp(inst1, None, SolverOptions(epsilon=1e-5))
    assert cert.certified
    assert certify_fne(inst1, point.mirrored(), 1e-5).certified

    # reruns write the same trace CSV and the same simulate JSON, byte for byte
    policy = tmp_path / "policy.json"
    _write_json(str(policy), _policy_json(bundle_from_nonsensing(solve_equilibrium(inst2))))
    outputs = []
    for tag in ("a", "b"):
        trace, sim = tmp_path / f"trace_{tag}.csv", tmp_path / f"sim_{tag}.json"
        main(["solve-reactive", "--sigma2", "1", "--max-iters", "60", "--trace-out", str(trace)])
        main(["simulate", "--sigma2", "2", "--policy", str(policy), "--n", "50000", "--seed", "3",
              "--out", str(sim)])
        outputs.append((trace.read_bytes(), sim.read_bytes()))
    assert outputs[0] == outputs[1]

    elapsed = time.perf_counter() - t0
    report("criterion 11: property suites", elapsed < 120.0, elapsed)
    assert elapsed < 120.0
