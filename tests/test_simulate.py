import json
import math

import numpy as np
import pytest

from jamgame import (
    GameInstance,
    JamKind,
    JamPolicy,
    PolicyBundle,
    ReactivePoint,
    analytic_cost,
    bundle_from_nonsensing,
    bundle_from_reactive,
    gaussian,
    objective_jtilde,
    simulate,
    solve_equilibrium,
    transmit_region,
)
from jamgame.simulate import TRACE_LIMIT

from conftest import TABLE1, exp_power_table


def binom_se(p_hat, n):
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)


class TestDegeneratePolicies:
    def test_never_transmit_never_jam_recovers_variance(self, g2):
        bundle = PolicyBundle(-math.inf, math.inf, JamPolicy.non_sensing(0.0), (0.0, 0.0))
        res = simulate(g2, bundle, n=10**6, seed=21)
        assert res.p_transmit == 0.0 and res.p_jam == 0.0
        assert abs(res.empirical_cost - 2.0) <= 3.0 * res.std_error

    def test_always_transmit_never_jam_costs_c(self, g1):
        bundle = PolicyBundle(0.0, 0.0, JamPolicy.non_sensing(0.0), (0.0, 0.0))
        res = simulate(g1, bundle, n=10**5, seed=22)
        assert res.p_transmit == 1.0
        assert res.empirical_cost == pytest.approx(g1.c, abs=1e-12)
        assert res.std_error == pytest.approx(0.0, abs=1e-12)


class TestEquilibriumAgreement:
    def test_nonsensing_sigma2_two(self, g2, eq_g2):
        bundle = bundle_from_nonsensing(eq_g2)
        res = simulate(g2, bundle, n=10**6, seed=23)
        assert abs(res.empirical_cost - eq_g2.value) <= 3.0 * res.std_error

    @pytest.mark.parametrize("sigma2", [1.0, 3.0, 5.0])
    def test_reference_rows_match_their_objective(self, sigma2):
        # the benchmark points need not be equilibria for the analytic and
        # empirical cost of the induced policy bundle to agree
        inst = GameInstance(gaussian(sigma2), 1.0, 1.0)
        a, b, x0, x1 = TABLE1[sigma2]
        p = ReactivePoint((x0, x1), (a, b))
        bundle = bundle_from_reactive(p, inst)
        analytic = objective_jtilde(inst, p)
        assert analytic_cost(inst, bundle) == pytest.approx(analytic, abs=1e-9)
        res = simulate(inst, bundle, n=10**6, seed=int(sigma2))
        assert abs(res.empirical_cost - analytic) <= 3.0 * res.std_error


class TestBundleConstruction:
    @pytest.mark.parametrize("sigma2", [1.0, 2.0, 5.0])
    def test_nonsensing_bundles_package_equilibria(self, sigma2):
        inst = GameInstance(gaussian(sigma2), 1.0, 1.0)
        eq = solve_equilibrium(inst)
        bundle = bundle_from_nonsensing(eq)
        assert bundle.silent_lo == -eq.threshold
        assert bundle.silent_hi == eq.threshold
        assert bundle.jam.kind is JamKind.NON_SENSING
        assert bundle.jam.phi == eq.phi_star
        assert bundle.xhat == (0.0, 0.0)
        assert bundle.transmit(eq.threshold + 0.01)
        assert not bundle.transmit(eq.threshold - 0.01)


class TestChannelStatistics:
    def test_transmit_probability_matches_region_mass(self, g1):
        a, b, x0, x1 = TABLE1[1.0]
        inst = g1
        p = ReactivePoint((x0, x1), (a, b))
        bundle = bundle_from_reactive(p, inst)
        lo, hi = transmit_region(p.xhat, p.theta, inst.c, inst.d).silent_interval()
        mass_tx = 1.0 - float(inst.dist.cdf(hi) - inst.dist.cdf(lo))
        n = 10**6
        res = simulate(inst, bundle, n=n, seed=31)
        assert abs(res.p_transmit - mass_tx) <= 3.0 * binom_se(mass_tx, n)

    def test_conditional_jam_frequencies(self, g1):
        a, b, x0, x1 = TABLE1[1.0]
        bundle = bundle_from_reactive(ReactivePoint((x0, x1), (a, b)), g1)
        n = 10**6
        res = simulate(g1, bundle, n=n, seed=32)
        n_idle = res.event_counts[(0, 0)] + res.event_counts[(0, 1)]
        n_busy = res.event_counts[(1, 0)] + res.event_counts[(1, 1)]
        alpha_hat = res.event_counts[(0, 1)] / n_idle
        beta_hat = res.event_counts[(1, 1)] / n_busy
        assert abs(alpha_hat - a) <= 3.0 * binom_se(a, n_idle)
        assert abs(beta_hat - b) <= 3.0 * binom_se(b, n_busy)

    def test_event_counts_sum_to_n(self, g1, eq_g1):
        res = simulate(g1, bundle_from_nonsensing(eq_g1), n=12345, seed=33)
        assert sum(res.event_counts.values()) == 12345


class TestEstimatorQuality:
    def test_unbiased_over_seeds(self, g2, eq_g2):
        bundle = bundle_from_nonsensing(eq_g2)
        n = 10**5
        runs = [simulate(g2, bundle, n=n, seed=s) for s in range(20)]
        grand_mean = float(np.mean([r.empirical_cost for r in runs]))
        pooled_se = float(np.sqrt(np.mean([r.std_error**2 for r in runs]) / len(runs)))
        assert abs(grand_mean - eq_g2.value) <= 3.0 * pooled_se


class TestDeterminism:
    def test_same_seed_same_result(self, g2, eq_g2):
        bundle = bundle_from_nonsensing(eq_g2)
        r1 = simulate(g2, bundle, n=50_000, seed=77)
        r2 = simulate(g2, bundle, n=50_000, seed=77)
        assert r1 == r2

    def test_chunking_does_not_change_results(self, g2, eq_g2):
        bundle = bundle_from_nonsensing(eq_g2)
        r1 = simulate(g2, bundle, n=50_000, seed=78, chunk=1 << 17)
        r2 = simulate(g2, bundle, n=50_000, seed=78, chunk=997)
        assert r1.empirical_cost == r2.empirical_cost
        assert r1.event_counts == r2.event_counts

    def test_chunking_keeps_counts_and_costs_to_rounding(self, g2, eq_g2):
        # the draws and counts do not depend on the chunking; the cost sums
        # are taken per chunk, so the two chunkings round differently (at
        # n = 10**6 they differ in the last bit of empirical_cost)
        bundle = bundle_from_nonsensing(eq_g2)
        r1 = simulate(g2, bundle, n=10**6, seed=78, chunk=1 << 17)
        r2 = simulate(g2, bundle, n=10**6, seed=78, chunk=997)
        assert r1.event_counts == r2.event_counts
        assert (r1.p_transmit, r1.p_jam) == (r2.p_transmit, r2.p_jam)
        assert r1.empirical_cost == pytest.approx(r2.empirical_cost, rel=1e-12, abs=0)
        assert r1.std_error == pytest.approx(r2.std_error, rel=1e-12, abs=0)


class TestSerialization:
    def test_result_json_fields(self, g1, eq_g1):
        res = simulate(g1, bundle_from_nonsensing(eq_g1), n=1000, seed=1)
        payload = json.loads(res.to_json())
        assert payload["schema_version"] == 1
        assert payload["n"] == 1000
        assert set(payload["event_counts"]) == {"u0_j0", "u0_j1", "u1_j0", "u1_j1"}

    def test_bundle_round_trip(self, g1, eq_g1):
        bundle = bundle_from_nonsensing(eq_g1)
        again = PolicyBundle.from_dict(bundle.to_dict())
        assert again == bundle

    def test_bundle_rejects_malformed_payload(self):
        with pytest.raises(ValueError, match=r"jam\.alpha"):
            PolicyBundle.from_dict(
                {"transmit": {"silent_lo": -1.0, "silent_hi": 1.0},
                 "jam": {"kind": "NonSensing", "beta": 0.2},
                 "estimator": {"xhat0": 0.0, "xhat1": 0.0}}
            )
        with pytest.raises(ValueError, match=r"transmit\.silent_lo"):
            PolicyBundle.from_dict(
                {"transmit": {}, "jam": {"kind": "NonSensing", "alpha": 0.0, "beta": 0.0},
                 "estimator": {"xhat0": 0.0, "xhat1": 0.0}}
            )

    def test_event_trace_csv(self, g1, eq_g1, tmp_path):
        path = tmp_path / "events.csv"
        simulate(g1, bundle_from_nonsensing(eq_g1), n=500, seed=5, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,u,j,y,xhat,cost"
        assert len(lines) == 501
        first = lines[1].split(",")
        assert first[3] in {"x", "idle", "B"}

    def test_event_trace_truncates_at_limit(self, g1, eq_g1, tmp_path):
        path = tmp_path / "events.csv"
        simulate(g1, bundle_from_nonsensing(eq_g1), n=15_000, seed=6, trace_path=path)
        assert len(path.read_text().splitlines()) == 10_001

    def test_event_trace_matches_per_row_formatting(self, g1, lap1, tmp_path):
        # the same draws formatted one row at a time with repr(float(.));
        # the trace spans three chunks and stops inside the third
        table = GameInstance(exp_power_table(2.75, 2.2), 1.0, 1.0)
        for inst in (g1, lap1, table):
            bundle = bundle_from_reactive(ReactivePoint((0.5, -0.4), (0.3, 0.6)), inst)
            path = tmp_path / f"events-{inst.dist.family.value}.csv"
            simulate(inst, bundle, n=12_000, seed=9, trace_path=path, chunk=4_500)
            rng = np.random.Generator(np.random.Philox(key=9))
            u = np.clip(rng.random((TRACE_LIMIT, 2)), 2.0**-53, 1.0 - 2.0**-53)
            x = inst.dist.ppf(u[:, 0])
            tx = bundle.transmit(x)
            jam = u[:, 1] < np.where(tx, bundle.jam.beta, bundle.jam.alpha)
            xhat = np.where(jam, bundle.xhat[1], np.where(tx, x, bundle.xhat[0]))
            cost = (x - xhat) ** 2 + inst.c * tx - inst.d * jam
            rows = ["x,u,j,y,xhat,cost"]
            for i in range(TRACE_LIMIT):
                tag = "B" if jam[i] else ("x" if tx[i] else "idle")
                rows.append(",".join([repr(float(x[i])), str(int(tx[i])), str(int(jam[i])), tag,
                                      repr(float(xhat[i])), repr(float(cost[i]))]))
            assert {"B", "x", "idle"} <= {r.split(",")[3] for r in rows[1:]}
            assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


class TestAnalyticCost:
    def test_nonsensing_bundle_uses_fixed_rule_value(self, g2, eq_g2):
        bundle = bundle_from_nonsensing(eq_g2)
        assert analytic_cost(g2, bundle) == pytest.approx(eq_g2.value, abs=1e-8)

    def test_reactive_bundle_off_manifold_returns_none(self, g1):
        bundle = PolicyBundle(-0.5, 0.5, JamPolicy.reactive(0.3, 0.4), (0.0, 0.0))
        assert analytic_cost(g1, bundle) is None

    def test_jam_policy_validation(self):
        with pytest.raises(ValueError):
            JamPolicy.reactive(-0.1, 0.5)
        with pytest.raises(ValueError):
            JamPolicy.non_sensing(1.5)
        assert JamPolicy.non_sensing(0.25).phi == 0.25
        with pytest.raises(ValueError):
            JamPolicy.reactive(0.1, 0.2).phi
