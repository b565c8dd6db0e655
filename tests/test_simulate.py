import importlib
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from jamgame import (
    GameInstance,
    PolicyBundle,
    ReactivePoint,
    analytic_cost,
    bundle_from_nonsensing,
    bundle_from_reactive,
    gaussian,
    laplace,
    silent_interval,
    simulate,
    solve_equilibrium,
)
from jamgame.cli import (
    SCHEMA_VERSION,
    ConfigError,
    _float_reprs,
    _load_policy,
    _policy_json,
    _write_json,
    main,
)
from jamgame.simulate import TRACE_LIMIT, SimResult

from conftest import TABLE1, exp_power_table, expectation, jt_row, traced_simulate

# the package exports the function under the module's name, so
# ``import jamgame.simulate as m`` binds the function; this is the module
SIM_MODULE = importlib.import_module("jamgame.simulate")
CLI_MODULE = importlib.import_module("jamgame.cli")


def binom_se(p_hat, n):
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)


class TestDegeneratePolicies:
    def test_never_transmit_never_jam_recovers_variance(self, g2):
        bundle = PolicyBundle(-math.inf, math.inf, 0.0, 0.0, (0.0, 0.0), "NonSensing")
        res = simulate(g2, bundle, n=10**6, seed=21)
        assert res.p_transmit == 0.0 and res.p_jam == 0.0
        assert abs(res.empirical_cost - 2.0) <= 3.0 * res.std_error

    def test_always_transmit_never_jam_costs_c(self, g1):
        bundle = PolicyBundle(0.0, 0.0, 0.0, 0.0, (0.0, 0.0), "NonSensing")
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
        analytic = jt_row(inst, p)[0]
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
        assert bundle.kind == "NonSensing"
        assert bundle.alpha == bundle.beta == eq.phi_star
        assert bundle.xhat == (0.0, 0.0)
        assert bundle.transmit(eq.threshold + 0.01)
        assert not bundle.transmit(eq.threshold - 0.01)


class TestChannelStatistics:
    def test_transmit_probability_matches_region_mass(self, g1):
        a, b, x0, x1 = TABLE1[1.0]
        inst = g1
        p = ReactivePoint((x0, x1), (a, b))
        bundle = bundle_from_reactive(p, inst)
        lo, hi = silent_interval(p.xhat, p.theta, inst.c, inst.d)
        mass_tx = 1.0 - inst.dist.partial_moments(lo, hi)[0]
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

    @pytest.mark.parametrize("n", [50_000, 10**6])
    def test_leaf_size_moves_only_the_cost_sums(self, g2, eq_g2, n, tmp_path, monkeypatch):
        # the draws, counts and trace do not depend on the leaf size; the
        # leaf sums are added in order, so two leaf sizes round differently
        bundle = bundle_from_nonsensing(eq_g2)
        runs = []
        for leaf in (SIM_MODULE.LEAF, 997):
            monkeypatch.setattr(SIM_MODULE, "LEAF", leaf)
            path = tmp_path / f"events-{leaf}.csv"
            runs.append((traced_simulate(g2, bundle, n, 78, path), path.read_bytes()))
        (r1, trace1), (r2, trace2) = runs
        assert r1.event_counts == r2.event_counts
        assert (r1.p_transmit, r1.p_jam) == (r2.p_transmit, r2.p_jam)
        assert trace1 == trace2
        assert r1.empirical_cost == pytest.approx(r2.empirical_cost, rel=1e-12, abs=0)
        assert r1.std_error == pytest.approx(r2.std_error, rel=1e-12, abs=0)


def serial_simulate(inst, policies, n, seed, trace_path=None, costs=None):
    """The single-threaded loop that ``simulate`` pipelines: draw, invert,
    tally, sum and trace each leaf of LEAF draws in turn on this thread.
    Each leaf's per-draw costs are appended to ``costs`` when it is given."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    x0, x1 = policies.xhat
    p_block = np.array([policies.alpha, policies.beta])
    symbol = np.array([x0, x1], dtype=float)
    total = total_sq = 0.0
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    rows, done = [], 0
    while done < n:
        m = min(SIM_MODULE.LEAF, n - done)
        u = rng.random((m, 2))
        np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
        x = np.asarray(inst.dist.ppf(u[:, 0]), dtype=float)
        tx = policies.transmit(x)
        jam = u[:, 1] < p_block.take(tx.view(np.uint8))
        cost = x - symbol.take(jam.view(np.uint8))
        cost *= jam | ~tx
        np.square(cost, out=cost)
        cost += inst.c * tx
        cost -= inst.d * jam
        if costs is not None:
            costs.append(cost.copy())
        total += float(np.sum(cost))
        total_sq += float(np.sum(cost * cost))
        n_tx, n_jam, n_both = (int(np.count_nonzero(b)) for b in (tx, jam, tx & jam))
        counts[(1, 1)] += n_both
        counts[(1, 0)] += n_tx - n_both
        counts[(0, 1)] += n_jam - n_both
        counts[(0, 0)] += m - n_tx - n_jam + n_both
        for i in range(min(TRACE_LIMIT - len(rows), m)):
            t, j = int(tx[i]), int(jam[i])
            xhat = x1 if j else (x[i] if t else x0)
            tag = ("idle", "x", "B", "B")[t + 2 * j]
            rows.append(f"{float(x[i])!r},{t},{j},{tag},{float(xhat)!r},{float(cost[i])!r}\n")
        done += m
    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            fh.write("x,u,j,y,xhat,cost\n" + "".join(rows))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    return SimResult(
        n=n,
        empirical_cost=mean,
        std_error=math.sqrt(var / n),
        p_transmit=(counts[(1, 0)] + counts[(1, 1)]) / n,
        p_jam=(counts[(0, 1)] + counts[(1, 1)]) / n,
        event_counts=counts,
    )


ORACLE_DENSITIES = {
    "gaussian": lambda: gaussian(2.0),
    "laplace": lambda: laplace(sigma2=1.0),
    "table": lambda: exp_power_table(2.75, 2.2),
}


class TestPipelineOracle:
    @pytest.mark.parametrize("family", sorted(ORACLE_DENSITIES))
    @pytest.mark.parametrize("kind", ["nonsensing", "reactive"])
    @pytest.mark.parametrize("leaf", [128, 997, 4500, SIM_MODULE.LEAF])
    def test_bit_for_bit_serial_loop(self, family, kind, leaf, tmp_path, monkeypatch):
        # every leaf boundary case, and 21 leaves, more than numpy sums in
        # order; the trace limit falls inside a later leaf at 4500 (the
        # third of 3 * 4500 + 5 draws) and inside the first at the default
        monkeypatch.setattr(SIM_MODULE, "LEAF", leaf)
        inst = GameInstance(ORACLE_DENSITIES[family](), 1.0, 0.7)
        if kind == "nonsensing":
            bundle = bundle_from_nonsensing(solve_equilibrium(inst))
        else:
            bundle = bundle_from_reactive(ReactivePoint((0.5, -0.4), (0.3, 0.6)), inst)
        for n in (1, leaf - 1, leaf, leaf + 1, 3 * leaf + 5, 20 * leaf + 5):
            got_path, ref_path = tmp_path / f"got-{n}.csv", tmp_path / f"ref-{n}.csv"
            got = traced_simulate(inst, bundle, n, n + leaf, got_path)
            ref = serial_simulate(inst, bundle, n, seed=n + leaf, trace_path=ref_path)
            assert got == ref
            assert got_path.read_bytes() == ref_path.read_bytes()


class TestLeafSumAccuracy:
    @pytest.mark.parametrize("family", sorted(ORACLE_DENSITIES))
    def test_mean_is_within_the_in_order_bound_of_the_exact_sum(self, family):
        # Higham: adding k leaf sums in order errs by at most about
        # (k + pairwise depth) eps * sum |cost|; numpy's pairwise sum runs
        # 8 accumulators over blocks of 128 (16 terms each), then log2(LEAF /
        # 128) levels, and the mean's division rounds once more
        inst = GameInstance(ORACLE_DENSITIES[family](), 1.0, 0.7)
        bundle = bundle_from_nonsensing(solve_equilibrium(inst))
        n = 40 * SIM_MODULE.LEAF + 7
        costs = []
        ref = serial_simulate(inst, bundle, n, seed=91, costs=costs)
        got = simulate(inst, bundle, n, seed=91)
        assert got == ref
        cost = np.concatenate(costs)
        leaves = -(-n // SIM_MODULE.LEAF)
        depth = 16 + 3 + int(math.log2(SIM_MODULE.LEAF // 128))
        bound = (leaves + depth + 2) * np.finfo(float).eps * math.fsum(np.abs(cost)) / n
        assert abs(got.empirical_cost - math.fsum(cost) / n) <= bound


class TestMemory:
    @pytest.mark.parametrize("family", sorted(ORACLE_DENSITIES))
    @pytest.mark.parametrize("traced", [False, True])
    def test_peak_is_bounded_by_the_leaf(self, family, traced, tmp_path):
        # a million draws held at once take 16 MiB for their uniforms alone,
        # and each float temporary 8 MiB
        inst = GameInstance(ORACLE_DENSITIES[family](), 1.0, 0.7)
        bundle = bundle_from_reactive(ReactivePoint((0.5, -0.4), (0.3, 0.6)), inst)
        trace = tmp_path / "events.csv" if traced else None
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            traced_simulate(inst, bundle, 10**6, 3, trace)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 4 * 2**20


class SpyDensity:
    """A density whose ``ppf`` records the thread it runs on and, on a
    chosen call, runs ``action`` first."""

    def __init__(self, dist, fail_on=None, action=None):
        self.dist = dist
        self.threads = []
        self.fail_on = fail_on
        self.action = action

    def ppf(self, u):
        self.threads.append(threading.get_ident())
        if len(self.threads) == self.fail_on:
            self.action()
        return self.dist.ppf(u)


@pytest.fixture
def opened(monkeypatch):
    """Every file the command line's trace sink opens, in order."""
    files = []

    def spy_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(CLI_MODULE, "open", spy_open, raising=False)
    return files


def live_threads():
    return {t.ident for t in threading.enumerate()}


class TestThreadHygiene:
    def test_ppf_runs_on_the_calling_thread(self, g1, tmp_path, monkeypatch):
        monkeypatch.setattr(SIM_MODULE, "LEAF", 997)
        before = live_threads()
        spy = SpyDensity(g1.dist)
        bundle = bundle_from_reactive(ReactivePoint((0.5, -0.4), (0.3, 0.6)), g1)
        n = 5 * 997 + 3
        res = traced_simulate(GameInstance(spy, 1.0, 1.0), bundle, n, 4, tmp_path / "e.csv")
        assert spy.threads == [threading.get_ident()] * 6
        assert live_threads() == before
        assert res == serial_simulate(g1, bundle, n, seed=4)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("fail_on", [1, 3])
    def test_failure_joins_helper_and_closes_trace(self, g1, eq_g1, opened, error, fail_on,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(SIM_MODULE, "LEAF", 997)

        def fail():
            raise error("ppf failed")

        before = live_threads()
        spy = SpyDensity(g1.dist, fail_on=fail_on, action=fail)
        with pytest.raises(error, match="ppf failed"):
            traced_simulate(GameInstance(spy, 1.0, 1.0), bundle_from_nonsensing(eq_g1),
                            10 * 997, 4, tmp_path / "e.csv")
        assert len(spy.threads) == fail_on
        # the file is made with the first leaf's rows: a failure in that
        # leaf leaves none
        assert len(opened) == (fail_on > 1) and all(fh.closed for fh in opened)
        assert (tmp_path / "e.csv").exists() == (fail_on > 1)
        assert live_threads() == before

    def test_closed_trace_file_joins_helper(self, g1, eq_g1, monkeypatch):
        # a sink that raises mid-run, as a write to a closed file does
        monkeypatch.setattr(SIM_MODULE, "LEAF", 997)
        before = live_threads()
        spy = SpyDensity(g1.dist)
        rows = []

        def sink(x, tx, jam, cost):
            if rows:
                raise ValueError("I/O operation on closed file")
            rows.append(len(x))

        with pytest.raises(ValueError, match="closed file"):
            simulate(GameInstance(spy, 1.0, 1.0), bundle_from_nonsensing(eq_g1), 10 * 997, 4, sink)
        assert rows == [997]
        assert len(spy.threads) == 2
        assert live_threads() == before


class TestSerialization:
    """The simulate JSON and its policy object, which the command line
    writes and ``--policy`` reads."""

    def test_result_json_fields(self, g1, eq_g1, tmp_path, capsys):
        # eq_g1 never jams: --phi 0 gives its bundle
        out = tmp_path / "sim.json"
        assert main(["simulate", "--sigma2", "1", "--phi", "0", "--n", "1000", "--seed", "1",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["n"] == 1000
        assert set(payload["event_counts"]) == {"u0_j0", "u0_j1", "u1_j0", "u1_j1"}
        res = simulate(g1, bundle_from_nonsensing(eq_g1), n=1000, seed=1)
        assert payload["empirical_cost"] == res.empirical_cost
        assert payload["std_error"] == res.std_error
        counts = {f"u{u}_j{j}": c for (u, j), c in res.event_counts.items()}
        assert payload["event_counts"] == counts

    def test_bundle_round_trip(self, g1, eq_g1, tmp_path):
        jam = (0.3, 0.3)
        for bundle in (bundle_from_nonsensing(eq_g1),
                       PolicyBundle(-math.inf, math.inf, *jam, (0.0, 0.0), "NonSensing")):
            path = tmp_path / "policy.json"
            _write_json(str(path), _policy_json(bundle))
            assert _load_policy(str(path)) == bundle

    def test_bundle_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(
            {"transmit": {"silent_lo": -1.0, "silent_hi": 1.0},
             "jam": {"kind": "NonSensing", "beta": 0.2},
             "estimator": {"xhat0": 0.0, "xhat1": 0.0}}
        ))
        with pytest.raises(ConfigError, match=r"jam\.alpha"):
            _load_policy(str(path))
        path.write_text(json.dumps(
            {"transmit": {}, "jam": {"kind": "NonSensing", "alpha": 0.0, "beta": 0.0},
             "estimator": {"xhat0": 0.0, "xhat1": 0.0}}
        ))
        with pytest.raises(ConfigError, match=r"transmit\.silent_lo"):
            _load_policy(str(path))

    def test_bundle_rejects_nan_silent_bound(self):
        jam = (0.3, 0.3)
        for lo, hi in ((math.nan, 1.0), (-1.0, math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                PolicyBundle(lo, hi, *jam, (0.0, 0.0), "NonSensing")
        # solved bundles carry infinite bounds
        bundle = PolicyBundle(-math.inf, math.inf, *jam, (0.0, 0.0), "NonSensing")
        assert bundle.silent_hi == math.inf

    def test_event_trace_csv(self, g1, eq_g1, tmp_path):
        path = tmp_path / "events.csv"
        traced_simulate(g1, bundle_from_nonsensing(eq_g1), 500, 5, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,u,j,y,xhat,cost"
        assert len(lines) == 501
        first = lines[1].split(",")
        assert first[3] in {"x", "idle", "B"}

    def test_event_trace_truncates_at_limit(self, g1, eq_g1, tmp_path):
        path = tmp_path / "events.csv"
        traced_simulate(g1, bundle_from_nonsensing(eq_g1), 15_000, 6, path)
        assert len(path.read_text().splitlines()) == 10_001

    def test_event_trace_matches_per_row_formatting(self, g1, lap1, tmp_path, monkeypatch):
        # the same draws formatted one row at a time with repr(float(.));
        # the trace spans three leaves and stops inside the third
        monkeypatch.setattr(SIM_MODULE, "LEAF", 4500)
        table = GameInstance(exp_power_table(2.75, 2.2), 1.0, 1.0)
        point = ReactivePoint((0.5, -0.4), (0.3, 0.6))
        cases = [(inst, bundle_from_reactive(point, inst)) for inst in (g1, lap1, table)]
        cases += [
            # a -0.0 symbol keeps its sign; at c = 0 every clean reception
            # costs the same 0.0
            (g1, PolicyBundle(-0.8, 0.6, 0.3, 0.6, (-0.0, -0.4), "Reactive")),
            (GameInstance(gaussian(1.0), 0.0, 1.0),
             PolicyBundle(-0.8, 0.6, 0.3, 0.6, (0.5, -0.4), "Reactive")),
        ]
        for k, (inst, bundle) in enumerate(cases):
            path = tmp_path / f"events-{k}.csv"
            traced_simulate(inst, bundle, 12_000, 9, path)
            rng = np.random.Generator(np.random.Philox(key=9))
            u = np.clip(rng.random((TRACE_LIMIT, 2)), 2.0**-53, 1.0 - 2.0**-53)
            x = inst.dist.ppf(u[:, 0])
            tx = bundle.transmit(x)
            jam = u[:, 1] < np.where(tx, bundle.beta, bundle.alpha)
            xhat = np.where(jam, bundle.xhat[1], np.where(tx, x, bundle.xhat[0]))
            cost = (x - xhat) ** 2 + inst.c * tx - inst.d * jam
            rows = ["x,u,j,y,xhat,cost"]
            for i in range(TRACE_LIMIT):
                tag = "B" if jam[i] else ("x" if tx[i] else "idle")
                rows.append(",".join([repr(float(x[i])), str(int(tx[i])), str(int(jam[i])), tag,
                                      repr(float(xhat[i])), repr(float(cost[i]))]))
            assert {"B", "x", "idle"} <= {r.split(",")[3] for r in rows[1:]}
            assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


    def test_float_reprs_tell_zeros_apart(self):
        a = np.array([0.0, -0.0, 1.5, 0.0, -0.0, 0.1 + 0.2])
        assert _float_reprs(a).tolist() == [repr(v) for v in a.tolist()]
        assert _float_reprs(a).tolist()[:2] == ["0.0", "-0.0"]


class TestAnalyticCost:
    def test_nonsensing_bundle_uses_fixed_rule_value(self, g2, eq_g2):
        bundle = bundle_from_nonsensing(eq_g2)
        assert analytic_cost(g2, bundle) == pytest.approx(eq_g2.value, abs=1e-8)

    def test_reactive_bundle_off_manifold_is_valued_on_its_interval(self, g1):
        # silent on (-0.5, 0.5), which is not the best response to this jammer
        bundle = PolicyBundle(-0.5, 0.5, 0.3, 0.4, (0.0, 0.0), "Reactive")
        p = ReactivePoint(bundle.xhat, (0.3, 0.4))
        assert silent_interval(p.xhat, p.theta, g1.c, g1.d) != (-0.5, 0.5)
        analytic = analytic_cost(g1, bundle)
        # the best response pays the pointwise cheaper branch, so it costs less
        assert analytic > jt_row(g1, p)[0]
        res = simulate(g1, bundle, n=2 * 10**5, seed=41)
        assert abs(res.empirical_cost - analytic) <= 4.0 * res.std_error

    def test_integer_bundle_is_valued_as_floats(self, g1):
        ints = PolicyBundle(-1, 1, 0, 1, (1, -1), "Reactive")
        floats = PolicyBundle(-1.0, 1.0, 0.0, 1.0, (1.0, -1.0), "Reactive")
        got = analytic_cost(g1, ints)
        assert type(got) is float and got == analytic_cost(g1, floats)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "table"])
    @pytest.mark.parametrize("kind,silent,theta,xhat", [
        ("Reactive", (-0.5, 0.8), (0.3, 0.4), (0.2, -0.6)),
        ("Reactive", (-math.inf, 0.3), (0.6, 1.0), (-0.4, 0.7)),
        ("Reactive", (-math.inf, math.inf), (0.2, 0.9), (0.5, 0.1)),
        ("NonSensing", (-1.1, 0.9), (0.45, 0.45), (0.1, -0.3)),
        ("NonSensing", (0.0, 0.0), (0.7, 0.7), (0.3, 0.3)),
    ], ids=["reactive", "reactive-half-line", "never-transmit", "nonsensing", "always-transmit"])
    def test_off_manifold_bundles_match_quadrature(self, family, kind, silent, theta, xhat):
        # lengths in units of the density's scale
        dist = {"gaussian": lambda: gaussian(1.7), "laplace": lambda: laplace(sigma2=1.7),
                "table": lambda: exp_power_table(1.7, 1.6)}[family]()
        inst = GameInstance(dist, 0.8, 1.1)
        s = dist.scale
        lo, hi = silent[0] * s, silent[1] * s
        x0, x1 = xhat[0] * s, xhat[1] * s
        a, b = theta
        bundle = PolicyBundle(lo, hi, a, b, (x0, x1), kind)
        assert silent_interval((x0, x1), theta, inst.c, inst.d) != (lo, hi)

        def cost(x):
            transmit = b * (x - x1) ** 2 + inst.c - inst.d * b
            quiet = a * (x - x1) ** 2 + (1.0 - a) * (x - x0) ** 2 - inst.d * a
            return np.where((x > lo) & (x < hi), quiet, transmit)

        kinks = [e for e in (lo, hi) if math.isfinite(e)]
        oracle = expectation(dist, cost, kinks=kinks, tol=1e-13)
        assert analytic_cost(inst, bundle) == pytest.approx(oracle, abs=1e-12)

    def test_jam_policy_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PolicyBundle(-1.0, 1.0, -0.1, 0.5, (0.0, 0.0), "Reactive")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PolicyBundle(-1.0, 1.0, 1.5, 1.5, (0.0, 0.0), "NonSensing")
        with pytest.raises(ValueError, match="alpha == beta"):
            PolicyBundle(-1.0, 1.0, 0.2, 0.3, (0.0, 0.0), "NonSensing")
        with pytest.raises(ValueError, match="unknown jammer kind 'Sensing': "
                                             "expected 'NonSensing' or 'Reactive'"):
            PolicyBundle(-1.0, 1.0, 0.2, 0.2, (0.0, 0.0), "Sensing")
