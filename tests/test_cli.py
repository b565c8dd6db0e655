import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest

from jamgame.cli import SCHEMA_VERSION, _strict, _write_json, main

from conftest import TABLE1, bad_first_row_csv, gaussian_table_csv

SQRT_2PI = math.sqrt(2.0 * math.pi)


def strict_json(path):
    """The JSON in ``path``, parsed as RFC 8259 allows: a bare Infinity or
    NaN token raises."""
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonWriter:
    def test_infinities_become_strings_at_any_depth(self):
        payload = {"a": math.inf, "b": [-math.inf, 1.5, (math.inf, 2)],
                   "c": {"d": -math.inf, "e": "Infinity"}, "f": None, "g": True, "h": 3}
        assert _strict(payload) == {"a": "Infinity", "b": ["-Infinity", 1.5, ["Infinity", 2]],
                                    "c": {"d": "-Infinity", "e": "Infinity"},
                                    "f": None, "g": True, "h": 3}

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 0.1, 1.7976931348623157e308])
    def test_finite_payload_keeps_its_bytes(self, tmp_path, value):
        out = tmp_path / "out.json"
        payload = {"x": value, "xs": [value, -value], "nested": {"y": value, "n": 3}}
        _write_json(str(out), payload)
        assert out.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_infinities_read_back_through_float(self, tmp_path):
        out = tmp_path / "out.json"
        _write_json(str(out), {"hi": math.inf, "lo": [-math.inf]})
        payload = strict_json(out)
        assert float(payload["hi"]) == math.inf
        assert float(payload["lo"][0]) == -math.inf

    def test_nan_is_refused_before_anything_is_written(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(ValueError):
            _write_json(str(out), {"x": 1.0, "y": math.nan})
        assert not out.exists()


class TestSolveNonsensing:
    def test_interior_example(self, tmp_path, capsys):
        out = tmp_path / "eq.json"
        code, stdout, _ = run(
            capsys, "solve-nonsensing", "--dist", "gaussian", "--sigma2", "2",
            "--c", "1", "--d", "1", "--out", str(out),
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["schema_version"] == 1
        assert payload["regime"] == "InteriorJam"
        assert payload["phi_star"] == pytest.approx(0.7887, abs=1e-3)
        assert "phi_star" in stdout

    def test_no_jam_example(self, tmp_path, capsys):
        out = tmp_path / "eq.json"
        code, stdout, _ = run(
            capsys, "solve-nonsensing", "--dist", "gaussian", "--sigma2", "1",
            "--out", str(out),
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["regime"] == "NoJam" and payload["phi_star"] == 0.0

    def test_always_jam_threshold_is_strict_json(self, tmp_path, capsys):
        # free jamming: every transmission is blocked, so the sensor never
        # transmits and the threshold is infinite
        out = tmp_path / "eq.json"
        code, _, _ = run(capsys, "solve-nonsensing", "--sigma2", "1", "--c", "1", "--d", "0",
                         "--out", str(out))
        assert code == 0
        payload = strict_json(out)
        assert payload["regime"] == "AlwaysJam" and payload["threshold"] == "Infinity"

    def test_saddle_verification_flag(self, tmp_path, capsys):
        out = tmp_path / "eq.json"
        code, stdout, _ = run(
            capsys, "solve-nonsensing", "--dist", "gaussian", "--sigma2", "2",
            "--verify-saddle", "31", "--out", str(out),
        )
        assert code == 0
        assert strict_json(out)["saddle_check"]["ok"] is True

    def test_saddle_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        # a value 0.01 above the true one: the coordinator's deviation to the
        # equilibrium itself undercuts it
        cli = sys.modules["jamgame.cli"]
        solve = cli.solve_equilibrium

        def overvalued(inst):
            eq = solve(inst)
            return dataclasses.replace(eq, value=eq.value + 0.01)

        monkeypatch.setattr(cli, "solve_equilibrium", overvalued)
        out = tmp_path / "eq.json"
        code, stdout, _ = run(
            capsys, "solve-nonsensing", "--dist", "gaussian", "--sigma2", "2",
            "--verify-saddle", "11", "--out", str(out),
        )
        assert code == 4
        assert "saddle check   VIOLATED" in stdout
        assert strict_json(out)["saddle_check"]["ok"] is False

    def test_saddle_tol_zero_allows_last_bit_rounding(self, tmp_path, capsys):
        # the frozen-rule objective at phi = 1 rounds 1 ulp (2.2e-16) above
        # the equilibrium value; the raw excess is reported, but it is no
        # violation
        out = tmp_path / "eq.json"
        code, stdout, _ = run(
            capsys, "solve-nonsensing", "--sigma2", "2", "--verify-saddle", "11",
            "--saddle-tol", "0", "--out", str(out),
        )
        assert code == 0
        assert "saddle check   ok" in stdout
        saddle = strict_json(out)["saddle_check"]
        assert saddle["ok"] is True and saddle["tol"] == 0.0 and saddle["grid_points"] == 11
        assert 0.0 < saddle["worst_jammer_excess"] < 1e-15

    @pytest.mark.parametrize("argv", [
        ["solve-nonsensing"],
        ["solve-reactive", "--max-iters", "20"],
        ["simulate", "--phi", "0.3", "--n", "1000"],
        ["compare", "--max-iters", "20"],
        ["sweep", "--mode", "fig2", "--c-grid", "0.5:1.5:3", "--d-grid", "0.5:1.5:3"],
    ], ids=lambda argv: argv[0])
    def test_bimodal_refusal(self, tmp_path, capsys, bimodal_table, argv):
        # every command that loads --dist custom refuses the table at load
        x, f = bimodal_table
        csv_path = tmp_path / "bimodal.csv"
        csv_path.write_text(
            "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, f)) + "\n"
        )
        code, _, stderr = run(capsys, *argv, "--dist", "custom", "--pdf-csv", str(csv_path))
        assert code == 2
        assert "unimodality" in stderr

    @pytest.mark.parametrize("header", ["x,f\n", ""], ids=["header", "no-header"])
    def test_bad_first_csv_row_exits_2(self, tmp_path, capsys, header):
        # the row is named, and not dropped as a header, which solved
        # another density at exit 0
        path = bad_first_row_csv(tmp_path / "density.csv", header)
        out = tmp_path / "ns.json"
        code, stdout, stderr = run(capsys, "solve-nonsensing", "--dist", "custom",
                                   "--pdf-csv", str(path), "--out", str(out))
        assert code == 2
        assert "malformed CSV row: ['-8.0', '1.2664165549094176e-14oops']" in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("header", ["x,f\n", ""], ids=["header", "no-header"])
    def test_byte_order_mark_solves_the_same_table(self, tmp_path, capsys, header):
        # a headerless marked file lost its first data row and solved
        # another density at exit 0
        outs = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = gaussian_table_csv(tmp_path / f"{encoding}.csv", header, encoding)
            out = tmp_path / f"{encoding}.json"
            code, stdout, _ = run(capsys, "solve-nonsensing", "--dist", "custom",
                                  "--pdf-csv", str(path), "--out", str(out))
            assert code == 0
            outs.append((out.read_bytes(), stdout))
        assert outs[0] == outs[1]

    def test_missing_sigma2_is_config_error(self, capsys):
        code, _, stderr = run(capsys, "solve-nonsensing", "--dist", "gaussian")
        assert code == 2
        assert "sigma2" in stderr

    @pytest.mark.parametrize("c,d", [("0", "0.5"), ("1", "0")])
    def test_boundary_instances_always_jam(self, tmp_path, capsys, c, d):
        out = tmp_path / "eq.json"
        code, _, _ = run(
            capsys, "solve-nonsensing", "--dist", "gaussian", "--sigma2", "1",
            "--c", c, "--d", d, "--verify-saddle", "21", "--out", str(out),
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["regime"] == "AlwaysJam" and payload["phi_star"] == 1.0
        assert payload["saddle_check"]["ok"] is True


class TestSolveReactive:
    def test_reference_row(self, tmp_path, capsys):
        out = tmp_path / "fne.json"
        trace = tmp_path / "trace.csv"
        code, stdout, _ = run(
            capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
            "--c", "1", "--d", "1", "--eps", "1e-5",
            "--out", str(out), "--trace-out", str(trace),
        )
        assert code == 0
        payload = strict_json(out)
        point = payload["points"][0]
        a, b, x0, x1 = TABLE1[1.0]
        assert point["alpha"] == pytest.approx(a, abs=2e-2)
        assert point["beta"] == pytest.approx(b, abs=2e-2)
        assert point["xhat0"] == pytest.approx(x0, abs=2e-2)
        assert point["xhat1"] == pytest.approx(x1, abs=2e-2)
        assert point["certificate"]["certified"] is True
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("k,xhat0,xhat1,alpha,beta,objective")
        assert len(lines) == point["iterations"] + 2  # header + k=0 row

    def test_uncertified_exit_code_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "fne.json"
        code, _, _ = run(
            capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
            "--max-iters", "3", "--out", str(out),
        )
        assert code == 4
        payload = strict_json(out)
        assert payload["points"][0]["terminated_by"] == "MaxIters"
        assert payload["points"][0]["certificate"]["certified"] is False

    def test_symmetric_init_flag(self, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
            "--init-xhat", "0", "0", "--max-iters", "400",
        )
        assert code in (0, 4)
        assert "terminated_by" in stdout

    def test_gda_solver_flag(self, tmp_path, capsys):
        out = tmp_path / "fne.json"
        code, _, _ = run(
            capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
            "--solver", "gda", "--lambda-ga", "0.1", "--lambda-gd", "0.01",
            "--out", str(out),
        )
        assert code == 0
        point = strict_json(out)["points"][0]
        assert point["certificate"]["certified"] is True
        assert point["xhat0"] == pytest.approx(TABLE1[1.0][2], abs=2e-2)

    def test_multistart_reports_all(self, tmp_path, capsys):
        out = tmp_path / "fne.json"
        code, _, _ = run(
            capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
            "--multistart", "2", "--seed", "9", "--out", str(out),
        )
        assert code == 0
        assert len(strict_json(out)["points"]) == 3


    def test_numerical_failure_exit_code(self, capsys):
        # a GDA descent step this large makes xhat diverge; the kernel stops
        # the run at the first non-finite objective or gradient
        code, _, stderr = run(
            capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
            "--solver", "gda", "--lambda-gd", "50", "--max-iters", "2000",
        )
        assert code == 3
        assert "numerical failure" in stderr

    def test_polished_at_reported(self, tmp_path, capsys):
        out = tmp_path / "fne.json"
        code, _, _ = run(
            capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "4.48127",
            "--c", "0.183528", "--d", "1.47286", "--max-iters", "500", "--out", str(out),
        )
        assert code == 0
        point = strict_json(out)["points"][0]
        assert point["polished_at"] == point["iterations"] - 1
        run(capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
            "--max-iters", "3", "--out", str(out))
        assert strict_json(out)["points"][0]["polished_at"] is None

    def test_schedule_flag_is_refused(self, capsys):
        # the solvers take one fixed step size; there is no step schedule
        with pytest.raises(SystemExit) as exc:
            main(["solve-reactive", "--sigma2", "1", "--schedule", "sqrt"])
        assert exc.value.code == 2
        assert "--schedule" in capsys.readouterr().err


class TestSimulateCommand:
    def test_policy_file_round_trip(self, tmp_path, capsys):
        eq_path = tmp_path / "eq.json"
        run(capsys, "solve-nonsensing", "--dist", "gaussian", "--sigma2", "2",
            "--out", str(eq_path))
        eq = strict_json(eq_path)
        policy = {
            "transmit": {"silent_lo": -eq["threshold"], "silent_hi": eq["threshold"]},
            "jam": {"kind": "NonSensing", "alpha": eq["phi_star"], "beta": eq["phi_star"]},
            "estimator": {"xhat0": 0.0, "xhat1": 0.0},
        }
        pol_path = tmp_path / "policy.json"
        pol_path.write_text(json.dumps(policy))
        out = tmp_path / "sim.json"
        code, stdout, _ = run(
            capsys, "simulate", "--dist", "gaussian", "--sigma2", "2",
            "--policy", str(pol_path), "--n", "200000", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        payload = strict_json(out)
        assert abs(payload["gap_in_std_errors"]) <= 3.0
        assert "analytic_cost" in stdout

    @pytest.mark.parametrize("policy_argv,infinite", [
        (["--phi", "1"], {"silent_lo": "-Infinity", "silent_hi": "Infinity"}),
        (["--alpha", "0.3", "--beta", "1", "--xhat0", "0.5"], {"silent_hi": "Infinity"}),
    ], ids=["phi-1", "beta-1"])
    def test_infinite_bound_policy_file_reproduces_its_run(self, tmp_path, capsys,
                                                           policy_argv, infinite):
        # the written policy, infinite bounds as strings, read back by --policy
        first, again, pol = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "policy.json"
        argv = ["simulate", "--sigma2", "1", "--n", "5000", "--seed", "8"]
        code, stdout, _ = run(capsys, *argv, *policy_argv, "--out", str(first))
        assert code == 0
        policy = strict_json(first)["policy"]
        assert infinite.items() <= policy["transmit"].items()
        pol.write_text(json.dumps(policy, allow_nan=False))
        code, stdout_again, _ = run(capsys, *argv, "--policy", str(pol), "--out", str(again))
        assert code == 0
        assert again.read_bytes() == first.read_bytes() and stdout_again == stdout

    def test_rounded_solved_policy_file_reports_analytic_cost(self, tmp_path, capsys):
        # the sigma2 = 1 equilibrium's bundle with every number rounded to 6
        # decimals is off the best-response interval by about 1e-7
        fne = tmp_path / "fne.json"
        code, _, _ = run(capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
                         "--out", str(fne))
        assert code == 0
        point = strict_json(fne)["points"][0]
        sim = tmp_path / "sim.json"
        run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1", "--n", "10",
            "--alpha", repr(point["alpha"]), "--beta", repr(point["beta"]),
            "--xhat0", repr(point["xhat0"]), "--xhat1", repr(point["xhat1"]), "--out", str(sim))
        policy = strict_json(sim)["policy"]
        for node in policy.values():
            if isinstance(node, dict):
                node.update({k: round(v, 6) for k, v in node.items() if isinstance(v, float)})
        pol_path = tmp_path / "policy.json"
        pol_path.write_text(json.dumps(policy))
        out = tmp_path / "out.json"
        code, stdout, _ = run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1",
                              "--policy", str(pol_path), "--n", "200000", "--seed", "5",
                              "--out", str(out))
        assert code == 0
        payload = strict_json(out)
        assert payload["policy"] == policy
        assert math.isfinite(payload["analytic_cost"])
        assert abs(payload["gap_in_std_errors"]) <= 4.0
        assert "analytic_cost" in stdout

    def test_bundle_the_kernel_cannot_value_fails_before_drawing(self, tmp_path, capsys):
        # xhat0 = 1e200 overflows the cost coefficients: exit 3 with no
        # printed result and no trace file
        trace = tmp_path / "events.csv"
        code, stdout, stderr = run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1",
                                   "--alpha", "0.3", "--beta", "0.4", "--xhat0", "1e200",
                                   "--n", "100", "--trace-out", str(trace))
        assert code == 3 and "overflow" in stderr
        assert stdout == "" and not trace.exists()

    def test_zero_draws_is_config_error_with_no_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "events.csv"
        code, stdout, stderr = run(capsys, "simulate", "--sigma2", "1", "--phi", "0.3",
                                   "--n", "0", "--trace-out", str(trace))
        assert code == 2 and "n must be >= 1" in stderr
        assert stdout == "" and not trace.exists()

    def test_free_transmission_under_certain_jamming_transmits(self, tmp_path, capsys):
        # at c = 0 and phi = 1 every x ties the threshold rule, and ties
        # transmit; every draw is blocked either way
        out = tmp_path / "sim.json"
        code, _, _ = run(capsys, "simulate", "--sigma2", "1", "--c", "0", "--phi", "1",
                         "--n", "1000", "--out", str(out))
        assert code == 0
        payload = strict_json(out)
        assert payload["p_transmit"] == 1.0 and payload["p_jam"] == 1.0
        assert payload["event_counts"]["u1_j1"] == 1000

    def test_inline_reactive_policy(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        a, b, x0, x1 = TABLE1[3.0]
        code, _, _ = run(
            capsys, "simulate", "--dist", "gaussian", "--sigma2", "3",
            "--alpha", str(a), "--beta", str(b), "--xhat0", str(x0), "--xhat1", str(x1),
            "--n", "200000", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        assert abs(strict_json(out)["gap_in_std_errors"]) <= 3.0

    @pytest.mark.parametrize("shift,gap_se,shown", [
        (0.0, 0.0, "(gap = +0.00 SE)"),
        (0.25, "-Infinity", "(gap = -inf SE)"),
        (-0.25, "Infinity", "(gap = +inf SE)"),
    ])
    def test_zero_std_error(self, tmp_path, capsys, monkeypatch, shift, gap_se, shown):
        # at c = 0 the sensor always transmits and every draw costs exactly
        # 0, so the standard error is 0; a shifted analytic cost gives a
        # nonzero gap over it
        cli = sys.modules["jamgame.cli"]
        analytic = cli.analytic_cost
        monkeypatch.setattr(cli, "analytic_cost", lambda inst, b: analytic(inst, b) + shift)
        out = tmp_path / "o.json"
        code, stdout, _ = run(
            capsys, "simulate", "--dist", "gaussian", "--sigma2", "1", "--c", "0", "--d", "1",
            "--alpha", "0", "--beta", "0", "--xhat0", "0", "--xhat1", "0", "--n", "1000",
            "--out", str(out),
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["std_error"] == 0.0 and payload["empirical_cost"] == 0.0
        # an infinite gap is written as the string float() reads back
        assert payload["gap_in_std_errors"] == gap_se
        assert math.copysign(1.0, float(payload["gap_in_std_errors"])) == \
            math.copysign(1.0, float(gap_se))
        assert shown in stdout

    def test_malformed_policy_reports_field_path(self, tmp_path, capsys):
        pol = tmp_path / "bad.json"
        pol.write_text(json.dumps({"transmit": {"silent_lo": 0.0}, "jam": {}, "estimator": {}}))
        code, _, stderr = run(
            capsys, "simulate", "--dist", "gaussian", "--sigma2", "1", "--policy", str(pol),
        )
        assert code == 2
        assert "transmit.silent_hi" in stderr

    def test_policy_file_not_json(self, tmp_path, capsys):
        pol = tmp_path / "bad.json"
        pol.write_text("not json at all{")
        code, _, stderr = run(
            capsys, "simulate", "--dist", "gaussian", "--sigma2", "1", "--policy", str(pol),
        )
        assert code == 2

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "JSON object"),
        ('{"transmit": {"silent_lo": true, "silent_hi": 1.0}, '
         '"jam": {"kind": "NonSensing", "alpha": 0.2, "beta": 0.2}, '
         '"estimator": {"xhat0": 0.0, "xhat1": 0.0}}', "transmit.silent_lo"),
    ], ids=["top-level-list", "boolean-field"])
    def test_policy_file_of_wrong_shape_is_config_error(self, tmp_path, capsys, text, message):
        # a list raised AttributeError (exit 1); true was read as 1.0 and ran
        pol = tmp_path / "policy.json"
        pol.write_text(text)
        out = tmp_path / "sim.json"
        code, stdout, stderr = run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1",
                                   "--policy", str(pol), "--n", "1000", "--out", str(out))
        assert code == 2
        assert stderr.startswith("config error:") and message in stderr
        assert stdout == "" and not out.exists()

    def test_requires_some_policy(self, capsys):
        code, _, stderr = run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1")
        assert code == 2

    @pytest.mark.parametrize("flags,named", [
        (["--phi", "0.3", "--alpha", "0.9", "--beta", "0.1"], ("--phi", "--alpha")),
        (["--phi", "0.3", "--beta", "0.1"], ("--phi", "--beta")),
        (["--policy", "POLICY", "--phi", "0.3"], ("--policy", "--phi")),
        (["--policy", "POLICY", "--alpha", "0.9", "--beta", "0.1"], ("--policy", "--alpha")),
        # a policy file holds its own symbols; they used to replace the flags unseen
        (["--policy", "POLICY", "--xhat0", "5"], ("--policy", "--xhat0")),
        (["--xhat1", "-3", "--policy", "POLICY"], ("--policy", "--xhat1")),
    ])
    def test_conflicting_policy_flags_are_config_error(self, tmp_path, capsys, flags, named):
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({
            "transmit": {"silent_lo": -1.0, "silent_hi": 1.0},
            "jam": {"kind": "NonSensing", "alpha": 0.3, "beta": 0.3},
            "estimator": {"xhat0": 0.0, "xhat1": 0.0},
        }))
        out = tmp_path / "sim.json"
        argv = [str(pol) if f == "POLICY" else f for f in flags]
        code, stdout, stderr = run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1",
                                   *argv, "--n", "1000", "--out", str(out))
        assert code == 2
        assert all(flag in stderr for flag in named)
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("transmit,jam,message", [
        ('"silent_lo": -1.0, "silent_hi": 1.0', '"kind": "NonSensing", "alpha": 0.2, "beta": 0.3',
         "alpha == beta"),
        ('"silent_lo": NaN, "silent_hi": 1.0', '"kind": "NonSensing", "alpha": 0.2, "beta": 0.2',
         "NaN"),
        ('"silent_lo": -1.0, "silent_hi": NaN', '"kind": "Reactive", "alpha": 0.2, "beta": 0.3',
         "NaN"),
        ('"silent_lo": -1.0, "silent_hi": 1.0', '"kind": "Sensing", "alpha": 0.2, "beta": 0.2',
         "jam.kind ('Sensing')"),
    ], ids=["nonsensing-alpha-ne-beta", "nan-silent-lo", "nan-silent-hi", "unknown-kind"])
    def test_inconsistent_policy_file_is_config_error(self, tmp_path, capsys, transmit, jam,
                                                      message):
        # json.load accepts NaN; before these checks all three simulated and exited 0
        pol = tmp_path / "policy.json"
        pol.write_text(f'{{"transmit": {{{transmit}}}, "jam": {{{jam}}}, '
                       '"estimator": {"xhat0": 0.0, "xhat1": 0.0}}')
        out = tmp_path / "sim.json"
        code, stdout, stderr = run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1",
                                   "--policy", str(pol), "--n", "1000", "--out", str(out))
        assert code == 2
        assert message in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("phi", ["1.5", "-0.5"])
    def test_inline_phi_out_of_range_is_config_error(self, capsys, phi):
        code, _, stderr = run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1",
                              "--phi", phi, "--n", "1000")
        assert code == 2
        assert "phi must lie in [0, 1]" in stderr


class TestSweep:
    def test_fig2_grid(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, _, _ = run(
            capsys, "sweep", "--mode", "fig2", "--dist", "gaussian", "--sigma2", "1",
            "--c-grid", "0.5:1.5:3", "--d-grid", "0.5:1.5:3", "--out", str(out),
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "c,d,phi_star,regime,value"
        assert len(lines) == 10
        cell = dict(zip(lines[0].split(","), lines[5].split(",")))
        assert float(cell["c"]) == 1.0 and float(cell["d"]) == 1.0
        assert float(cell["phi_star"]) == 0.0  # unit variance, c = d = 1

    def test_fig4_single_cell_matches_reference(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code, _, _ = run(
            capsys, "sweep", "--mode", "fig4", "--dist", "gaussian",
            "--sigma2-grid", "1:1:1", "--out", str(out),
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        a, b, x0, x1 = TABLE1[1.0]
        assert float(row["alpha"]) == pytest.approx(a, abs=2e-2)
        assert float(row["beta"]) == pytest.approx(b, abs=2e-2)
        assert row["certified"] == "True"

    def test_fig4_integer_sweep_consistent_with_solver(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code, _, _ = run(
            capsys, "sweep", "--mode", "fig4", "--dist", "gaussian",
            "--sigma2-grid", "1:5:5", "--out", str(out),
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        assert [float(r["sigma2"]) for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(r["certified"] == "True" for r in rows)
        # self-consistency with a direct solver run
        from jamgame import GameInstance, gaussian, solve_pga_ccp

        direct, _, _ = solve_pga_ccp(GameInstance(gaussian(3.0), 1.0, 1.0))
        assert float(rows[2]["alpha"]) == pytest.approx(direct.theta[0], abs=1e-12)
        # only the unit-variance row matches the benchmark table; and on the
        # computed sweep both blocking probabilities grow with the variance
        # (relatively cheaper jamming), the opposite of the benchmark trend
        a, b, _, _ = TABLE1[1.0]
        assert float(rows[0]["alpha"]) == pytest.approx(a, abs=2e-2)
        assert float(rows[0]["beta"]) == pytest.approx(b, abs=2e-2)
        alphas = [float(r["alpha"]) for r in rows]
        betas = [float(r["beta"]) for r in rows]
        assert all(x <= y + 1e-9 for x, y in zip(alphas, alphas[1:]))
        assert all(x <= y + 1e-9 for x, y in zip(betas, betas[1:]))

    @pytest.mark.parametrize("dist", [["--dist", "laplace", "--sigma2", "2"],
                                      ["--dist", "custom", "--pdf-csv", "unused.csv"]],
                             ids=["laplace", "custom"])
    def test_fig4_refuses_other_densities(self, tmp_path, capsys, dist):
        # fig4 solves Gaussian instances only; it used to print the Gaussian
        # rows whatever --dist said
        out = tmp_path / "fig4.csv"
        code, stdout, stderr = run(capsys, "sweep", "--mode", "fig4", *dist,
                                   "--sigma2-grid", "2:2:1", "--out", str(out))
        assert code == 2
        assert "fig4" in stderr and "Gaussian" in stderr
        assert stdout == "" and not out.exists()

    def test_fig2_checks_admissibility_once(self, tmp_path, capsys, monkeypatch):
        # a closed-form family is admissible by construction and never
        # checked; a table is checked once, when it is loaded, before any solve
        import jamgame.cli
        import jamgame.dist

        events = []
        check = jamgame.dist.Tabulated._violations
        monkeypatch.setattr(jamgame.dist.Tabulated, "_violations",
                            lambda d: events.append("check") or check(d))
        solve = jamgame.cli.solve_equilibrium
        monkeypatch.setattr(jamgame.cli, "solve_equilibrium",
                            lambda inst, **kw: events.append("solve") or solve(inst, **kw))
        grids = ("--c-grid", "0.5:1.5:3", "--d-grid", "0.5:1.5:3")
        code, _, _ = run(
            capsys, "sweep", "--mode", "fig2", "--dist", "gaussian", "--sigma2", "1", *grids,
            "--out", str(tmp_path / "f.csv"),
        )
        assert code == 0 and events == ["solve"] * 9

        events.clear()
        x = np.linspace(-8.5, 8.5, 801)
        csv_path = tmp_path / "gauss.csv"
        csv_path.write_text("\n".join(f"{float(a)!r},{float(b)!r}"
                                       for a, b in zip(x, np.exp(-0.5 * x * x))) + "\n")
        code, _, _ = run(
            capsys, "sweep", "--mode", "fig2", "--dist", "custom", "--pdf-csv", str(csv_path),
            *grids, "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0 and events == ["check"] + ["solve"] * 9

    def test_degenerate_grid_is_config_error(self, capsys):
        code, _, stderr = run(
            capsys, "sweep", "--mode", "fig2", "--dist", "gaussian", "--sigma2", "1",
            "--c-grid", "2:1:5",
        )
        assert code == 2


@pytest.mark.parametrize("argv,flag", [
    (["solve-reactive", "--multistart", "-3", "--max-iters", "5"], "--multistart"),
    (["solve-nonsensing", "--verify-saddle", "-2"], "--verify-saddle"),
    (["solve-nonsensing", "--verify-saddle", "11", "--saddle-tol", "nan"], "--saddle-tol"),
    (["solve-nonsensing", "--verify-saddle", "11", "--saddle-tol", "-1"], "--saddle-tol"),
], ids=["multistart", "verify-saddle", "saddle-tol-nan", "saddle-tol-negative"])
def test_negative_count_refused_at_parse_time(capsys, argv, flag):
    # -3 starts used to run as 0 and exit 0; -2 grid points printed the
    # equilibrium and then failed inside numpy; a NaN tolerance passed every
    # saddle check and a negative one failed every check
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dist", "gaussian", "--sigma2", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert flag in captured.err and "must be >= 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve-nonsensing", "--sigma2", "nan"],
    ["solve-nonsensing", "--sigma2", "inf"],
    ["solve-nonsensing", "--dist", "laplace", "--scale", "nan"],
    ["solve-nonsensing", "--dist", "laplace", "--scale", "inf"],
    ["solve-nonsensing", "--dist", "laplace", "--scale", "1e200"],
    ["solve-nonsensing", "--sigma2", "1", "--c", "nan"],
    ["solve-nonsensing", "--sigma2", "1", "--c", "inf"],
    ["solve-nonsensing", "--sigma2", "1", "--d", "inf"],
    ["sweep", "--mode", "fig2", "--sigma2", "1", "--d-grid", "1:2:2", "--c-grid", "0:nan:3"],
    ["sweep", "--mode", "fig4", "--sigma2-grid", "1:nan:2"],
    ["solve-reactive", "--sigma2", "1", "--max-iters", "50", "--eps", "nan"],
    ["solve-reactive", "--sigma2", "1", "--max-iters", "50", "--step-size", "nan"],
    ["solve-reactive", "--sigma2", "1", "--solver", "gda", "--lambda-gd", "inf"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_finite_parameter_is_config_error(capsys, argv):
    # these reached the kernel and exited 3 (a Laplace scale of 1e200 is
    # finite, but its variance is not), ran to --max-iters and exited 4, or
    # blamed xhat
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == "" and stderr.startswith("config error:")
    assert "xhat" not in stderr


class TestCompare:
    def test_both_solvers_certify_and_order_holds(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code, stdout, _ = run(
            capsys, "compare", "--dist", "gaussian", "--sigma2", "1", "--out", str(out),
        )
        assert code == 0
        assert "pga-ccp" in stdout and "gda" in stdout
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        iters = {}
        for r in rows:
            iters[r[0]] = max(iters.get(r[0], 0), int(r[1]))
        assert iters["pga-ccp"] <= iters["gda"]

    def test_csv_on_stdout_is_the_whole_stdout(self, capsys):
        # without --out the CSV is all of stdout and the summary goes to
        # stderr; it used to follow the CSV on stdout
        code, stdout, stderr = run(capsys, "compare", "--dist", "gaussian", "--sigma2", "1",
                                   "--max-iters", "20")
        assert code == 4
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0][0] == "solver" and len(rows) > 2
        assert all(len(r) == len(rows[0]) for r in rows)
        assert {r[0] for r in rows[1:]} == {"pga-ccp", "gda"}
        assert stderr.startswith("pga-ccp:") and "gda:" in stderr


    @pytest.mark.parametrize("flags", [
        ["--sigma2", "1"],
        ["--dist", "laplace", "--sigma2", "2", "--c", "0.7", "--step-size", "0.2",
         "--max-iters", "50"],
    ], ids=["gaussian", "laplace-flags"])
    def test_pga_ccp_rows_are_the_solve_reactive_trace(self, tmp_path, capsys, flags):
        # the two commands write a trace row through one formatter
        cmp_out, trace = tmp_path / "cmp.csv", tmp_path / "trace.csv"
        run(capsys, "compare", *flags, "--out", str(cmp_out))
        run(capsys, "solve-reactive", *flags, "--trace-out", str(trace))
        rows = list(csv.reader(io.StringIO(cmp_out.read_text())))
        traced = list(csv.reader(io.StringIO(trace.read_text())))
        assert rows[0] == ["solver"] + traced[0][:8]
        pga = [r[1:] for r in rows[1:] if r[0] == "pga-ccp"]
        assert len(pga) > 1 and pga == [r[:8] for r in traced[1:]]


class TestArtifactSchema:
    def test_every_json_artifact_carries_the_schema_version(self, tmp_path, capsys):
        runs = {
            "nonsensing": ["solve-nonsensing", "--sigma2", "2", "--verify-saddle", "5"],
            "reactive": ["solve-reactive", "--sigma2", "1", "--multistart", "1"],
            "simulate": ["simulate", "--sigma2", "1", "--phi", "0.3", "--n", "1000"],
        }
        payloads = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}.json"
            code, _, _ = run(capsys, *argv, "--out", str(out))
            assert code == 0
            payloads[name] = strict_json(out)
        for payload in [*payloads.values(), payloads["simulate"]["policy"]]:
            assert payload["schema_version"] == SCHEMA_VERSION

    @pytest.mark.parametrize("policy_argv", [
        ["--phi", "0.3"],
        ["--alpha", "0.2", "--beta", "0.7", "--xhat0", "0.4", "--xhat1", "-0.9"],
        ["--alpha", "0", "--beta", "0"],
    ], ids=["nonsensing", "reactive", "never-jam"])
    def test_simulate_policy_reproduces_its_file(self, tmp_path, capsys, policy_argv):
        # the policy object of a simulate file, schema_version and all, fed
        # back through --policy
        first, again = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--dist", "laplace", "--sigma2", "1.5", "--c", "0.8",
                "--n", "4000", "--seed", "5"]
        code, stdout, _ = run(capsys, *argv, *policy_argv, "--out", str(first))
        assert code == 0
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(strict_json(first)["policy"]))
        code, stdout_again, _ = run(capsys, *argv, "--policy", str(policy), "--out", str(again))
        assert code == 0
        assert again.read_bytes() == first.read_bytes() and stdout_again == stdout


class TestDeterminismAndConfig:
    def test_compare_reruns_are_bit_identical(self, tmp_path, capsys):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"cmp_{tag}.csv"
            code, _, _ = run(
                capsys, "compare", "--dist", "gaussian", "--sigma2", "1",
                "--max-iters", "80", "--out", str(out),
            )
            assert code == 4  # budget too small to certify; artifacts still written
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            eq = tmp_path / f"eq_{tag}.json"
            tr = tmp_path / f"tr_{tag}.csv"
            sim = tmp_path / f"sim_{tag}.json"
            run(capsys, "solve-reactive", "--dist", "gaussian", "--sigma2", "1",
                "--max-iters", "60", "--out", str(eq), "--trace-out", str(tr))
            run(capsys, "simulate", "--dist", "gaussian", "--sigma2", "1",
                "--phi", "0.3", "--n", "50000", "--seed", "12", "--out", str(sim))
            outs.append((eq.read_bytes(), tr.read_bytes(), sim.read_bytes()))
        assert outs[0] == outs[1]

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[solve-nonsensing]\n"
            "dist = gaussian\n"
            "sigma2 = 2\n"
            "c = 1\n"
            "d = 1\n"
        )
        out = tmp_path / "eq.json"
        code, _, _ = run(capsys, "--config", str(cfg), "solve-nonsensing", "--out", str(out))
        assert code == 0
        assert strict_json(out)["phi_star"] == pytest.approx(0.7887, abs=1e-3)

        # explicit flag wins over the config value
        code, _, _ = run(
            capsys, "--config", str(cfg), "solve-nonsensing", "--sigma2", "1",
            "--out", str(out),
        )
        assert code == 0
        assert strict_json(out)["phi_star"] == 0.0

    def test_config_values_do_not_leak_into_later_calls(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[solve-nonsensing]\nsigma2 = 2\n"
            "[solve-reactive]\nsigma2 = 1\ninit-xhat = 0.25 -0.5\nmax-iters = 0\n"
        )
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "--config", str(cfg), "solve-nonsensing", "--out", str(out))
        assert code == 0
        assert strict_json(out)["phi_star"] == pytest.approx(0.7887, abs=1e-3)
        code, _, stderr = run(capsys, "solve-nonsensing")
        assert code == 2
        assert "--sigma2 is required" in stderr

        # a two-value entry is split into its two values
        code, _, _ = run(capsys, "--config", str(cfg), "solve-reactive", "--out", str(out))
        assert code == 4
        point = strict_json(out)["points"][0]
        assert (point["xhat0"], point["xhat1"], point["iterations"]) == (0.25, -0.5, 0)
        code, _, _ = run(capsys, "solve-reactive", "--sigma2", "1", "--max-iters", "1",
                         "--out", str(out))
        point = strict_json(out)["points"][0]
        assert point["iterations"] == 1

    @pytest.mark.parametrize("config,flags,jam", [
        # a command-line policy replaces the config's, whichever flags give each
        ("alpha = 0.9\nbeta = 0.1\n", ["--phi", "0.3"], ("NonSensing", 0.3, 0.3)),
        ("alpha = 0.9\nbeta = 0.1\n", ["--ph=0.3"], ("NonSensing", 0.3, 0.3)),
        ("phi = 0.3\n", ["--alpha", "0.9", "--beta", "0.1"], ("Reactive", 0.9, 0.1)),
        ("phi = 0.3\n", ["--phi", "0.6"], ("NonSensing", 0.6, 0.6)),
        ("phi = 0.3\n", [], ("NonSensing", 0.3, 0.3)),
    ])
    def test_command_line_policy_replaces_config_policy(self, tmp_path, capsys,
                                                          config, flags, jam):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[simulate]\ndist = gaussian\nsigma2 = 1\n" + config)
        out = tmp_path / "sim.json"
        code, _, _ = run(capsys, "--config", str(cfg), "simulate", *flags,
                         "--n", "1000", "--out", str(out))
        assert code == 0
        policy = strict_json(out)["policy"]["jam"]
        assert (policy["kind"], policy["alpha"], policy["beta"]) == jam

    @pytest.mark.parametrize("flags,estimator", [
        # a policy file on the command line holds its own symbols
        (["--policy", "POLICY"], {"xhat0": 0.25, "xhat1": -0.5}),
        (["--pol=POLICY"], {"xhat0": 0.25, "xhat1": -0.5}),
        # an inline policy takes the config's symbols
        (["--alpha", "0.9", "--beta", "0.1"], {"xhat0": 2.0, "xhat1": -1.0}),
        (["--phi", "0.3"], {"xhat0": 2.0, "xhat1": -1.0}),
    ], ids=["policy", "policy-abbreviated", "alpha-beta", "phi"])
    def test_config_symbols_yield_to_command_line_policy_file(self, tmp_path, capsys,
                                                               flags, estimator):
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({
            "transmit": {"silent_lo": -1.0, "silent_hi": 1.0},
            "jam": {"kind": "NonSensing", "alpha": 0.3, "beta": 0.3},
            "estimator": {"xhat0": 0.25, "xhat1": -0.5},
        }))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[simulate]\ndist = gaussian\nsigma2 = 1\nxhat0 = 2\nxhat1 = -1\n")
        out = tmp_path / "sim.json"
        argv = [f.replace("POLICY", str(pol)) for f in flags]
        code, _, stderr = run(capsys, "--config", str(cfg), "simulate", *argv,
                              "--n", "1000", "--out", str(out))
        assert code == 0, stderr
        assert strict_json(out)["policy"]["estimator"] == estimator

    def test_conflicting_config_policies_are_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[simulate]\nsigma2 = 1\nphi = 0.3\nalpha = 0.9\nbeta = 0.1\n")
        code, _, stderr = run(capsys, "--config", str(cfg), "simulate", "--n", "1000")
        assert code == 2
        assert "--phi" in stderr and "--alpha" in stderr

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[solve-nonsensing]\nnot_a_flag = 3\n")
        code, _, stderr = run(capsys, "--config", str(cfg), "solve-nonsensing")
        assert code == 2
        assert "not_a_flag" in stderr

    def test_missing_config_file_rejected(self, capsys):
        code, _, stderr = run(capsys, "--config", "/nonexistent.cfg", "solve-nonsensing")
        assert code == 2

    @pytest.mark.parametrize("text", [
        "sigma2 = 1\n",
        "[solve-nonsensing]\nsigma2 = 1\n[solve-nonsensing]\nc = 2\n",
        "[solve-nonsensing]\nsigma2 = 1\nsigma2 = 2\n",
        "[solve-nonsensing]\nsigma2 = 1%\n",
    ], ids=["no-section-header", "duplicate-section", "duplicate-option", "bare-percent"])
    def test_unparsable_config_file_is_config_error(self, tmp_path, capsys, text):
        # configparser's exceptions used to escape as a traceback with exit 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, stdout, stderr = run(capsys, "--config", str(cfg), "solve-nonsensing")
        assert code == 2
        assert stdout == "" and stderr.startswith("config error:")

    def test_schedule_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[solve-reactive]\nsigma2 = 1\nschedule = sqrt\n")
        code, stdout, stderr = run(capsys, "--config", str(cfg), "solve-reactive")
        assert code == 2
        assert stdout == "" and "unknown config key [solve-reactive] schedule" in stderr
