"""Closed-loop benchmark of the jamgame command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process calls ``jamgame.cli.main(argv)`` and sends each
operation only after the previous one has returned; BLAS and OpenMP use one
thread. The program is imported from ``src/`` of the checkout this file
sits in, and receives only argv and the files generated from ``--seed``.
Every output is checked (outside the timed region); a nonzero exit or a
failed check counts as a failed operation and is listed with its argv.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics. With ``--trace 1`` every deck runs twice, once with
and once without the per-layer wrappers of ``tracer.py``; the per-layer
metrics are per traced operation, and the untraced passes give the
workload's throughputs and the tracing overhead. Spans are written to
``perfbench/.out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reactive-solve", "nonsensing-sweep", "simulate-mc")
SETUP_PROBES = 5  # set-up is timed this many times per run; the median is reported
HARD_STOP_S = 120.0  # no new deck starts after this much wall time (a far slower program)
# On a shared host the CPU can switch between a fast and a ~1.6x slower
# speed every few seconds (another tenant on the same core). Each operation
# waits until a short probe runs at the fast speed again, so the timings
# describe the program rather than the neighbour. The waits are bounded.
PROBE_LOOPS = 20_000  # pure-Python work of about 1 ms
SLOW_FACTOR = 1.25  # a probe this much slower than the fastest one means contention
WAIT_CAP_S = 3.0  # longest hold before one operation
WAIT_BUDGET = 0.3  # longest total hold, as a share of --seconds


def import_program():
    """Import jamgame from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import jamgame.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import jamgame from {src}: {exc}")
    if not Path(jamgame.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: jamgame was imported from {jamgame.cli.__file__}, not {src}")
    return jamgame.cli


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    """Run one operation; return exit code, stderr and seconds taken.

    ``cli.main`` is looked up on every call, so the traced wrapper is used
    while it is installed."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")  # report warnings per operation, as a fresh process would
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv by exiting, as the process would
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, err.getvalue(), time.perf_counter() - t0


def setup(workload: str, seed: int, workdir: Path):
    """Import, input generation and one warm-up operation."""
    cli = import_program()
    import workloads as wl

    workdir.mkdir(parents=True, exist_ok=True)
    inputs = wl.Inputs(workdir, seed)
    rc, err, _ = call(cli, wl.WARMUP[workload])
    if rc != 0:
        raise SystemExit(f"perfbench: warm-up operation exited {rc}: {err.strip()}")
    return cli, wl, inputs


class QuietGate:
    """Holds each operation until a probe shows the CPU at its fast speed."""

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.fastest = math.inf
        self.waited_s = 0.0
        self.holds = 0

    @staticmethod
    def probe() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        return time.perf_counter() - t0

    def wait(self) -> None:
        t0 = time.perf_counter()
        while True:
            p = self.probe()
            self.fastest = min(self.fastest, p)
            held = time.perf_counter() - t0
            if (p <= SLOW_FACTOR * self.fastest or held > WAIT_CAP_S
                    or self.waited_s + held > self.budget_s):
                break
        if held > 0.01:
            self.holds += 1
        self.waited_s += held


def time_setups(args, gate: QuietGate) -> list[float]:
    """Wall time from process start until a fresh process reports ready."""
    times = []
    for _ in range(SETUP_PROBES):
        gate.wait()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                _, err = proc.communicate(timeout=60)
            finally:  # on every way out, the probe has ended before the next step
                if proc.poll() is None:
                    proc.kill()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe failed: {err.strip()}")
        times.append(elapsed)
    return times


class Loop:
    """Runs decks of operations and keeps what the metrics need."""

    def __init__(self, cli, inputs, gate: QuietGate):
        self.cli, self.inputs, self.gate = cli, inputs, gate
        self.latencies: list[float] = []  # every operation
        self.ok_latencies: list[float] = []  # operations that exited 0 and passed their check
        self.units = {"solves": 0, "equilibria": 0, "draws": 0}
        self.failures: list[tuple[str, list[str], str]] = []  # (kind, argv, reason)
        self.wrong: list[tuple[str, list[str], str]] = []
        self.bytes_written = 0

    @property
    def busy(self) -> float:
        """Seconds spent inside ``main``; output checks are not included."""
        return sum(self.latencies)

    def run(self, ops, tracer=None) -> None:
        """Run ``ops`` in order."""
        for op in ops:
            for f in op.files:
                Path(f).unlink(missing_ok=True)
            self.gate.wait()
            if tracer is not None:
                tracer.op += 1
                tracer.install()
            rc, err, dt = call(self.cli, op.argv)
            if tracer is not None:
                tracer.uninstall()
                self.bytes_written += sum(Path(f).stat().st_size for f in op.files
                                          if Path(f).exists())
            self.latencies.append(dt)
            reason, units = op.check(rc, err, self.inputs)
            for key, n in units.items():
                self.units[key] += n
            if reason is None:
                self.ok_latencies.append(dt)
            else:
                self.failures.append((op.kind, op.argv, reason))
                if rc == 0:  # the program claimed success: a wrong output
                    self.wrong.append((op.kind, op.argv, reason))


def percentile_ms(latencies, q):
    return float(statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]) * 1e3


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "threads": 1,
            "clients": 1, "loop": "closed"}


def end_to_end(loop: Loop, setups: list[float]) -> dict:
    """Throughput counts every operation; latency percentiles count the
    successful ones, since failures are reported by count, not by speed."""
    ok = loop.ok_latencies
    out = {"setup_s": (statistics.median(setups), "s")} if setups else {}
    out.update({
        "ops_per_s": (len(loop.latencies) / loop.busy, "1/s"),
        "op_p50_ms": (percentile_ms(ok, 50), "ms"),
        "op_p90_ms": (percentile_ms(ok, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })
    return out


def workload_rates(loop: Loop) -> dict:
    n, busy = len(loop.latencies), loop.busy
    return {
        "solves_per_s": (loop.units["solves"] / busy, "1/s"),
        "equilibria_per_s": (loop.units["equilibria"] / busy, "1/s"),
        "draws_per_s": (loop.units["draws"] / busy, "1/s"),
        "failed_frac": (len(loop.failures) / n if n else 0.0, "frac"),
    }


def per_layer(tracer, traced: Loop, plain: Loop) -> dict:
    counters = tracer.counters
    traced_busy = traced.busy

    def per_op(x):
        return x / len(traced.latencies)

    def c(name):
        return (per_op(tracer.calls(name)), "calls/op")

    def s(name):
        return (per_op(tracer.self_seconds(name) * 1e3), "ms/op")

    solves = tracer.calls("reactive.solve")
    iters = counters["reactive.solve.iterations"]
    modules = tracer.module_self_seconds()
    out = {
        "quadrature.integrate.calls": c("quadrature.integrate"),
        "quadrature.integrate.nodes": (per_op(counters["quadrature.integrate.nodes"]), "nodes/op"),
        "quadrature.integrate.self_ms": s("quadrature.integrate"),
        "quadrature.integrate.err_max": (counters["quadrature.integrate.err_max"], "abs"),
        "quadrature.expectation.calls": c("quadrature.expectation"),
        "quadrature.accuracy_warnings": (per_op(counters["quadrature.accuracy_warnings"]),
                                         "warnings/op"),
        "reactive.solve.calls": c("reactive.solve"),
        "reactive.solve.iterations": (per_op(iters), "iters/op"),
        "reactive.solve.self_ms": s("reactive.solve"),
        "reactive.iter_ms": (tracer.total_seconds("reactive.solve") * 1e3 / iters if iters else 0.0, "ms"),
        "reactive.objective_jtilde.calls": c("reactive.objective_jtilde"),
        "reactive.objective_jtilde.self_ms": s("reactive.objective_jtilde"),
        "reactive.ccp_step.calls": c("reactive.ccp_step"),
        "reactive.ccp_step.self_ms": s("reactive.ccp_step"),
        "reactive.grad_xhat.calls": c("reactive.grad_xhat"),
        "reactive.certified_frac": (counters["reactive.certified"] / solves if solves else 0.0,
                                    "frac"),
        "nonsensing.solve_equilibrium.calls": c("nonsensing.solve_equilibrium"),
        "nonsensing.solve_equilibrium.self_ms": s("nonsensing.solve_equilibrium"),
        "nonsensing.jam_marginal.calls": c("nonsensing.jam_marginal"),
        "nonsensing.objective.calls": c("nonsensing.objective"),
        "nonsensing.verify_saddle.self_ms": s("nonsensing.verify_saddle"),
        "dist.check_symmetric_unimodal.calls": c("dist.check_symmetric_unimodal"),
        "dist.check_symmetric_unimodal.self_ms": s("dist.check_symmetric_unimodal"),
        "dist.tail_second_moment.calls": c("dist.tail_second_moment"),
        "dist.tail_second_moment.self_ms": s("dist.tail_second_moment"),
        "dist.pdf.calls": c("dist.pdf"),
        "dist.pdf.points": (per_op(counters["dist.pdf.points"]), "points/op"),
        "dist.pdf.self_ms": s("dist.pdf"),
        "dist.ppf.points": (per_op(counters["dist.ppf.points"]), "points/op"),
        "dist.ppf.self_ms": s("dist.ppf"),
        "simulate.simulate.calls": c("simulate.simulate"),
        "simulate.simulate.draws": (per_op(counters["simulate.simulate.draws"]), "draws/op"),
        "simulate.simulate.self_ms": s("simulate.simulate"),
        "simulate.analytic_cost.self_ms": s("simulate.analytic_cost"),
        "simulate.trace_rows": (per_op(counters["simulate.trace_rows"]), "rows/op"),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_ms": s("cli.main"),
        "cli.build_distribution.self_ms": s("cli.build_distribution"),
        "cli.bytes_written": (per_op(traced.bytes_written), "B/op"),
    }
    for term in ("epsilon_fne", "max_iters", "stalled"):
        out[f"reactive.terminated.{term}"] = (per_op(counters[f"reactive.terminated.{term}"]),
                                              "solves/op")
    for module, secs in modules.items():
        out[f"{module}.self_ms"] = (per_op(secs * 1e3), "ms/op")
    out["trace.wall_ms"] = (per_op(traced_busy * 1e3), "ms/op")
    out["trace.remainder_frac"] = ((traced_busy - sum(modules.values())) / traced_busy, "frac")
    out["trace.overhead_frac"] = (traced_busy / plain.busy - 1.0, "frac")
    return out


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")


def print_operations(title: str, ops) -> None:
    print(title)
    for kind, argv, reason in ops:
        print(f"  [{kind}] jamgame {' '.join(argv)}\n    -> {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    workdir = HERE / ".work" / str(os.getpid())
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    t_start = time.perf_counter()
    cli, wl, inputs = setup(args.workload, args.seed, workdir)
    gate = QuietGate(WAIT_BUDGET * args.seconds)
    setups = [] if args.trace else time_setups(args, gate)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    make_deck = wl.DECKS[args.workload]
    plain = Loop(cli, inputs, gate)
    traced = Loop(cli, inputs, gate) if args.trace else None
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    n_decks = wl.decks_per_run(args.workload, args.seconds)
    if tracer is not None:  # each deck runs twice
        n_decks = max(2, math.ceil(n_decks / 2))
    for deck in range(n_decks):
        if time.perf_counter() - t_start > HARD_STOP_S:
            print(f"perfbench: hard stop after {deck} of {n_decks} decks", file=sys.stderr)
            break
        ops = make_deck(args.seed, deck, inputs)
        if tracer is None:
            plain.run(ops)
        else:  # alternating which pass runs first
            first, second = (plain, traced) if deck % 2 == 0 else (traced, plain)
            first.run(ops, tracer if first is traced else None)
            second.run(ops, tracer if second is traced else None)

    loops = [plain] + ([traced] if traced else [])
    wrong = [w for lp in loops for w in lp.wrong]
    attempted = sum(len(lp.latencies) for lp in loops)
    failed = sum(len(lp.failures) for lp in loops)

    e2e = end_to_end(plain, setups)
    rates = workload_rates(plain)
    print(f"workload {args.workload} seed {args.seed}: {len(plain.latencies)} operations "
          f"in {n_decks} decks, {plain.busy:.2f} s inside main; latency percentiles over "
          f"{len(plain.ok_latencies)} successful operations; held {gate.holds} operations "
          f"for {gate.waited_s:.2f} s in total until the CPU probe ran at its fast speed "
          f"({gate.fastest * 1e3:.3f} ms)")
    print_metrics("end-to-end (untraced):", e2e)
    print_metrics("workload rates (untraced):", rates)
    if tracer is not None:
        slow = end_to_end(traced, [])
        print_metrics("end-to-end (traced passes of the same operations):", slow)
        print_metrics("tracing overhead (traced minus untraced):",
                      {k: (slow[k][0] - e2e[k][0], slow[k][1]) for k in slow if k != "peak_rss_mb"})
        layers = per_layer(tracer, traced, plain)
        layers.update(rates)
        print_metrics("per-layer (traced, per traced operation):", layers)
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        remainder = layers["trace.remainder_frac"][0]
        if abs(remainder) > 0.01:
            wrong.append(("trace self-check", [],
                          f"module self times miss the traced wall time by {remainder:.2%}"))
        metrics = layers
    else:
        metrics = e2e
    print_operations(f"failed operations: {len(plain.failures)} of {len(plain.latencies)}",
                     plain.failures)
    if wrong:
        print_operations("wrong outputs (exit 0 but a failed check):", wrong)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
