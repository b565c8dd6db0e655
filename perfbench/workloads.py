"""Seeded operation decks and output checks for the benchmark workloads.

Each distribution family has its own scrambled Sobol sequence, and deck k
takes its next block of points, moved by a small seeded shift, so the
instances of every family cover the parameter ranges evenly and the share
of slow instances (for example the PGA-CCP runs that reach the iteration
budget) varies little from seed to seed. Within a deck the families take
turns and the few fixed operations are spread out. A run executes a whole
number of decks, fixed by the workload and ``--seconds`` alone, so two runs
with the same seed make the same operations and fail the same ones.

Every operation is an argv list for ``jamgame.cli.main``; the files it
reads are generated from the seed into the run's work directory. Each
check returns ``(reason, units)``: ``reason`` is None when the output is
correct, and ``units`` counts certified reactive solves, non-sensing
equilibria and Monte Carlo draws.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gamma
from scipy.stats import qmc

from jamgame import (
    GameInstance,
    ReactivePoint,
    certify_fne,
    gaussian,
    jam_marginal,
    laplace,
)
from jamgame.dist import Tabulated

FAMILIES = ("gaussian", "laplace", "custom")
BLOCK = 8  # Sobol points per family per deck, a power of two for the balance
JITTER = 1.0 / 32  # how far the seed moves each instance, as a share of each range
EPS = 1e-5  # epsilon of every reactive certificate
MAX_ITERS = 500  # one iteration budget for every reactive solver run
SIM_N = (200_000, 800_000)  # range of Monte Carlo draws per simulate operation
SIM_SE_LIMIT = 6.0  # allowed |empirical - analytic| in standard errors
TRACE_LIMIT = 10_000  # simulate writes at most this many trace rows

# Table 1 row for sigma2 = 1, c = d = 1: (alpha, beta, xhat0, xhat1). The
# sigma2 >= 2 rows are not first-order equilibria and are not compared.
TABLE1_SIGMA2_1 = (0.0760, 0.3172, 0.5169, -0.4831)
TABLE1_TOL = 2e-2
README_PHI = 0.7887  # solve-nonsensing --sigma2 2 --c 1 --d 1
README_PHI_TOL = 5e-5

Units = dict[str, int]
Check = Callable[[int, str, "Inputs"], tuple["str | None", Units]]


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check
    files: list[str] = field(default_factory=list)  # outputs the operation writes


def _interleave(fixed: list[Op], by_family: list[list[Op]]) -> list[Op]:
    """Families in turn, with the fixed operations spread evenly among them."""
    rotation = [op for group in zip_longest(*by_family) for op in group if op is not None]
    if not fixed:
        return rotation
    step = len(rotation) // len(fixed)
    out = []
    for i, op in enumerate(fixed):
        out.append(op)
        out.extend(rotation[i * step:(i + 1) * step if i < len(fixed) - 1 else None])
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_signed(x: float) -> str:
    """Fixed point, so argparse never mistakes a small negative value for a flag."""
    return f"{x:.6f}"


def write_density(path: Path, variance: float, shape: float, knots_per_side: int = 20) -> None:
    """Two-column CSV of the symmetric unimodal density exp(-|x/a|^shape)."""
    a = math.sqrt(variance * gamma(1.0 / shape) / gamma(3.0 / shape))
    half = np.linspace(0.0, a * 40.0 ** (1.0 / shape), knots_per_side + 1)
    x = np.concatenate([-half[:0:-1], half])
    f = np.exp(-((np.abs(x) / a) ** shape))
    with open(path, "w", newline="") as fh:
        fh.write("x,f\n")
        for xv, fv in zip(x, f):
            fh.write(f"{float(xv)!r},{float(fv)!r}\n")


class Inputs:
    """The files a run generates from its seed, and the instances behind them."""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        rng = np.random.default_rng([seed, 7])
        self.densities: list[str] = []
        # variance in [0.5, 5] and shape in [1.3, 2.4], one density per stratum
        for k, (variance, shape) in enumerate(((1.25, 1.5), (2.75, 2.2), (4.25, 1.8))):
            path = workdir / f"density{k}.csv"
            write_density(path, variance + rng.uniform(-0.5, 0.5), shape + rng.uniform(-0.1, 0.1))
            self.densities.append(str(path))
        self._tables: dict[str, Tabulated] = {}

    def dist(self, family: str, sigma2: float | None = None, csv_path: str | None = None):
        if family == "gaussian":
            return gaussian(sigma2)
        if family == "laplace":
            return laplace(sigma2=sigma2)
        if csv_path not in self._tables:
            self._tables[csv_path] = Tabulated.from_csv(csv_path)
        return self._tables[csv_path]

    def path(self, name: str) -> str:
        return str(self.dir / name)


def _dist_args(family: str, sigma2: float, csv_path: str | None) -> list[str]:
    if family == "custom":
        return ["--dist", "custom", "--pdf-csv", csv_path]
    return ["--dist", family, "--sigma2", _fmt(sigma2)]


def _stream(seed: int, workload: str, family: str, deck: int, dims: int,
            count: int = BLOCK) -> np.ndarray:
    """The first ``count`` points of deck ``deck``'s block of a family's Sobol
    sequence, moved by the seed. ``count`` is a power of two, so the points
    stay balanced.

    The sequence is fixed per workload and family; the seed moves every point
    by up to JITTER in each coordinate. Solver iteration counts are erratic
    functions of the instance, so redrawing the whole design per seed would
    make the run-to-run spread follow a handful of slow instances.
    """
    key = [WORKLOAD_KEYS[workload], FAMILIES.index(family)]
    engine = qmc.Sobol(dims, scramble=True, seed=np.random.default_rng(key))
    if deck:  # fast_forward(0) is an error
        engine.fast_forward(deck * BLOCK)
    shift = np.random.default_rng([seed] + key + [deck]).uniform(0.0, JITTER, dims)
    return engine.random(BLOCK)[:count] * (1.0 - JITTER) + shift


def _instance(inputs: "Inputs", family: str, us: float) -> tuple[float, str | None]:
    """sigma2 in [0.5, 5]; a custom density is picked by the same coordinate."""
    if family == "custom":
        return 0.0, inputs.densities[min(int(us * 3), 2)]
    return float(_fmt(0.5 + 4.5 * us)), None


def _load_json(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


# ---------------------------------------------------------------- reactive


def _recertify(inst: GameInstance, point: dict, claimed: bool) -> str | None:
    p = ReactivePoint((point["xhat0"], point["xhat1"]), (point["alpha"], point["beta"]))
    cert = certify_fne(inst, p, EPS)
    if cert.certified != claimed:
        return (f"re-certification disagrees: claimed {claimed}, got {cert.certified} "
                f"(grad_norm {cert.grad_norm:.3e}, lp_gap {cert.lp_gap:.3e})")
    return None


def _solve_reactive_check(family, sigma2, csv_path, c, d, out, trace_out=None, table=False):
    def check(rc, stderr, inputs):
        payload = _load_json(out)
        if payload is None:
            return f"exit {rc}, no JSON output: {stderr.strip()[-200:]}", {}
        inst = GameInstance(inputs.dist(family, sigma2, csv_path), c, d)
        certified = 0
        for pt in payload["points"]:
            claimed = pt["certificate"]["certified"]
            problem = _recertify(inst, pt, claimed)
            if problem:
                return problem, {}
            certified += claimed
        primary = payload["points"][0]
        if rc != 0:
            return (f"exit {rc}: primary run terminated by {primary['terminated_by']} "
                    f"after {primary['iterations']} iterations, uncertified"), {"solves": certified}
        if table:
            got = np.array([primary["alpha"], primary["beta"], primary["xhat0"], primary["xhat1"]])
            ref = np.array(TABLE1_SIGMA2_1)
            mirrored = got * np.array([1, 1, -1, -1])
            err = min(np.max(np.abs(got - ref)), np.max(np.abs(mirrored - ref)))
            if err > TABLE1_TOL:
                return f"Table 1 sigma2=1 row missed by {err:.4f}", {"solves": certified}
        if trace_out is not None:
            rows = _read_csv(trace_out)
            if len(rows) != primary["iterations"] + 2:
                return f"trace has {len(rows)} rows for {primary['iterations']} iterations", {}
        return None, {"solves": certified}

    return check


def _fig4_check(grid, c, d, out):
    def check(rc, stderr, inputs):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-200:]}", {}
        rows = _read_csv(out)[1:]
        if len(rows) != grid[2]:
            return f"fig4 wrote {len(rows)} rows, expected {grid[2]}", {}
        for s2, alpha, beta, x0, x1, _, certified in rows:
            inst = GameInstance(gaussian(float(s2)), c, d)
            point = dict(alpha=float(alpha), beta=float(beta), xhat0=float(x0), xhat1=float(x1))
            problem = _recertify(inst, point, certified == "True")
            if problem:
                return f"sigma2={s2}: {problem}", {}
            if certified != "True":
                return f"sigma2={s2}: uncertified", {}
        return None, {"solves": len(rows)}

    return check


def _compare_check(sigma2, c, d, out):
    def check(rc, stderr, inputs):
        if not Path(out).exists():
            return f"exit {rc}, no CSV output: {stderr.strip()[-200:]}", {}
        last = {}
        for row in _read_csv(out)[1:]:
            last[row[0]] = row
        inst = GameInstance(gaussian(sigma2), c, d)
        certified = 0
        for solver, row in last.items():
            point = dict(xhat0=float(row[2]), xhat1=float(row[3]),
                         alpha=float(row[4]), beta=float(row[5]))
            cert = certify_fne(inst, ReactivePoint((point["xhat0"], point["xhat1"]),
                                                   (point["alpha"], point["beta"])), EPS)
            certified += cert.certified
        if rc != 0:
            return f"exit {rc}: {2 - certified} of 2 solvers uncertified", {"solves": certified}
        if certified != 2:
            return "exit 0 but a final trace row does not re-certify", {}
        return None, {"solves": certified}

    return check


def reactive_deck(seed: int, deck: int, inputs: Inputs) -> list[Op]:
    """PGA-CCP solves over the three families, plus fig4 and compare operations."""
    budget = ["--eps", repr(EPS), "--max-iters", str(MAX_ITERS)]
    out = inputs.path("table.json")
    argv = ["solve-reactive", "--dist", "gaussian", "--sigma2", "1", "--c", "1", "--d", "1",
            "--out", out] + budget
    ops = [Op("table1-sigma2-1", argv,
              _solve_reactive_check("gaussian", 1.0, None, 1.0, 1.0, out, table=True), [out])]

    # fig4 and compare instances depend on the deck only: the GDA iteration
    # count swings widely with sigma2, and a seeded choice would make the
    # run-to-run spread of the whole workload follow one or two operations.
    # fig4 uses the paper's setting, c = d = 1, on a two-point sigma2 grid.
    lo = (1.0, 3.0, 2.0, 4.0)[deck % 4]
    grid = (lo, lo + 1.0, 2)
    out = inputs.path("fig4.csv")
    argv = ["sweep", "--mode", "fig4", "--sigma2-grid", f"{lo:g}:{lo + 1:g}:2",
            "--c", "1", "--d", "1", "--out", out] + budget
    ops.append(Op("sweep-fig4", argv, _fig4_check(grid, 1.0, 1.0, out), [out]))

    # GDA runs here; sigma2 <= 2 and --lambda-gd 0.1 keep it inside the budget
    s2 = (1.0, 1.5, 1.25, 1.75, 2.0)[deck % 5]
    out = inputs.path("compare.csv")
    argv = ["compare", "--dist", "gaussian", "--sigma2", _fmt(s2), "--c", "1", "--d", "1",
            "--lambda-gd", "0.1", "--out", out] + budget
    ops.append(Op("compare", argv, _compare_check(s2, 1.0, 1.0, out), [out]))

    by_family = []
    for family in FAMILIES:
        fam_ops: list[Op] = []
        by_family.append(fam_ops)
        for i, (us, uc, ud, ux) in enumerate(_stream(seed, "reactive-solve", family, deck, 4)):
            s2, csv_path = _instance(inputs, family, us)
            c, d = float(_fmt(0.1 + 1.9 * uc)), float(_fmt(0.1 + 1.9 * ud))
            out = inputs.path(f"{family}{i}.json")
            argv = (["solve-reactive"] + _dist_args(family, s2, csv_path)
                    + ["--c", _fmt(c), "--d", _fmt(d), "--out", out] + budget)
            kind, trace_out, files = f"solve-reactive-{family}", None, [out]
            if i == 2:
                argv += ["--multistart", "1", "--seed", str(int(ux * 2**31))]
                kind += "-multistart"
            elif i == 5:
                trace_out = inputs.path(f"{family}{i}-trace.csv")
                argv += ["--trace-out", trace_out]
                kind += "-trace"
                files.append(trace_out)
            fam_ops.append(Op(kind, argv, _solve_reactive_check(family, s2, csv_path, c, d, out,
                                                                trace_out), files))
    return _interleave(ops, by_family)


# -------------------------------------------------------------- nonsensing


def _phi_problem(inst: GameInstance, phi: float) -> str | None:
    """phi* must be the root of the decreasing jamming marginal, or sit at
    the regime boundary its sign points to."""
    step = 1e-7
    if phi == 0.0:
        ok = jam_marginal(inst, 0.0) <= 0.0 or jam_marginal(inst, step) < 0.0
    elif phi >= 1.0 - 1e-12:
        ok = jam_marginal(inst, 1.0 - 1e-9) >= 0.0
    else:
        ok = (jam_marginal(inst, max(phi - step, 0.0)) >= 0.0
              and jam_marginal(inst, min(phi + step, 1.0 - 1e-12)) <= 0.0)
    if not ok:
        return f"phi*={phi!r} violates the jamming-marginal condition (c={inst.c}, d={inst.d})"
    return None


def _solve_nonsensing_check(family, sigma2, csv_path, c, d, out, readme=False):
    def check(rc, stderr, inputs):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-200:]}", {}
        payload = _load_json(out)
        if payload is None:
            return "no JSON output", {}
        inst = GameInstance(inputs.dist(family, sigma2, csv_path), c, d)
        problem = _phi_problem(inst, payload["phi_star"])
        if problem:
            return problem, {}
        if readme and abs(payload["phi_star"] - README_PHI) > README_PHI_TOL:
            return f"README instance gave phi*={payload['phi_star']!r}, expected {README_PHI}", {}
        saddle = payload.get("saddle_check")
        if saddle is not None and not saddle["ok"]:
            return f"saddle check violated: {saddle}", {}
        return None, {"equilibria": 1}

    return check


def _fig2_check(family, sigma2, csv_path, cells, out):
    def check(rc, stderr, inputs):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-200:]}", {}
        rows = _read_csv(out)[1:]
        if len(rows) != cells:
            return f"fig2 wrote {len(rows)} cells, expected {cells}", {}
        base = inputs.dist(family, sigma2, csv_path)
        for c, d, phi, _, _ in rows:
            problem = _phi_problem(GameInstance(base, float(c), float(d)), float(phi))
            if problem:
                return problem, {}
        return None, {"equilibria": len(rows)}

    return check


def nonsensing_deck(seed: int, deck: int, inputs: Inputs) -> list[Op]:
    """fig2 grids, saddle-verified single solves and two boundary instances.

    Each family has one fig2 grid per deck; custom, whose every operation
    also loads its CSV, has half as many operations. About seven in ten
    successful operations are then gaussian or laplace single solves, so
    the median latency lies inside that group rather than in the gap above
    it, where it would jump between groups from run to run.
    """
    out = inputs.path("readme.json")
    argv = ["solve-nonsensing", "--dist", "gaussian", "--sigma2", "2", "--c", "1", "--d", "1",
            "--verify-saddle", "41", "--out", out]
    ops = [Op("readme-instance", argv,
              _solve_nonsensing_check("gaussian", 2.0, None, 1.0, 1.0, out, True), [out])]

    # Boundary regime, whose answer is phi* = 1: d = 0, and c = 0 with d below the variance.
    rng = np.random.default_rng([seed, WORKLOAD_KEYS["nonsensing-sweep"], deck])
    family = FAMILIES[deck % 3]
    s2, csv_path = _instance(inputs, family, float(rng.uniform()))
    variance = inputs.dist(family, s2, csv_path).variance
    for tag, c, d in (("d0", float(_fmt(rng.uniform(0.1, 2.0))), 0.0),
                      ("c0", 0.0, float(_fmt(variance * rng.uniform(0.05, 0.95))))):
        out = inputs.path(f"boundary-{tag}.json")
        argv = (["solve-nonsensing"] + _dist_args(family, s2, csv_path)
                + ["--c", _fmt(c), "--d", _fmt(d), "--out", out])
        ops.append(Op(f"boundary-{tag}-{family}", argv,
                      _solve_nonsensing_check(family, s2, csv_path, c, d, out), [out]))

    by_family = []
    for family in FAMILIES:
        fam_ops: list[Op] = []
        by_family.append(fam_ops)
        count = BLOCK // 2 if family == "custom" else BLOCK
        for i, (us, uc, ud, un) in enumerate(_stream(seed, "nonsensing-sweep", family, deck, 4,
                                                     count)):
            s2, csv_path = _instance(inputs, family, us)
            if i == 0:  # fig2 grid; custom grids are smaller (each cell is quadrature)
                n = 5 if family == "custom" else 10 + int(8 * un)
                c_lo, d_lo = _fmt(0.05 + 0.25 * uc), _fmt(0.05 + 0.25 * ud)
                out = inputs.path(f"{family}{i}.csv")
                argv = (["sweep", "--mode", "fig2"] + _dist_args(family, s2, csv_path)
                        + ["--c-grid", f"{c_lo}:3:{n}", "--d-grid", f"{d_lo}:3:{n}", "--out", out])
                fam_ops.append(Op(f"sweep-fig2-{family}", argv,
                                  _fig2_check(family, s2, csv_path, n * n, out), [out]))
                continue
            c, d = float(_fmt(0.1 + 1.9 * uc)), float(_fmt(0.1 + 1.9 * ud))
            out = inputs.path(f"{family}{i}.json")
            argv = (["solve-nonsensing"] + _dist_args(family, s2, csv_path)
                    + ["--c", _fmt(c), "--d", _fmt(d), "--verify-saddle", str(21 + 2 * int(20 * un)),
                       "--out", out])
            fam_ops.append(Op(f"solve-nonsensing-{family}", argv,
                              _solve_nonsensing_check(family, s2, csv_path, c, d, out), [out]))
    return _interleave(ops, by_family)


# ---------------------------------------------------------------- simulate


def _within(count: int, total: int, p: float) -> bool:
    if total == 0:
        return True
    return abs(count / total - p) <= SIM_SE_LIMIT * math.sqrt(p * (1.0 - p) / total) + 1e-12


def _simulate_check(alpha, beta, out, trace_out=None):
    def check(rc, stderr, inputs):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-200:]}", {}
        payload = _load_json(out)
        if payload is None:
            return "no JSON output", {}
        gap = payload.get("gap_in_std_errors")
        if gap is None or not abs(gap) <= SIM_SE_LIMIT:
            return f"analytic cost off by {gap} standard errors", {}
        ev = payload["event_counts"]
        idle, busy = ev["u0_j0"] + ev["u0_j1"], ev["u1_j0"] + ev["u1_j1"]
        if not _within(ev["u0_j1"], idle, alpha):
            return f"idle blocking rate {ev['u0_j1']}/{idle} is not alpha={alpha}", {}
        if not _within(ev["u1_j1"], busy, beta):
            return f"busy blocking rate {ev['u1_j1']}/{busy} is not beta={beta}", {}
        if trace_out is not None:
            rows = len(_read_csv(trace_out))
            if rows != min(payload["n"], TRACE_LIMIT) + 1:
                return f"event trace has {rows} rows", {}
        return None, {"draws": payload["n"]}

    return check


def simulate_deck(seed: int, deck: int, inputs: Inputs) -> list[Op]:
    """Monte Carlo runs of inline non-sensing and reactive policies.

    One operation per family writes an event trace, and custom has half as
    many operations, so that about seven in ten operations are untraced
    gaussian or laplace runs and the median latency lies inside that group.
    """
    by_family = []
    for family in FAMILIES:
        fam_ops: list[Op] = []
        by_family.append(fam_ops)
        count = BLOCK // 2 if family == "custom" else BLOCK
        for i, (us, uc, ud, ua, ub, ux, un) in enumerate(_stream(seed, "simulate-mc", family, deck,
                                                                 7, count)):
            s2, csv_path = _instance(inputs, family, us)
            scale = math.sqrt(inputs.dist(family, s2, csv_path).variance)
            out = inputs.path(f"{family}{i}.json")
            argv = (["simulate"] + _dist_args(family, s2, csv_path)
                    + ["--c", _fmt(0.1 + 1.9 * uc), "--d", _fmt(0.1 + 1.9 * ud),
                       "--n", str(1000 * round((SIM_N[0] + (SIM_N[1] - SIM_N[0]) * un) / 1000)),
                       "--seed", str(int(ux * 2**31)), "--out", out])
            if i % 2 == 0:
                phi = float(_fmt(0.9 * ua))
                alpha = beta = phi
                argv += ["--phi", _fmt(phi), "--xhat0", _fmt_signed(scale * (ub - 0.5))]
                kind = f"simulate-nonsensing-{family}"
            else:
                alpha, beta = float(_fmt(ua)), float(_fmt(ub))
                argv += ["--alpha", _fmt(alpha), "--beta", _fmt(beta),
                         "--xhat0", _fmt_signed(scale * (2 * uc - 1)),
                         "--xhat1", _fmt_signed(scale * (1 - 2 * ux))]
                kind = f"simulate-reactive-{family}"
            files, trace_out = [out], None
            if i == 3:
                trace_out = inputs.path(f"{family}{i}-events.csv")
                argv += ["--trace-out", trace_out]
                files.append(trace_out)
                kind += "-trace"
            fam_ops.append(Op(kind, argv, _simulate_check(alpha, beta, out, trace_out), files))
    return _interleave([], by_family)


WORKLOAD_KEYS = {"reactive-solve": 1, "nonsensing-sweep": 2, "simulate-mc": 3}

# A run executes whole decks: at least MIN_DECKS, enough for 100 successful
# operations (ten latency samples beyond p90), and otherwise as many as fill
# --seconds at DECK_SECONDS, the operation time of one deck on a 2-vCPU
# x86-64 host. The count never depends on measured time.
MIN_DECKS = {"reactive-solve": 5, "nonsensing-sweep": 5, "simulate-mc": 5}
DECK_SECONDS = {"reactive-solve": 9.9, "nonsensing-sweep": 2.3, "simulate-mc": 2.1}


def decks_per_run(workload: str, seconds: float) -> int:
    return max(MIN_DECKS[workload], math.ceil(seconds / DECK_SECONDS[workload]))

DECKS = {
    "reactive-solve": reactive_deck,
    "nonsensing-sweep": nonsensing_deck,
    "simulate-mc": simulate_deck,
}

# A fixed, seed-independent operation per workload; set-up runs it once.
WARMUP = {
    "reactive-solve": ["solve-reactive", "--dist", "gaussian", "--sigma2", "4.2", "--c", "0.9",
                       "--d", "1.2", "--max-iters", str(MAX_ITERS)],
    "nonsensing-sweep": ["solve-nonsensing", "--dist", "gaussian", "--sigma2", "2", "--c", "1",
                         "--d", "1", "--verify-saddle", "21"],
    "simulate-mc": ["simulate", "--dist", "gaussian", "--sigma2", "2", "--phi", "0.3",
                    "--n", "1000000"],
}
