"""Command-line front end.

Subcommands: solve-nonsensing, solve-reactive, simulate, sweep, compare.
Every command is deterministic given its flags and seed, emits plain JSON
(an infinity as the string "Infinity" or "-Infinity") or CSV artifacts,
all formatted in this module, and honors a key=value config file whose
entries act as flag defaults (explicit flags win; a simulate policy on the
command line replaces the config's, whichever of --policy, --phi,
--alpha/--beta give each, and a --policy file its xhat0/xhat1 entries too).

Exit codes: 0 success/certified, 2 config error, 3 numerical failure,
4 solver terminated without certification or saddle check violated.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import dist
from .nonsensing import solve_equilibrium, threshold_policy, verify_saddle
from .reactive import (
    GameInstance,
    ReactivePoint,
    SolverOptions,
    TraceRow,
    default_init,
    solve_gda,
    solve_pga_ccp,
)
from .simulate import PolicyBundle, analytic_cost, bundle_from_reactive, simulate

# of every JSON artifact and of the policy object inside a simulate file
SCHEMA_VERSION = 1
# the columns of a solver trace CSV
_TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(TraceRow))
# the u, j and channel output columns of a simulate event-trace row, by
# transmit + 2 * jam
_EVENT_COLUMNS = (",0,0,idle,", ",1,0,x,", ",0,1,B,", ",1,1,B,")
_EVENT_SLICE = 1 << 11

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNCERTIFIED = 4


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def build_distribution(args) -> dist.SourceDistribution:
    if args.dist == "gaussian":
        if args.sigma2 is None:
            raise ConfigError("--sigma2 is required for --dist gaussian")
        return dist.gaussian(args.sigma2)
    if args.dist == "laplace":
        if (args.scale is None) == (args.sigma2 is None):
            raise ConfigError("--dist laplace needs exactly one of --scale / --sigma2")
        return dist.laplace(scale=args.scale, sigma2=args.sigma2)
    if args.dist == "custom":
        if not args.pdf_csv:
            raise ConfigError("--pdf-csv is required for --dist custom")
        try:
            return dist.Tabulated.from_csv(args.pdf_csv)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load tabulated density: {exc}")
    raise ConfigError(f"unknown distribution {args.dist!r}")


def build_instance(args) -> GameInstance:
    return GameInstance(build_distribution(args), args.c, args.d)


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _emit_csv(path: str | None, lines: list[str]) -> None:
    """Write the CSV ``lines`` to ``path``, or to stdout when it is None."""
    text = "\n".join(lines) + "\n"
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _trace_cells(row: TraceRow, fields: int = len(_TRACE_FIELDS)) -> list[str]:
    """The CSV cells of the first ``fields`` columns of a solver trace row,
    in ``_TRACE_FIELDS`` order."""
    return [str(row.k)] + [_fmt(getattr(row, f)) for f in _TRACE_FIELDS[1:fields]]


def _strict(value):
    """``value`` with every infinite float replaced by the string that
    protobuf's JSON mapping uses, "Infinity" or "-Infinity"."""
    if isinstance(value, float) and math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_json(path: str | None, payload: dict) -> None:
    """Write ``payload`` as RFC 8259 JSON; ``float()`` reads its strings back."""
    text = json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False)
    _write_text(path, text + "\n")


def _grid(spec: str, name: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"{name} must be lo:hi:count, got {spec!r}")
    if not (n >= 1 and -math.inf < lo <= hi < math.inf) or (n == 1 and hi != lo):
        raise ConfigError(f"{name} is degenerate or not finite: {spec!r}")
    return np.linspace(lo, hi, n)


def cmd_solve_nonsensing(args) -> int:
    inst = build_instance(args)
    eq = solve_equilibrium(inst)
    payload = {"schema_version": SCHEMA_VERSION, "phi_star": eq.phi_star, "xhat0": eq.xhat[0],
               "xhat1": eq.xhat[1], "threshold": eq.threshold, "value": eq.value,
               "regime": eq.regime.value, "c": inst.c, "d": inst.d,
               "sigma2": inst.dist.variance, "family": inst.dist.family}
    print(f"regime         {eq.regime.value}")
    print(f"phi_star       {_fmt(eq.phi_star)}")
    print(f"threshold tau  {_fmt(eq.threshold)}")
    print(f"value          {_fmt(eq.value)}")
    if args.verify_saddle:
        rep = verify_saddle(inst, eq, xhat_points=args.verify_saddle, tol=args.saddle_tol)
        payload["saddle_check"] = {
            "ok": rep.ok,
            "grid_points": args.verify_saddle,
            "tol": rep.tol,
            "worst_jammer_excess": rep.worst_jammer_excess,
            "worst_coordinator_shortfall": rep.worst_coordinator_shortfall,
        }
        print(f"saddle check   {'ok' if rep.ok else 'VIOLATED'} "
              f"(worst jammer excess {rep.worst_jammer_excess:.3e}, "
              f"worst coordinator shortfall {rep.worst_coordinator_shortfall:.3e})")
    _write_json(args.out, payload)
    return EXIT_UNCERTIFIED if args.verify_saddle and not rep.ok else EXIT_OK


def _solver_options(args, solver: str, record_trace: bool) -> SolverOptions:
    """The flags of ``_add_solver_args`` as options for ``solver``: GDA
    ascends with --lambda-ga, PGA-CCP with --step-size, and --lambda-gd sets
    the descent step where the subcommand has it."""
    return SolverOptions(
        step_size=args.lambda_ga if solver == "gda" else args.step_size,
        descent_step=getattr(args, "lambda_gd", SolverOptions.descent_step),
        epsilon=args.eps,
        max_iters=args.max_iters,
        record_trace=record_trace,
    )


def _run_solver(inst, solver: str, init, opts):
    run = solve_gda if solver == "gda" else solve_pga_ccp
    return run(inst, init, opts)


def cmd_solve_reactive(args) -> int:
    inst = build_instance(args)
    # the trace rows are recorded only for --trace-out, the one place they are written
    opts = _solver_options(args, args.solver, args.trace_out is not None)
    base = default_init(inst)
    init = ReactivePoint(tuple(args.init_xhat or base.xhat), tuple(args.init_theta or base.theta))

    point, trace, cert = _run_solver(inst, args.solver, init, opts)
    results = [(point, trace, cert)]
    if args.multistart > 0:
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        s = inst.dist.scale
        start_opts = _solver_options(args, args.solver, record_trace=False)
        for _ in range(args.multistart):
            start = ReactivePoint(tuple(rng.uniform(-2 * s, 2 * s, 2)), tuple(rng.uniform(0, 1, 2)))
            results.append(_run_solver(inst, args.solver, start, start_opts))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "solver": args.solver,
        "c": inst.c,
        "d": inst.d,
        "sigma2": inst.dist.variance,
        "epsilon": opts.epsilon,
        "points": [
            {"xhat0": p.xhat[0], "xhat1": p.xhat[1], "alpha": p.theta[0], "beta": p.theta[1],
             "certificate": dataclasses.asdict(c), "iterations": t.iterations,
             "terminated_by": t.terminated_by.value, "polished_at": t.polished_at}
            for p, t, c in results
        ],
    }
    for i, (p, t, c) in enumerate(results):
        tag = "primary" if i == 0 else f"start {i}"
        print(f"[{tag}] terminated_by={t.terminated_by.value} iters={t.iterations} "
              f"polished_at={t.polished_at} "
              f"alpha={p.theta[0]:.6f} beta={p.theta[1]:.6f} "
              f"xhat0={p.xhat[0]:.6f} xhat1={p.xhat[1]:.6f} "
              f"grad_norm={c.grad_norm:.3e} lp_gap={c.lp_gap:.3e} certified={c.certified}")
    _write_json(args.out, payload)
    if args.trace_out:
        _emit_csv(args.trace_out,
                  [",".join(_TRACE_FIELDS)] + [",".join(_trace_cells(r)) for r in trace.rows])
    return EXIT_OK if cert.certified else EXIT_UNCERTIFIED


def _policy_json(bundle: PolicyBundle) -> dict:
    """The policy object of a simulate file, which ``_load_policy`` reads."""
    return {
        "schema_version": SCHEMA_VERSION,
        "transmit": {"silent_lo": bundle.silent_lo, "silent_hi": bundle.silent_hi},
        "jam": {"kind": bundle.kind, "alpha": bundle.alpha, "beta": bundle.beta},
        "estimator": {"xhat0": bundle.xhat[0], "xhat1": bundle.xhat[1]},
    }


def _load_policy(path: str) -> PolicyBundle:
    """The bundle of a ``_policy_json`` object in the file ``path``. A number
    may be given as a string ("Infinity" is one); a boolean is refused, not
    read as 0 or 1."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read policy file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"policy file is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ConfigError(f"policy must be a JSON object, not {type(payload).__name__}")

    def pick(section, key, cast):
        node = payload.get(section)
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"policy field missing or malformed: {section}.{key}")
        value = node[key]
        try:
            if not isinstance(value, bool):
                return cast(value)
        except (TypeError, ValueError):
            pass
        raise ValueError(f"policy field has wrong type: {section}.{key}")

    try:
        fields = dict(
            silent_lo=pick("transmit", "silent_lo", float),
            silent_hi=pick("transmit", "silent_hi", float),
            kind=pick("jam", "kind", str),
            alpha=pick("jam", "alpha", float),
            beta=pick("jam", "beta", float),
            xhat=(pick("estimator", "xhat0", float), pick("estimator", "xhat1", float)),
        )
        if fields["kind"] not in ("NonSensing", "Reactive"):
            raise ValueError(f"policy field has wrong type: jam.kind ({fields['kind']!r})")
        return PolicyBundle(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _float_reprs(a: np.ndarray) -> np.ndarray:
    """repr of each element of a float array as a Python float, one repr per
    distinct bit pattern (told apart by bits, not by value: 0.0 == -0.0)."""
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    reprs = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return reprs[inverse]


@contextlib.contextmanager
def _event_trace(path: str, xhat: tuple[float, float]):
    """A ``simulate`` trace sink that writes the event-trace CSV to ``path``,
    made at its first call (a run that fails before its first draw leaves
    none) and closed on leaving. Rows are formatted column by column in
    slices of at most _EVENT_SLICE; a row's estimate is its x string on a
    clean reception and the string of a symbol of ``xhat`` otherwise."""
    symbols = (_fmt(xhat[0]), _fmt(xhat[1]))
    fh = None

    def sink(x, tx, jam, cost):
        nonlocal fh
        if fh is None:
            fh = open(path, "w", newline="")
            fh.write("x,u,j,y,xhat,cost\n")
        for lo in range(0, len(x), _EVENT_SLICE):
            part = slice(lo, lo + _EVENT_SLICE)
            t, j = tx[part], jam[part]
            xs = _float_reprs(x[part])
            shown = np.where(j, symbols[1], np.where(t, xs, symbols[0]))
            event = t.view(np.uint8) + 2 * j.view(np.uint8)
            fh.write("".join([
                f"{xv}{_EVENT_COLUMNS[e]}{hv},{cv}\n"
                for xv, e, hv, cv in zip(xs.tolist(), event.tolist(), shown.tolist(),
                                         _float_reprs(cost[part]).tolist())
            ]))

    try:
        yield sink
    finally:
        if fh is not None:
            fh.close()


# the simulate flags that each give a policy: one of them, or --alpha with --beta
_POLICY_DESTS = ("policy", "phi", "alpha", "beta")
# the estimator symbols of an inline policy (0.0 when not given); a policy
# file holds its own
_SYMBOL_DESTS = ("xhat0", "xhat1")


def cmd_simulate(args) -> int:
    given = [f"--{dest}" for dest in _POLICY_DESTS if getattr(args, dest) is not None]
    # --alpha with --beta is the one pair that gives a single policy
    if len(given) > 1 and given[0] in ("--policy", "--phi"):
        raise ConfigError(f"{given[0]} and {given[1]} give conflicting policies; give one")
    symbols = [f"--{dest}" for dest in _SYMBOL_DESTS if getattr(args, dest) is not None]
    if args.policy is not None and symbols:
        raise ConfigError(f"--policy and {symbols[0]} give conflicting estimator symbols; "
                          "a policy file holds its own")
    xhat = tuple(0.0 if v is None else v for v in (args.xhat0, args.xhat1))
    inst = build_instance(args)
    if args.policy is not None:
        bundle = _load_policy(args.policy)
    elif args.phi is not None:
        lo, hi = threshold_policy(inst.c, args.phi, xhat[0])
        bundle = PolicyBundle(lo, hi, args.phi, args.phi, xhat, "NonSensing")
    elif args.alpha is not None and args.beta is not None:
        bundle = bundle_from_reactive(ReactivePoint(xhat, (args.alpha, args.beta)), inst)
    else:
        raise ConfigError("give --policy, or --phi, or both --alpha and --beta")

    # before the draws, so a bundle the kernel cannot value leaves no trace file
    analytic = analytic_cost(inst, bundle)
    if args.trace_out is None:
        result = simulate(inst, bundle, args.n, args.seed)
    else:
        with _event_trace(args.trace_out, bundle.xhat) as sink:
            result = simulate(inst, bundle, args.n, args.seed, sink)
    print(f"n              {result.n}")
    print(f"empirical_cost {_fmt(result.empirical_cost)}")
    print(f"std_error      {_fmt(result.std_error)}")
    print(f"p_transmit     {_fmt(result.p_transmit)}")
    print(f"p_jam          {_fmt(result.p_jam)}")
    gap = result.empirical_cost - analytic
    if result.std_error:
        gap_se = gap / result.std_error
    else:
        # every draw cost the same: no gap is 0 standard errors, any gap is
        # infinitely many
        gap_se = math.copysign(math.inf, gap) if gap else 0.0
    print(f"analytic_cost  {_fmt(analytic)}  (gap = {gap_se:+.2f} SE)")
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "n": result.n,
        "empirical_cost": result.empirical_cost, "std_error": result.std_error,
        "p_transmit": result.p_transmit, "p_jam": result.p_jam,
        "event_counts": {f"u{u}_j{j}": c for (u, j), c in result.event_counts.items()},
        "policy": _policy_json(bundle), "analytic_cost": analytic, "gap_in_std_errors": gap_se,
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    lines: list[str] = []
    if args.mode == "fig2":
        cs = _grid(args.c_grid, "--c-grid")
        ds = _grid(args.d_grid, "--d-grid")
        base = build_distribution(args)
        lines.append("# optimal non-sensing jamming probability over a (c, d) grid")
        lines.append("# grid ranges are a tool choice, not part of the problem statement")
        lines.append(f"# family={base.family} sigma2={_fmt(base.variance)}")
        lines.append("c,d,phi_star,regime,value")
        for c in cs:
            for d in ds:
                eq = solve_equilibrium(GameInstance(base, float(c), float(d)))
                lines.append(",".join([
                    _fmt(c), _fmt(d), _fmt(eq.phi_star), eq.regime.value, _fmt(eq.value),
                ]))
    else:  # fig4, the one other --mode argparse accepts
        if args.dist != "gaussian":
            raise ConfigError(f"--mode fig4 solves Gaussian instances only, not --dist {args.dist}")
        s2s = _grid(args.sigma2_grid, "--sigma2-grid")
        opts = _solver_options(args, "pga-ccp", record_trace=False)
        lines.append("# certified reactive-jammer stationary points per sigma2 (PGA-CCP, default init)")
        lines.append(f"# c={_fmt(args.c)} d={_fmt(args.d)} eps={_fmt(args.eps)}")
        lines.append("sigma2,alpha,beta,xhat0,xhat1,iterations,certified")
        for s2 in s2s:
            inst = GameInstance(dist.gaussian(float(s2)), args.c, args.d)
            p, t, cert = solve_pga_ccp(inst, None, opts)
            lines.append(",".join([
                _fmt(s2), _fmt(p.theta[0]), _fmt(p.theta[1]),
                _fmt(p.xhat[0]), _fmt(p.xhat[1]), str(t.iterations), str(cert.certified),
            ]))
    _emit_csv(args.out, lines)
    return EXIT_OK


def cmd_compare(args) -> int:
    inst = build_instance(args)
    init = default_init(inst)
    opts = {s: _solver_options(args, s, record_trace=True) for s in ("pga-ccp", "gda")}
    runs = {s: _run_solver(inst, s, init, o) for s, o in opts.items()}

    # the first eight trace columns, k to lp_gap
    lines = [",".join(("solver",) + _TRACE_FIELDS[:8])]
    for name, (_, tr, _) in runs.items():
        lines += [",".join([name] + _trace_cells(r, 8)) for r in tr.rows]
    _emit_csv(args.out, lines)

    # a CSV on stdout is followed by nothing else there
    summary = sys.stdout if args.out else sys.stderr
    for name, (p, t, c) in runs.items():
        print(f"{name + ':':8s} iters={t.iterations} certified={c.certified} "
              f"point=({p.theta[0]:.4f},{p.theta[1]:.4f},{p.xhat[0]:.4f},{p.xhat[1]:.4f})",
              file=summary)
    return EXIT_OK if all(c.certified for _, _, c in runs.values()) else EXIT_UNCERTIFIED


def _at_least_zero(cast):
    """A flag type for a count (``int``) or a tolerance (``float``): a value
    >= 0, so a negative or NaN one is refused at parse time."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}")
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value
    return parse


def _add_solver_args(p: argparse.ArgumentParser, gda: bool) -> None:
    """--eps, --step-size and --max-iters, plus GDA's --lambda-ga and
    --lambda-gd where it runs, with the defaults of ``SolverOptions``."""
    opts = SolverOptions()
    p.add_argument("--eps", type=float, default=opts.epsilon)
    p.add_argument("--step-size", type=float, default=opts.step_size,
                   help="theta ascent step (PGA-CCP)")
    if gda:
        p.add_argument("--lambda-ga", type=float, default=opts.step_size, help="GDA ascent step")
        p.add_argument("--lambda-gd", type=float, default=opts.descent_step,
                       help="GDA descent step")
    p.add_argument("--max-iters", type=int, default=opts.max_iters)


def _add_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", choices=["gaussian", "laplace", "custom"], default="gaussian")
    p.add_argument("--sigma2", type=float, default=None, help="variance")
    p.add_argument("--scale", type=float, default=None, help="Laplace scale b")
    p.add_argument("--pdf-csv", default=None, help="two-column (x, f(x)) CSV for --dist custom")
    p.add_argument("--c", type=float, default=1.0, help="per-transmission cost")
    p.add_argument("--d", type=float, default=1.0, help="per-jamming cost")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output artifact path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamgame",
        description="Solve, certify and simulate the sensor-vs-jammer estimation game.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None,
                        help="key=value config file; sections name subcommands, flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-nonsensing", help="closed-form saddle point, non-sensing jammer")
    _add_dist_args(p)
    p.add_argument("--verify-saddle", type=_at_least_zero(int), default=0, metavar="N",
                   help="verify the saddle inequalities: N-point coordinator grid; "
                        "the jammer side is checked exactly at phi = 0 and 1")
    p.add_argument("--saddle-tol", type=_at_least_zero(float), default=1e-6)

    p = sub.add_parser("solve-reactive", help="epsilon-FNE search, channel-sensing jammer")
    _add_dist_args(p)
    p.add_argument("--solver", choices=["pga-ccp", "gda"], default="pga-ccp")
    _add_solver_args(p, gda=True)
    p.add_argument("--init-xhat", type=float, nargs=2, default=None, metavar=("X0", "X1"))
    p.add_argument("--init-theta", type=float, nargs=2, default=None, metavar=("A", "B"))
    p.add_argument("--multistart", type=_at_least_zero(int), default=0,
                   help="additional random starts (seeded); all results are reported")
    p.add_argument("--trace-out", default=None, help="per-iteration trace CSV path")

    p = sub.add_parser("simulate", help="Monte Carlo check of a policy bundle")
    _add_dist_args(p)
    p.add_argument("--policy", default=None,
                   help="policy JSON: the policy object of a simulate --out file, "
                        "or a file of that shape")
    p.add_argument("--phi", type=float, default=None, help="inline non-sensing jamming probability")
    p.add_argument("--alpha", type=float, default=None, help="inline reactive idle-blocking probability")
    p.add_argument("--beta", type=float, default=None, help="inline reactive busy-blocking probability")
    p.add_argument("--xhat0", type=float, default=None,
                   help="idle symbol of an inline policy (default 0)")
    p.add_argument("--xhat1", type=float, default=None,
                   help="blocked symbol of an inline policy (default 0)")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--trace-out", default=None, help="per-event CSV (first 10^4 draws)")

    p = sub.add_parser("sweep", help="figure-style CSV grids")
    _add_dist_args(p)
    p.add_argument("--mode", choices=["fig2", "fig4"], required=True)
    p.add_argument("--c-grid", default="0.05:3:60")
    p.add_argument("--d-grid", default="0.05:3:60")
    p.add_argument("--sigma2-grid", default="1:5:17")
    _add_solver_args(p, gda=False)

    p = sub.add_parser("compare", help="PGA-CCP vs GDA from an identical start")
    _add_dist_args(p)
    _add_solver_args(p, gda=True)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every call of ``main`` reuses; nothing may modify it."""
    return build_parser()


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Read --config (if given) and insert its entries as flags right after
    the subcommand, so explicit flags, which come later, still win."""
    if not any(a.startswith("--config") for a in argv):
        return argv
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv

    at = next((i for i, a in enumerate(argv) if not a.startswith("-") and a != known.config), None)
    command = None if at is None else argv[at]
    cp = configparser.ConfigParser()
    values: dict[str, str] = {}
    try:
        if not cp.read(known.config):
            raise ConfigError(f"config file not found: {known.config}")
        for section in ("common", command or ""):
            if section and cp.has_section(section):
                values.update(dict(cp.items(section)))
    except configparser.Error as exc:
        # a missing section header, a duplicated section or option, a bare %
        raise ConfigError(f"cannot parse {known.config}: {exc}")

    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if command not in subparsers.choices:
        return argv
    flags = {a.dest: a for a in subparsers.choices[command]._actions
             if isinstance(a, argparse._StoreAction)}
    if command == "simulate":
        # a policy on the command line replaces the config's, whichever flags
        # give each, and a policy file its symbols too; an abbreviated flag
        # is a prefix of the one it names
        typed = [a.split("=", 1)[0] for a in argv[at + 1 :] if a.startswith("--")]
        given = {dest for dest in _POLICY_DESTS for t in typed
                 if len(t) > 2 and flags[dest].option_strings[0].startswith(t)}
        dropped = (_POLICY_DESTS if given else ()) + (_SYMBOL_DESTS if "policy" in given else ())
        values = {k: v for k, v in values.items() if k.replace("-", "_") not in dropped}
    tokens: list[str] = []
    for key, raw in values.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key [{command}] {key}")
        flag = action.option_strings[0]
        tokens += [flag, *raw.split()] if action.nargs == 2 else [f"{flag}={raw}"]
    return argv[: at + 1] + tokens + argv[at + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        # looked up per call, so a replaced module attribute takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
