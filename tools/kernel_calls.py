"""Kernel-call counts of the benchmark's operations.

    python3 tools/kernel_calls.py [--checkout PATH] --seed N

Imports ``src/`` and ``perfbench/workloads.py`` of the checkout as
``output_digest.py`` does and runs, in this process and in order, every
operation of the decks that one benchmark run makes for the seed, through
``jamgame.cli.main``. For each workload it counts the calls that those
operations make (not those of the output checks) of the solver
kernels ``reactive.evaluate``, ``reactive._second_order`` and
``reactive._newton_jump`` (and the jumps that land), and of the table
methods ``Tabulated._cumulative`` and ``Tabulated.pdf``; the ``pdf`` calls
made while a table is built (its admissibility tests) are also counted
apart. It prints one JSON object, the counts per workload under
``"workloads"``. Exits 1 if any operation fails its own output check.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from output_digest import WORKLOADS, _load, _run  # noqa: E402  (also pins BLAS threads)

KERNELS = ("evaluate", "second_order", "newton_jump", "newton_jump_landed",
           "cumulative", "pdf", "pdf_building_table", "tables_built")


class Counter:
    """Wraps the counted functions while entered; ``counts`` keeps the tally
    across entries."""

    def __init__(self):
        self.counts = dict.fromkeys(KERNELS, 0)
        self._building = 0
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _counted(self, key: str, fn):
        def wrapped(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def __enter__(self):
        from jamgame import dist, reactive

        evaluate, jump = reactive.evaluate, reactive._newton_jump
        init, pdf = dist.Tabulated.__init__, dist.Tabulated.pdf
        counted_evaluate = self._counted("evaluate", evaluate)
        # every module that bound evaluate by name calls it through its own copy
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "jamgame" and getattr(module, "evaluate", None) is evaluate:
                self._patch(module, "evaluate", counted_evaluate)
        self._patch(reactive, "_second_order",
                    self._counted("second_order", reactive._second_order))

        def newton_jump(*args, **kwargs):
            self.counts["newton_jump"] += 1
            landed = jump(*args, **kwargs)
            self.counts["newton_jump_landed"] += landed is not None
            return landed

        def build(table, *args, **kwargs):
            self.counts["tables_built"] += 1
            self._building += 1
            try:
                init(table, *args, **kwargs)
            finally:
                self._building -= 1

        def table_pdf(table, x):
            self.counts["pdf_building_table" if self._building else "pdf"] += 1
            return pdf(table, x)

        self._patch(reactive, "_newton_jump", newton_jump)
        self._patch(dist.Tabulated, "__init__", build)
        self._patch(dist.Tabulated, "pdf", table_pdf)
        self._patch(dist.Tabulated, "_cumulative",
                    self._counted("cumulative", dist.Tabulated._cumulative))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def count(cli, wl, workload: str, seed: int, decks: int) -> tuple[dict, list[str]]:
    """The kernel counts over the first ``decks`` decks of a workload for the
    seed, with the operation count under ``"ops"``, and the failed checks."""
    failures, ops, counter = [], 0, Counter()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = wl.Inputs(Path(tmp), seed)
        for deck in range(decks):
            for op in wl.DECKS[workload](seed, deck, inputs):
                for f in op.files:
                    Path(f).unlink(missing_ok=True)
                with counter:  # the program's calls only, not those of the output check
                    rc, _, stderr = _run(cli, op.argv)
                reason, _ = op.check(rc, stderr, inputs)
                if reason is not None:
                    failures.append(f"[{op.kind}] {' '.join(op.argv)}\n    -> {reason}")
                ops += 1
    return {"ops": ops, **counter.counts}, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository checkout whose src/ and perfbench/ are used")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    seconds = float(json.loads((args.checkout / "BENCHMARK.json").read_text())["run_seconds"])
    cli, wl = _load(args.checkout)
    result, failed = {"seed": args.seed, "workloads": {}}, []
    for workload in WORKLOADS:
        counts, failures = count(cli, wl, workload, args.seed, wl.decks_per_run(workload, seconds))
        result["workloads"][workload] = counts
        failed += failures
    print(json.dumps(result, indent=2))
    for line in failed:
        print(f"check failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
