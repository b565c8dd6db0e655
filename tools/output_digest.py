"""One digest of everything the benchmark's operations output.

    python3 tools/output_digest.py [--checkout PATH] --seed N

Imports ``src/`` and ``perfbench/workloads.py`` of the checkout (by default
the one this file sits in) and writes nothing there. For each workload it
runs, in this process and in order, every operation of the decks that one
benchmark run of ``run_seconds`` (from the checkout's ``BENCHMARK.json``)
makes for the seed, through ``jamgame.cli.main``. It prints the operation
count and one sha256 over each operation's argv, exit code, stdout, stderr
and output files, and under that line the same two for each operation
kind, so a change in output bits can be traced to the kinds that moved,
then the number of ``.json`` output files that are not RFC 8259 JSON (a
bare ``Infinity`` or ``NaN`` token, say), then, as one JSON line, the
operation count and the calls that the operations make (not those of the
output checks) of the solver kernels ``reactive.evaluate``,
``reactive._second_order`` and ``reactive._newton_jump`` (and the jumps
that land), and of the table methods ``Tabulated._cumulative`` and
``Tabulated.pdf``; the ``pdf`` calls made while a table is built (its
admissibility tests) are counted apart.
The temporary directory that holds the inputs and outputs is replaced by a
fixed token wherever it appears, so two checkouts whose program behaves
the same print the same digests. Exits 1 if any operation fails its own
output check.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

WORKLOADS = ("reactive-solve", "nonsensing-sweep", "simulate-mc")
TOKEN = b"<workdir>"
KERNELS = ("evaluate", "second_order", "newton_jump", "newton_jump_landed",
           "cumulative", "pdf", "pdf_building_table", "tables_built")


def _feed(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "little"))
    h.update(data)


def _load(checkout: Path):
    """Import jamgame and the workload decks from ``checkout`` only."""
    sys.dont_write_bytecode = True
    src = (checkout / "src").resolve()
    sys.path[:0] = [str(src), str(checkout / "perfbench")]
    import jamgame.cli
    import workloads

    for mod in (jamgame.cli, workloads):
        if not Path(mod.__file__).resolve().is_relative_to(checkout.resolve()):
            raise SystemExit(f"output_digest: {mod.__name__} was imported from {mod.__file__}")
    return jamgame.cli, workloads


def _run(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


class Counter:
    """Wraps the counted functions while entered and adds their calls to
    ``counts``, a dict with a zero for each of ``KERNELS``."""

    def __init__(self, counts: dict[str, int]):
        self.counts = counts
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


class Tally:
    """Operation count and running sha256 over each operation's chunks."""

    def __init__(self):
        self.count, self.hash = 0, hashlib.sha256()

    def add(self, chunks: list[bytes]) -> None:
        for chunk in chunks:
            _feed(self.hash, chunk)
        self.count += 1


def _strict_json(data: bytes) -> bool:
    """Whether ``data`` parses as RFC 8259 JSON; ``json.loads`` alone also
    takes the bare tokens Infinity, -Infinity and NaN."""
    def refuse(token: str):
        raise ValueError(f"non-JSON token {token}")

    try:
        json.loads(data, parse_constant=refuse)
    except ValueError:
        return False
    return True


def digest(cli, wl, workload: str, seed: int,
           decks: int) -> tuple[Tally, dict[str, Tally], dict[str, int], list[str], int]:
    """The tally of the first ``decks`` decks of a workload for the seed,
    the tally of each operation kind in them, the kernel counts (with the
    operation count under ``"ops"``), the failed checks and the count of
    non-strict JSON outputs."""
    total, kinds, counts, failures, non_strict = Tally(), {}, dict.fromkeys(KERNELS, 0), [], 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        here = str(workdir).encode()
        inputs = wl.Inputs(workdir, seed)
        for deck in range(decks):
            for op in wl.DECKS[workload](seed, deck, inputs):
                for f in op.files:
                    Path(f).unlink(missing_ok=True)
                with Counter(counts):  # the program's calls only, not those of the output check
                    rc, stdout, stderr = _run(cli, op.argv)
                reason, _ = op.check(rc, stderr, inputs)
                if reason is not None:
                    failures.append(f"[{op.kind}] {' '.join(op.argv)}\n    -> {reason}")
                chunks = ["\0".join(op.argv).encode(), str(rc).encode(), stdout.encode(),
                          stderr.encode()]
                for f in op.files:
                    path = Path(f)
                    present = path.exists()
                    chunks += [f.encode(), b"1" if present else b"0"]
                    if present:
                        chunks.append(path.read_bytes())
                        if path.suffix == ".json" and not _strict_json(chunks[-1]):
                            non_strict += 1
                chunks = [chunk.replace(here, TOKEN) for chunk in chunks]
                total.add(chunks)
                kinds.setdefault(op.kind, Tally()).add(chunks)
    return total, kinds, {"ops": total.count, **counts}, failures, non_strict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository checkout whose src/ and perfbench/ are used")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    seconds = float(json.loads((args.checkout / "BENCHMARK.json").read_text())["run_seconds"])
    cli, wl = _load(args.checkout)
    failed = 0
    for workload in WORKLOADS:
        total, kinds, counts, failures, non_strict = digest(
            cli, wl, workload, args.seed, wl.decks_per_run(workload, seconds))
        print(f"{workload:18s} {total.count:4d} ops  sha256 {total.hash.hexdigest()}")
        for kind, tally in sorted(kinds.items()):
            print(f"  {kind:34s} {tally.count:4d} ops  sha256 {tally.hash.hexdigest()}")
        print(f"  non-strict JSON outputs {non_strict}")
        print(f"  kernel calls {json.dumps(counts)}")
        sys.stdout.flush()
        for line in failures:
            print(f"  check failed: {line}")
        failed += len(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
