"""Run every workload once and print all metrics, by name and with units.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace]
                                 [--workload NAME ...]

For each workload this runs ``run.py`` untraced, which prints the
end-to-end metrics, the workload's own rates and every failed operation
with its argv and reason. With ``--trace`` it then runs the traced run,
which adds the per-layer metrics and the tracing overhead. A closing table
lists the end-to-end metrics of all workloads side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reactive-solve", "nonsensing-sweep", "simulate-mc")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print(f"=== {workload} (trace {trace}): {' '.join(cmd[1:])}", flush=True)
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    results = {w: run(w, args.seed, args.seconds, 0) for w in args.workload or WORKLOADS}
    if args.trace:
        for w in results:
            run(w, args.seed, args.seconds, 1)

    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':16s} {'unit':6s}" + "".join(f" {w:>18s}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        print(f"{name:16s} {unit:6s}"
              + "".join(f" {r['metrics'][name]['value']:18.6g}" for r in results.values()))
    print(f"{'failed/attempted':23s}"
          + "".join(f" {r['failed']:>9d}/{r['attempted']:<8d}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
