"""Layered two-plane benchmark of the Halfmoon reproduction.

One run measures one workload::

    python3 perfbench/run.py --workload sim-sharded-boki --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that prints the per-layer metrics (timing wrappers
from :mod:`layers`, never installed in ``--trace 0`` runs).  Every run
checks the program's outputs and fails (exit 1) on any failed check.
``--all`` runs every workload, each in its own process, and prints one
table::

    python3 perfbench/run.py --all --seed 1 --seconds 30

The last line of a single-workload run is the machine-readable result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it,
``ROW {...}``, is the full result row: run manifest, every metric under
its plane-specific name (``null`` when the plane does not measure it),
the checks made and, for traced runs, where the spans were written.
Nothing is built: the program is the pure-Python package under ``src/``
next to this directory; outputs go to ``.perfbench_out/`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("sim-sharded-boki", "sim-failover-hmread",
                  "live-hmwrite-2w")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true",
                       help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement time per run (trace 0)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size factor (the self-test shrinks it)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0 or args.scale <= 0:
        p.error("--seconds and --scale must be positive")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process (peak RSS must not carry over)."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]), flush=True)
        row = next((json.loads(line[4:]) for line in lines
                    if line.startswith("ROW ")), None)
        if proc.returncode != 0 or row is None or not row["correct"]:
            status = 1
        if row is not None:
            rows.append(row)
    key = "per_layer" if args.trace else "metrics"
    print(f"\n== all workloads (seed {args.seed}) ==")
    units = {m: u for row in rows for m, u in row["units"].items()}
    names = list(units)
    print(f"{'metric':36s}" + "".join(f"{r['workload']:>22s}" for r in rows)
          + "  unit")
    for m in names:
        cells = "".join(f"{_fmt(r[key].get(m)):>22s}" for r in rows)
        print(f"{m:36s}{cells}  {units.get(m, '')}")
    print("correct: " + ", ".join(f"{r['workload']}={r['correct']}"
                                  for r in rows))
    return status


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, SRC)
    from measure import run_workload  # noqa: E402 - needs SRC on sys.path

    row = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.scale, ROOT, OUT)
    print(f"== {row['workload']} (seed {row['seed']}, "
          f"trace {row['trace']}) ==")
    key = "per_layer" if args.trace else "metrics"
    for name, value in row[key].items():
        print(f"  {name:40s} {_fmt(value):>16s}  {row['units'][name]}")
    for failure in row["checks"]["failed"]:
        print(f"  CHECK FAILED: {failure}")
    print("ROW " + json.dumps(row, sort_keys=True))
    print(json.dumps(row["result"]))
    return 0 if row["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
