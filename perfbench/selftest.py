"""Self-test of the benchmark on tiny sizes of every workload.

    python3 perfbench/selftest.py

Runs each workload untraced and traced at a small ``--scale``, each run in
its own process, and checks that

* every metric named in ``BENCHMARK.json`` appears with its unit, and the
  result row carries every plane-specific end-to-end metric;
* every run passes its correctness checks;
* per-layer self times are non-negative and sum to no more than the
  traced run's time;
* two processes given the same seed report the same DES latencies,
  ``simulation.events`` and layer call counts;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT, WORKLOAD_NAMES  # noqa: E402

SCALE = {"sim-sharded-boki": 0.1, "sim-failover-hmread": 0.1,
         "live-hmwrite-2w": 0.1}
SEED = 7


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
           "--trace", str(trace), "--scale", str(SCALE[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def parse(proc) -> tuple:
    lines = proc.stdout.strip().splitlines()
    row = next(json.loads(line[4:]) for line in lines
               if line.startswith("ROW "))
    return row, json.loads(lines[-1])


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_result(spec: list, result: dict, what: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result line has exactly the contract keys")
    check(result["correct"] and result["attempted"] >= 1,
          f"{what}: correct with attempted >= 1")
    got = result["metrics"]
    missing = [m["name"] for m in spec
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]
               or not isinstance(got[m["name"]]["value"], (int, float))]
    check(not missing and len(got) == len(spec),
          f"{what}: every metric with its unit ({missing or 'none missing'})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    check([w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES),
          "BENCHMARK.json names the benchmark's workloads")
    whys = {}
    counts = {}
    for workload in WORKLOAD_NAMES:
        runs = {}
        for trace in (0, 1, 1) if workload.startswith("sim") else (0, 1):
            proc = run(workload, trace)
            check(proc.returncode == 0,
                  f"{workload} trace {trace} exits 0"
                  + ("" if proc.returncode == 0 else
                     f"\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"))
            row, result = parse(proc)
            runs.setdefault(trace, []).append(row)
            spec = bench["per_layer" if trace else "end_to_end"]
            check_result(spec, result, f"{workload} trace {trace}")
        row = runs[0][0]
        whys[workload] = row["why"]
        check(all(name in row["metrics"] for name in row["units"]),
              f"{workload}: row carries every plane-specific metric")
        manifest = row["manifest"]
        check(all(k in manifest for k in ("seed", "config", "sim_kernel",
                                          "git_revision", "python",
                                          "nproc")),
              f"{workload}: row has the run manifest")
        layer = runs[1][0]["per_layer"]
        selfs = {k: v for k, v in layer.items()
                 if k.endswith("self_s") and v is not None}
        check(all(v >= 0 for v in selfs.values()),
              f"{workload}: layer self times are non-negative")
        check(sum(selfs.values()) <= layer["trace.run_s"]
              and layer["trace.layer_self_sum_s"] <= layer["trace.run_s"],
              f"{workload}: layer self times sum to no more than the "
              f"traced run ({sum(selfs.values()):.3f} <= "
              f"{layer['trace.run_s']:.3f} s)")
        if workload.startswith("sim"):
            first, second = (r["per_layer"] for r in runs[1])
            keys = [k for k in first
                    if k.endswith((".calls", ".runs", "_per_inv"))
                    or k in ("simulation.events", "recovery.orphans",
                             "faults.injected")]
            check(all(first[k] == second[k] for k in keys),
                  f"{workload}: same seed, same events and layer counts")
            counts[workload] = {k: first[k] for k in keys}
            again, _ = parse(run(workload, 0))
            check(all(again["metrics"][k] == row["metrics"][k]
                      for k in ("sim_p50_ms", "sim_p99_ms")),
                  f"{workload}: same seed, same sim_p50_ms and sim_p99_ms")
    check(whys == {w["name"]: w["why"] for w in bench["workloads"]},
          "each workload records the why of BENCHMARK.json")
    check(counts["sim-failover-hmread"]["storageplane.log.append.calls"]
          == 0 and counts["sim-sharded-boki"]["sharedlog.append.calls"]
          == 0, "each sim workload bypasses the other's log layer")

    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOAD_NAMES[0], 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        check(proc.returncode != 0 and not last.startswith("{"),
              "without the program's source: non-zero exit, no result")
    finally:
        shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
