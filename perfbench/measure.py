"""Measuring one workload: repeated seeded runs, checks, metrics.

End-to-end runs (``trace=False``) install no wrappers.  A DES workload
repeats the *same* seeded simulation: the first repetition is discarded
(process warm-up, CPU burst credit), the rest are timed until
``seconds`` have passed, and every repetition must reproduce the first
exactly (the same-seed determinism check).  The live workload runs one
small discarded deployment, then measured deployments of a fixed size
until ``seconds`` have passed.  Each figure is taken per repetition or
deployment, then the median over them is reported.  DES throughput and
set-up time are in nominal seconds, calibrated by a busy loop bracketing
each repetition; live figures are as measured.

Traced runs (``trace=True``) run a discarded warm-up, one untraced
baseline and one traced repetition of the same seed, report per-layer
metrics and the tracing overhead (traced minus untraced time), and write
the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import hashlib
import os
import platform as pyplatform
import resource
import statistics
import subprocess
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from repro.runtime.services import Cost

from layers import LayerTracer
from workloads import (
    WORKLOADS,
    PlaneRun,
    arrival_lag_ms,
    arrival_offsets_ms,
)

#: The gated end-to-end metrics: one name per quantity, whichever plane
#: measures it (see README.md for the mapping to the plane-specific
#: names of the result row).
GATED_UNITS = {
    "setup_s": "s",
    "inv_per_cpu_s": "inv/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "slo_frac": "fraction",
    "peak_rss_mb": "MiB",
}

#: End-to-end metrics of the result row, plane-specific names.
ROW_UNITS = {
    "setup_s": "s",
    "sim_inv_per_cpu_s": "inv/s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_slo_frac": "fraction",
    "live_p50_ms": "ms",
    "live_p99_ms": "ms",
    "live_slo_frac": "fraction",
    "live_inv_per_cpu_s": "inv/s",
    "failed_frac": "fraction",
    "peak_rss_mb": "MiB",
}

_CALLS_SELF = ("simulation.gauge_feed", "harness.drain", "runtime.services",
               "storageplane.log.append", "storageplane.log.read",
               "storageplane.kv", "storageplane.metalog.assign",
               "sharedlog.append", "sharedlog.read", "store.kv", "store.mv",
               "workloads.next_request", "compute.gateway.op")

#: Per-layer metrics of a traced run.
PER_LAYER_UNITS: Dict[str, str] = {
    "simulation.events": "count",
    "simulation.run.self_s": "s",
    **{f"{n}.{k}": u for n in _CALLS_SELF
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "runtime.charge.calls": "count",
    "runtime.charge.self_s": "s",
    "runtime.gc.runs": "count",
    "runtime.gc.self_s": "s",
    "protocols.init.calls": "count",
    "protocols.read.calls": "count",
    "protocols.write.calls": "count",
    "protocols.self_s": "s",
    "protocols.log_appends_per_inv": "ops/inv",
    "protocols.log_reads_per_inv": "ops/inv",
    "protocols.mv_ops_per_inv": "ops/inv",
    "storageplane.sequencer.visits": "count",
    "storageplane.sequencer.occupancy": "fraction",
    "storageplane.log_wait_ms_per_inv": "ms/inv",
    "storageplane.store_wait_ms_per_inv": "ms/inv",
    "sharedlog.cache_hit_ratio": "fraction",
    "store.cond_put_rejections": "count",
    "faults.injected": "count",
    "faults.retries": "count",
    "faults.draw.calls": "count",
    "faults.draw.self_s": "s",
    "faults.useful_ratio": "fraction",
    "recovery.orphans": "count",
    "recovery.recovered": "count",
    "recovery.detection_ms": "ms",
    "recovery.takeover_ms": "ms",
    "workloads.populate_s": "s",
    "compute.boot_s": "s",
    "compute.queue_wait_ms": "ms",
    "compute.rpc.frames": "count",
    "compute.rpc.bytes": "bytes",
    "compute.rpc.self_s": "s",
    "compute.rpc.roundtrip_p50_ms": "ms",
    "compute.rpc.roundtrip_p99_ms": "ms",
    "compute.gateway.cpu_s": "s",
    "compute.workers.cpu_s": "s",
    "compute.arrival_lag_ms": "ms",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_sum_s": "s",
    "trace.spans": "count",
}


# -- helpers ------------------------------------------------------------


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _pct(values: List[float], q: float) -> float:
    # Same estimator as LatencyRecorder (numpy linear interpolation).
    return float(np.percentile(values, q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def _git_revision(root: str) -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def manifest(wl: Any, seed: int, scale: float, root: str) -> Dict[str, Any]:
    from repro.simulation import select

    return {
        "seed": seed,
        "config": dict(wl.manifest(), scale=scale),
        "sim_kernel": select.active_kernel(),
        "git_revision": _git_revision(root),
        "source_digest": _source_digest(root),
        "python": pyplatform.python_version(),
        "nproc": os.cpu_count(),
    }


def _short_tmpdir(out: str) -> str:
    """Where the live gateway's unix socket goes: inside the checkout,
    relative when the absolute path would overflow ``sun_path``."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return tmp if len(tmp) < 60 else os.path.relpath(tmp)


# -- end-to-end runs ----------------------------------------------------


#: A fixed busy loop whose CPU time measures the host's speed right now
#: (the paired-bracket calibration of ``benchmarks/test_perf_baseline``).
CALIBRATION_ITERATIONS = 1_000_000
#: The loop's CPU seconds on a nominal host.  DES throughput and set-up
#: time are reported in nominal seconds: a shared host can run this
#: process 1.6-2x slower for minutes at a time, and the bracketing loop
#: slows with it.
CALIBRATION_NOMINAL_S = 0.1


def _busy_loop() -> float:
    t0 = time.process_time()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i
    return time.process_time() - t0


def _repeat(run, seconds: float, minimum: int = 2,
            bracket: bool = True) -> List[PlaneRun]:
    """Timed repetitions until ``seconds`` of wall time have passed, each
    (with ``bracket``) bracketed by a busy loop just before and after."""
    runs: List[PlaneRun] = []
    start = time.perf_counter()
    while len(runs) < minimum or time.perf_counter() - start < seconds:
        before = _busy_loop() if bracket else 0.0
        runs.append(run())
        if bracket:
            runs[-1].calib_s = (before + _busy_loop()) / 2.0
        if runs[-1].failures:
            break
    return runs


def _nominal_s(run: PlaneRun, seconds: float) -> float:
    """``seconds`` measured in ``run`` as nominal seconds when the run was
    bracketed (scaled by the host's speed then), else as measured."""
    if not run.calib_s:
        return seconds
    return seconds * CALIBRATION_NOMINAL_S / run.calib_s


def _throughput(run: PlaneRun) -> float:
    """Completed invocations per nominal CPU-second."""
    return run.completed / _nominal_s(run, run.cpu_s)


def end_to_end(wl: Any, seed: int, seconds: float
               ) -> Tuple[Dict[str, Any], List[str], int, int]:
    failures: List[str] = []
    if wl.plane == "sim":
        warm = wl.run_once(seed)
        runs = _repeat(lambda: wl.run_once(seed), seconds)
        prints = {run.fingerprint for run in [warm] + runs}
        if len(prints) != 1:
            failures.append(f"same-seed determinism: {len(prints)} distinct"
                            f" results over {len(runs) + 1} runs")
    else:
        warm = wl.run_once(seed, requests=wl.warmup_requests)
        # Unbracketed: a deployment lasts seconds and its CPU is mostly
        # other processes', so two 0.1 s loops in the gateway track the
        # host's speed over it worse than no correction (five seeds on a
        # 2-vCPU host: spread of the median 0.11 calibrated, 0.03 raw).
        runs = _repeat(lambda: wl.run_once(seed), seconds,
                       minimum=wl.min_deployments, bracket=False)
    for run in [warm] + runs:
        failures.extend(run.failures)
    attempted = sum(run.attempted for run in runs)
    completed = sum(run.completed for run in runs)
    # A DES set-up is 10-50 ms of CPU and follows the host's speed as
    # closely as ``run()`` does (on a 2-vCPU host, medians over ten runs
    # differed by 1.46x between two sets as measured, 1.12x calibrated);
    # a live set-up is mostly worker boot in other processes and stays as
    # measured.
    setup_s = _median([_nominal_s(run, run.setup_s) for run in runs])
    peak = _peak_rss_mb()
    sim = wl.plane == "sim"
    # Per deployment, then the median over deployments: a DES repetition
    # is identical every time; a live deployment's tail is set by its
    # own worker boot, which is bimodal (about 0.5 s, or about 1 s in
    # roughly one deployment of three).  The median over six or seven
    # deployments stays in the common mode; a p99 pooled over the run
    # would follow how many slow boots the run happened to draw.
    have = all(run.latencies for run in runs)
    p50 = _median([_pct(run.latencies, 50) for run in runs]) if have else None
    p99 = _median([_pct(run.latencies, 99) for run in runs]) if have else None
    slo = _median([run.slo_hits / run.attempted for run in runs])
    ipc = _median([_throughput(run) for run in runs])
    metrics = {
        "setup_s": setup_s,
        "sim_inv_per_cpu_s": ipc if sim else None,
        "sim_p50_ms": p50 if sim else None,
        "sim_p99_ms": p99 if sim else None,
        "sim_slo_frac": slo if sim else None,
        "live_p50_ms": None if sim else p50,
        "live_p99_ms": None if sim else p99,
        "live_slo_frac": None if sim else slo,
        "live_inv_per_cpu_s": None if sim else ipc,
        "failed_frac": (attempted - completed) / attempted,
        "peak_rss_mb": peak,
    }
    gated = {"setup_s": setup_s, "inv_per_cpu_s": ipc, "p50_ms": p50,
             "p99_ms": p99, "slo_frac": slo, "peak_rss_mb": peak}
    info = {
        "measured_runs": len(runs),
        "latency_samples_per_run": [len(run.latencies) for run in runs],
        "setup_s_runs": [run.setup_s for run in runs],
        "inv_per_cpu_s_runs": [_throughput(run) for run in runs],
        "raw_inv_per_cpu_s_runs": [run.completed / run.cpu_s
                                   for run in runs],
        "calibration_s_runs": ([run.calib_s for run in runs] if sim
                               else None),
    }
    if not sim and have:
        info["p50_ms_runs"] = [_pct(run.latencies, 50) for run in runs]
        info["p99_ms_runs"] = [_pct(run.latencies, 99) for run in runs]
        info["slo_frac_runs"] = [run.slo_hits / run.attempted for run in runs]
    return ({"metrics": metrics, "gated": gated, "info": info}, failures,
            attempted, attempted - completed)


# -- traced runs --------------------------------------------------------


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def traced(wl: Any, seed: int, out: str
           ) -> Tuple[Dict[str, Any], List[str], int, int, str]:
    failures: List[str] = []
    tracer = LayerTracer(wl.workload_classes())
    lag: List[Tuple[float, float]] = []

    if wl.plane == "sim":
        def observe(request, latency_ms, now_ms):
            lag.append((now_ms, latency_ms))

        warm = wl.run_once(seed)
        base = wl.run_once(seed)
        run = wl.run_once(seed, observer=observe, tracer=tracer, keep=True)
        for r in (warm, base, run):
            failures.extend(r.failures)
        if run.fingerprint != base.fingerprint:
            failures.append("traced run differs from the untraced run")
        due = arrival_offsets_ms(seed, 1000.0 / wl.rate_per_s, 1.0,
                                 horizon_ms=wl.duration_ms)
        lags = arrival_lag_ms(due, lag)
        layer = _sim_layers(tracer, run, wl)
        layer["compute.arrival_lag_ms"] = _pct(lags, 99) if lags else None
    else:
        warm = wl.run_once(seed, requests=wl.warmup_requests)
        base = wl.run_once(seed)
        run = wl.run_once(seed, telemetry=True, tracer=tracer)
        for r in (warm, base, run):
            failures.extend(r.failures)
        layer = _live_layers(tracer, run, base)
    self_sum = sum(tracer.self_by_name().values())
    layer.update({
        "trace.run_s": run.region_s,
        "trace.untraced_run_s": base.region_s,
        "trace.overhead_s": run.region_s - base.region_s,
        "trace.layer_self_sum_s": self_sum,
        "trace.spans": tracer.spans,
    })
    os.makedirs(out, exist_ok=True)
    spans_file = os.path.join(out, f"spans-{wl.name}-seed{seed}.tsv.gz")
    tracer.write(spans_file)
    return (layer, failures, run.attempted, run.attempted - run.completed,
            spans_file)


def _layer_calls(tracer: LayerTracer) -> Dict[str, Any]:
    m: Dict[str, Any] = {}
    for name in _CALLS_SELF:
        m[f"{name}.calls"] = tracer.count(name)
        m[f"{name}.self_s"] = tracer.self_time(name)
    ops = ("init", "read", "write")
    m.update({
        "simulation.run.self_s": tracer.self_time("simulation.run"),
        "runtime.charge.calls": tracer.count("runtime.charge"),
        "runtime.charge.self_s": tracer.self_time("runtime.charge"),
        "runtime.gc.runs": tracer.count("runtime.gc"),
        "runtime.gc.self_s": tracer.self_time("runtime.gc"),
        **{f"protocols.{op}.calls": tracer.count(f"protocols.{op}")
           for op in ops},
        "protocols.self_s": sum(tracer.self_time(f"protocols.{op}")
                                for op in ops),
        "faults.draw.calls": tracer.count("faults.draw"),
        "faults.draw.self_s": tracer.self_time("faults.draw"),
        "workloads.populate_s": tracer.self_time("workloads.populate"),
        "compute.rpc.frames": tracer.count("compute.rpc"),
        "compute.rpc.bytes": tracer.rpc_bytes,
        "compute.rpc.self_s": tracer.self_time("compute.rpc"),
    })
    return m


def _sim_layers(tracer: LayerTracer, run: PlaneRun, wl: Any
                ) -> Dict[str, Any]:
    r = run.result
    platform = run.platform
    backend = platform.runtime.backend
    done = r.completed
    logging = sum(r.counters.get(k, 0) for k in Cost.LOGGING_KINDS)
    mv_ops = (r.counters.get(Cost.DB_READ_VERSION, 0)
              + r.counters.get(Cost.DB_WRITE_VERSION, 0))
    seq = r.extras.get("sequencer")
    modelled = platform.config.cluster.model_log_contention
    services = tracer.count("runtime.services")
    omitted = sum(n for key, n in backend.faults.injected.items()
                  if key.split(":")[1] in ("error", "timeout"))
    m = _layer_calls(tracer)
    m.update({
        "simulation.events": r.extras["events_processed"],
        "protocols.log_appends_per_inv": _ratio(logging, done),
        "protocols.log_reads_per_inv": _ratio(
            r.counters.get(Cost.LOG_READ, 0), done),
        "protocols.mv_ops_per_inv": _ratio(mv_ops, done),
        "storageplane.sequencer.visits": seq["visits"] if seq else 0,
        "storageplane.sequencer.occupancy": (seq["occupancy"] if seq
                                             else None),
        "storageplane.log_wait_ms_per_inv": (
            _ratio(platform.log_wait_ms_total, done) if modelled else None),
        "storageplane.store_wait_ms_per_inv": (
            _ratio(platform.store_wait_ms_total, done)
            if platform.config.cluster.model_store_contention else None),
        "sharedlog.cache_hit_ratio": (
            backend.cache.hit_ratio
            if backend.cache.hits + backend.cache.misses else None),
        "store.cond_put_rejections": backend.kv.conditional_rejections,
        "faults.injected": backend.faults.injected_total(),
        "faults.retries": r.counters.get("service_retries", 0),
        "faults.useful_ratio": _ratio(services, services + omitted),
        "recovery.orphans": r.orphaned_invocations,
        "recovery.recovered": r.recovered_orphans,
        "recovery.detection_ms": (r.detection_ms.median()
                                  if r.detection_ms.count else None),
        "recovery.takeover_ms": (
            r.takeover_ms.median()
            if r.takeover_ms is not None and r.takeover_ms.count else None),
        "compute.boot_s": None,
        "compute.queue_wait_ms": None,
        "compute.rpc.roundtrip_p50_ms": None,
        "compute.rpc.roundtrip_p99_ms": None,
        "compute.gateway.cpu_s": None,
        "compute.workers.cpu_s": None,
    })
    return m


def _live_layers(tracer: LayerTracer, run: PlaneRun, base: PlaneRun
                 ) -> Dict[str, Any]:
    r = run.result
    done = r.completed
    ops: Dict[str, int] = {}
    for key, value in r.metrics.items():
        if key.startswith("op_wall_ms{kind="):
            kind = key[len("op_wall_ms{kind="):-1]
            ops[kind] = ops.get(kind, 0) + value.get("count", 0)
    extras = r.extras
    m = _layer_calls(tracer)
    m.update({
        "simulation.events": 0,
        "protocols.log_appends_per_inv": _ratio(ops.get("log_append", 0),
                                                done),
        "protocols.log_reads_per_inv": _ratio(ops.get("log_read", 0), done),
        "protocols.mv_ops_per_inv": _ratio(
            ops.get("db_read_version", 0) + ops.get("db_write_version", 0),
            done),
        "storageplane.sequencer.visits": tracer.count(
            "storageplane.metalog.assign"),
        "storageplane.sequencer.occupancy": None,
        "storageplane.log_wait_ms_per_inv": None,
        "storageplane.store_wait_ms_per_inv": None,
        "sharedlog.cache_hit_ratio": None,
        "store.cond_put_rejections": None,
        "faults.injected": 0,
        "faults.retries": 0,
        "faults.useful_ratio": None,
        "recovery.orphans": r.orphaned_invocations,
        "recovery.recovered": r.recovered_orphans,
        "recovery.detection_ms": None,
        "recovery.takeover_ms": None,
        "compute.boot_s": (max(tracer.ready_at) - run.t_run
                           if tracer.ready_at else None),
        "compute.queue_wait_ms": base.result.breakdown.stage_mean(
            "queueing"),
        "compute.rpc.roundtrip_p50_ms": extras.get("rpc_p50_ms"),
        "compute.rpc.roundtrip_p99_ms": extras.get("rpc_p99_ms"),
        "compute.gateway.cpu_s": base.gateway_cpu_s,
        "compute.workers.cpu_s": base.workers_cpu_s,
        "compute.arrival_lag_ms": (_pct(base.lag_ms, 99)
                                   if base.lag_ms else None),
    })
    return m


# -- entry point --------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float, root: str, out: str) -> Dict[str, Any]:
    tempfile.tempdir = _short_tmpdir(out)
    wl = WORKLOADS[name](scale)
    row: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace),
        "why": wl.why, "manifest": manifest(wl, seed, scale, root),
    }
    try:
        if trace:
            layer, failures, attempted, failed, spans = traced(wl, seed, out)
        else:
            e2e, failures, attempted, failed = end_to_end(wl, seed, seconds)
    finally:
        _stop_resource_tracker()
    if trace:
        values = row["per_layer"] = {k: layer.get(k)
                                     for k in PER_LAYER_UNITS}
        row["spans_file"] = os.path.relpath(spans, root)
        units = row["units"] = dict(PER_LAYER_UNITS)
    else:
        row.update(e2e)
        values, units = e2e["gated"], GATED_UNITS
        row["units"] = dict(ROW_UNITS)
    correct = not failures and attempted > 0
    row["checks"] = {"made": list(wl.checks), "failed": failures}
    row["correct"] = bool(correct)
    row["result"] = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": _contract_value(values[k]),
                        "unit": units[k]} for k in units},
    }
    return row


def _stop_resource_tracker() -> None:
    """The first spawned worker starts multiprocessing's resource-tracker
    process; stop it and wait for it, so the run leaves no process."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _contract_value(value: Any) -> float:
    """The result line carries numbers only: a per-layer value with no
    samples (``null`` in the row) is written as 0 there."""
    return 0.0 if value is None else value
