"""The benchmark's three workloads and how one run of each is measured.

All three are open loop: Poisson arrivals from the program's own seeded
``arrivals`` stream, at a fixed rate, whatever the system's speed.  The
benchmark's ``--seed`` becomes ``SystemConfig.seed``, so it fixes the
arrival gaps, the requests, the sampled service latencies and the fault
draws; the program receives only those generated inputs.

* ``sim-sharded-boki`` — every op logs and 1000 shared keys keep streams
  long and contended, so the storage-plane install path, the ``_drain``
  contention stations and the charge path dominate.
* ``sim-failover-hmread`` — the opposite case on the same layers: fresh
  keys (inputs share nothing), the default (``single``) storage plane, a
  node crash with restart and a 2% infrastructure fault rate.  It
  bypasses the storage plane and its stations and exercises faults,
  recovery, the shared log and the multi-version store instead.
* ``live-hmwrite-2w`` — real worker processes behind the asyncio
  gateway; the only workload where the compute layers and the wall clock
  matter.  Every plane run boots its workers from scratch and its first
  requests queue behind that boot; the benchmark keeps that tail in its
  latency figures (no warm-up window inside a plane run).
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.compute import build_compute_plane
from repro.compute.worker import WorkloadSpec
from repro.config import SystemConfig
from repro.harness.failover import CounterWorkload
from repro.harness.platform import SimPlatform
from repro.harness.shards_exp import shard_sweep_config
from repro.simulation.rng import derive_seed
from repro.storageplane.audit import storage_consistency_report
from repro.workloads.synthetic import MixedRatioWorkload

#: Latency limit of ``slo_frac``: completed within it, out of attempted.
SLO_MS = 50.0

#: ``observer(request, latency_ms, completed_at_ms)`` — completion hook
#: for the arrival-lag reconstruction; ``completed_at_ms`` is on the
#: benchmark's clock (simulated ms for the DES, monotonic ms live).
Observer = Callable[[Any, float, float], None]


def arrival_offsets_ms(seed: int, mean_gap: float, unit_ms: float,
                       count: Optional[int] = None,
                       horizon_ms: Optional[float] = None) -> List[float]:
    """The seeded arrival schedule, rebuilt outside the program.

    Both planes draw exponential gaps from the ``arrivals`` stream of a
    registry rooted at ``config.seed``.  The DES spawns request *k* after
    gaps ``0..k`` (arrivals strictly before ``horizon_ms``); the gateway
    admits request 0 at once and request *k* after gaps ``0..k-1``.
    ``unit_ms`` converts the gap unit (ms for the DES, s live).
    """
    rng = np.random.default_rng(derive_seed(seed, "arrivals"))
    offsets: List[float] = []
    now = 0.0
    if horizon_ms is not None:
        while True:
            now += float(rng.exponential(mean_gap)) * unit_ms
            if now >= horizon_ms:
                return offsets
            offsets.append(now)
    for _ in range(count):
        offsets.append(now)
        now += float(rng.exponential(mean_gap)) * unit_ms
    return offsets


def arrival_lag_ms(due_ms: List[float],
                   completions: List[Tuple[float, float]]) -> List[float]:
    """Per-request admission lag behind the seeded schedule.

    Each admission instant is the completion instant minus the latency
    the program reported; sorted, the *k*-th admission belongs to the
    *k*-th scheduled arrival (both planes admit in schedule order).  The
    schedule is anchored at the first admission.
    """
    admitted = sorted(done - latency for done, latency in completions)
    if not admitted:
        return []
    start = admitted[0] - due_ms[0]
    return [a - (start + d) for a, d in zip(admitted, due_ms)]


@dataclass
class PlaneRun:
    """One measured deployment: build it, drive it, audit it."""

    setup_s: float
    cpu_s: float
    completed: int
    attempted: int
    latencies: List[float]
    result: Any
    failures: List[str]
    #: Wall time of the traceable region: set-up plus run.
    region_s: float = 0.0
    #: DES ``keep`` runs only: the platform, for per-layer readings.
    platform: Any = None
    #: Live only: CPU of the gateway (this process) and of its workers,
    #: when ``run()`` was called, and the arrival lag per request.
    gateway_cpu_s: float = 0.0
    workers_cpu_s: float = 0.0
    t_run: float = 0.0
    lag_ms: List[float] = field(default_factory=list)
    #: DES only: CPU seconds of the busy loop bracketing this run (host
    #: speed).
    calib_s: float = 0.0

    #: DES only: everything a same-seed rerun must reproduce exactly.
    fingerprint: Tuple = ()

    @property
    def slo_hits(self) -> int:
        return sum(1 for x in self.latencies if x <= SLO_MS)


def _rusage_cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


# -- simulated workloads ------------------------------------------------


class SimWorkload:
    """A DES workload: the ``SimPlatform`` constructor plus ``prepare``
    is the set-up, ``platform.run`` the measured work, ``audit`` the
    correctness check."""

    plane = "sim"
    protocol = ""
    rate_per_s = 600.0
    duration_ms = 0.0
    drain_ms = 5_000.0

    def __init__(self, scale: float = 1.0):
        self.duration_ms = self.duration_ms * scale

    def config(self, seed: int) -> SystemConfig:
        raise NotImplementedError

    def workload(self) -> Any:
        raise NotImplementedError

    def workload_classes(self) -> Tuple[type, ...]:
        raise NotImplementedError

    def prepare(self, platform: SimPlatform, state: Dict[str, Any]) -> None:
        """Wiring done as part of set-up: the completion hook."""
        self._chain(platform, state, None)

    def audit(self, platform: SimPlatform, result: Any,
              state: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def manifest(self) -> Dict[str, Any]:
        return {"plane": "sim", "protocol": self.protocol,
                "rate_per_s": self.rate_per_s,
                "duration_ms": self.duration_ms, "drain_ms": self.drain_ms}

    def run_once(self, seed: int, observer: Optional[Observer] = None,
                 tracer: Any = None, keep: bool = False) -> PlaneRun:
        """Set up, run and audit one deployment; ``tracer`` (a context
        manager) is active around set-up and run, never the audit.

        Only a ``keep`` run holds on to its platform and ``RunResult``:
        repetitions must not pile up heap (peak RSS, GC time)."""
        state: Dict[str, Any] = {"observer": observer}
        # The previous repetition's platform is garbage now; collect it
        # here rather than inside this repetition's timed run.
        gc.collect()
        with tracer if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            platform = SimPlatform(self.workload(), self.protocol,
                                   self.config(seed))
            self.prepare(platform, state)
            setup_s = time.perf_counter() - t0
            c0, w0 = time.process_time(), time.perf_counter()
            result = platform.run(self.rate_per_s, self.duration_ms,
                                  drain_ms=self.drain_ms)
            cpu_s = time.process_time() - c0
            run_wall_s = time.perf_counter() - w0
        attempted = len(arrival_offsets_ms(
            seed, 1000.0 / self.rate_per_s, 1.0,
            horizon_ms=self.duration_ms))
        failures = self.audit(platform, result, state)
        if result.completed == 0:
            failures.append("no invocation completed")
        if result.completed != attempted:
            failures.append(f"{attempted - result.completed} of "
                            f"{attempted} invocations never completed")
        return PlaneRun(
            setup_s=setup_s, cpu_s=cpu_s, completed=result.completed,
            attempted=attempted, latencies=platform.latencies.samples,
            result=result if keep else None, failures=failures,
            fingerprint=(result.completed, result.median_ms, result.p99_ms,
                         result.extras["events_processed"],
                         tuple(sorted(result.counters.items())),
                         result.orphaned_invocations,
                         result.recovered_orphans, attempted),
            region_s=setup_s + run_wall_s,
            platform=platform if keep else None,
        )

    @staticmethod
    def _chain(platform: SimPlatform, state: Dict[str, Any],
               hook: Optional[Callable[[Any, float], None]]) -> None:
        observer = state.get("observer")
        sim = platform.sim

        def on_complete(request, latency_ms):
            if hook is not None:
                hook(request, latency_ms)
            if observer is not None:
                observer(request, latency_ms, sim.now)

        platform.on_request_complete = on_complete


class ShardedBoki(SimWorkload):
    name = "sim-sharded-boki"
    why = ("Boki on 4x4 shards, 1000 shared keys, contention modelled: "
           "every op logs, so storage-plane install, drain stations and "
           "charge path dominate")
    protocol = "boki"
    duration_ms = 5_000.0
    checks = ("storage consistency report clean", "same-seed determinism",
              "every arrival completed")

    def config(self, seed: int) -> SystemConfig:
        return shard_sweep_config(4, SystemConfig().with_seed(seed),
                                  kv_partitions=4)

    def workload(self) -> Any:
        return MixedRatioWorkload(read_ratio=0.5, num_keys=1000)

    def workload_classes(self) -> Tuple[type, ...]:
        return (MixedRatioWorkload,)

    def audit(self, platform, result, state) -> List[str]:
        report = storage_consistency_report(platform.runtime.backend.plane)
        return [f"storage anomaly: {a}" for a in report["anomalies"]]

    def manifest(self) -> Dict[str, Any]:
        return dict(super().manifest(), workload="MixedRatioWorkload",
                    read_ratio=0.5, num_keys=1000, log_shards=4,
                    kv_partitions=4, sequencer="monolith",
                    contention_modelled=True)


class FailoverHalfmoonRead(SimWorkload):
    name = "sim-failover-hmread"
    why = ("Halfmoon-read on the default plane, fresh keys, node "
           "crash+restart, 2% faults: bypasses the storage plane, "
           "exercises faults, recovery, sharedlog, mv store")
    protocol = "halfmoon-read"
    duration_ms = 5_000.0
    checks = ("exactly-once probe of every key", "every orphan recovered",
              "exactly one node crash", "same-seed determinism",
              "every arrival completed")
    fault_rate = 0.02
    lease_ms = 1_000.0
    crash_at_frac = 0.3
    restart_after_ms = 2_000.0

    def config(self, seed: int) -> SystemConfig:
        base = (SystemConfig().with_seed(seed)
                .with_fault_rate(self.fault_rate)
                .with_node_recovery(lease_ms=self.lease_ms,
                                    heartbeat_interval_ms=self.lease_ms / 5,
                                    detector_poll_ms=self.lease_ms / 20))
        return replace(base, cluster=replace(
            base.cluster, function_nodes=4, workers_per_node=4)).validate()

    def num_keys(self) -> int:
        # One fresh key per bump; twice the offered load (as the
        # failover sweep sizes it) so the pool never runs dry.
        return int(self.rate_per_s * self.duration_ms / 1000.0) * 2 + 64

    def workload(self) -> Any:
        return CounterWorkload(num_keys=self.num_keys(), read_ratio=0.3)

    def workload_classes(self) -> Tuple[type, ...]:
        return (CounterWorkload,)

    def prepare(self, platform, state) -> None:
        expected = {key: 0 for key in platform.workload.keys}
        state["expected"] = expected

        def count_bump(request, latency_ms):
            if request.func_name == "bump":
                expected[request.input] += 1

        self._chain(platform, state, count_bump)
        platform.schedule_node_crash(
            self.duration_ms * self.crash_at_frac, 0,
            restart_after_ms=self.restart_after_ms)

    def audit(self, platform, result, state) -> List[str]:
        failures = exactly_once_audit(platform.runtime, state["expected"])
        if result.node_crashes != 1:
            failures.append(f"{result.node_crashes} node crashes, wanted 1")
        if result.recovered_orphans != result.orphaned_invocations:
            failures.append(
                f"{result.orphaned_invocations - result.recovered_orphans}"
                f" of {result.orphaned_invocations} orphans not recovered")
        return failures

    def manifest(self) -> Dict[str, Any]:
        return dict(super().manifest(), workload="CounterWorkload",
                    read_ratio=0.3, compute_ms=8.0, num_keys=self.num_keys(),
                    storage="default (auto)", function_nodes=4,
                    workers_per_node=4, lease_ms=self.lease_ms,
                    crash_at_ms=self.duration_ms * self.crash_at_frac,
                    restart_after_ms=self.restart_after_ms,
                    fault_rate=self.fault_rate)


def exactly_once_audit(runtime: Any, expected: Dict[str, int]) -> List[str]:
    """Probe every key through the protocol against the ground truth
    built from completions (the failover sweep's audit)."""
    bad = [key for key, want in expected.items()
           if runtime.invoke("probe", key).output != want]
    if not bad:
        return []
    return [f"exactly-once: {len(bad)} keys disagree with ground truth "
            f"(first: {bad[0]})"]


# -- live workload ------------------------------------------------------


class LiveHalfmoonWrite:
    """Real processes: the localhost compute plane with two workers."""

    plane = "live"
    name = "live-hmwrite-2w"
    why = ("Halfmoon-write on real processes (gateway + 2 workers): the "
           "only workload where worker boot, gateway loop, RPC wire and "
           "wall clock matter")
    protocol = "halfmoon-write"
    checks = ("exactly-once probe of every key",
              "storage consistency report clean",
              "every request completed; none failed, shed or duplicated",
              "run not aborted")
    #: Far below the knee.  A worker serves one invocation at a time and
    #: each is a chain of RPC round trips through the gateway, so a busy
    #: host, by slowing wake-ups, lowers the plane's capacity: at 300
    #: req/s that pushed it past the knee for minutes at a time (p50 from
    #: 3.5 ms to tens or hundreds of ms).  At 150 req/s the service time
    #: must grow almost fourfold for that; lower rates buy little more
    #: and add CPU per invocation (idle heartbeats and polling).
    rate_per_s = 150.0
    workers = 2
    compute_ms = 2.0
    #: Requests per deployment.  Its first ~0.5-1 s of arrivals queue
    #: behind worker boot; at this size that backlog (with its drain) is
    #: 10-30% of the requests, so it sets p99 and ``slo_frac`` but not
    #: p50.  Smaller deployments put p50 at the edge of the backlog;
    #: larger ones leave fewer boots to take the median over (README).
    requests = 600
    #: Deployments measured per run at the least (medians over them).
    min_deployments = 3
    #: A discarded plane run first: process-level lazy set-up and CPU
    #: burst credit settle there.  It is a whole separate deployment;
    #: every measured plane run still boots its own workers.
    warmup_requests = 60
    #: A stuck deployment aborts (and fails the run) well inside the
    #: benchmark's time limit.
    deadline_s = 60.0

    def __init__(self, scale: float = 1.0):
        self.requests = max(20, int(self.requests * scale))

    def config(self, seed: int) -> SystemConfig:
        return (SystemConfig().with_seed(seed)
                .with_storage_plane(backend="sharded", log_shards=2,
                                    kv_partitions=2)
                .validate())

    def workload_kwargs(self, requests: int) -> Dict[str, Any]:
        return dict(num_keys=requests + 64, read_ratio=0.3,
                    compute_ms=self.compute_ms)

    def workload_classes(self) -> Tuple[type, ...]:
        return (CounterWorkload,)

    def manifest(self) -> Dict[str, Any]:
        return {"plane": "live", "backend": "localhost",
                "protocol": self.protocol, "rate_per_s": self.rate_per_s,
                "workers": self.workers, "requests_per_plane": self.requests,
                "workload": "CounterWorkload", "read_ratio": 0.3,
                "compute_ms": self.compute_ms, "log_shards": 2,
                "kv_partitions": 2, "kills": 0,
                "warmup_plane_requests": self.warmup_requests,
                "latency_clock": "admission to completion (gateway)"}

    def run_once(self, seed: int, requests: Optional[int] = None,
                 telemetry: bool = False, tracer: Any = None) -> PlaneRun:
        requests = self.requests if requests is None else requests
        kwargs = self.workload_kwargs(requests)
        workload = CounterWorkload(**kwargs)
        spec = WorkloadSpec(module="repro.harness.failover",
                            qualname="CounterWorkload", kwargs=kwargs)
        expected = {key: 0 for key in workload.keys}
        completions: List[Tuple[float, float]] = []
        first: List[float] = []

        def on_complete(request, latency_ms):
            now = time.monotonic()
            if not first:
                first.append(now)
            completions.append((now * 1000.0, latency_ms))
            if request.func_name == "bump":
                expected[request.input] += 1

        gc.collect()
        self_cpu0 = _rusage_cpu(resource.RUSAGE_SELF)
        kids_cpu0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
        plane = None
        try:
            with tracer if tracer is not None else nullcontext():
                t_ctor = time.monotonic()
                plane = build_compute_plane(
                    "localhost", workload, self.protocol,
                    config=self.config(seed), workload_spec=spec,
                    num_workers=self.workers, kills=0, requests=requests,
                    telemetry=telemetry, deadline_s=self.deadline_s,
                )
                plane.on_request_complete = on_complete
                t_run = time.monotonic()
                result = plane.run(self.rate_per_s,
                                   requests * 1000.0 / self.rate_per_s)
                wall_s = time.monotonic() - t_ctor
            gateway_cpu = _rusage_cpu(resource.RUSAGE_SELF) - self_cpu0
            workers_cpu = _rusage_cpu(resource.RUSAGE_CHILDREN) - kids_cpu0
            failures = exactly_once_audit(plane.runtime, expected)
            report = storage_consistency_report(plane.backend.plane)
        finally:
            if plane is not None:
                plane.close()
        failures += [f"storage anomaly: {a}" for a in report["anomalies"]]
        extras = result.extras
        if extras.get("aborted"):
            failures.append(f"run aborted: {extras['aborted']}")
        if extras.get("failed_invocations"):
            failures.append(f"{len(extras['failed_invocations'])} "
                            "invocations failed")
        if extras.get("duplicate_completions"):
            failures.append(f"{extras['duplicate_completions']} duplicate "
                            "completions without any kill")
        if result.completed == 0:
            failures.append("no invocation completed")
        elif result.completed != requests:
            failures.append(f"{requests - result.completed} of {requests} "
                            "invocations never completed")
        due = arrival_offsets_ms(seed, 1.0 / self.rate_per_s, 1000.0,
                                 count=requests)
        return PlaneRun(
            setup_s=(first[0] - t_ctor) if first else float("nan"),
            cpu_s=gateway_cpu + workers_cpu, completed=result.completed,
            attempted=requests, latencies=[lat for _, lat in completions],
            result=result, failures=failures, gateway_cpu_s=gateway_cpu,
            workers_cpu_s=workers_cpu,
            lag_ms=arrival_lag_ms(due, completions),
            region_s=wall_s, t_run=t_run,
        )


WORKLOADS = {
    cls.name: cls for cls in (ShardedBoki, FailoverHalfmoonRead,
                              LiveHalfmoonWrite)
}

