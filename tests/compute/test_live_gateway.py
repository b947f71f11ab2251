"""Gateway mechanics that need no timing luck: the shutdown handshake
with a deliberately slow stub worker, and the arrival pacer under a
fake clock whose every sleep overshoots."""

import asyncio
import socket
import sys
import time

import numpy as np
import pytest

from repro.compute import build_compute_plane, gateway, rpc
from repro.compute.proxy import GatewayConnection
from repro.compute.worker import WorkloadSpec
from repro.config import SystemConfig
from repro.harness.failover import CounterWorkload
from repro.observe import Tracer
from repro.simulation.rng import derive_seed

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="forks workers over AF_UNIX"
)

SEED = 23


def _plane(requests, tracer=None, **kwargs):
    workload_kwargs = dict(num_keys=requests + 8, read_ratio=0.3,
                           compute_ms=0.0)
    spec = WorkloadSpec(module="repro.harness.failover",
                        qualname="CounterWorkload", kwargs=workload_kwargs)
    return build_compute_plane(
        "localhost", CounterWorkload(**workload_kwargs), "boki",
        config=SystemConfig().with_seed(SEED), tracer=tracer,
        workload_spec=spec, requests=requests, deadline_s=30.0, **kwargs,
    )


def _late_telemetry_worker(socket_path, worker_id, *args):
    """Serves invocations trivially; after SHUTDOWN it waits ~200 ms
    and only then ships one span, as a slow final drain would."""
    span_base = args[7]
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(socket_path)
    conn = GatewayConnection(sock)
    conn.send((rpc.HELLO, worker_id))
    conn.send((rpc.READY, worker_id))
    while True:
        frame = rpc.recv_frame(sock)
        if frame is None:
            return
        if frame[0] == rpc.INVOKE:
            conn.send((rpc.DONE, worker_id, frame[1], True,
                       (rpc.encode_value(0), 1, {}, 0.0)))
        elif frame[0] == rpc.SHUTDOWN:
            time.sleep(0.2)
            span = ("late", span_base, None, "late-span", "attempt",
                    0.0, 1.0, {"proc": f"worker-{worker_id}"}, [])
            conn.send((rpc.TELEMETRY, worker_id,
                       {"now_ms": 0.0, "spans": [span], "final": True}))
            sock.close()
            return


def test_final_telemetry_after_shutdown_is_absorbed(monkeypatch):
    monkeypatch.setattr(gateway, "worker_main", _late_telemetry_worker)
    tracer = Tracer()
    plane = _plane(3, tracer=tracer, num_workers=1, telemetry=True)
    try:
        result = plane.run(100.0, 30.0)
    finally:
        plane.close()
    assert result.completed == 3
    assert result.extras["aborted"] is None
    assert result.extras["worker_spans_absorbed"] == 1
    assert [s.name for s in tracer.spans if s.trace_id == "late"] == [
        "late-span"
    ]


def test_arrivals_keep_the_schedule_when_every_sleep_overshoots(
        monkeypatch):
    rate, total = 150.0, 600
    plane = _plane(total, num_workers=1)
    clock = [0.0]
    admitted = []

    async def late_sleep(delay_s):
        clock[0] += delay_s * 1000.0 + 1.0  # every sleep 1 ms late

    monkeypatch.setattr(gateway.asyncio, "sleep", late_sleep)
    plane._now = lambda: clock[0]
    plane._admit = lambda request: admitted.append(clock[0])
    plane._check_done = lambda: None
    asyncio.run(plane._arrival_task(rate, total))

    # The same seeded gaps, drawn the same way: the schedule is unchanged.
    rng = np.random.default_rng(derive_seed(SEED, "arrivals"))
    due, schedule = admitted[0], []
    for _ in range(total):
        schedule.append(due)
        due += float(rng.exponential(1.0 / rate)) * 1000.0
    lags = [a - d for a, d in zip(admitted, schedule)]
    assert len(admitted) == total
    assert min(lags) >= 0.0
    # One sleep's overshoot at most, never the sum of all of them.
    assert max(lags) <= 1.0 + 1e-6
