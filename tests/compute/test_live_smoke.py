"""Live compute plane smoke: real processes, one real SIGKILL.

A deliberately small end-to-end pass of ``python -m repro live``'s
machinery, sized for the tier-1 suite: two worker processes, thirty
invocations, one seeded mid-invocation SIGKILL.  The full four-system
acceptance run lives behind the CLI (and the CI ``live-smoke`` job);
this test pins the load-bearing claims —

* a logged protocol survives the kill with zero exactly-once
  violations and zero storage-consistency anomalies, and
* the ``unsafe`` control double-applies on the very same schedule,
  proving the kill landed somewhere adversarial, and
* workers are forked children of the gateway that shed its signal
  wiring: a SIGINT or SIGTERM aimed at a worker never drains the
  gateway.
"""

import glob
import os
import signal
import sys

import pytest

from repro.compute.gateway import LocalhostComputePlane
from repro.harness.live_exp import run_live, run_live_point
from repro.observe import Tracer, chrome_trace, read_flightrec

pytestmark = pytest.mark.skipif(
    sys.platform != "linux",
    reason="relies on SIGKILL + AF_UNIX semantics",
)

SMOKE = dict(
    workers=2, kills=1, requests=30, rate_per_s=300.0,
    lease_ms=400.0, seed=1106, deadline_s=90.0,
)


def test_boki_survives_a_real_sigkill():
    point = run_live_point("boki", **SMOKE)
    result = point.result
    assert result.extras.get("aborted") is None
    assert result.completed == SMOKE["requests"]
    assert point.kills_delivered == 1
    # The kill stranded at least one invocation; takeover recovered it.
    assert result.orphaned_invocations >= 1
    assert result.recovered_orphans >= 1
    # Exactly-once held on real processes.
    assert point.violations == 0
    assert point.consistency_anomalies == []
    # The dead worker was detected and replaced.
    assert point.workers_spawned >= SMOKE["workers"] + 1
    # Boot is reported per worker (None for a replacement the run ended
    # before it became ready).
    boots = result.extras["worker_boot_ms"]
    assert len(boots) == point.workers_spawned
    assert all(ms > 0 for ms in boots[:SMOKE["workers"]])


def test_unsafe_control_violates_on_the_same_schedule():
    point = run_live_point("unsafe", **SMOKE)
    assert point.result.completed == SMOKE["requests"]
    assert point.kills_delivered == 1
    assert point.violations >= 1


def test_untraced_run_ships_no_telemetry():
    # The zero-overhead invariant: without a tracer, telemetry defaults
    # off and the run exchanges only the pre-existing frame kinds.
    point = run_live_point("boki", **SMOKE)
    extras = point.result.extras
    assert extras.get("telemetry_batches", 0) == 0
    assert extras.get("worker_spans_absorbed", 0) == 0
    assert extras.get("rpc_p50_ms") is None


def _ppid(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("PPid:"):
                return int(line.split()[1])
    raise AssertionError(f"no PPid for {pid}")


def _socket_inodes(pid):
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed meanwhile
            continue
        if link.startswith("socket:["):
            inodes.add(int(link[len("socket:["):-1]))
    return inodes


def test_forked_workers_are_children_and_signals_do_not_drain(
        monkeypatch):
    # SIGINT is ignored by the worker; SIGTERM ends it gracefully.
    # Neither may reach the gateway's loop and start a drain.
    checked, leaks, signalled = set(), [], {}
    handle_done = LocalhostComputePlane._handle_done

    def spy(plane, slot, frame):
        handle_done(plane, slot, frame)
        # The gateway's own sockets: listening, and its ends of every
        # connection.  A forked worker must hold none of them.
        gateway_socks = {os.fstat(s.fileno()).st_ino
                         for s in plane._server.sockets}
        gateway_socks |= {os.fstat(w.get_extra_info("socket").fileno())
                          .st_ino for w in plane._conns}
        # (Recorded, not asserted: an exception here would only kill
        # this connection's handler.)
        for other in plane._slots.values():
            if other.ready and other.alive:
                pid = other.process.pid
                if _ppid(pid) != os.getpid():
                    leaks.append((other.worker_id, "not a gateway child"))
                if gateway_socks & _socket_inodes(pid):
                    leaks.append((other.worker_id, "holds gateway sockets"))
                checked.add(other.worker_id)
        done = len(plane._completed)
        if done == 5 and not signalled:
            signalled[signal.SIGINT] = (slot, slot.invocations)
            os.kill(slot.process.pid, signal.SIGINT)
        elif done == 10 and len(signalled) == 1:
            target = next(s for s in plane._slots.values()
                          if s is not signalled[signal.SIGINT][0])
            signalled[signal.SIGTERM] = (target, target.invocations)
            os.kill(target.process.pid, signal.SIGTERM)

    monkeypatch.setattr(LocalhostComputePlane, "_handle_done", spy)
    point = run_live_point("boki", **dict(SMOKE, kills=0))
    result = point.result
    assert leaks == []
    assert len(checked) >= SMOKE["workers"] and len(signalled) == 2
    assert result.extras.get("aborted") is None  # not "drained on SIG…"
    assert result.completed == SMOKE["requests"]
    assert point.violations == 0
    assert point.consistency_anomalies == []
    interrupted, served_before = signalled[signal.SIGINT]
    assert not interrupted.declared
    assert interrupted.invocations > served_before
    assert interrupted.process.exitcode == 0
    terminated, _ = signalled[signal.SIGTERM]
    assert terminated.process.exitcode == 0


def test_live_table_prints_unmeasured_as_dash():
    # Untraced and no kills: rpc and detect/takeover were never measured.
    table = run_live(systems=("boki",), workers=1, kills=0, requests=8,
                     rate_per_s=300.0, seed=5, deadline_s=60.0)
    row = dict(zip(table.headers, table.rows[0]))
    for header in ("detect p50 (ms)", "takeover p50 (ms)",
                   "rpc p50 (ms)", "rpc p99 (ms)"):
        assert row[header] is None, header
    assert row["boot max (ms)"] > 0
    line = table.render().splitlines()[3]
    assert line.count("–") == 4 and " 0.00 " not in line


def test_trace_propagation_and_flightrec(tmp_path):
    tracer = Tracer()
    point = run_live_point(
        "boki", **SMOKE, tracer=tracer, flightrec_dir=str(tmp_path)
    )
    result = point.result
    assert result.extras.get("aborted") is None
    assert point.violations == 0

    # -- telemetry arrived and was folded in ---------------------------
    assert result.extras["telemetry_batches"] > 0
    assert result.extras["worker_spans_absorbed"] > 0
    assert result.extras["rpc_p50_ms"] is not None
    assert any(
        key.startswith("rpc_roundtrip_ms{") and "worker=" in key
        for key in result.metrics
    )

    # -- worker spans share the gateway's trace ids --------------------
    spans = tracer.spans
    attempt_ids = {
        s.span_id for s in spans
        if s.name.startswith("attempt-") and "proc" not in s.args
    }
    gateway_traces = {
        s.trace_id for s in spans if "proc" not in s.args
    }
    worker_spans = [
        s for s in spans
        if str(s.args.get("proc", "")).startswith("worker-")
    ]
    assert worker_spans, "no worker spans were shipped"
    executes = [s for s in worker_spans if s.name.startswith("execute:")]
    rpcs = [s for s in worker_spans if s.name.startswith("rpc:")]
    assert executes and rpcs
    for span in worker_spans:
        assert span.trace_id in gateway_traces
    # Every worker root parents under a gateway dispatch-attempt span;
    # every worker rpc span parents under that worker's execute span.
    for span in executes:
        assert span.parent_id in attempt_ids
    execute_ids = {s.span_id for s in executes}
    for span in rpcs:
        assert span.parent_id in execute_ids
    # Gateway-side serve spans parent under the worker's rpc spans —
    # the client/server split of the same call.
    rpc_ids = {s.span_id for s in rpcs}
    serves = [s for s in spans if s.name.startswith("serve:")]
    assert serves
    assert any(s.parent_id in rpc_ids for s in serves)

    # -- the merged Chrome export is schema-valid, multi-process -------
    trace = chrome_trace(tracer)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert {e["ph"] for e in events} <= {"X", "i", "M"}
    procs = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert any(p.startswith("worker-") for p in procs)
    assert len(procs) >= 2  # gateway lane + at least one worker lane

    # -- the SIGKILL dumped a flight-recorder artifact -----------------
    dumps = glob.glob(str(tmp_path / "flightrec-gateway-sigkill-*.jsonl"))
    assert dumps, os.listdir(tmp_path)
    records = read_flightrec(dumps[0])
    header = records[0]
    assert header["trigger"] == "sigkill"
    assert header["meta"]["worker"] is not None
    assert "last_acked_op" in header["meta"]
    assert any(r.get("kind") == "sigkill" for r in records[1:])

    # -- discovery file cleaned up on shutdown -------------------------
    assert not (tmp_path / "live-gateway.json").exists()
