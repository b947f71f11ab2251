"""Per-layer tracing for the benchmark: timing wrappers around the public
entry points of each layer, installed from outside the program.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces selected methods on the program's classes (and two functions of
the RPC module) with wrappers that record one span per call: name, start,
end and parent.  Spans stay in memory (four flat arrays) and are written
out once, at the end of the traced run.

A span's *self time* is its duration minus the time covered by the
wrapped calls it made.  The self time of ``simulation.run`` therefore
includes everything the DES does between wrapped calls: the event loop
itself and the lifecycle generator glue in ``SimPlatform`` that is not
one of the wrapped entry points.

Coroutines are timed per resumption: each step of
``rpc.read_frame_async`` between two awaits is one span, so its self time
is the CPU the gateway spent in it, not the time it waited for bytes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Instance-service operations (``runtime.services``): every log/store op
#: a protocol issues goes through one of these.
SERVICE_OPS = (
    "log_append", "log_cond_append", "log_read_prev", "log_read_next",
    "log_read_stream", "log_record_at", "db_read", "db_read_with_version",
    "db_read_version", "db_write", "db_write_version", "db_cond_write",
)
KV_OPS = ("get", "get_optional", "get_with_version", "put",
          "conditional_put", "set_version", "delete")
MV_OPS = ("write_version", "read_version", "has_version", "delete_version",
          "list_versions")
LOG_APPENDS = ("append", "cond_append")
LOG_READS = ("read_prev", "read_next", "read_stream")

#: (module, class, methods, span name).  The DES kernel, the protocol
#: classes and the workload classes are resolved at install time.
CLASS_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.simulation.metrics", "TimeWeightedGauge", ("feed",),
     "simulation.gauge_feed"),
    ("repro.harness.platform", "SimPlatform", ("_drain",), "harness.drain"),
    ("repro.runtime.services", "ServiceBackend",
     ("charge", "charge_log_read"), "runtime.charge"),
    ("repro.runtime.services", "InstanceServices", SERVICE_OPS,
     "runtime.services"),
    ("repro.runtime.local", "LocalRuntime", ("run_gc",), "runtime.gc"),
    ("repro.sharedlog.log", "SharedLog", LOG_APPENDS, "sharedlog.append"),
    ("repro.sharedlog.log", "SharedLog", LOG_READS, "sharedlog.read"),
    ("repro.storageplane.sharded_log", "ShardedLog", LOG_APPENDS,
     "storageplane.log.append"),
    ("repro.storageplane.sharded_log", "ShardedLog", LOG_READS,
     "storageplane.log.read"),
    ("repro.storageplane.metalog", "Metalog", ("assign",),
     "storageplane.metalog.assign"),
    ("repro.storageplane.partitioned_kv", "PartitionedKV", KV_OPS,
     "storageplane.kv"),
    ("repro.store.kv", "KVStore", KV_OPS, "store.kv"),
    ("repro.store.versioned", "MultiVersionStore", MV_OPS, "store.mv"),
    ("repro.faults.injector", "FaultInjector", ("draw",), "faults.draw"),
    ("repro.compute.gateway", "LocalhostComputePlane", ("_execute_op",),
     "compute.gateway.op"),
)


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: wrappers are installed on entry and the
    original attributes restored on exit, so the untraced runs of the
    same process execute the program exactly as shipped.
    """

    def __init__(self, workload_classes: Tuple[type, ...] = ()):
        self.workload_classes = workload_classes
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self._stack: List[int] = []
        self._child: List[float] = []
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        #: Counter-only probes (no span): bytes through the RPC codec.
        self.rpc_bytes = 0
        #: Wall instants (``time.monotonic``) of READY frames received.
        self.ready_at: List[float] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _wrap_sync(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name}: cannot time a generator function")
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, child = self._stack, self._child
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            if parent < 0 or names[parent] != nid:
                # A call nested in a call of the same name (e.g. one
                # log method delegating to another) is one call.
                calls[nid] += 1
            names.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                if child:
                    child[-1] += dur
                self_s[nid] += dur - inner

        return wrapper

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            return _TimedAwaitable(tracer, nid, fn(*args, **kwargs))

        return wrapper

    def _step(self, nid: int, t0: float, t1: float) -> None:
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_start.append(t0)
        self.span_end.append(t1)
        if self._child:
            self._child[-1] += t1 - t0
        self.self_s[nid] += t1 - t0

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerTracer":
        from repro.protocols.registry import PROTOCOL_CLASSES
        from repro.simulation import select

        targets: List[Tuple[type, str, str]] = []
        for module, cls_name, methods, span in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            targets.extend((cls, m, span) for m in methods)
        simulator = select.active_module().Simulator
        if inspect.isfunction(vars(simulator).get("run")):
            # The pure kernel; a compiled kernel's type is immutable and
            # its loop is reported inside nothing (recorded in the row).
            targets.append((simulator, "run", "simulation.run"))
        for cls in set(PROTOCOL_CLASSES.values()):
            for op in ("init", "read", "write"):
                targets.append((cls, op, f"protocols.{op}"))
        for cls in self.workload_classes:
            targets.append((cls, "next_request", "workloads.next_request"))
            targets.append((cls, "populate", "workloads.populate"))
        # Resolve every original before patching anything, so a subclass
        # that inherits a method wraps the original, never a wrapper.
        originals = [(cls, m, span, getattr(cls, m))
                     for cls, m, span in targets]
        for cls, method, span, original in originals:
            self._patch(cls, method, self._wrap_sync(span, original))
        self._install_rpc()
        return self

    def _install_rpc(self) -> None:
        from repro.compute import rpc

        tracer = self
        encode, decode = rpc._encode_checked, rpc._decode_body

        def counted_encode(frame, max_bytes):
            blob = encode(frame, max_bytes)
            tracer.rpc_bytes += len(blob)
            return blob

        def counted_decode(body):
            tracer.rpc_bytes += len(body) + rpc._LEN.size
            frame = decode(body)
            if isinstance(frame, tuple) and frame and frame[0] == rpc.READY:
                tracer.ready_at.append(time.monotonic())
            return frame

        self._patch(rpc, "_encode_checked", counted_encode)
        self._patch(rpc, "_decode_body", counted_decode)
        self._patch(rpc, "write_frame_async",
                    self._wrap_sync("compute.rpc", rpc.write_frame_async))
        self._patch(rpc, "read_frame_async",
                    self._wrap_async("compute.rpc", rpc.read_frame_async))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_s[nid] if nid is not None else 0.0

    def self_by_name(self) -> Dict[str, float]:
        return dict(zip(self.names, self.self_s))

    @property
    def spans(self) -> int:
        return len(self.span_start)

    def write(self, path: str) -> None:
        """Write every span as ``name start end parent`` (gzip TSV);
        times are ``perf_counter`` seconds, parent is a row index or -1."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\n")
            f.writelines(
                f"{names[n]}\t{s:.9f}\t{e:.9f}\t{p}\n"
                for n, s, e, p in zip(self.span_name, self.span_start,
                                      self.span_end, self.span_parent)
            )


class _TimedAwaitable:
    """Drives a coroutine step by step, one span per resumption."""

    __slots__ = ("tracer", "nid", "coro")

    def __init__(self, tracer: LayerTracer, nid: int, coro: Any):
        self.tracer, self.nid, self.coro = tracer, nid, coro

    def __await__(self):
        coro, step, nid = self.coro, self.tracer._step, self.nid
        clock = time.perf_counter
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            t0 = clock()
            try:
                if error is None:
                    out = coro.send(value)
                else:
                    out = coro.throw(error)
            except StopIteration as stop:
                step(nid, t0, clock())
                return stop.value
            except BaseException:
                step(nid, t0, clock())
                raise
            step(nid, t0, clock())
            try:
                value, error = (yield out), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc
