"""Cross-process observability: span blocks, wire codec, telemetry."""

from repro.observe import (
    CAT_ATTEMPT,
    CAT_SERVICE,
    FlightRecorder,
    MetricsRegistry,
    ParentRef,
    TelemetrySink,
    Tracer,
    WorkerTelemetry,
    absorb_wire_spans,
    make_worker_tracer,
    spans_to_wire,
)
from repro.observe.distributed import WORKER_SPAN_BLOCK


# -- span-id blocks -------------------------------------------------------


def test_reserved_blocks_are_disjoint():
    gw = Tracer()
    gw.start_span("dispatch", CAT_ATTEMPT, 0.0, "inv-1")
    base_a = gw.reserve_block(WORKER_SPAN_BLOCK)
    base_b = gw.reserve_block(WORKER_SPAN_BLOCK)
    assert base_b == base_a + WORKER_SPAN_BLOCK

    wa = make_worker_tracer(base_a)
    wb = make_worker_tracer(base_b)
    ids = set()
    for tracer, n in ((gw, 5), (wa, 5), (wb, 5)):
        for i in range(n):
            ids.add(
                tracer.start_span(f"s{i}", CAT_SERVICE, 0.0, "t").span_id
            )
    assert len(ids) == 15  # never a collision across processes


def test_wire_roundtrip_preserves_identity_and_links():
    gw = Tracer()
    dispatch = gw.start_span("dispatch", CAT_ATTEMPT, 10.0, "inv-7")
    base = gw.reserve_block(WORKER_SPAN_BLOCK)

    worker = make_worker_tracer(base)
    root = worker.start_span(
        "execute:bump", CAT_ATTEMPT, 11.0, "inv-7",
        parent=ParentRef(dispatch.span_id), proc="worker-0",
    )
    rpc_span = worker.start_span(
        "rpc:kv.put", CAT_SERVICE, 12.0, "inv-7", parent=root
    )
    rpc_span.annotate("retry", 12.5, attempt=2)
    rpc_span.finish(13.0)
    root.finish(14.0)

    absorbed = absorb_wire_spans(gw, spans_to_wire([root, rpc_span]))
    assert absorbed == 2
    by_id = {s.span_id: s for s in gw.spans}
    # Ids shipped verbatim: the cross-process parent link resolves.
    assert by_id[root.span_id].parent_id == dispatch.span_id
    assert by_id[rpc_span.span_id].parent_id == root.span_id
    assert by_id[root.span_id].trace_id == "inv-7"
    assert by_id[root.span_id].args["proc"] == "worker-0"
    event = by_id[rpc_span.span_id].events[0]
    assert (event.name, event.ts_ms, event.args["attempt"]) == (
        "retry", 12.5, 2
    )
    dispatch.finish(15.0)


# -- worker-side batching -------------------------------------------------


def test_batches_are_incremental_and_final_ships_open_spans():
    tracer = make_worker_tracer(1000)
    reg = MetricsRegistry()
    lat = reg.latency("rpc_roundtrip_ms")
    tel = WorkerTelemetry(tracer, reg)

    s1 = tracer.start_span("a", CAT_SERVICE, 0.0, "t")
    s1.finish(1.0)
    lat.record(1.0)
    lat.record(2.0)
    batch = tel.batch(10.0)
    assert [w[1] for w in batch["spans"]] == [s1.span_id]
    (_name, _labels, kind, samples), = batch["metrics"]
    assert (kind, samples) == ("latency", [1.0, 2.0])

    # Nothing new: no batch, no frame.
    assert tel.batch(20.0) is None

    # Only the delta ships on the next batch.
    lat.record(3.0)
    open_span = tracer.start_span("b", CAT_SERVICE, 2.0, "t")
    batch = tel.batch(30.0)
    (_n, _l, _k, samples), = batch["metrics"]
    assert samples == [3.0]
    assert batch["spans"] == []  # open spans withheld...

    # ...until the final drain, which always returns a dict.
    final = tel.batch(40.0, final=True)
    assert final["final"] is True
    assert [w[1] for w in final["spans"]] == [open_span.span_id]
    assert final["spans"][0][6] is None  # end_ms: still unfinished


def test_batch_ships_children_only_with_their_finished_root():
    # A heartbeat mid-invocation must not ship the finished rpc spans
    # alone: a SIGKILL before the next batch would lose their parent.
    tracer = make_worker_tracer(1 << 20)
    tel = WorkerTelemetry(tracer, None)
    root = tracer.start_span("execute:f", CAT_ATTEMPT, 0.0, "t",
                             parent=ParentRef(7))
    rpc = root.child("rpc:log.append", CAT_SERVICE, 1.0)
    rpc.finish(2.0)
    assert tel.batch(3.0) is None  # nothing shippable yet
    root.finish(4.0)
    shipped = [w[1] for w in tel.batch(5.0)["spans"]]
    assert shipped == [root.span_id, rpc.span_id]


def test_batch_ships_flightrec_tail_once():
    rec = FlightRecorder("w", lambda: 0.0)
    tel = WorkerTelemetry(None, None, rec)
    rec.record("invoke", fn="bump")
    batch = tel.batch(1.0)
    assert [e["kind"] for e in batch["flightrec"]] == ["invoke"]
    assert tel.batch(2.0) is None  # already shipped
    rec.record("done")
    assert [e["kind"] for e in tel.batch(3.0)["flightrec"]] == ["done"]


# -- gateway-side sink ----------------------------------------------------


def _latency_batch(now_ms, samples, final=False):
    return {
        "now_ms": now_ms,
        "spans": [],
        "metrics": [("rpc_roundtrip_ms", (), "latency", samples)],
        "flightrec": [],
        "final": final,
    }


def test_sink_registers_worker_labelled_series():
    reg = MetricsRegistry()
    sink = TelemetrySink(None, reg)
    sink.apply(0, _latency_batch(10.0, [1.0, 2.0]))
    sink.apply(1, _latency_batch(12.0, [5.0]))
    sink.apply(0, _latency_batch(20.0, [3.0]))  # incremental extend
    assert sink.batches == 3
    assert sink.workers() == [0, 1]

    snapshot = reg.snapshot(25.0)
    assert snapshot["rpc_roundtrip_ms{worker=0}"]["count"] == 3
    assert snapshot["rpc_roundtrip_ms{worker=1}"]["count"] == 1

    merged = sink.merged_latency("rpc_roundtrip_ms")
    assert sorted(merged.samples) == [1.0, 2.0, 3.0, 5.0]


def test_sink_counter_batches_are_cumulative_not_additive():
    reg = MetricsRegistry()
    sink = TelemetrySink(None, reg)

    def counter_batch(counts):
        return {"now_ms": 0.0, "spans": [], "flightrec": [],
                "metrics": [("ops", (), "counters", counts)],
                "final": False}

    sink.apply(0, counter_batch({"put": 2}))
    sink.apply(0, counter_batch({"put": 5, "get": 1}))
    metric = sink.worker_metric(0, "ops")
    assert metric.as_dict() == {"put": 5, "get": 1}  # replaced, not 7


def test_sink_merged_throughput_uses_shared_horizon():
    reg = MetricsRegistry()
    sink = TelemetrySink(None, reg)

    def meter_batch(count, first, last):
        return {"now_ms": last, "spans": [], "flightrec": [],
                "metrics": [("done", (), "throughput",
                             (count, first, last, 1.0))],
                "final": False}

    sink.apply(0, meter_batch(3, 100.0, 300.0))
    sink.apply(1, meter_batch(1, 150.0, 150.0))
    merged = sink.merged_throughput("done", horizon_ms=1000.0)
    assert merged.count == 4
    assert merged.rate_per_sec() == 4 * 1000.0 / 900.0


def test_sink_absorbs_spans_and_bounds_flightrec_lanes():
    gw = Tracer()
    reg = MetricsRegistry()
    sink = TelemetrySink(gw, reg)
    base = gw.reserve_block(WORKER_SPAN_BLOCK)
    worker = make_worker_tracer(base)
    span = worker.start_span("execute:f", CAT_ATTEMPT, 0.0, "t")
    span.finish(1.0)
    events = [{"seq": i, "ts_ms": float(i), "kind": "tick"}
              for i in range(1, 302)]
    sink.apply(3, {"now_ms": 5.0, "spans": spans_to_wire([span]),
                   "metrics": [], "flightrec": events, "final": False})
    assert sink.spans_absorbed == 1
    assert gw.spans[0].span_id == span.span_id
    lane = sink.worker_flightrec[3]
    assert len(lane) == 256  # bounded per worker
    assert lane[-1]["seq"] == 301
