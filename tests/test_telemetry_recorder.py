"""Recorders and the module-level enable/disable switch."""

import pytest

from repro import telemetry
from repro.telemetry.recorder import NULL_RECORDER, NullRecorder, TelemetryRecorder


@pytest.fixture(autouse=True)
def restore_recorder():
    yield
    telemetry.disable()


def test_null_recorder_is_inert():
    rec = NullRecorder()
    assert rec.enabled is False
    rec.count("x")
    rec.gauge("x", 1.0)
    rec.observe("x", 1.0)
    rec.event("x")
    rec.sample("x", 0.0, 1.0)
    rec.sample_series("x", [(0.0, 1.0)])
    rec.bind_clock(lambda: 5.0)
    assert rec.begin("x") is None
    rec.end(None)
    with rec.span("x") as span:
        assert span is None


def test_live_recorder_routes_to_registry_and_trace():
    rec = TelemetryRecorder(clock=lambda: 3.0)
    assert rec.enabled is True
    rec.count("calls", connection="c")
    rec.count("calls", 2.0, connection="c")
    rec.gauge("depth", 7.0)
    rec.observe("latency", 0.25, buckets=(0.1, 1.0))
    rec.event("tick", detail="d")
    assert rec.registry.counter("calls", connection="c").value == 3.0
    assert rec.registry.gauge("depth").value == 7.0
    assert rec.registry.histogram("latency").count == 1
    (event,) = rec.trace.events(kind="point")
    assert event["t"] == 3.0 and event["name"] == "tick"


def test_live_recorder_spans_and_series():
    clock = {"now": 0.0}
    rec = TelemetryRecorder(clock=lambda: clock["now"])
    span = rec.begin("work")
    clock["now"] = 1.0
    rec.end(span, status="ok")
    with rec.span("inner", parent=span):
        clock["now"] = 1.5
    ends = rec.trace.events(kind="end")
    assert [e["duration"] for e in ends] == [1.0, 0.5]
    rec.sample_series("bw", [(0.1, 5.0), (0.2, 6.0)], waveform="step-up")
    assert rec.trace.series("bw") == [(0.1, 5.0), (0.2, 6.0)]


def test_bind_clock_retargets_time_source():
    rec = TelemetryRecorder()
    assert rec.now() == 0.0
    rec.bind_clock(lambda: 42.0)
    rec.event("later")
    assert rec.trace.events()[0]["t"] == 42.0


def test_enable_disable_swap_module_recorder():
    assert telemetry.RECORDER is NULL_RECORDER
    rec = telemetry.enable(clock=lambda: 1.0)
    assert telemetry.RECORDER is rec and rec.enabled
    previous = telemetry.disable()
    assert previous is rec
    assert telemetry.RECORDER is NULL_RECORDER


def test_enable_accepts_sim_clock(sim):
    rec = telemetry.enable(sim=sim)
    sim.call_at(1.25, lambda: None)
    sim.run()
    assert rec.now() == 1.25


def test_enabled_context_restores_null_recorder():
    with telemetry.enabled() as rec:
        assert telemetry.RECORDER is rec
        rec.count("inside")
    assert telemetry.RECORDER is NULL_RECORDER
    assert rec.registry.counter("inside").value == 1.0


def test_enabled_context_leaves_foreign_recorder_alone():
    with telemetry.enabled():
        replacement = telemetry.enable()
    # Someone swapped recorders inside the block; the context manager
    # must not clobber the newer one on exit.
    assert telemetry.RECORDER is replacement


def test_instrumented_code_sees_recorder_through_module():
    def hot_path():
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("hits")

    hot_path()  # disabled: no-op
    with telemetry.enabled() as rec:
        hot_path()
    assert rec.registry.counter("hits").value == 1.0


def test_records_keep_call_order_past_a_thousand_calls():
    clock = {"now": 0.0}
    rec = TelemetryRecorder(clock=lambda: clock["now"])
    expected = []  # (kind, name, t) of every trace record, in call order
    for i in range(1500):
        clock["now"] = i * 0.5
        step = i % 5
        if step == 0:
            rec.count("calls", conn=f"c{i % 3}")
        elif step == 1:
            rec.gauge("depth", float(i), conn=f"c{i % 3}")
        elif step == 2:
            rec.observe("latency", i * 0.001, buckets=(0.1, 1.0))
        elif step == 3:
            rec.event("tick", i=i)
            expected.append(("point", "tick", clock["now"]))
        else:
            rec.sample("bw", i * 0.25, float(i))
            expected.append(("sample", "bw", i * 0.25))
    assert [(e["kind"], e["name"], e["t"]) for e in rec.trace.events()] == expected
    assert [e["fields"]["i"] for e in rec.trace.events(kind="point")] == list(
        range(3, 1500, 5))

    # Gauges keep the last value set; counters and histograms count all.
    for conn in range(3):
        last = max(i for i in range(1, 1500, 5) if i % 3 == conn)
        assert rec.registry.gauge("depth", conn=f"c{conn}").value == float(last)
    assert sum(rec.registry.counter("calls", conn=f"c{conn}").value
               for conn in range(3)) == 300.0
    latency = rec.registry.histogram("latency")
    assert latency.count == 300
    assert latency.counts[0] == 20  # i * 0.001 <= 0.1 for i in 2, 7, ..., 97

    shard = [{"t": 0.0, "kind": "point", "name": "remote", "fields": {}}]
    assert rec.absorb(shard, worker=7) == 1
    assert rec.trace.events()[-1] == {**shard[0], "worker": 7}
    assert len(rec.trace) == len(expected) + 1


def test_absorbed_shards_get_fresh_span_ids():
    """Every worker numbers its spans from 1; the merge renumbers them so
    ids stay unique and parent links follow their spans."""
    def shard():
        worker = TelemetryRecorder()
        outer = worker.begin("outer")
        inner = worker.begin("inner", parent=outer)
        worker.end(inner)
        worker.end(outer)
        return worker.trace.events()

    rec = TelemetryRecorder()
    rec.end(rec.begin("local"))
    rec.absorb(shard(), worker=1)
    rec.absorb(shard(), worker=2)
    spans = [(e["kind"], e["span"], e.get("parent"))
             for e in rec.trace.events()]
    assert spans == [("begin", 1, None), ("end", 1, None),
                     ("begin", 2, None), ("begin", 3, 2),
                     ("end", 3, None), ("end", 2, None),
                     ("begin", 4, None), ("begin", 5, 4),
                     ("end", 5, None), ("end", 4, None)]
    assert rec.begin("next") == 6
