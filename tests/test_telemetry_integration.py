"""End-to-end: instrumented experiment trials and the telemetry CLI."""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.experiments.supply import run_supply_trial
from repro.telemetry.export import events_to_series
from repro.telemetry.recorder import NULL_RECORDER


@pytest.fixture(scope="module")
def fig8_recorder():
    """One instrumented fig8 supply trial, shared across this module."""
    with telemetry.enabled() as rec:
        run_supply_trial("step-up", seed=0)
    return rec


def test_estimator_update_spans_recorded(fig8_recorder):
    trace = fig8_recorder.trace
    begins = trace.events(name="estimator.update", kind="begin")
    ends = trace.events(name="estimator.update", kind="end")
    assert begins and len(begins) == len(ends)
    # Only RPC operations in flight when the run was cut off may stay open.
    by_span = {e["span"]: e["name"] for e in trace.events(kind="begin")}
    assert all(by_span[s].startswith("rpc.") for s in trace.open_spans)


def test_upcall_events_recorded(fig8_recorder):
    trace = fig8_recorder.trace
    sent = trace.events(name="upcall.sent")
    delivered = trace.events(name="upcall.delivered")
    assert sent and delivered
    assert all(e["fields"]["latency"] >= 0.0 for e in delivered)


def test_live_events_have_monotonic_sim_timestamps(fig8_recorder):
    # Samples carry historical, caller-supplied timestamps; every *live*
    # event (point/begin/end) must appear in sim-time order.
    times = [e["t"] for e in fig8_recorder.trace.events()
             if e["kind"] != "sample"]
    assert times == sorted(times)


def test_estimate_series_bridged_into_trace(fig8_recorder):
    series = fig8_recorder.trace.series("fig8.estimate")
    assert len(series) > 10
    times = [t for t, _ in series]
    assert times == sorted(times)


def test_metrics_cover_rpc_upcalls_and_estimation(fig8_recorder):
    snap = fig8_recorder.registry.snapshot()
    counters = {c["name"] for c in snap["counters"]}
    histograms = {h["name"] for h in snap["histograms"]}
    assert {"rpc.calls", "upcalls.sent", "viceroy.upcalls",
            "estimation.rtt_updates"} <= counters
    assert {"rpc.round_trip_seconds", "upcalls.delivery_seconds"} <= histograms


def test_cli_telemetry_command(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    status = main(["telemetry", "--scenario", "fig8-supply",
                   "--waveform", "step-up", "--events-out", str(events_path)])
    assert status == 0
    assert telemetry.RECORDER is NULL_RECORDER  # no leak past the command
    captured = capsys.readouterr()
    assert "counters" in captured.out
    assert "upcalls.sent" in captured.out
    assert "# wrote" in captured.err
    events = [json.loads(line)
              for line in events_path.read_text().strip().split("\n")]
    assert any(e["kind"] == "begin" and e["name"] == "estimator.update"
               for e in events)
    assert events_to_series(events, "fig8.estimate")


def test_cli_events_out_wraps_experiment_commands(tmp_path, capsys):
    events_path = tmp_path / "fig8-events.jsonl"
    status = main(["fig8", "--waveform", "step-up", "--trials", "1",
                   "--events-out", str(events_path)])
    assert status == 0
    assert telemetry.RECORDER is NULL_RECORDER
    assert "# wrote" in capsys.readouterr().err
    events = [json.loads(line)
              for line in events_path.read_text().strip().split("\n")]
    assert any(e["name"] == "upcall.delivered" for e in events)


def rpc_series(recorder):
    """The ``rpc.*`` counter names and label keys a recorder holds."""
    return {(c["name"], tuple(c["labels"]))
            for c in recorder.registry.snapshot()["counters"]
            if c["name"].startswith("rpc.")}


def test_both_clocks_count_calls_under_one_family():
    """A retried call whose replies all come late counts as ``rpc.calls``,
    ``rpc.timeouts``, ``rpc.retries`` and ``rpc.late_replies`` per
    ``connection``, in the simulator and on a real socket alike."""
    import asyncio

    from repro.broker import BrokerClient
    from repro.errors import RpcTimeout
    from repro.net.network import Network
    from repro.rpc.connection import RetryPolicy, RpcConnection, RpcService
    from repro.rpc.messages import CallResponse, ServerReply
    from repro.sim.kernel import Simulator
    from repro.trace.waveforms import HIGH_BANDWIDTH, constant
    from tests.test_rpc_exchange import start_server

    with telemetry.enabled() as sim_recorder:
        sim = Simulator()
        network = Network(sim, constant(HIGH_BANDWIDTH, duration=3600))
        service = RpcService(sim, network.add_host("server"), "svc")
        service.register("slow", lambda body: ServerReply(compute_seconds=1.0))
        connection = RpcConnection(sim, network, "server", "svc", "c")

        def caller():
            with pytest.raises(RpcTimeout):
                yield from connection.call_with_retry(
                    "slow", retry=RetryPolicy(timeout=0.5, retries=1))

        sim.process(caller())
        sim.run(until=10.0)
    assert connection.late_replies == 2

    def answer(channel, request):
        asyncio.get_running_loop().call_later(
            0.15, channel.send,
            CallResponse(request.connection_id, request.seq, None, 64, 0.0))

    async def scenario():
        server = await start_server(answer)
        client = await BrokerClient("127.0.0.1", server.port, "x").connect()
        try:
            with pytest.raises(RpcTimeout):
                await client.call_with_retry("slow", retry=RetryPolicy(
                    timeout=0.05, retries=1, backoff=0.01))
            for _ in range(500):
                if client.late_replies == 2:
                    break
                await asyncio.sleep(0.01)
        finally:
            await client.close(polite=False)
            await server.close()

    with telemetry.enabled() as live_recorder:
        asyncio.run(asyncio.wait_for(scenario(), 30.0))
    family = {(name, ("connection",)) for name in (
        "rpc.calls", "rpc.timeouts", "rpc.retries", "rpc.late_replies")}
    assert rpc_series(sim_recorder) == rpc_series(live_recorder) == family
    for recorder in (sim_recorder, live_recorder):
        assert {e["name"] for e in recorder.trace.events(kind="begin")} \
            == {"rpc.call"}
