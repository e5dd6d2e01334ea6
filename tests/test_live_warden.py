"""The live warden: negotiation, adaptation, and disconnected handoff."""

import asyncio

import pytest

from repro.broker import BrokerClient
from repro.broker.server import REPORT_OP, REQUEST_OP
from repro.errors import BrokerError, RpcTimeout
from repro.live import FidelityProfile, LiveBroker, LiveWarden, Throttle
from repro.live.warden import video_profile, web_profile


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


async def start_live_broker(**kwargs):
    broker = LiveBroker(port=0, **kwargs)
    await broker.start()
    return broker


def make_warden(broker, name, **kwargs):
    host, port = broker.address
    return LiveWarden(host, port, name, **kwargs)


def windows_of(broker, name):
    """Request ids of the windows ``broker`` holds for session ``name``."""
    return [entry.request_id for entry in broker._registry
            if entry.owner.name == name]


# -- profiles and demand (no sockets; the ladder is in test_core_ladder) -----


def test_profiles_mirror_the_app_fidelity_tables():
    video = video_profile()
    assert video.levels == (0.01, 0.50, 1.00)
    assert video.name_of(0.01) == "bw"
    assert video.name_of(1.00) == "jpeg99"
    web = web_profile()
    assert web.levels == (0.05, 0.25, 0.50, 1.00)
    assert web.name_of(1.00) == "original"


def test_empty_profile_is_rejected():
    with pytest.raises(BrokerError, match="no fidelity levels"):
        FidelityProfile("hollow", {})


def test_demand_scales_with_fidelity():
    warden = LiveWarden("127.0.0.1", 0, "w", chunk_bytes=16 * 1024,
                        period=0.25)
    core = warden.core
    assert video_profile().levels == (0.01, 0.5, 1.0)
    assert core.ladder.demands == pytest.approx((655.36, 32_768, 65_536))
    assert core.min_fetch == 4096  # a window, whatever the fidelity


# -- the full loop against a live broker --------------------------------------


def test_warden_settles_on_the_rung_the_link_sustains():
    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=40_000))
        warden = make_warden(broker, "settler")
        try:
            await warden.start()
            await warden.run(2.0)
            return warden.describe(), warden.fidelity
        finally:
            await warden.stop()
            await broker.close()

    snapshot, fidelity = run(scenario())
    # 40 kB/s sustains jpeg50 (demand 32 kB/s) but not jpeg99 (64 kB/s):
    # the optimistic start violates, the upcall lands, jpeg50 holds.
    assert fidelity == 0.5
    assert snapshot["fidelity"] == "jpeg50"
    assert snapshot["upcalls_received"] >= 1
    assert snapshot["renegotiations"] >= 1
    assert snapshot["fidelity_changes"] >= 1
    assert snapshot["failures"] == 0
    assert snapshot["chunks"] >= 3


def test_primed_broker_rejects_the_optimistic_window():
    async def scenario():
        broker = await start_live_broker()
        primer = await BrokerClient(*broker.address, "primer").connect()
        for _ in range(3):
            await primer.call(REPORT_OP, {
                "kind": "throughput", "seconds": 1.0, "nbytes": 20_000,
            })
        await primer.close()
        for _ in range(100):
            if not broker.viceroy.clients:
                break
            await asyncio.sleep(0.01)
        warden = make_warden(broker, "latecomer")
        try:
            await warden.start()
            return warden.describe(), warden.fidelity
        finally:
            await warden.stop()
            await broker.close()

    snapshot, fidelity = run(scenario())
    # ~20 kB/s on the books: the top rung's window (lower ~52 kB/s) is
    # structurally rejected and the warden re-anchors without an upcall.
    assert snapshot["rejections"] >= 1
    assert fidelity < 1.0
    assert snapshot["upcalls_received"] == 0


def test_disconnected_handoff_serves_the_cache_and_reintegrates():
    async def scenario():
        broker = await start_live_broker()
        warden = make_warden(broker, "roamer", probe_interval=60.0)
        try:
            await warden.start()
            await warden._cycle()  # one online chunk seeds the cache
            online_chunks = warden.chunks
            tracker = warden.client.tracker
            for _ in range(4):
                tracker.note_failure()
            offline = tracker.offline
            await warden._cycle()
            await warden._cycle()
            cache_chunks = warden.cache_chunks
            chunks_while_offline = warden.chunks - online_chunks
            while tracker.offline:
                tracker.note_success()
            await warden._cycle()  # reintegration renegotiates here
            return (warden.describe(), offline, cache_chunks,
                    chunks_while_offline, windows_of(broker, "roamer"))
        finally:
            await warden.stop()
            await broker.close()

    snapshot, offline, cache_chunks, chunks_while_offline, windows = \
        run(scenario())
    # The session outlived the outage: its old window is cancelled, not
    # left beside the one reintegration registered.
    assert len(windows) == 1
    assert offline is True
    assert cache_chunks == 2
    assert chunks_while_offline == 0  # no network traffic while offline
    assert snapshot["reintegrations"] == 1
    assert snapshot["renegotiations"] >= 1
    assert snapshot["connectivity"] == "connected"


def test_connectivity_transitions_are_journaled():
    async def scenario():
        broker = await start_live_broker()
        warden = make_warden(broker, "journal", probe_interval=60.0)
        try:
            await warden.start()
            tracker = warden.client.tracker
            for _ in range(4):
                tracker.note_failure()
            while tracker.offline:
                tracker.note_success()
            return [(t.source.value, t.target.value)
                    for t in warden.connectivity_log]
        finally:
            await warden.stop()
            await broker.close()

    hops = run(scenario())
    assert hops == [
        ("connected", "degraded"),
        ("degraded", "disconnected"),
        ("disconnected", "reconnecting"),
        ("reconnecting", "connected"),
    ]


def test_a_lost_registration_reply_is_retried_at_the_next_boundary():
    async def scenario():
        broker = await start_live_broker()
        warden = make_warden(broker, "unlucky", probe_interval=60.0)
        try:
            await warden.start()
            # The broker drops the window and upcalls, as a violation does.
            [request_id] = windows_of(broker, "unlucky")
            broker._registry.cancel(request_id)
            warden._on_upcall({"request_id": request_id,
                               "resource": "bandwidth", "level": 0.0})
            # ... and the re-registration's reply is lost once.
            call = warden.client.call
            lost = []

            async def lossy(op, body=None, **kwargs):
                if op == REQUEST_OP and not lost:
                    lost.append(op)
                    raise RpcTimeout("reply lost")
                return await call(op, body, **kwargs)

            warden.client.call = lossy
            for _ in range(3):
                await warden._cycle()
            return warden.describe(), lost, windows_of(broker, "unlucky")
        finally:
            await warden.stop()
            await broker.close()

    snapshot, lost, windows = run(scenario())
    assert lost == [REQUEST_OP]
    assert snapshot["failures"] == 1
    assert len(windows) == 1  # adaptation resumed: the window is back
