"""The live viceroy: wall-clock estimation behind the broker's RPC surface."""

import asyncio
import gc
import tracemalloc

import pytest

from repro.broker import BrokerClient
from repro.broker.server import REPORT_OP, REQUEST_OP
from repro.errors import BrokerError, RemoteCallError
from repro.live import LiveBroker, LiveViceroy, WallSim
from repro.rpc.clock import MonotonicClock
from repro.rpc.logs import RpcLog


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


async def start_live_broker(**kwargs):
    broker = LiveBroker(port=0, **kwargs)
    await broker.start()
    return broker


async def connect(broker, name):
    host, port = broker.address
    return await BrokerClient(host, port, name).connect()


# -- WallSim: the entire sim-vs-live estimation seam -------------------------


def test_wall_sim_now_tracks_the_monotonic_clock():
    clock = MonotonicClock()
    sim = WallSim(clock)
    first = sim.now
    second = sim.now
    assert first <= second
    assert abs(first - clock.now()) < 1.0


# -- LiveViceroy: estimation without any sockets ------------------------------


def test_adopt_and_abandon_lifecycle():
    viceroy = LiveViceroy()
    viceroy.adopt("a")
    assert viceroy.clients == ["a"]
    with pytest.raises(BrokerError, match="already adopted"):
        viceroy.adopt("a")
    viceroy.abandon("a")
    assert viceroy.clients == []
    viceroy.abandon("a")  # idempotent
    assert viceroy.availability("a") is None


def test_absorb_requires_an_adopted_client():
    viceroy = LiveViceroy()
    with pytest.raises(BrokerError, match="no adopted client"):
        viceroy.absorb("ghost", {"kind": "delivery", "nbytes": 100})


def test_absorb_rejects_unknown_and_malformed_kinds():
    viceroy = LiveViceroy()
    viceroy.adopt("a")
    with pytest.raises(BrokerError, match="unknown report kind"):
        viceroy.absorb("a", {"kind": "telepathy"})
    with pytest.raises(BrokerError, match="malformed"):
        viceroy.absorb("a", {"kind": "round_trip"})  # missing seconds
    with pytest.raises(BrokerError, match="positive seconds"):
        viceroy.absorb("a", {"kind": "throughput",
                             "seconds": 0.0, "nbytes": 100})


def test_throughput_sample_primes_availability():
    viceroy = LiveViceroy()
    viceroy.adopt("a")
    assert viceroy.availability("a") is None
    level = viceroy.absorb("a", {"kind": "throughput",
                                 "seconds": 1.0, "nbytes": 50_000})
    # One connection: the split degenerates to the total estimate.
    assert level == pytest.approx(viceroy.total())
    assert level == pytest.approx(50_000, rel=0.25)


def test_round_trip_and_delivery_samples_feed_the_shared_logs():
    viceroy = LiveViceroy()
    viceroy.adopt("a")
    viceroy.absorb("a", {"kind": "round_trip", "seconds": 0.01})
    viceroy.absorb("a", {"kind": "delivery", "nbytes": 4096})
    assert viceroy.shares.estimator("a").round_trip == pytest.approx(0.01)
    assert viceroy._logs["a"].delivered_total == 4096
    assert viceroy.reports_absorbed == 2


def test_two_clients_split_the_total():
    viceroy = LiveViceroy()
    viceroy.adopt("a")
    viceroy.adopt("b")
    viceroy.absorb("a", {"kind": "throughput",
                         "seconds": 1.0, "nbytes": 80_000})
    a = viceroy.availability("a")
    b = viceroy.availability("b")
    total = viceroy.total()
    assert a is not None and b is not None
    # Everyone gets at least the fair share; shares sum to the total.
    fair = viceroy.shares.fair_fraction * total / 2
    assert a >= fair and b >= fair
    assert a + b == pytest.approx(total)
    snapshot = viceroy.describe()
    assert set(snapshot["clients"]) == {"a", "b"}
    assert snapshot["total"] == pytest.approx(total)


class SteppingClock:
    """A wall clock that moves on only when told to."""

    def __init__(self):
        self.time = 100.0

    def now(self):
        return self.time


def test_estimator_memory_is_bounded_per_client(monkeypatch):
    """A broker serves clients indefinitely, so the memory it holds for
    one must not grow with the samples that client has sent.  Doubling
    the throughput samples from N to 2N may grow what the viceroy
    retains by at most 16 KiB; a (time, estimate) diary kept per sample
    would grow it by roughly 200 B x N, over 400 KiB."""
    samples = 2_000
    bound = 16 * 1024
    # The log keeps its newest entries only (``history_limit`` of them,
    # up to twice that between compactions); keep that window small so
    # the measurement sees the estimator, not where compaction stands.
    monkeypatch.setattr(RpcLog, "history_limit", 8)
    clock = SteppingClock()
    viceroy = LiveViceroy(clock=clock)
    viceroy.adopt("a")
    body = {"kind": "throughput", "seconds": 0.05, "nbytes": 65_536}

    def absorb(count):
        for _ in range(count):
            clock.time += 0.1
            viceroy.absorb("a", body)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        at_n = absorb(samples)
        at_2n = absorb(samples)
    finally:
        tracemalloc.stop()
    assert viceroy.reports_absorbed == 2 * samples
    assert at_2n - at_n <= bound


# -- LiveBroker: the viceroy surface over real TCP ----------------------------


def test_hello_adopts_and_disconnect_abandons():
    async def scenario():
        broker = await start_live_broker()
        client = await connect(broker, "alpha")
        adopted = list(broker.viceroy.clients)
        await client.close()
        for _ in range(100):
            if not broker.viceroy.clients:
                break
            await asyncio.sleep(0.01)
        remaining = list(broker.viceroy.clients)
        await broker.close()
        return adopted, remaining

    adopted, remaining = run(scenario())
    assert adopted == ["alpha"]
    assert remaining == []


def test_estimation_report_returns_the_availability():
    async def scenario():
        broker = await start_live_broker()
        client = await connect(broker, "alpha")
        try:
            reply = await client.call(REPORT_OP, {
                "kind": "throughput", "seconds": 1.0, "nbytes": 40_000,
            })
            return reply
        finally:
            await client.close()
            await broker.close()

    reply = run(scenario())
    assert reply["resource"] == "bandwidth"
    assert reply["level"] == pytest.approx(40_000, rel=0.25)
    assert reply["upcalls"] == 0


HOSTILE_SAMPLES = {
    "rtt-negative": {"kind": "round_trip", "seconds": -1},
    "rtt-nan": {"kind": "round_trip", "seconds": "nan"},
    "rtt-bool": {"kind": "round_trip", "seconds": True},
    "delivery-negative": {"kind": "delivery", "nbytes": -5},
    "delivery-bool": {"kind": "delivery", "nbytes": True},
    "delivery-overflow": {"kind": "delivery", "nbytes": 10**400},
    "throughput-nan": {"kind": "throughput", "seconds": "nan",
                       "nbytes": 1_000},
    "throughput-inf": {"kind": "throughput", "seconds": "inf",
                       "nbytes": 1_000},
    "throughput-negative": {"kind": "throughput", "seconds": 1.0,
                            "nbytes": -5},
    "throughput-string": {"kind": "throughput", "seconds": 1.0,
                          "nbytes": "1e9"},
}


@pytest.mark.parametrize("body", HOSTILE_SAMPLES.values(),
                         ids=HOSTILE_SAMPLES.keys())
def test_hostile_estimation_sample_is_refused_and_the_total_holds(body):
    """A sample no Eq. 1 filter can absorb gets a BrokerError reply; the
    session lives on and every client's estimate is untouched."""

    async def scenario():
        broker = await start_live_broker()
        alpha = await connect(broker, "alpha")
        beta = await connect(broker, "beta")
        try:
            for client in (alpha, beta):
                await client.call(REPORT_OP, {
                    "kind": "throughput", "seconds": 1.0, "nbytes": 50_000,
                })
            before = broker.describe()["estimation"]["total"]
            with pytest.raises(RemoteCallError, match="BrokerError"):
                await asyncio.wait_for(alpha.call(REPORT_OP, body), 5.0)
            after = broker.describe()["estimation"]["total"]
            # The session survived: its next honest sample still lands.
            reply = await asyncio.wait_for(alpha.call(REPORT_OP, {
                "kind": "throughput", "seconds": 1.0, "nbytes": 50_000,
            }), 5.0)
            return before, after, reply["level"]
        finally:
            await alpha.close()
            await beta.close()
            await broker.close()

    before, after, level = run(scenario())
    assert after == before
    assert 0 < level < float("inf")


def test_window_violation_pushes_an_upcall_to_the_owner():
    async def scenario():
        broker = await start_live_broker()
        client = await connect(broker, "alpha")
        try:
            reply = await client.call(REQUEST_OP, {
                "resource": "bandwidth", "lower": 30_000, "upper": 1e12,
            })
            request_id = reply["request_id"]
            # Drive the estimate well below the window's lower bound.
            for _ in range(6):
                await client.call(REPORT_OP, {
                    "kind": "throughput", "seconds": 1.0, "nbytes": 1_000,
                })
            for _ in range(100):
                if client.upcalls_received:
                    break
                await asyncio.sleep(0.01)
            return (request_id, list(client.upcalls_received),
                    broker.upcalls_sent, broker.describe()["registrations"])
        finally:
            await client.close()
            await broker.close()

    request_id, upcalls, sent, registrations = run(scenario())
    assert sent == 1
    assert len(upcalls) == 1
    assert upcalls[0]["request_id"] == request_id
    assert upcalls[0]["resource"] == "bandwidth"
    assert upcalls[0]["level"] < 30_000
    assert registrations == 0  # one-shot: dropped on violation


def test_one_client_report_can_violate_anothers_window():
    """The shared total moves every client's split — the reason the
    recheck scans all bandwidth registrations, not just the reporter's."""

    async def scenario():
        broker = await start_live_broker()
        alpha = await connect(broker, "alpha")
        beta = await connect(broker, "beta")
        try:
            # Both primed high; beta holds a window needing >= 20 kB/s.
            for client in (alpha, beta):
                await client.call(REPORT_OP, {
                    "kind": "throughput", "seconds": 1.0, "nbytes": 100_000,
                })
            await beta.call(REQUEST_OP, {
                "resource": "bandwidth", "lower": 20_000, "upper": 1e12,
            })
            # Alpha alone reports collapse; beta must hear about it.
            for _ in range(8):
                await alpha.call(REPORT_OP, {
                    "kind": "throughput", "seconds": 1.0, "nbytes": 500,
                })
            for _ in range(100):
                if beta.upcalls_received:
                    break
                await asyncio.sleep(0.01)
            return list(beta.upcalls_received), list(alpha.upcalls_received)
        finally:
            await alpha.close()
            await beta.close()
            await broker.close()

    beta_upcalls, alpha_upcalls = run(scenario())
    assert len(beta_upcalls) == 1
    assert alpha_upcalls == []


def test_out_of_window_registration_is_rejected_with_the_level():
    async def scenario():
        broker = await start_live_broker()
        client = await connect(broker, "alpha")
        try:
            await client.call(REPORT_OP, {
                "kind": "throughput", "seconds": 1.0, "nbytes": 5_000,
            })
            return await client.call(REQUEST_OP, {
                "resource": "bandwidth", "lower": 50_000, "upper": 1e12,
            })
        finally:
            await client.close()
            await broker.close()

    reply = run(scenario())
    assert reply["rejected"] is True
    assert reply["request_id"] is None
    assert 0 < reply["available"] < 50_000


def test_malformed_window_and_plain_level_reports_keep_base_semantics():
    async def scenario():
        broker = await start_live_broker()
        client = await connect(broker, "alpha")
        try:
            with pytest.raises(RemoteCallError, match="lower/upper"):
                await client.call(REQUEST_OP, {"resource": "bandwidth"})
            with pytest.raises(RemoteCallError, match="lower/upper"):
                await client.call(REQUEST_OP, [0.0, 1.0])  # not a dict
            with pytest.raises(RemoteCallError, match="inverted"):
                await client.call(REQUEST_OP, {
                    "resource": "bandwidth", "lower": 10.0, "upper": 1.0,
                })
            # A plain level report (no "kind") uses the base broker's
            # reported-level semantics: existing clients run unchanged.
            request_id = await client.request(0.0, 50.0, resource="battery")
            upcalls = await client.report(90.0, resource="battery")
            for _ in range(100):
                if client.upcalls_received:
                    break
                await asyncio.sleep(0.01)
            return request_id, upcalls, list(client.upcalls_received)
        finally:
            await client.close()
            await broker.close()

    request_id, upcalls, received = run(scenario())
    assert upcalls == 1
    assert received[0]["request_id"] == request_id
    assert received[0]["resource"] == "battery"


def test_describe_includes_estimation_and_bulk_planes():
    async def scenario():
        broker = await start_live_broker()
        client = await connect(broker, "alpha")
        try:
            await client.call(REPORT_OP, {
                "kind": "throughput", "seconds": 1.0, "nbytes": 10_000,
            })
            return broker.describe()
        finally:
            await client.close()
            await broker.close()

    snapshot = run(scenario())
    assert snapshot["estimation"]["reports_absorbed"] == 1
    assert "alpha" in snapshot["estimation"]["clients"]
    assert snapshot["bulk"]["transfers_opened"] == 0
