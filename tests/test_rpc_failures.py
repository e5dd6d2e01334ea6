"""Failure injection: server outages and client timeouts."""

import pytest

from repro.errors import RpcTimeout, RpcError
from repro.rpc.connection import RpcConnection, RpcService
from repro.rpc.messages import ServerReply
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import HIGH_BANDWIDTH, constant


@pytest.fixture
def world():
    sim = Simulator()
    network = Network(sim, constant(HIGH_BANDWIDTH, duration=3600))
    server = network.add_host("server")
    service = RpcService(sim, server, "svc")
    service.register("ping", lambda body: ServerReply(body="pong"))
    service.register(
        "get", lambda body: ServerReply(bulk=service.make_bulk(64 * 1024))
    )
    connection = RpcConnection(sim, network, "server", "svc", "c")
    return sim, service, connection


def test_outage_validation(world):
    _, service, _ = world
    with pytest.raises(RpcError):
        service.set_outage(0)


def test_call_times_out_during_outage(world):
    sim, service, connection = world
    service.set_outage(10.0)

    def client():
        try:
            yield from connection.call("ping", timeout=1.0)
        except RpcTimeout:
            return ("timed out", sim.now)

    process = sim.process(client())
    sim.run(until=20.0)
    outcome, when = process.value
    assert outcome == "timed out"
    assert when == pytest.approx(1.0, abs=0.1)
    assert service.dropped_during_outage >= 1


def test_call_without_timeout_hangs_through_outage(world):
    sim, service, connection = world
    service.set_outage(5.0)
    state = {}

    def client():
        yield from connection.call("ping")
        state["done"] = sim.now

    sim.process(client())
    sim.run(until=20.0)
    # The request was dropped and never retried: the call never completes.
    assert "done" not in state


def test_service_recovers_after_outage(world):
    sim, service, connection = world
    service.set_outage(2.0)
    results = []

    def client():
        for _ in range(5):
            try:
                reply, _ = yield from connection.call("ping", timeout=1.0)
                results.append((sim.now, reply))
            except RpcTimeout:
                results.append((sim.now, "timeout"))
    process = sim.process(client())
    sim.run(until=20.0)
    outcomes = [r for _, r in results]
    assert outcomes[0] == "timeout"
    assert outcomes[-1] == "pong"  # recovered
    assert "pong" in outcomes[2:]


def test_fetch_window_times_out(world):
    sim, service, connection = world

    def client():
        # Outage begins mid-transfer: the first window may land, later ones
        # time out.
        try:
            yield from connection.fetch("get", timeout=0.5)
        except RpcTimeout as exc:
            return str(exc)

    def saboteur():
        yield sim.timeout(0.05)
        service.set_outage(30.0)

    process = sim.process(client())
    sim.process(saboteur())
    sim.run(until=40.0)
    assert "timed out" in process.value


def test_late_reply_after_timeout_is_dropped_not_fatal(world):
    """A reply that arrives after its timeout must not crash dispatch."""
    sim, service, connection = world
    service.register("slow", lambda body: ServerReply(body="late",
                                                      compute_seconds=2.0))
    outcomes = []

    def client():
        try:
            yield from connection.call("slow", timeout=0.5)
        except RpcTimeout:
            outcomes.append("timeout")
        # Keep the connection busy afterward; the late reply arrives now.
        reply, _ = yield from connection.call("ping")
        outcomes.append(reply)

    sim.process(client())
    sim.run(until=10.0)
    assert outcomes == ["timeout", "pong"]
    assert connection.late_replies == 1


@pytest.mark.parametrize("exchange", ["call", "window"])
def test_failure_in_the_deadline_instant_raises_it(world, exchange):
    """An exchange failed in the very instant its deadline fires raises
    the failure; it is never handed back as the reply."""
    sim, service, connection = world
    service.set_outage(10.0)  # nothing answers: only the deadline or a crash

    def client():
        try:
            if exchange == "call":
                yield from connection.call("ping", timeout=1.0)
            else:
                yield from connection.fetch_ticket(1, 1024, timeout=1.0)
        except RpcTimeout:
            return "timeout"
        except RpcError as exc:
            return str(exc)
        return "reply"

    def crash():
        exchanges = connection.exchanges
        waiter = exchanges.get(exchanges.issued)  # the one in flight
        getattr(waiter, "event", waiter).fail(RpcError("crashed"))

    def saboteur():
        # Armed after the client's deadline, so at t=1.0 the deadline is
        # processed first and the failure second (the crash drill's race).
        yield sim.timeout(0.5)
        sim.call_at(1.0, crash)

    process = sim.process(client())
    sim.process(saboteur())
    sim.run(until=20.0)
    assert process.value == "crashed"


def test_retry_deadline_validated():
    from repro.rpc.connection import RetryPolicy

    with pytest.raises(RpcError):
        RetryPolicy(deadline=0)
    with pytest.raises(RpcError):
        RetryPolicy(deadline=-1.0)
    assert RetryPolicy(deadline=None).deadline is None


def test_retry_deadline_caps_total_time(world):
    """A generous retry budget still gives up at the wall-clock deadline."""
    from repro.rpc.connection import RetryPolicy

    sim, service, connection = world
    service.set_outage(60.0)
    # Without the deadline this schedule would run ~20 s (5 x 2 s timeouts
    # plus backoff); the deadline must cut it at ~3 s.
    policy = RetryPolicy(timeout=2.0, retries=4, backoff=0.5,
                         multiplier=2.0, cap=4.0, deadline=3.0)

    def client():
        try:
            yield from connection.call_with_retry("ping", retry=policy)
        except RpcTimeout:
            return sim.now

    process = sim.process(client())
    sim.run(until=30.0)
    assert process.value == pytest.approx(3.0, abs=0.3)


def test_retry_deadline_clips_the_last_attempt(world):
    """A deadline shorter than one attempt bounds that attempt's timeout."""
    from repro.rpc.connection import RetryPolicy

    sim, service, connection = world
    service.set_outage(60.0)
    policy = RetryPolicy(timeout=10.0, retries=3, deadline=1.5)

    def client():
        try:
            yield from connection.call_with_retry("ping", retry=policy)
        except RpcTimeout:
            return sim.now

    process = sim.process(client())
    sim.run(until=30.0)
    assert process.value == pytest.approx(1.5, abs=0.1)


def test_retry_deadline_irrelevant_on_success(world):
    from repro.rpc.connection import RetryPolicy

    sim, service, connection = world
    policy = RetryPolicy(timeout=2.0, retries=2, deadline=30.0)

    def client():
        reply, _ = yield from connection.call_with_retry("ping", retry=policy)
        return reply

    process = sim.process(client())
    sim.run(until=10.0)
    assert process.value == "pong"
    assert connection.retries == 0


def test_builtin_ping_op(world):
    """Every service answers the heartbeat op without registration."""
    sim, service, connection = world

    def client():
        reply, _ = yield from connection.call("__ping__", timeout=2.0)
        return reply

    process = sim.process(client())
    sim.run(until=10.0)
    assert process.value == {"pong": True}


def test_timeout_does_not_fire_on_fast_replies(world):
    sim, service, connection = world

    def client():
        for _ in range(10):
            reply, _ = yield from connection.call("ping", timeout=5.0)
            assert reply == "pong"
        return "all good"

    process = sim.process(client())
    sim.run(until=20.0)
    assert process.value == "all good"
    assert connection.late_replies == 0


# -- a window abandoned while its fragments are still arriving ----------------

#: When the 1 s deadline of the first window fires, 9 of its 16 fragments
#: have arrived on a 20 000 B/s link: 9 x 2 048 B plus the 64 B reply.
DELIVERED_BY_THE_DEADLINE = 9 * 2048 + 64
DEADLINE = 1.0434


@pytest.fixture
def slow_world():
    sim = Simulator()
    network = Network(sim, constant(20_000, duration=3600))
    service = RpcService(sim, network.add_host("server"), "svc")
    service.register(
        "get", lambda body: ServerReply(bulk=service.make_bulk(64 * 1024)))
    return sim, RpcConnection(sim, network, "server", "svc", "c")


@pytest.mark.parametrize("abandon", ["timeout", "close", "reset_in_flight"])
def test_a_window_abandoned_mid_train_logs_only_what_arrived(slow_world,
                                                              abandon):
    """The deadline, ``close()`` and the crash drill's reset all abandon
    the window with 7 fragments still on the way: the log keeps the 9
    that arrived, at any later instant, and the 7 count as late."""
    from repro.chaos.drill import reset_in_flight

    sim, connection = slow_world
    outcome = {}

    def client():
        try:
            yield from connection.fetch(
                "get", timeout=1.0 if abandon == "timeout" else None)
        except (RpcTimeout, RpcError) as exc:
            outcome["failed"] = (type(exc), sim.now)

    sim.process(client())
    if abandon == "close":
        sim.call_at(DEADLINE, connection.close)
    elif abandon == "reset_in_flight":
        sim.call_at(DEADLINE, reset_in_flight, connection)
    log = connection.log
    reads = []

    def read():
        reads.append((sim.now, log.bytes_delivered_between(0, sim.now),
                      log.delivered_total))

    for when in (0.5, 1.2, 1.6, 2.0, 3.0):
        sim.call_at(when, read)
    sim.run(until=10.0)
    assert reads[0][1] == reads[0][2] < DELIVERED_BY_THE_DEADLINE
    assert reads[1:] == [(when, DELIVERED_BY_THE_DEADLINE,
                          DELIVERED_BY_THE_DEADLINE)
                         for when in (1.2, 1.6, 2.0, 3.0)]
    assert connection.late_replies == 7
    assert log.last_activity() < DEADLINE
    expected = {"timeout": (RpcTimeout, DEADLINE), "close": None,
                "reset_in_flight": (RpcError, DEADLINE)}[abandon]
    assert outcome.get("failed") == expected
