"""Broker behavior: handshake, namespaces, relays, upcalls, liveness."""

import asyncio
import selectors

import pytest

from repro import telemetry
from repro.broker import HELLO_OP, Broker, BrokerClient
from repro.broker.server import CANCEL_OP, REPORT_OP, REQUEST_OP
from repro.connectivity import AsyncHeartbeatProber
from repro.errors import RemoteCallError, RpcTimeout, TransportError
from repro.live import LiveBroker
from repro.rpc.messages import CallRequest, CallResponse
from repro.transport import FrameDecoder, encode_frame, serve_tcp
from tests.test_transport_wire import MALFORMED_TAG_BODIES, hostile_request


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


async def start_broker(**kwargs):
    broker = Broker(port=0, **kwargs)
    await broker.start()
    return broker


async def connect(broker, name):
    host, port = broker.address
    return await BrokerClient(host, port, name).connect()


def test_hello_assigns_a_namespace():
    async def scenario():
        broker = await start_broker()
        client = await connect(broker, "alpha")
        try:
            return (client.namespace, client.heartbeat_seconds,
                    broker.describe()["clients"])
        finally:
            await client.close()
            await broker.close()

    namespace, heartbeat, clients = run(scenario())
    assert namespace == "clients/alpha"
    assert heartbeat == broker_default_heartbeat()
    assert clients == 1


def broker_default_heartbeat():
    from repro.broker import DEFAULT_HEARTBEAT_TIMEOUT

    return DEFAULT_HEARTBEAT_TIMEOUT


def test_duplicate_names_are_rejected():
    async def scenario():
        broker = await start_broker()
        first = await connect(broker, "alpha")
        try:
            with pytest.raises(RemoteCallError, match="already connected"):
                await connect(broker, "alpha")
        finally:
            await first.close()
            await broker.close()

    run(scenario())


def test_calls_before_hello_are_rejected():
    async def scenario():
        broker = await start_broker()
        host, port = broker.address
        client = BrokerClient(host, port, "rude")
        from repro.transport import connect_tcp

        client.channel = await connect_tcp(host, port, client._on_message,
                                           on_close=client._on_close)
        try:
            with pytest.raises(RemoteCallError, match="__hello__"):
                await client.call("echo", {"x": 1})
            await client.ping()  # the ping probe alone works pre-hello
        finally:
            await client.close(polite=False)
            await broker.close()

    run(scenario())


def test_namespace_enforcement():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        try:
            with pytest.raises(RemoteCallError, match="outside your "
                                                      "namespace"):
                await alpha.call("__register__",
                                 {"op": "clients/beta/steal"})
            return broker.namespace_rejections
        finally:
            await alpha.close()
            await broker.close()

    assert run(scenario()) == 1


def test_relayed_calls_route_to_the_registered_owner():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        beta = await connect(broker, "beta")
        try:
            op = await beta.register_op("double",
                                        lambda body: {"v": body["v"] * 2})
            reply = await alpha.call(op, {"v": 21})
            fault_op = await beta.register_op(
                "boom", lambda body: (_ for _ in ()).throw(
                    ValueError("broken handler")))
            with pytest.raises(RemoteCallError,
                               match="broken handler") as caught:
                await alpha.call(fault_op, {})
            return reply, caught.value.kind, broker.calls_relayed
        finally:
            await alpha.close()
            await beta.close()
            await broker.close()

    reply, kind, relayed = run(scenario())
    assert reply == {"v": 42}
    assert kind == "ValueError"
    assert relayed == 2


def test_upcall_reaches_only_the_owning_connection():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        beta = await connect(broker, "beta")
        try:
            await alpha.request(0.0, 100.0)
            got = asyncio.Event()
            alpha.on_upcall(lambda body: got.set())
            pushed = await beta.report(500.0)
            await asyncio.wait_for(got.wait(), 5.0)
            # The ack must land before the broker counts it; poll briefly.
            for _ in range(100):
                if broker.upcalls_acked == 1:
                    break
                await asyncio.sleep(0.01)
            return (pushed, list(alpha.upcalls_received),
                    list(beta.upcalls_received), broker.upcalls_sent,
                    broker.upcalls_acked)
        finally:
            await alpha.close()
            await beta.close()
            await broker.close()

    pushed, alpha_upcalls, beta_upcalls, sent, acked = run(scenario())
    assert pushed == 1
    assert [u["level"] for u in alpha_upcalls] == [500.0]
    assert beta_upcalls == []
    assert (sent, acked) == (1, 1)


def test_windows_are_one_shot_and_cancellable():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        try:
            await alpha.request(0.0, 100.0)
            first = await alpha.report(500.0)
            second = await alpha.report(600.0)  # window already dropped
            rid = await alpha.request(0.0, 1000.0)
            await alpha.cancel(rid)
            third = await alpha.report(5000.0)  # cancelled: no upcall
            return first, second, third
        finally:
            await alpha.close()
            await broker.close()

    assert run(scenario()) == (1, 0, 0)


def test_request_outside_current_level_fails_like_the_viceroy():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        try:
            await alpha.report(50.0)
            with pytest.raises(RemoteCallError, match="available=50"):
                await alpha.request(100.0, 200.0)
        finally:
            await alpha.close()
            await broker.close()

    run(scenario())


def test_socket_death_tears_down_the_session():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        beta = await connect(broker, "beta")
        op = await beta.register_op("slow", lambda body: body)
        await beta.request(0.0, 100.0)
        # Kill beta's socket without a goodbye: the broker must clean up
        # its name, its op, and its registration.
        beta.channel.close()
        await beta.channel.wait_closed()
        for _ in range(200):
            if broker.describe()["clients"] == 1:
                break
            await asyncio.sleep(0.01)
        state = broker.describe()
        with pytest.raises(RemoteCallError, match="no handler"):
            await alpha.call(op, {})  # op unregistered with its owner
        replacement = await connect(broker, "beta")  # name is free again
        pushed = await alpha.report(500.0)  # dead registration is gone
        await replacement.close()
        await alpha.close()
        await broker.close()
        return state, pushed

    state, pushed = run(scenario())
    assert state["clients"] == 1
    assert state["client_ops"] == 0
    assert state["registrations"] == 0
    assert pushed == 0


def test_owner_death_fails_inflight_relayed_calls():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        beta = await connect(broker, "beta")
        blocked = asyncio.Event()

        def stall(body):
            blocked.set()
            raise RuntimeError("handler never really ran")

        # A handler that never answers: register the op, then kill the
        # owner while alpha's call is in flight.
        op = await beta.register_op("stall", stall)
        del beta._local_ops[op]  # swallow the relayed request silently
        call = asyncio.ensure_future(alpha.call(op, {}, timeout=10.0))
        for _ in range(200):
            if beta.channel.frames_received >= 1 and not call.done():
                break
            await asyncio.sleep(0.01)
        beta.channel.close()
        with pytest.raises(RemoteCallError, match="owner disconnected"):
            await call
        await alpha.close()
        await broker.close()

    run(scenario())


def test_heartbeat_reaper_expires_silent_sessions():
    async def scenario():
        broker = await start_broker(heartbeat_timeout=0.3)
        alpha = await connect(broker, "alpha")
        chatty = await connect(broker, "chatty")
        prober = AsyncHeartbeatProber(chatty, interval=0.05,
                                      timeout=1.0).start()
        # alpha goes silent; chatty keeps pinging.  After a few budgets
        # alpha is reaped and chatty survives.
        await asyncio.sleep(1.0)
        state = broker.describe()
        alive = not chatty.closed and chatty.tracker.state.name == "CONNECTED"
        await prober.stop()
        with pytest.raises((RemoteCallError, RpcTimeout, TransportError)):
            await alpha.call("echo", {})  # session gone; socket closed
        await chatty.close()
        await alpha.close(polite=False)
        await broker.close()
        return state, alive, prober.probes_sent

    state, alive, probes = run(scenario())
    assert state["sessions_expired"] == 1
    assert state["clients"] == 1
    assert alive
    assert probes > 5


def test_probe_failures_feed_the_tracker():
    async def scenario():
        broker = await start_broker()
        alpha = await connect(broker, "alpha")
        successes_before = alpha.tracker.probe_successes
        prober = AsyncHeartbeatProber(alpha, interval=0.02,
                                      timeout=5.0).start()
        await asyncio.sleep(0.2)
        await prober.stop()
        grew = alpha.tracker.probe_successes > successes_before
        await alpha.close()
        await broker.close()
        return grew

    assert run(scenario())


# -- the call path: deadlines and per-call work ------------------------------------

class CountingSelector(selectors.DefaultSelector):
    """Counts loop turns: the event loop polls exactly once per turn."""

    turns = 0

    def select(self, timeout=None):
        self.turns += 1
        return super().select(timeout)


class CountingLoop(asyncio.SelectorEventLoop):
    """Counts the public scheduling calls and keeps the timers made."""

    def __init__(self):
        self.selector = CountingSelector()
        super().__init__(self.selector)
        self.soon = 0
        self.timers = []

    def call_soon(self, callback, *args, **kwargs):
        self.soon += 1
        return super().call_soon(callback, *args, **kwargs)

    def call_later(self, delay, callback, *args, **kwargs):
        handle = super().call_later(delay, callback, *args, **kwargs)
        self.timers.append(handle)
        return handle

    def work(self):
        return self.selector.turns, self.soon, len(self.timers)


def run_counted(scenario):
    loop = CountingLoop()
    try:
        return loop.run_until_complete(
            asyncio.wait_for(scenario(loop), 30.0))
    finally:
        loop.close()


def test_an_echo_round_trip_costs_three_turns_one_wakeup_one_timer():
    """The work gate.  Request out, broker's read handles it and replies,
    client's read resolves the call, the caller wakes: three loop turns,
    the one ``call_soon`` that wakes the caller, the one deadline timer.
    Exact, so it holds at zero tolerance where calls per second cannot
    (stream reader + reader task + ``wait_for``: 6 turns, 4, 1)."""

    async def scenario(loop):
        # A reaper that never fires inside the test: no stray timers.
        broker = await start_broker(heartbeat_timeout=3600.0)
        client = await connect(broker, "alpha")
        try:
            for n in range(3):  # warmed up: lazy imports, first reads
                await client.call("echo", {"n": n})
            costs = []
            for n in range(5):
                before = loop.work()
                await client.call("echo", {"n": n, "pad": "x" * 256})
                costs.append(tuple(
                    after - start
                    for after, start in zip(loop.work(), before)))
            return costs
        finally:
            await client.close()
            await broker.close()

    assert run_counted(scenario) == [(3, 1, 1)] * 5


async def start_slow_server(delay):
    """Speaks just enough broker to connect to; answers ``slow`` calls
    ``delay`` seconds late."""

    def on_channel(channel):
        def reply(request, body):
            if not channel.closed:
                channel.send(CallResponse(request.connection_id, request.seq,
                                          body, 64, 0.0))

        def on_message(request):
            if request.op == HELLO_OP:
                reply(request, {"namespace": "clients/x",
                                "heartbeat_seconds": 10.0})
            elif request.op == "slow":
                asyncio.get_running_loop().call_later(
                    delay, reply, request, {"late": True})
            else:
                reply(request, request.body)

        channel.open(on_message)

    return await serve_tcp(on_channel)


def test_timed_out_call_raises_and_its_late_reply_is_counted():
    async def scenario(loop):
        server = await start_slow_server(delay=0.15)
        client = await BrokerClient("127.0.0.1", server.port, "x").connect()
        try:
            with pytest.raises(RpcTimeout, match="'slow' timed out after"):
                await client.call("slow", timeout=0.05)
            pending_after_timeout = len(client.exchanges)
            for _ in range(500):
                if client.late_replies:
                    break
                await asyncio.sleep(0.01)
            # The connection is still good for the next call.
            echoed = await client.call("echo", {"still": "here"})
            return (client.timeouts, client.late_replies,
                    pending_after_timeout, echoed,
                    client.tracker.failures)
        finally:
            await client.close(polite=False)
            await server.close()

    timeouts, late, pending, echoed, failures = run_counted(scenario)
    assert (timeouts, late, pending) == (1, 1, 0)
    assert echoed == {"still": "here"}
    assert failures == 1  # the timeout is connectivity evidence


def test_a_completed_call_leaves_no_live_timer_behind():
    async def scenario(loop):
        broker = await start_broker(heartbeat_timeout=3600.0)
        client = await connect(broker, "alpha")
        try:
            made = len(loop.timers)
            for n in range(10):
                await client.call("echo", {"n": n}, timeout=30.0)
            with pytest.raises(RemoteCallError, match="no handler"):
                await client.call("nope", timeout=30.0)
            return loop.timers[made:]
        finally:
            await client.close()
            await broker.close()

    timers = run_counted(scenario)
    assert len(timers) == 11  # one deadline per call ...
    assert all(timer.cancelled() for timer in timers)  # ... none left armed


# -- hostile peers ---------------------------------------------------------------

@pytest.mark.parametrize("body", MALFORMED_TAG_BODIES[1::4], ids=repr)
def test_malformed_tag_after_a_valid_hello_tears_the_session_down(body):
    """A peer that shook hands properly and then sends a well-framed
    request whose tag body means nothing: the broker drops that session
    as a transport death — and keeps serving everyone else."""

    async def scenario():
        broker = await start_broker()
        bystander = await connect(broker, "bystander")
        reader, writer = await asyncio.open_connection(*broker.address)
        writer.write(encode_frame(CallRequest(
            "mallory", 1, HELLO_OP, {"client": "mallory"}, 64, "")))
        decoder = FrameDecoder()
        replies = []
        while not replies:
            replies += decoder.feed(await reader.read(4096))
        named = broker.describe()["clients"]
        writer.write(hostile_request(body))
        tail = await reader.read()  # EOF: the broker hung up
        state = broker.describe()
        echoed = await bystander.call("echo", {"ok": True})
        writer.close()
        await bystander.close()
        await broker.close()
        return replies, named, tail, state, echoed

    with telemetry.enabled() as recorder:
        replies, named, tail, state, echoed = run(scenario())
    assert replies[0].body["namespace"] == "clients/mallory"
    assert named == 2
    assert tail == b""  # no reply to the malformed request, just the close
    assert state["clients"] == 1 and state["connections_closed"] == 1
    assert state["errors_returned"] == 0
    assert echoed == {"ok": True}
    teardown = [event["fields"] for event
                in recorder.trace.events(name="broker.teardown")
                if event["fields"]["client"] == "mallory"]
    assert len(teardown) == 1
    assert teardown[0]["reason"].startswith("socket error: malformed")


#: Window bodies that once escaped ``_dispatch_call`` as TypeError or
#: AttributeError (killing the caller's session), or slipped a NaN in.
HOSTILE_WINDOW_CALLS = [
    (REPORT_OP, [1]),
    (REPORT_OP, {"resource": [1], "level": 3}),
    (REPORT_OP, {"resource": "bandwidth", "level": "nan"}),
    (REQUEST_OP, {"resource": ["x"], "lower": 0, "upper": 1}),
    (REQUEST_OP, {"resource": "x", "lower": "nan", "upper": 1}),
    (REQUEST_OP, {"resource": "x", "lower": 0, "upper": "nan"}),
    (CANCEL_OP, {"request_id": [1]}),
    (CANCEL_OP, {"request_id": True}),
]


@pytest.mark.parametrize("broker_class", [Broker, LiveBroker],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("op, body", HOSTILE_WINDOW_CALLS, ids=repr)
def test_a_malformed_window_body_gets_an_error_reply(broker_class, op, body):
    """After a valid hello: an error reply, the session stays open, the
    next call works, and no NaN level is left behind to reject windows."""

    async def scenario():
        broker = broker_class(port=0)
        await broker.start()
        client = await connect(broker, "alpha")
        try:
            first = await client.request(0.0, "inf", resource="x")
            with pytest.raises(RemoteCallError, match="BrokerError"):
                await client.call(op, body)
            echoed = await client.call("echo", {"ok": True})
            second = await client.request(0.0, 1.0, resource="bandwidth")
            return (first, second, echoed, broker.describe())
        finally:
            await client.close()
            await broker.close()

    first, second, echoed, state = run(scenario())
    assert echoed == {"ok": True}
    assert second == first + 1  # the open window was never cancelled
    assert state["clients"] == 1 and state["connections_closed"] == 0
    assert state["registrations"] == 2
