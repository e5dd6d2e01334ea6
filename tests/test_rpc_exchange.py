"""The call exchange (``repro.rpc.exchange``) and its two shells.

The table classifies every reply the way a table that remembered every
abandoned seq would, while holding only the exchanges in flight; the sim
connection and the live broker client agree on late and unknown replies
and on how a retried call counts its timeouts.
"""

import asyncio

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broker import HELLO_OP, BrokerClient
from repro.chaos.harness import run_chaos_fleet
from repro.errors import RemoteCallError, RpcError, RpcTimeout
from repro.faults import FaultPlan, ServerStall
from repro.net.network import Network
from repro.net.packet import HEADER_BYTES, Packet, Train
from repro.rpc.connection import RetryPolicy, RpcConnection, RpcService
from repro.rpc.exchange import LATE, UNKNOWN, ExchangeTable
from repro.rpc.messages import (
    CallResponse,
    FragmentTrain,
    ServerReply,
    WindowAck,
)
from repro.sim.kernel import Simulator
from repro.trace.waveforms import HIGH_BANDWIDTH, constant
from repro.transport import serve_tcp


# -- the table -----------------------------------------------------------------

def test_the_table_issues_seqs_and_classifies_replies():
    table = ExchangeTable()
    waiter = object()
    assert table.open(waiter) == 1
    assert table.open() == 2  # a name only: nothing pending on it
    assert len(table) == 1 and table.issued == 2
    assert table.get(1) is waiter and len(table) == 1
    assert table.settle(1) is waiter
    assert len(table) == 0
    assert table.settle(1) is LATE and table.get(2) is LATE
    assert table.settle(0) is UNKNOWN and table.get(3) is UNKNOWN
    first, second = object(), object()
    table.open(first)
    table.open(second)
    table.abandon(3)
    assert table.drain() == {4: second}
    assert len(table) == 0
    assert table.settle(3) is LATE and table.settle(4) is LATE
    # A seq's only memory is its pending entry: nothing outlives settling.
    assert ExchangeTable.__slots__ == ("issued", "_pending")


class ReferenceTable:
    """The exchange as the simulator once kept it: a timed-out seq stays
    in an abandoned set until its reply comes, however long that is."""

    def __init__(self):
        self.issued = 0
        self.pending = {}
        self.abandoned = set()

    def open(self, waiter):
        self.issued += 1
        if waiter is not None:
            self.pending[self.issued] = waiter
        return self.issued

    def reply(self, seq, closes):
        if seq in self.abandoned:
            if closes:
                self.abandoned.discard(seq)
            return LATE
        if seq in self.pending:
            return self.pending.pop(seq) if closes else self.pending[seq]
        return UNKNOWN

    def abandon(self, seq):
        self.pending.pop(seq, None)
        self.abandoned.add(seq)

    def drain(self):
        drained, self.pending = self.pending, {}
        self.abandoned.update(drained)
        return drained


STEPS = ("open", "name", "reply", "run", "timeout", "late", "late-run",
         "drain", "unknown")


@given(st.lists(st.tuples(st.sampled_from(STEPS), st.integers(0, 1 << 16)),
                max_size=80))
def test_the_table_classifies_like_an_unbounded_abandoned_set(steps):
    """Every reply a transport can deliver — each issued seq answered at
    most once, by a closing reply, and possibly never — is classified
    alike, and the table never holds more than what is in flight."""
    table, reference = ExchangeTable(), ReferenceTable()
    for step, pick in steps:
        if step in ("open", "name"):
            waiter = object() if step == "open" else None
            assert table.open(waiter) == reference.open(waiter)
        elif step in ("reply", "run", "timeout") and reference.pending:
            seq = sorted(reference.pending)[pick % len(reference.pending)]
            if step == "timeout":
                table.abandon(seq)
                reference.abandon(seq)
            elif step == "run":  # a window's run that does not close it
                assert table.get(seq) is reference.reply(seq, closes=False)
            else:
                assert table.settle(seq) is reference.reply(seq, closes=True)
        elif step in ("late", "late-run") and reference.abandoned:
            seq = sorted(reference.abandoned)[pick % len(reference.abandoned)]
            if step == "late-run":
                assert table.get(seq) is reference.reply(seq, closes=False)
            else:
                assert table.settle(seq) is reference.reply(seq, closes=True)
        elif step == "drain":
            assert table.drain() == reference.drain()
        elif step == "unknown":
            seq = -pick if pick % 2 else table.issued + 1 + pick
            assert table.settle(seq) is reference.reply(seq, closes=True)
            assert table.get(seq) is UNKNOWN
        assert table.issued == reference.issued
        assert len(table) == len(reference.pending)  # in flight, no more


def test_a_stormed_fleet_holds_only_exchanges_in_flight(monkeypatch):
    """A full storm times 148 exchanges out, and the replies of many never
    come (dropped by outages and blackouts).  Every connection keeps only
    the two exchanges still waiting when the run ends."""
    connections = []
    build = RpcConnection.__init__

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        connections.append(self)

    monkeypatch.setattr(RpcConnection, "__init__", recording)
    report = run_chaos_fleet(16, shards=1, duration=60, profile="full-storm",
                             master_seed=2, jobs=1, cache=None)
    assert report.fingerprint().startswith("142435442b89")
    assert len(connections) == 16
    assert sum(c.timeouts for c in connections) == 148
    assert sum(c.late_replies for c in connections) == 86
    in_flight = {}
    for conn in connections:
        pending = conn.exchanges.drain()
        assert all(not getattr(waiter, "event", waiter).triggered
                   for waiter in pending.values())
        in_flight.update(pending)
    assert len(in_flight) == 2


# -- late and unknown replies on the sim clock ---------------------------------

@pytest.fixture
def world():
    sim = Simulator()
    network = Network(sim, constant(HIGH_BANDWIDTH, duration=3600))
    server = network.add_host("server")
    service = RpcService(sim, server, "svc")
    service.register("slow", lambda body: ServerReply(compute_seconds=2.0))
    connection = RpcConnection(sim, network, "server", "svc", "c")
    return sim, service, connection


def reply_to(connection, service, message, sizes=None):
    """Send ``message`` from the server to the connection's port."""
    host = service.host
    if sizes is None:
        host.send(Packet(host.name, connection.client.name, connection._port,
                         HEADER_BYTES, message))
    else:
        host.send(Train(host.name, connection.client.name, connection._port,
                        sizes, message))


UNKNOWN_REPLIES = {
    "response": lambda seq: (CallResponse("c", seq, None, 0, 0.0), None),
    "ack": lambda seq: (WindowAck("c", seq, 1, 0), None),
    "train": lambda seq: (FragmentTrain("c", seq, 1, [0, 512], [512, 512],
                                        False), [HEADER_BYTES + 512] * 2),
}


@pytest.mark.parametrize("kind", sorted(UNKNOWN_REPLIES))
@pytest.mark.parametrize("seq", [0, 2])
def test_sim_reply_to_a_never_issued_seq_is_an_error(world, kind, seq):
    sim, service, connection = world

    def caller():
        yield from connection.call("slow")

    sim.process(caller())  # seq 1 is issued and pending
    sim.run(until=0.5)
    reply_to(connection, service, *UNKNOWN_REPLIES[kind](seq))
    with pytest.raises(RpcError, match=f"unknown seq {seq}"):
        sim.run(until=1.0)


def test_sim_reply_to_an_abandoned_seq_is_late(world):
    sim, service, connection = world

    def caller():
        with pytest.raises(RpcTimeout):
            yield from connection.call("slow", timeout=0.5)

    sim.process(caller())
    sim.run(until=5.0)  # the reply comes at about 2 s
    assert (connection.timeouts, connection.late_replies) == (1, 1)
    assert len(connection.exchanges) == 0


# -- late and unknown replies on the wall clock --------------------------------

async def start_server(answer):
    """A server that says hello, then calls ``answer(channel, request)``."""

    def on_channel(channel):
        def on_message(request):
            if request.op == HELLO_OP:
                channel.send(CallResponse(
                    request.connection_id, request.seq,
                    {"namespace": "clients/x", "heartbeat_seconds": 10.0},
                    64, 0.0))
            else:
                answer(channel, request)

        channel.open(on_message)

    return await serve_tcp(on_channel)


def run(scenario):
    return asyncio.run(asyncio.wait_for(scenario(), 30.0))


def test_live_reply_to_a_never_issued_seq_closes_the_channel():
    """A reply the client never asked for breaks the protocol: the channel
    dies of it, and every call in flight fails."""

    def answer(channel, request):
        if request.op == "bogus":
            channel.send(CallResponse(request.connection_id,
                                      request.seq + 1000, None, 64, 0.0))

    async def scenario():
        faults = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: faults.append(context.get("exception")))
        server = await start_server(answer)
        client = await BrokerClient("127.0.0.1", server.port, "x").connect()
        try:
            hung = asyncio.ensure_future(client.call("hang", timeout=10.0))
            with pytest.raises(RemoteCallError, match="connection lost"):
                await client.call("bogus", timeout=10.0)
            with pytest.raises(RemoteCallError, match="connection lost"):
                await hung
            return (client.closed, len(client.exchanges),
                    client.late_replies, faults)
        finally:
            await client.close(polite=False)
            await server.close()

    closed, pending, late, faults = run(scenario)
    assert (closed, pending, late) == (True, 0, 0)
    assert any(isinstance(exc, RpcError) and "reply for unknown seq 100" in str(exc)
               for exc in faults)


def test_live_reply_to_an_abandoned_seq_is_late():
    def answer(channel, request):
        asyncio.get_running_loop().call_later(
            0.15, channel.send,
            CallResponse(request.connection_id, request.seq, None, 64, 0.0))

    async def scenario():
        server = await start_server(answer)
        client = await BrokerClient("127.0.0.1", server.port, "x").connect()
        try:
            with pytest.raises(RpcTimeout):
                await client.call("slow", timeout=0.05)
            for _ in range(500):
                if client.late_replies:
                    break
                await asyncio.sleep(0.01)
            return client.timeouts, client.late_replies, len(client.exchanges)
        finally:
            await client.close(polite=False)
            await server.close()

    assert run(scenario) == (1, 1, 0)


def test_live_cancelled_call_leaves_nothing_pending():
    async def scenario():
        server = await start_server(lambda channel, request: None)
        client = await BrokerClient("127.0.0.1", server.port, "x").connect()
        try:
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.call("hang"), 0.05)
            return client.timeouts, len(client.exchanges)
        finally:
            await client.close(polite=False)
            await server.close()

    assert run(scenario) == (0, 0)


# -- one retry step on both clocks ---------------------------------------------

NEVER = RetryPolicy(timeout=0.05, retries=2, backoff=0.01)
#: One retry fits before the deadline, the second pause would cross it.
DEADLINE = RetryPolicy(timeout=0.1, retries=5, backoff=0.1, multiplier=1.0,
                       deadline=0.25)


def sim_retry(policy):
    sim = Simulator()
    network = Network(sim, constant(HIGH_BANDWIDTH, duration=3600))
    service = RpcService(sim, network.add_host("server"), "svc")
    service.register("hang", lambda body: ServerReply())
    FaultPlan([ServerStall(start=0.0, duration=3600.0)]).arm(
        sim, services=[service])
    connection = RpcConnection(sim, network, "server", "svc", "c")

    def caller():
        with pytest.raises(RpcTimeout) as raised:
            yield from connection.call_with_retry("hang", retry=policy)
        return str(raised.value)

    process = sim.process(caller())
    sim.run(until=60.0)
    return connection.timeouts, connection.retries, process.value


def live_retry(policy):
    async def scenario():
        server = await start_server(lambda channel, request: None)
        client = await BrokerClient("127.0.0.1", server.port, "x").connect()
        try:
            with pytest.raises(RpcTimeout) as raised:
                await client.call_with_retry("hang", retry=policy)
            return client.timeouts, client.retries, str(raised.value)
        finally:
            await client.close(polite=False)
            await server.close()

    return run(scenario)


@pytest.mark.parametrize("drive", [sim_retry, live_retry],
                         ids=["sim", "live"])
def test_a_retried_call_counts_every_timeout_and_retry(drive):
    timeouts, retries, message = drive(NEVER)
    assert (timeouts, retries) == (3, 2)
    assert "timed out after" in message


@pytest.mark.parametrize("drive", [sim_retry, live_retry],
                         ids=["sim", "live"])
def test_an_exhausted_deadline_counts_its_final_timeout(drive):
    timeouts, retries, message = drive(DEADLINE)
    # Every attempt timed out, each but the first after a retry, and the
    # deadline ends the operation with one more.
    assert timeouts == retries + 2
    assert "retry deadline (0.25 s) exhausted" in message
    if drive is sim_retry:
        assert (timeouts, retries) == (3, 1)
