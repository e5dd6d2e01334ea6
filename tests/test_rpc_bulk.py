"""Bulk transfers: windowed fetch, push, throughput logging."""

import pytest

from repro.errors import RpcError
from repro.rpc.connection import RpcConnection, RpcService
from repro.rpc.messages import Fragment, ServerReply
from repro.trace.waveforms import HIGH_BANDWIDTH


@pytest.fixture
def service(sim, network):
    server = network.add_host("server")
    return RpcService(sim, server, "bulk")


@pytest.fixture
def connection(sim, network, service):
    return RpcConnection(sim, network, "server", "bulk", "bulk-conn")


def register_blob(service, nbytes, meta=None):
    service.register(
        "get-blob",
        lambda body: ServerReply(
            body="ok", bulk=service.make_bulk(nbytes, meta=meta)
        ),
    )


def test_fetch_returns_sizes_and_meta(sim, connection, service, run_process):
    register_blob(service, 100_000, meta={"kind": "blob"})

    def client():
        reply, meta, nbytes = yield from connection.fetch("get-blob")
        return reply, meta, nbytes

    reply, meta, nbytes = run_process(client())
    assert reply == "ok"
    assert meta == {"kind": "blob"}
    assert nbytes == 100_000


def test_fetch_time_matches_bandwidth(sim, connection, service, run_process):
    register_blob(service, 120 * 1024)

    def client():
        yield from connection.fetch("get-blob")
        return sim.now

    finished = run_process(client())
    # 120 KB at 120 KB/s is ~1 s; protocol overhead adds a bit.
    assert 1.0 <= finished <= 1.4


def test_throughput_entries_one_per_window(sim, connection, service, run_process):
    register_blob(service, 100_000)

    def client():
        yield from connection.fetch("get-blob")

    run_process(client())
    windows = connection.log.throughputs
    # 100 000 bytes in 32 KiB windows -> 4 windows (3 full + remainder).
    assert len(windows) == 4
    assert sum(w.nbytes for w in windows) == 100_000
    assert windows[-1].nbytes == 100_000 - 3 * 32 * 1024
    for window in windows:
        assert window.seconds > 0
        assert window.raw_rate <= HIGH_BANDWIDTH * 1.01


def test_fetch_without_bulk_raises(sim, connection, service):
    service.register("no-bulk", lambda body: ServerReply(body="x"))

    def client():
        yield from connection.fetch("no-bulk")

    sim.process(client())
    with pytest.raises(RpcError, match="no bulk data"):
        sim.run()


def test_fetch_ticket_can_resume(sim, connection, service, run_process):
    register_blob(service, 64 * 1024)

    def client():
        reply, ticket = yield from connection.call("get-blob")
        transfer_id, nbytes, _ = ticket
        got = yield from connection.fetch_ticket(transfer_id, nbytes)
        return got

    assert run_process(client()) == 64 * 1024


def test_bulk_source_freed_after_consumption(sim, connection, service, run_process):
    register_blob(service, 10_000)

    def client():
        yield from connection.fetch("get-blob")

    run_process(client())
    assert service._bulk_sources == {}


def test_lost_fragment_of_the_final_window_is_served_again(sim, network,
                                                          connection, service,
                                                          run_process):
    """The server retires a source once it has sent every byte; a client
    that lost a fragment of the last window resumes after what it got."""
    register_blob(service, 40_000)
    lost = []

    def drop_once(packet, when):
        fragment = packet.payload
        if isinstance(fragment, Fragment) and fragment.offset == 32 * 1024 \
                and not lost:
            lost.append(fragment)
            return True
        return False

    network.downlink.drop_filter = drop_once

    def client():
        _, _, nbytes = yield from connection.fetch("get-blob")
        return nbytes

    assert run_process(client()) == 40_000
    assert len(lost) == 1
    # 32 KiB, then the 7 232-byte tail short by one 2 048-byte fragment,
    # then that fragment's worth again from the retired source.
    assert [w.nbytes for w in connection.log.throughputs] == [
        32 * 1024, 40_000 - 32 * 1024 - 2048, 2048]
    assert service._bulk_sources == {}


def test_window_for_a_never_issued_transfer_raises(sim, connection, service):
    register_blob(service, 10_000)

    def client():
        yield from connection.fetch_ticket(7, 1000)

    sim.process(client())
    with pytest.raises(RpcError, match="unknown transfer 7"):
        sim.run()


def test_push_ships_bytes_and_returns_reply(sim, connection, service, run_process):
    received = []

    def recognize(body):
        received.append(body)
        return ServerReply(body="text-result", compute_seconds=0.2)

    service.register("recognize", recognize)

    def client():
        reply = yield from connection.push("recognize", 50_000, body={"x": 1})
        return reply, sim.now

    reply, finished = run_process(client())
    assert reply == "text-result"
    assert received == [{"x": 1}]
    # 50 KB upstream at 120 KB/s ~ 0.41 s plus compute 0.2 plus overhead.
    assert 0.6 <= finished <= 1.0


def test_push_logs_sender_side_throughput(sim, connection, service, run_process):
    service.register("sink", lambda body: ServerReply())

    def client():
        yield from connection.push("sink", 70_000)

    run_process(client())
    windows = connection.log.throughputs
    assert len(windows) == 3  # 70 000 in 32 KiB windows
    assert sum(w.nbytes for w in windows) == 70_000


def test_push_throughput_excludes_server_compute(sim, connection, service,
                                                 run_process):
    service.register("slow-sink", lambda body: ServerReply(compute_seconds=5.0))

    def client():
        yield from connection.push("slow-sink", 32 * 1024)

    run_process(client())
    window = connection.log.throughputs[-1]
    # The window's ack returns before the 5 s compute; the throughput entry
    # must reflect transmission, not recognition time.
    assert window.seconds < 1.0


def test_push_requires_positive_bytes(connection):
    with pytest.raises(RpcError):
        next(connection.push("op", 0))


def test_deliveries_recorded_for_aggregation(sim, connection, service,
                                             run_process):
    register_blob(service, 40_000)

    def client():
        yield from connection.fetch("get-blob")

    run_process(client())
    assert connection.log.delivered_total >= 40_000
    assert connection.log.bytes_delivered_between(0, sim.now) >= 40_000
