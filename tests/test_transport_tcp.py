"""The real transport: asyncio TCP channels speaking wire frames."""

import asyncio
import socket

import pytest

from repro.errors import FrameError, TransportError, WireError
from repro.rpc.messages import CallRequest, CallResponse, WindowAck
from repro.transport import connect_tcp, encode_frame, serve_tcp
from tests.test_transport_wire import MALFORMED_TAG_BODIES, hostile_request


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


def request(seq, op="echo", body=None):
    return CallRequest(connection_id="c", seq=seq, op=op, body=body,
                       body_bytes=64, reply_port="")


async def start_echo_server():
    """A server replying to every CallRequest with a CallResponse."""
    channels = []

    def on_channel(channel):
        def on_message(message):
            channel.send(CallResponse(
                connection_id=message.connection_id, seq=message.seq,
                body=message.body, body_bytes=64, server_seconds=0.0))
        channels.append(channel)
        channel.open(on_message)

    server = await serve_tcp(on_channel)
    return server, channels


async def wait_for(condition, seconds=5.0):
    """Poll ``condition()`` until true (the tests' only clock)."""
    deadline = asyncio.get_running_loop().time() + seconds
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


async def start_collecting_server():
    """A server whose one accepted channel records what reaches it."""
    rig = {"messages": [], "closes": [], "channels": []}

    def on_channel(channel):
        rig["channels"].append(
            channel.open(rig["messages"].append, rig["closes"].append))

    rig["server"] = await serve_tcp(on_channel)
    return rig


def shrink_buffers(*sockets):
    """Make backpressure bite within a few frames, not a few megabytes."""
    for sock in sockets:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * 1024)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16 * 1024)


def loop_errors():
    """Route what the running loop would log into a list instead."""
    contexts = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: contexts.append(context))
    return contexts


def test_request_response_round_trip():
    async def scenario():
        server, _ = await start_echo_server()
        replies = []
        client = await connect_tcp("127.0.0.1", server.port,
                                   replies.append)
        client.send(request(1, body={"tuple": (1, 2), "bytes": b"\x00\xff"}))
        await client.drain()
        while not replies:
            await asyncio.sleep(0.001)
        client.close()
        await client.wait_closed()
        await server.close()
        return replies

    (reply,) = run(scenario())
    assert isinstance(reply, CallResponse)
    assert reply.seq == 1
    assert reply.body == {"tuple": (1, 2), "bytes": b"\x00\xff"}


def test_many_frames_arrive_in_order():
    async def scenario():
        server, _ = await start_echo_server()
        replies = []
        client = await connect_tcp("127.0.0.1", server.port,
                                   replies.append)
        count = 500
        for seq in range(count):
            client.send(request(seq, body={"n": seq}))
        await client.drain()
        while len(replies) < count:
            await asyncio.sleep(0.001)
        client.close()
        await client.wait_closed()
        await server.close()
        return replies

    replies = run(scenario())
    assert [r.seq for r in replies] == list(range(500))


def test_peer_close_fires_on_close_exactly_once():
    async def scenario():
        server, server_channels = await start_echo_server()
        closes = []
        client = await connect_tcp("127.0.0.1", server.port,
                                   lambda m: None,
                                   on_close=closes.append)
        while not server_channels:
            await asyncio.sleep(0.001)
        server_channels[0].close()
        exc = await client.wait_closed()
        client.close()  # idempotent; must not re-fire on_close
        await server.close()
        return closes, exc, client.closed

    closes, exc, closed = run(scenario())
    assert closes == [None]  # clean EOF, exactly one callback
    assert exc is None
    assert closed


def test_send_after_close_raises():
    async def scenario():
        server, _ = await start_echo_server()
        client = await connect_tcp("127.0.0.1", server.port,
                                   lambda m: None)
        client.close()
        with pytest.raises(TransportError, match="closed"):
            client.send(request(1))
        await client.wait_closed()
        await server.close()

    run(scenario())


def test_garbage_from_peer_kills_the_server_channel():
    async def scenario():
        closes = []

        def on_channel(channel):
            channel.open(lambda m: None, on_close=closes.append)

        server = await serve_tcp(on_channel)
        _, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"this is not a frame")
        await writer.drain()
        while not closes:
            await asyncio.sleep(0.001)
        writer.close()
        await server.close()
        return closes

    closes = run(scenario())
    assert len(closes) == 1
    assert closes[0] is not None  # FrameError: bad magic


def test_wire_error_surfaces_through_on_close():
    async def scenario():
        raw_writers = []

        def on_channel(channel):
            channel.open(lambda m: None)
            raw_writers.append(channel)

        server = await serve_tcp(on_channel)
        closes = []
        client = await connect_tcp("127.0.0.1", server.port,
                                   lambda m: None,
                                   on_close=closes.append)
        while not raw_writers:
            await asyncio.sleep(0.001)
        # Bypass the frame encoder: write corrupt bytes straight to the
        # client through the accepted channel's transport.
        raw_writers[0].transport.write(b"XX garbage that is no frame")
        exc = await client.wait_closed()
        await server.close()
        return closes, exc

    closes, exc = run(scenario())
    assert len(closes) == 1
    assert closes[0] is exc
    assert exc is not None  # FrameError: bad magic


def test_server_requires_on_channel_to_open():
    async def scenario():
        errors = loop_errors()
        server = await serve_tcp(lambda channel: None)  # forgets open()
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        data = await reader.read(1)  # server closes the socket on us
        writer.close()
        await server.close()
        return data, errors

    data, errors = run(scenario())
    assert data == b""
    (context,) = errors  # and says why, through the loop's handler
    assert isinstance(context["exception"], TransportError)
    assert "without opening" in str(context["exception"])


def test_counters_track_traffic():
    async def scenario():
        server, server_channels = await start_echo_server()
        replies = []
        client = await connect_tcp("127.0.0.1", server.port,
                                   replies.append)
        for seq in range(3):
            client.send(request(seq))
        await client.drain()
        while len(replies) < 3:
            await asyncio.sleep(0.001)
        stats = (client.frames_sent, client.frames_received,
                 client.bytes_sent, client.bytes_received,
                 server.channels_accepted)
        client.close()
        await client.wait_closed()
        await server.close()
        return stats

    sent, received, bytes_sent, bytes_received, accepted = run(scenario())
    assert sent == 3 and received == 3
    assert bytes_sent > 0 and bytes_received > 0
    assert accepted == 1


def test_ephemeral_port_is_resolved():
    async def scenario():
        server = await serve_tcp(lambda c: c.open(lambda m: None))
        port = server.port
        await server.close()
        return port

    assert run(scenario()) > 0


def test_control_messages_cross_the_wire():
    async def scenario():
        received = []

        def on_channel(channel):
            channel.open(received.append)

        server = await serve_tcp(on_channel)
        client = await connect_tcp("127.0.0.1", server.port,
                                   lambda m: None)
        client.send(WindowAck("c", 9, 4, 65536))
        await client.drain()
        while not received:
            await asyncio.sleep(0.001)
        client.close()
        await client.wait_closed()
        await server.close()
        return received

    (ack,) = run(scenario())
    assert ack == WindowAck("c", 9, 4, 65536)


def test_send_after_peer_death_raises_typed_error():
    """Regression: a send racing the peer's reset surfaced the bare OS
    error; it must always be the typed TransportError."""

    async def scenario():
        server, server_channels = await start_echo_server()
        closes = []
        client = await connect_tcp("127.0.0.1", server.port,
                                   lambda m: None,
                                   on_close=closes.append)
        while not server_channels:
            await asyncio.sleep(0.001)
        server_channels[0].transport.abort()  # RST, not FIN
        await client.wait_closed()
        outcomes = []
        try:
            client.send(request(1))
        except TransportError as exc:
            outcomes.append(exc)
        await server.close()
        return closes, outcomes

    closes, outcomes = run(scenario())
    assert len(closes) == 1  # on_close fired exactly once despite the race
    assert len(outcomes) == 1


def test_drain_on_a_dead_channel_raises_typed_error():
    """Regression: drain after a peer death raised the bare
    ConnectionResetError asyncio stores on the transport."""

    async def scenario():
        server, server_channels = await start_echo_server()
        client = await connect_tcp("127.0.0.1", server.port,
                                   lambda m: None)
        while not server_channels:
            await asyncio.sleep(0.001)
        server_channels[0].transport.abort()
        await client.wait_closed()
        with pytest.raises(TransportError, match="drain on"):
            await client.drain()
        await server.close()

    run(scenario())


def test_drain_applies_backpressure_against_a_slow_reader():
    """A sender that drains must park until the reader catches up; the
    send buffer cannot balloon past the write high-water mark."""

    async def scenario():
        channels = []
        server = await serve_tcp(
            lambda ch: channels.append(ch.open(lambda m: None)))
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        while not channels:
            await asyncio.sleep(0.001)
        sender = channels[0]
        sender.transport.set_write_buffer_limits(high=16 * 1024)
        shrink_buffers(sender.transport.get_extra_info("socket"),
                       writer.get_extra_info("socket"))
        delay = 0.4
        loop = asyncio.get_running_loop()

        async def consume_after_delay():
            await asyncio.sleep(delay)
            while await reader.read(64 * 1024):
                pass

        consumer = asyncio.ensure_future(consume_after_delay())
        blob = b"x" * 65536
        started = loop.time()
        for seq in range(128):  # ~8 MB >> every buffer in the path
            sender.send(request(seq, body={"blob": blob}))
            await sender.drain()
        elapsed = loop.time() - started
        sender.close()
        await consumer
        writer.close()
        await server.close()
        return elapsed

    elapsed = run(scenario())
    # The sender cannot finish before the reader starts reading.
    assert elapsed >= 0.3


# -- bytes to messages -----------------------------------------------------------

def test_frames_split_at_every_byte_boundary_across_socket_reads():
    """The second half of a frame reaches the channel in a later read
    than the first, at every possible cut, and still one message comes
    out — the stream has no boundaries the decoder may rely on."""

    async def scenario():
        rig = await start_collecting_server()
        _, writer = await asyncio.open_connection("127.0.0.1",
                                                  rig["server"].port)
        await wait_for(lambda: rig["channels"])
        channel = rig["channels"][0]
        frame = encode_frame(request(7, body={"k": (1, b"\x00\xff")}))
        for cut in range(1, len(frame)):
            seen = channel.bytes_received
            writer.write(frame[:cut])
            await wait_for(lambda: channel.bytes_received == seen + cut)
            assert len(rig["messages"]) == cut - 1  # nothing early
            writer.write(frame[cut:])
            await wait_for(lambda: len(rig["messages"]) == cut)
        writer.close()
        await rig["server"].close()
        return rig["messages"], len(frame), channel.frames_received

    messages, size, counted = run(scenario())
    assert len(messages) == counted == size - 1
    assert all(m == request(7, body={"k": (1, b"\x00\xff")})
               for m in messages)


def test_messages_never_alias_the_receive_buffer():
    """The loop reads every chunk into the channel's one buffer: a
    delivered message, and the half-frame the decoder is holding, must
    survive whatever the next read writes there."""

    async def scenario():
        rig = await start_collecting_server()
        _, writer = await asyncio.open_connection("127.0.0.1",
                                                  rig["server"].port)
        await wait_for(lambda: rig["channels"])
        channel = rig["channels"][0]
        first = request(1, body={"text": "a" * 300, "blob": b"b" * 300,
                                 "pair": ("c" * 30, 4)})
        second = request(2, body={"text": "z" * 300})
        half = encode_frame(second)
        writer.write(encode_frame(first) + half[:40])
        await wait_for(lambda: rig["messages"])
        # What the very next read would do, taken to the extreme.
        buffer = channel.get_buffer(-1)
        buffer[:] = b"\xff" * len(buffer)
        writer.write(half[40:])
        await wait_for(lambda: len(rig["messages"]) == 2)
        writer.close()
        await rig["server"].close()
        return rig["messages"], (first, second)

    messages, sent = run(scenario())
    assert tuple(messages) == sent


@pytest.mark.parametrize("body", MALFORMED_TAG_BODIES[::4], ids=repr)
def test_malformed_tag_closes_the_channel_with_the_wire_error(body):
    """A frame with a good checksum and a tag body that means nothing is
    a transport death with its reason, not a polite goodbye."""

    async def scenario():
        rig = await start_collecting_server()
        _, writer = await asyncio.open_connection("127.0.0.1",
                                                  rig["server"].port)
        good = encode_frame(request(1))
        writer.write(good)
        await wait_for(lambda: rig["messages"])
        writer.write(hostile_request(body) + good)
        await wait_for(lambda: rig["closes"])
        await rig["channels"][0].wait_closed()
        writer.close()
        await rig["server"].close()
        return rig

    rig = run(scenario())
    (exc,) = rig["closes"]
    assert isinstance(exc, WireError) and not isinstance(exc, FrameError)
    assert "malformed" in str(exc)
    assert rig["messages"] == [request(1)]  # nothing past the bad frame


def test_raising_handler_closes_the_channel_with_its_exception_once():
    async def scenario():
        errors = loop_errors()
        closes = []
        seen = []

        def on_message(message):
            seen.append(message.seq)
            raise ValueError(f"handler fault on {message.seq}")

        def on_channel(channel):
            channel.open(on_message, closes.append)

        server = await serve_tcp(on_channel)
        client = await connect_tcp("127.0.0.1", server.port, lambda m: None)
        client.transport.write(  # both frames in one read
            encode_frame(request(1)) + encode_frame(request(2)))
        await client.wait_closed()  # the server hung up on us
        await server.close()
        return closes, seen, errors

    closes, seen, errors = run(scenario())
    assert seen == [1]  # the frame behind the fault is never delivered
    (exc,) = closes
    assert isinstance(exc, ValueError) and "fault on 1" in str(exc)
    assert [context["exception"] for context in errors] == [exc]


# -- backpressure ----------------------------------------------------------------

def test_drain_blocks_on_a_stalled_reader_and_raises_when_it_dies():
    async def scenario():
        rig = await start_collecting_server()
        _, writer = await asyncio.open_connection("127.0.0.1",
                                                  rig["server"].port)
        await wait_for(lambda: rig["channels"])
        sender = rig["channels"][0]
        sender.transport.set_write_buffer_limits(high=16 * 1024)
        shrink_buffers(sender.transport.get_extra_info("socket"),
                       writer.get_extra_info("socket"))
        writer.transport.pause_reading()  # a reader that never drains
        blob = b"x" * 65536
        for seq in range(64):  # 4 MiB against ~50 KiB of room
            sender.send(request(seq, body={"blob": blob}))
        first = asyncio.ensure_future(sender.drain())
        second = asyncio.ensure_future(sender.drain())
        await asyncio.sleep(0.3)
        parked = not first.done() and not second.done()
        writer.transport.abort()  # the reader dies, RST not FIN
        outcomes = await asyncio.gather(first, second,
                                        return_exceptions=True)
        await rig["server"].close()
        return parked, outcomes, rig["closes"]

    parked, outcomes, closes = run(scenario())
    assert parked
    assert len(closes) == 1 and closes[0] is not None
    for outcome in outcomes:
        assert isinstance(outcome, TransportError)
        assert "drain on dead transport" in str(outcome)
