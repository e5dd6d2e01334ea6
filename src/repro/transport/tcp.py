"""The real transport: asyncio TCP sockets speaking the wire format.

A :class:`TcpChannel` *is* the asyncio protocol of its socket.  The event
loop reads straight into the channel's one receive buffer and calls
:meth:`~TcpChannel.buffer_updated`, which feeds the bytes — whatever
chunking the kernel delivered — through a
:class:`~repro.transport.wire.FrameDecoder` and hands every completed
message to ``on_message`` before it returns: a message is handled in the
loop turn its bytes arrive in, with no stream object, reader task or
wake-up in between.  A corrupt frame, EOF, a socket error or a raising
handler closes the channel and fires ``on_close(exc)`` exactly once.

Unlike the simulated links, real sockets have buffers: ``send`` is
synchronous (it enqueues into the OS buffer) and ``drain`` is the
backpressure point for bulk senders.
"""

import asyncio

from repro import telemetry
from repro.errors import TransportError, WireError
from repro.transport.base import Channel
from repro.transport.wire import FrameDecoder, encode_frame

#: Size of a channel's receive buffer, so the most one socket read takes.
#: Big enough to drain several frames per syscall under load; small enough
#: not to stall interactive traffic.
READ_CHUNK_BYTES = 64 * 1024


class TcpChannel(Channel, asyncio.BufferedProtocol):
    """One live socket speaking length-prefixed wire frames.

    Construct, then :meth:`open` with the message handler (``connect_tcp``
    does both; server-side ``on_channel`` callbacks must call :meth:`open`
    themselves before returning).  ``on_connected(channel)`` runs once the
    socket is usable — how a server announces an accepted channel.
    """

    def __init__(self, label="tcp", on_connected=None):
        self.label = label
        self._on_connected = on_connected
        self.on_message = None
        self.on_close = None
        self.peer = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: The asyncio transport under the channel, for socket options and
        #: buffer limits; ``None`` until the connection is made.
        self.transport = None
        # The loop fills this one buffer on every read; the decoder copies
        # out what it keeps, so no read allocates.
        self._receive_view = memoryview(bytearray(READ_CHUNK_BYTES))
        self._decoder = FrameDecoder()
        self._closed = False
        self._close_exc = None
        self._drained = None  # a future while the write buffer is full
        self._lost = asyncio.get_running_loop().create_future()

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return f"<TcpChannel {self.label} peer={self.peer} {state}>"

    @property
    def closed(self):
        return self._closed

    def open(self, on_message, on_close=None):
        """Install the handlers arrivals go to.  Returns ``self``."""
        if self.on_message is not None:
            raise TransportError(f"{self!r} already opened")
        self.on_message = on_message
        self.on_close = on_close
        return self

    # -- sending ------------------------------------------------------------

    def send(self, message):
        """Serialize and enqueue one message (order-preserving).

        Raises :class:`~repro.errors.TransportError` if the channel is
        closed — including the window after ``on_close`` has fired — or if
        the kernel rejects the write; the bare asyncio/OS error never
        escapes, so senders handle exactly one exception type.
        """
        self._check_open()
        frame = encode_frame(message)
        try:
            self.transport.write(frame)
        except (ConnectionError, OSError, RuntimeError) as exc:
            # The transport died under us before the loop told us (e.g. a
            # racing RST): tear down now and surface the typed error.
            self._finish(exc)
            raise TransportError(
                f"{self.label}: send on dead transport ({exc})") from exc
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("transport.frames_sent", label=self.label)
            rec.count("transport.bytes_sent", len(frame), label=self.label)

    async def drain(self):
        """Backpressure point: wait for the OS send buffer to empty out.

        Returns at once unless the transport's write buffer stands above
        its high-water mark.  Bulk senders sit in this call while a slow
        reader catches up, so this is also where a peer death surfaces
        mid-transfer — as a typed :class:`~repro.errors.TransportError`,
        like :meth:`send`.
        """
        if self._drained is not None and not self._closed:
            # Shielded: one sender giving up must not cancel the others.
            await asyncio.shield(self._drained)
        if self._closed:
            raise TransportError(
                f"{self.label}: drain on closed channel"
                if self._close_exc is None else
                f"{self.label}: drain on dead transport ({self._close_exc})")

    # -- asyncio protocol: the loop calls these -----------------------------

    def connection_made(self, transport):
        self.transport = transport
        self.peer = transport.get_extra_info("peername")
        if self._on_connected is not None:
            self._on_connected(self)

    def get_buffer(self, sizehint):
        return self._receive_view

    def buffer_updated(self, nbytes):
        self.bytes_received += nbytes
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("transport.bytes_received", nbytes, label=self.label)
        try:
            messages = self._decoder.feed(self._receive_view[:nbytes])
        except WireError as exc:
            if rec.enabled:
                rec.count("transport.read_errors", label=self.label)
            self._finish(exc)
            return
        for message in messages:
            self.frames_received += 1
            if rec.enabled:
                rec.count("transport.frames_received", label=self.label)
            try:
                self.on_message(message)
            except Exception as exc:
                # A handler fault is the channel's death, not a silent
                # gap in the stream; the loop's exception handler logs it.
                self._finish(exc)
                raise
            if self._closed:
                return

    def eof_received(self):
        self._finish(None)  # clean EOF from the peer

    def pause_writing(self):
        self._drained = self._lost.get_loop().create_future()

    def resume_writing(self):
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)

    def connection_lost(self, exc):
        if exc is not None and not self._closed:
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("transport.read_errors", label=self.label)
        self._finish(exc)
        self._lost.set_result(None)

    # -- teardown -----------------------------------------------------------

    def close(self):
        """Close the socket (idempotent); fires ``on_close(None)``."""
        self._finish(None)

    def _finish(self, exc):
        if self._closed:
            return
        self._closed = True
        self._close_exc = exc
        try:
            self.transport.close()
        except RuntimeError:
            pass  # event loop already gone (interpreter shutdown)
        self.resume_writing()  # drainers wake to find the channel closed
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback(exc)

    async def wait_closed(self):
        """Block until the socket is released; returns the closing
        exception (``None`` for a clean close)."""
        await asyncio.shield(self._lost)
        return self._close_exc


class TcpServer:
    """A listening socket handing accepted :class:`TcpChannel` objects to
    an ``on_channel`` callback."""

    def __init__(self, on_channel, label):
        self._server = None
        self.on_channel = on_channel
        self.label = label
        self.channels_accepted = 0

    @property
    def port(self):
        """The bound port (resolves an ephemeral ``port=0`` request)."""
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self):
        return self._server.sockets[0].getsockname()[0]

    def _accept(self, channel):
        self.channels_accepted += 1
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("transport.accepted", label=self.label)
        try:
            self.on_channel(channel)
        except Exception:  # noqa: BLE001 - close the socket, then re-raise as-is
            channel.close()
            raise
        if channel.on_message is None and not channel.closed:
            channel.close()
            raise TransportError(
                f"server {self.label!r}: on_channel returned without "
                "opening the accepted channel"
            )

    async def close(self):
        self._server.close()
        await self._server.wait_closed()


async def serve_tcp(on_channel, host="127.0.0.1", port=0, label="server"):
    """Listen on ``host:port`` (0 = ephemeral).  ``on_channel(channel)``
    must call ``channel.open(...)`` before returning."""
    holder = TcpServer(on_channel, label)
    holder._server = await asyncio.get_running_loop().create_server(
        lambda: TcpChannel(label, on_connected=holder._accept),
        host=host, port=port)
    return holder


async def connect_tcp(host, port, on_message, on_close=None, label="client"):
    """Connect to a listener; returns an opened :class:`TcpChannel`."""
    _, channel = await asyncio.get_running_loop().create_connection(
        lambda: TcpChannel(label=label).open(on_message, on_close),
        host, port)
    return channel
