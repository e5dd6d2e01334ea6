"""The broker client: one named connection speaking real RPC over TCP.

A :class:`BrokerClient` owns a :class:`~repro.transport.tcp.TcpChannel`
and layers the broker protocol on top: the ``__hello__`` handshake that
claims a name and learns the registration namespace, awaitable calls with
per-call timeouts and :class:`~repro.rpc.connection.RetryPolicy` retries
(the same :class:`~repro.rpc.clock.RetrySchedule` arithmetic the sim path
uses, on a :class:`~repro.rpc.clock.MonotonicClock`), operation serving
for relayed calls, window-of-tolerance registration, and upcall receipt.

Connection health feeds a
:class:`~repro.connectivity.ConnectivityTracker` on wall-clock time —
call successes and timeouts are the same evidence stream the sim warden
produces, so the connectivity state machine runs unmodified on a real
socket.
"""

import asyncio
import itertools

from repro import telemetry
from repro.connectivity import ConnectivityTracker
from repro.errors import RemoteCallError, RpcTimeout, TransportError
from repro.rpc.clock import MonotonicClock, RetrySchedule, wait_with_deadline
from repro.rpc.connection import PING_OP, RetryPolicy
from repro.rpc.messages import CallRequest, CallResponse
from repro.transport.tcp import connect_tcp

from repro.broker.server import (
    BYE_OP,
    CANCEL_OP,
    HELLO_OP,
    REGISTER_OP,
    REPLY_BODY_BYTES,
    REPORT_OP,
    REQUEST_OP,
    UPCALL_OP,
)

#: Default per-call timeout, seconds.  Generous: localhost calls complete
#: in microseconds; this only bounds a hung or dead broker.
DEFAULT_CALL_TIMEOUT = 10.0


class BrokerClient:
    """One named client connection to a running broker."""

    def __init__(self, host, port, name, clock=None):
        self.host = host
        self.port = port
        self.name = name
        self.clock = clock or MonotonicClock()
        self.namespace = None
        self.heartbeat_seconds = None
        self.channel = None
        self.tracker = ConnectivityTracker(clock=self.clock.now, name=name)
        self._seq = itertools.count(1)
        self._pending = {}  # seq -> Future for an in-flight call
        self._local_ops = {}  # full op name -> handler(body) -> reply body
        self._upcall_handler = None
        self._stream_handler = None  # receives non-call frames (bulk)
        self.calls = 0
        self.timeouts = 0
        self.late_replies = 0
        self.upcalls_received = []
        self.closed = False

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return f"<BrokerClient {self.name} {self.host}:{self.port} {state}>"

    # -- lifecycle ----------------------------------------------------------

    async def connect(self, timeout=DEFAULT_CALL_TIMEOUT):
        """Open the socket and perform the ``__hello__`` handshake."""
        self.channel = await connect_tcp(
            self.host, self.port, self._on_message,
            on_close=self._on_close, label=f"client:{self.name}",
        )
        reply = await self.call(HELLO_OP, {"client": self.name},
                                timeout=timeout)
        self.namespace = reply["namespace"]
        self.heartbeat_seconds = reply["heartbeat_seconds"]
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("broker_client.connected", client=self.name)
        return self

    async def close(self, polite=True):
        """Tear down; ``polite`` sends ``__bye__`` first (best effort)."""
        if self.closed:
            return
        if polite and self.channel is not None and not self.channel.closed:
            try:
                await self.call(BYE_OP, timeout=1.0)
            except (RpcTimeout, TransportError, RemoteCallError):
                pass  # the goodbye is a courtesy; the close is not
        self.closed = True
        if self.channel is not None:
            self.channel.close()
            await self.channel.wait_closed()

    def _on_close(self, exc):
        self.closed = True
        error = RemoteCallError(
            "TransportError",
            f"{self.name}: connection lost"
            if exc is None else f"{self.name}: connection lost ({exc})",
        )
        # Fail every in-flight call; their awaiting coroutines see the error.
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # -- calls --------------------------------------------------------------

    async def call(self, op, body=None, body_bytes=256,
                   timeout=DEFAULT_CALL_TIMEOUT, probe=False):
        """One request/response exchange; raises
        :class:`~repro.errors.RpcTimeout` after ``timeout`` seconds and
        :class:`~repro.errors.RemoteCallError` on a remote fault."""
        if self.channel is None or self.channel.closed:
            raise TransportError(f"{self.name}: not connected")
        seq = next(self._seq)
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        self.calls += 1
        rec = telemetry.RECORDER
        span = None
        if rec.enabled:
            rec.count("broker_client.calls", op=op)
            span = rec.begin("broker_client.call", op=op, client=self.name)
        self.channel.send(CallRequest(
            connection_id=self.name, seq=seq, op=op,
            body=body, body_bytes=body_bytes, reply_port="",
        ))
        try:
            response = await wait_with_deadline(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(seq, None)
            self.timeouts += 1
            self.tracker.note_failure(probe=probe)
            if rec.enabled:
                rec.count("broker_client.timeouts", op=op)
                rec.end(span, status="timeout")
            raise RpcTimeout(
                f"{self.name}: call {op!r} timed out after {timeout} s"
            ) from None
        except RemoteCallError:
            # Connection death surfaced through _on_close.
            if span is not None:
                rec.end(span, status="error")
            raise
        if span is not None:
            rec.end(span, status="error" if response.error else "ok")
        if response.error is not None:
            raise response.error
        self.tracker.note_success(probe=probe)
        return response.body

    async def call_with_retry(self, op, body=None, body_bytes=256,
                              retry=None):
        """Like :meth:`call`, retrying timeouts under a
        :class:`~repro.rpc.connection.RetryPolicy` with backoff pauses —
        the wall-clock twin of ``RpcConnection.call_with_retry``."""
        retry = retry or RetryPolicy()
        schedule = RetrySchedule(retry, self.clock)
        while True:
            try:
                return await self.call(op, body, body_bytes,
                                       timeout=schedule.attempt_timeout())
            except RpcTimeout:
                delay = schedule.next_delay()
                if delay is None:
                    raise
                if schedule.past_deadline(delay):
                    raise RpcTimeout(
                        f"{self.name}: retry deadline ({retry.deadline} s) "
                        f"exhausted for {op!r}"
                    ) from None
                if delay > 0:
                    await self.clock.sleep(delay)

    async def ping(self, timeout=DEFAULT_CALL_TIMEOUT, probe=False):
        """Round-trip probe; returns the latency in seconds.  ``probe``
        marks the outcome as heartbeat evidence on the tracker."""
        started = self.clock.now()
        await self.call(PING_OP, timeout=timeout, probe=probe)
        return self.clock.now() - started

    # -- the broker protocol -------------------------------------------------

    async def register_op(self, suffix, handler):
        """Serve ``<namespace>/<suffix>`` for calls relayed by the broker.
        ``handler(body)`` runs synchronously and returns the reply body."""
        op = f"{self.namespace}/{suffix}"
        await self.call(REGISTER_OP, {"op": op})
        self._local_ops[op] = handler
        return op

    async def request(self, lower, upper, resource="bandwidth"):
        """Register a window of tolerance; returns the request id."""
        reply = await self.call(REQUEST_OP, {
            "resource": resource, "lower": lower, "upper": upper,
        })
        return reply["request_id"]

    async def cancel(self, request_id):
        await self.call(CANCEL_OP, {"request_id": request_id})

    async def report(self, level, resource="bandwidth"):
        """Report a resource level; returns the number of upcalls the
        broker pushed in response."""
        reply = await self.call(REPORT_OP,
                                {"resource": resource, "level": level})
        return reply["upcalls"]

    def on_upcall(self, handler):
        """Install ``handler(body)`` for window-violation upcalls."""
        self._upcall_handler = handler

    def on_stream(self, handler):
        """Install ``handler(message)`` for non-call frames (bulk
        :class:`~repro.rpc.messages.Fragment` streams and the like).
        Without one, such frames are ignored — the base request/response
        protocol never produces them."""
        self._stream_handler = handler

    # -- inbound ------------------------------------------------------------

    def _on_message(self, message):
        if isinstance(message, CallResponse):
            future = self._pending.pop(message.seq, None)
            if future is None or future.done():
                self.late_replies += 1  # timed out locally; reply wasted
                return
            future.set_result(message)
        elif isinstance(message, CallRequest):
            self._serve(message)
        elif self._stream_handler is not None:
            # Bulk-transfer frames (Fragment and friends); the wire layer
            # already guarantees the message decodes to a known type.
            self._stream_handler(message)

    def _serve(self, request):
        rec = telemetry.RECORDER
        if request.op == UPCALL_OP:
            self.upcalls_received.append(request.body)
            if rec.enabled:
                rec.count("broker_client.upcalls", client=self.name)
            if self._upcall_handler is not None:
                self._upcall_handler(request.body)
            self._reply(request, body={"ack": True})
            return
        handler = self._local_ops.get(request.op)
        if handler is None:
            self._reply(request, error=RemoteCallError(
                "BrokerError",
                f"{self.name} does not serve {request.op!r}"))
            return
        if rec.enabled:
            rec.count("broker_client.served", op=request.op)
        started = self.clock.now()
        try:
            body = handler(request.body)
        except Exception as exc:  # noqa: BLE001 - handler faults go back to the caller
            self._reply(request, error=RemoteCallError(
                type(exc).__name__, str(exc)))
            return
        self._reply(request, body=body,
                    server_seconds=self.clock.now() - started)

    def _reply(self, request, body=None, error=None, server_seconds=0.0):
        if self.channel is None or self.channel.closed:
            return
        self.channel.send(CallResponse(
            connection_id=request.connection_id, seq=request.seq,
            body=body, body_bytes=REPLY_BODY_BYTES,
            server_seconds=server_seconds, error=error,
        ))
