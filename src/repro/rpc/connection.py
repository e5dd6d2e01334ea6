"""The RPC protocol: small exchanges plus windowed bulk transfer.

Client side (:class:`RpcConnection`) and server side (:class:`RpcService`)
of the paper's user-level RPC mechanism.  The operations are generators: a
simulated process drives them with ``yield from`` and receives the result::

    def app(sim, conn):
        reply = yield from conn.call("ping", body_bytes=128)
        data = yield from conn.fetch("get-object", body={"name": "x"})

The server answers a window request with its fragments as one
:class:`~repro.net.packet.Train`, which arrives in runs (two, or one per
fragment on a lossy link).  The client logs every fragment at its own
arrival — ahead of now for a run's later fragments — and counts a run in
one :meth:`~repro.rpc.transfer.WindowedFetch.take`; a window abandoned
mid-train takes back what is logged ahead (:meth:`RpcConnection._retract`).

Every seq comes from the connection's
:class:`~repro.rpc.exchange.ExchangeTable`, which also holds the waiter of
each exchange in flight: a reply to a seq given up on is late (dropped and
counted), one to a seq never issued an :class:`~repro.errors.RpcError`.

Reliability: there is no retransmission machinery.  A fragment lost to an
injected fault leaves its window short and the next window resumes after
what arrived (:mod:`repro.rpc.transfer`); any other lost packet is a
timeout.  The protocol's observable behaviour — what gets logged when — is
what matters for reproducing the paper's estimation agility.
"""

from dataclasses import dataclass

from repro import telemetry
from repro.errors import RpcError, RpcTimeout
from repro.sim.events import AnyOf
from repro.net.packet import HEADER_BYTES, Packet, Train
from repro.rpc.clock import RetrySchedule, SimClock
from repro.rpc.exchange import LATE, UNKNOWN, ExchangeTable
from repro.rpc.logs import RpcLog
from repro.rpc.messages import (
    BulkPush,
    BulkSource,
    CallRequest,
    CallResponse,
    FragmentTrain,
    ServerReply,
    WindowAck,
    WindowRequest,
)
from repro.rpc.transfer import WindowedFetch, fragments
from repro.sim.queues import Semaphore

#: Default window for bulk transfers (paper's protocol window).
DEFAULT_WINDOW_BYTES = 32 * 1024
#: Payload bytes per fragment packet.  Kept small (near-MTU scale) so small
#: control packets interleave with bulk data instead of waiting behind a
#: whole window — at 40 KB/s an 8 KB fragment would head-of-line-block a
#: round-trip response for 200 ms and poison the RTT estimate.
DEFAULT_FRAGMENT_BYTES = 2048

#: Operation every service answers without registration: the heartbeat
#: probe (:mod:`repro.connectivity.probe`).  Zero compute, tiny reply —
#: its only job is proving the path is alive.
PING_OP = "__ping__"
PING_REPLY_BYTES = 16

#: Per-attempt timeout for retried operations, seconds.  Long enough to
#: ride out one LOW_BANDWIDTH window transmission; short enough that a
#: blacked-out link is detected within a couple of seconds.
DEFAULT_RETRY_TIMEOUT = 2.0
#: Retries after the first attempt before giving up.
DEFAULT_RETRY_LIMIT = 5
#: First backoff pause, seconds; doubles per retry up to the cap.
DEFAULT_BACKOFF_SECONDS = 0.5
DEFAULT_BACKOFF_MULTIPLIER = 2.0
DEFAULT_BACKOFF_CAP_SECONDS = 8.0

#: Histogram buckets (seconds) for RPC round trips and fetch windows: from
#: LAN-scale exchanges to retried degraded-mode operations.
RPC_SECONDS_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeout/retry-with-backoff parameters for RPC operations.

    An operation is attempted with ``timeout`` seconds per attempt; each
    :class:`~repro.errors.RpcTimeout` triggers a backoff pause that grows by
    ``multiplier`` up to ``cap`` before the next attempt.  After ``retries``
    failed retries the last timeout propagates to the caller.

    ``deadline`` (seconds, ``None`` = unbounded) is an overall wall-clock
    budget across every attempt and backoff pause: per-attempt timeouts are
    clipped to the remaining budget and no retry starts past it.  Degraded
    service depends on this — a disconnected fetch must fail into the cache
    within a couple of seconds, not exhaust the full backoff schedule.
    """

    timeout: float = DEFAULT_RETRY_TIMEOUT
    retries: int = DEFAULT_RETRY_LIMIT
    backoff: float = DEFAULT_BACKOFF_SECONDS
    multiplier: float = DEFAULT_BACKOFF_MULTIPLIER
    cap: float = DEFAULT_BACKOFF_CAP_SECONDS
    deadline: float = None

    def __post_init__(self):
        if self.timeout <= 0:
            raise RpcError(f"retry timeout must be positive, got {self.timeout!r}")
        if self.retries < 0:
            raise RpcError(f"retries must be >= 0, got {self.retries!r}")
        if self.backoff < 0 or self.cap < self.backoff:
            raise RpcError(
                f"backoff must satisfy 0 <= backoff <= cap, got "
                f"{self.backoff!r}/{self.cap!r}"
            )
        if self.multiplier < 1:
            raise RpcError(f"multiplier must be >= 1, got {self.multiplier!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise RpcError(f"deadline must be positive, got {self.deadline!r}")

    def delays(self):
        """Yield the backoff pause before each retry, in order."""
        delay = self.backoff
        for _ in range(self.retries):
            yield delay
            delay = min(delay * self.multiplier, self.cap)


class RpcService:
    """Server half: operation dispatch, compute modeling, bulk serving.

    Parameters
    ----------
    sim, host, port:
        Where the service listens.
    cpus:
        If given, compute time is serialized through a semaphore with this
        many units (models a server CPU that concurrent requests share).
    """

    def __init__(self, sim, host, port, cpus=None):
        self.sim = sim
        self.host = host
        self.port = port
        self._handlers = {}
        self._bulk_sources = {}
        self._transfers_issued = 0  # transfer ids run 1.._transfers_issued
        self._handlers[PING_OP] = lambda body: ServerReply(
            body={"pong": True}, body_bytes=PING_REPLY_BYTES
        )
        self._cpu = Semaphore(sim, cpus, name=f"{port}.cpu") if cpus else None
        self._jitter_rng = None
        self._jitter_fraction = 0.0
        self._outage_until = None
        self._slow_until = None
        self._slow_factor = 1.0
        host.bind(port, self._on_packet)
        self.requests_served = 0
        self.dropped_during_outage = 0

    def set_outage(self, duration):
        """Silently drop everything arriving in the next ``duration`` seconds.

        Failure injection: models a crashed or partitioned server.  Clients
        see nothing — their recourse is the ``timeout`` parameter of
        :meth:`RpcConnection.call` / ``fetch``.
        """
        if duration <= 0:
            raise RpcError(f"outage duration must be positive, got {duration!r}")
        self._outage_until = self.sim.now + duration

    @property
    def in_outage(self):
        return self._outage_until is not None and self.sim.now < self._outage_until

    def set_slowdown(self, factor, duration):
        """Multiply compute times by ``factor`` for ``duration`` seconds.

        Failure injection: models an overloaded or cold-started server that
        still answers, just slowly.  Clients observe longer round trips
        (their timeout/retry policy decides whether to wait or back off).
        """
        if factor < 1:
            raise RpcError(f"slowdown factor must be >= 1, got {factor!r}")
        if duration <= 0:
            raise RpcError(f"slowdown duration must be positive, got {duration!r}")
        self._slow_until = self.sim.now + duration
        self._slow_factor = factor

    @property
    def in_slowdown(self):
        return self._slow_until is not None and self.sim.now < self._slow_until

    def set_jitter(self, rng, fraction):
        """Perturb compute times by ±``fraction`` using ``rng``.

        Models run-to-run variation in server load; this is where the
        experiments' standard deviations come from.
        """
        if not 0 <= fraction < 1:
            raise RpcError(f"jitter fraction must be in [0, 1), got {fraction!r}")
        self._jitter_rng = rng
        self._jitter_fraction = fraction

    def _jittered(self, seconds):
        if seconds <= 0:
            return seconds
        if self.in_slowdown:
            seconds *= self._slow_factor
        if self._jitter_rng is None:
            return seconds
        spread = self._jitter_fraction
        return seconds * (1.0 + self._jitter_rng.uniform(-spread, spread))

    def _compute(self, seconds):
        """Spend a handler's ``seconds`` of compute, jittered and slowed,
        on the server CPU; returns the time spent."""
        seconds = self._jittered(seconds)
        if seconds > 0:
            if self._cpu is not None:
                yield self._cpu.acquire()
                try:
                    yield self.sim.timeout(seconds)
                finally:
                    self._cpu.release()
            else:
                yield self.sim.timeout(seconds)
        return seconds

    def register(self, op, handler):
        """Register ``handler(body)`` for operation ``op``.

        The handler returns a :class:`ServerReply`, or a generator that
        yields simulation events and returns one (for handlers that must
        wait — e.g. the distillation server fetching from a web server).
        """
        if op in self._handlers:
            raise RpcError(f"service {self.port!r}: op {op!r} already registered")
        self._handlers[op] = handler

    def make_bulk(self, nbytes, meta=None):
        """Create a :class:`BulkSource` clients can fetch from."""
        self._transfers_issued += 1
        source = BulkSource(self._transfers_issued, int(nbytes), meta)
        self._bulk_sources[source.transfer_id] = source
        return source

    # -- packet handling -----------------------------------------------------

    def _on_packet(self, packet):
        if self.in_outage:
            self.dropped_during_outage += 1
            return
        message = packet.payload
        if isinstance(message, CallRequest):
            self.sim.process(self._serve_call(message), name=f"{self.port}.call")
        elif isinstance(message, WindowRequest):
            self._serve_window(message)
        elif isinstance(message, BulkPush):
            self.sim.process(self._serve_push(message), name=f"{self.port}.push")
        else:
            raise RpcError(f"service {self.port!r}: unexpected message {message!r}")

    def _run_handler(self, op, body):
        handler = self._handlers.get(op)
        if handler is None:
            raise RpcError(f"service {self.port!r}: no handler for op {op!r}")
        result = handler(body)
        if hasattr(result, "send"):  # generator-style handler
            result = yield self.sim.process(result)
        if not isinstance(result, ServerReply):
            raise RpcError(
                f"service {self.port!r}: handler for {op!r} returned {result!r}, "
                "expected ServerReply"
            )
        return result

    def _serve_call(self, request):
        self.requests_served += 1
        error = None
        try:
            reply = yield from self._run_handler(request.op, request.body)
        except RpcError:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced at the caller's yield
            error = exc
            reply = ServerReply(body=None, body_bytes=HEADER_BYTES)
        server_seconds = yield from self._compute(reply.compute_seconds)
        bulk_ticket = None
        if reply.bulk is not None:
            bulk_ticket = (reply.bulk.transfer_id, reply.bulk.nbytes, reply.bulk.meta)
        response = CallResponse(
            connection_id=request.connection_id,
            seq=request.seq,
            body=(reply.body, bulk_ticket),
            body_bytes=reply.body_bytes,
            server_seconds=server_seconds,
            error=error,
        )
        self.host.send(
            Packet(
                src=self.host.name,
                dst=_host_of(request.reply_port),
                port=request.reply_port,
                size=HEADER_BYTES + response.body_bytes,
                payload=response,
            )
        )

    def _serve_window(self, request):
        source = self._bulk_sources.get(request.transfer_id)
        if source is not None:
            end = source.nbytes
        elif 0 < request.transfer_id <= self._transfers_issued:
            # Retired: every byte was sent once, but some were lost on the
            # way and the client resumed.  Its window is already clipped to
            # the transfer, so the request's own end is the transfer's.
            end = request.offset + request.window_bytes
        else:
            raise RpcError(
                f"service {self.port!r}: window request for unknown transfer "
                f"{request.transfer_id}"
            )
        window = min(request.window_bytes, end - request.offset)
        if window <= 0:
            raise RpcError(
                f"service {self.port!r}: empty window at offset {request.offset}"
            )
        offsets, nbytes, sizes = [], [], []
        for offset, size, _, last_in_transfer in fragments(
                request.offset, request.offset + window, end,
                request.fragment_bytes):
            offsets.append(offset)
            nbytes.append(size)
            sizes.append(HEADER_BYTES + size)
        self.host.send(
            Train(
                src=self.host.name,
                dst=_host_of(request.reply_port),
                port=request.reply_port,
                sizes=sizes,
                payload=FragmentTrain(
                    connection_id=request.connection_id,
                    seq=request.seq,
                    transfer_id=request.transfer_id,
                    offsets=offsets,
                    nbytes=nbytes,
                    last_in_transfer=last_in_transfer,
                ),
            )
        )
        if source is not None:
            source.consumed = max(source.consumed, request.offset + window)
            if source.consumed >= end:
                del self._bulk_sources[request.transfer_id]

    def _serve_push(self, push):
        if push.last_in_window:
            # Ack the window immediately — the sender's throughput entry must
            # measure transmission, not server compute.
            ack = WindowAck(
                connection_id=push.connection_id,
                seq=push.seq,
                transfer_id=push.transfer_id,
                next_offset=push.offset + push.nbytes,
            )
            self.host.send(
                Packet(
                    src=self.host.name,
                    dst=_host_of(push.reply_port),
                    port=push.reply_port,
                    size=HEADER_BYTES,
                    payload=ack,
                )
            )
        if push.last_in_transfer:
            reply = yield from self._run_handler(push.body[0], push.body[1])
            compute_seconds = yield from self._compute(reply.compute_seconds)
            response = CallResponse(
                connection_id=push.connection_id,
                seq=push.response_seq,
                body=(reply.body, None),
                body_bytes=reply.body_bytes,
                server_seconds=compute_seconds,
            )
            self.host.send(
                Packet(
                    src=self.host.name,
                    dst=_host_of(push.reply_port),
                    port=push.reply_port,
                    size=HEADER_BYTES + response.body_bytes,
                    payload=response,
                )
            )


def _host_of(reply_port):
    """Reply ports are ``host/port`` strings; extract the host."""
    return reply_port.split("/", 1)[0]


class _SimFetch(WindowedFetch):
    """A :class:`WindowedFetch` that is also its window's pending entry:
    ``event`` fires when the window in flight closes (and is what the
    crash drill fails)."""

    __slots__ = ("event",)


class RpcConnection:
    """Client half: one logged endpoint to one service.

    Every distinct (warden, server) pair gets its own connection and hence
    its own :class:`~repro.rpc.logs.RpcLog` — "each distinct endpoint has
    its own log" (paper §6.2.1).
    """

    def __init__(self, sim, network, server_name, server_port, connection_id,
                 window_bytes=DEFAULT_WINDOW_BYTES,
                 fragment_bytes=DEFAULT_FRAGMENT_BYTES,
                 client_host=None):
        if window_bytes <= 0 or fragment_bytes <= 0:
            raise RpcError("window_bytes and fragment_bytes must be positive")
        self.sim = sim
        self.network = network
        #: Clock the retry machinery reads; the seam that lets
        #: :class:`RetryPolicy` arithmetic also run on wall time (the real
        #: transport swaps in a monotonic clock — see :mod:`repro.rpc.clock`).
        self.clock = SimClock(sim)
        # Usually the mobile client; a wired host for server-to-server
        # connections (e.g. the distillation server fetching from the web).
        self.client = client_host or network.client
        self.server_name = server_name
        self.server_port = server_port
        self.connection_id = connection_id
        self.window_bytes = window_bytes
        self.fragment_bytes = fragment_bytes
        self.log = RpcLog(sim, connection_id)
        self.exchanges = ExchangeTable()
        self._ahead = None  # seq of the train logged ahead of now, if any
        self.late_replies = 0
        self.timeouts = 0  # RpcTimeouts raised (any operation)
        self.retries = 0  # attempts re-issued by *_with_retry
        self._port = f"{self.client.name}/rpc:{connection_id}"
        self.client.bind(self._port, self._on_packet)
        self._closed = False

    def __repr__(self):
        return f"<RpcConnection {self.connection_id!r} -> {self.server_name}:{self.server_port}>"

    def close(self):
        """Close the connection.  Further operations raise.

        The client port stays bound — to a sink that just counts — because
        replies may still be in flight (or queued behind a blackout) when a
        connection is torn down mid-run; a straggler must land harmlessly,
        not crash the host with an unbound-port error.
        """
        if not self._closed:
            self._retract(self._ahead)
            self.client.unbind(self._port)
            self.client.bind(self._port, self._on_packet_after_close)
            self._closed = True

    def _on_packet_after_close(self, packet):
        self._late(packet.hi - packet.lo if type(packet) is Train else 1)

    def _late(self, count):
        """Count ``count`` packets that arrived for an abandoned exchange."""
        self.late_replies += count
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("rpc.late_replies", count, connection=self.connection_id)

    def _retract(self, seq):
        """Take back a train of ``seq`` logged ahead of now: its fragments
        still to come never arrive for the log, and count as late."""
        if seq is not None and seq == self._ahead:
            self._ahead = None
            late = self.log.retract()
            if late:
                self._late(late)

    # -- small exchanges -------------------------------------------------------

    def call(self, op, body=None, body_bytes=256, timeout=None):
        """Small-exchange RPC.  Generator; returns the reply body.

        Logs one round-trip entry (elapsed minus server compute).  If the
        reply references bulk data, returns ``(body, bulk_ticket)`` where
        ``bulk_ticket`` is ``(transfer_id, nbytes, meta)`` usable with
        :meth:`fetch_ticket`.

        ``timeout`` (seconds) raises :class:`~repro.errors.RpcTimeout` if
        no reply arrives in time — the recourse against a crashed or
        partitioned server.  There is no retransmission; retries are the
        caller's policy.
        """
        rec = telemetry.RECORDER
        span = None
        if rec.enabled:
            rec.count("rpc.calls", connection=self.connection_id)
            span = rec.begin("rpc.call", connection=self.connection_id, op=op)
        self._check_open()
        event = self.sim.event(name="rpc")
        seq = self.exchanges.open(event)
        request = CallRequest(
            connection_id=self.connection_id,
            seq=seq,
            op=op,
            body=body,
            body_bytes=body_bytes,
            reply_port=self._port,
        )
        started = self.sim.now
        self._send(HEADER_BYTES + body_bytes, request)
        try:
            reply = yield from self._await(event, seq, timeout, f"call {op!r}")
        except RpcTimeout:
            if span is not None:
                rec.end(span, status="timeout")
            raise
        elapsed = self.sim.now - started
        observed = max(elapsed - reply.server_seconds, 1e-6)
        if span is not None:
            rec.observe("rpc.round_trip_seconds", observed,
                        buckets=RPC_SECONDS_BUCKETS,
                        connection=self.connection_id)
            rec.end(span, status="ok", observed=observed)
        self.log.add_round_trip(observed, body_bytes + HEADER_BYTES,
                                reply.body_bytes + HEADER_BYTES)
        self.log.add_delivery(reply.body_bytes)
        if reply.error is not None:
            raise reply.error
        return reply.body  # (body, bulk_ticket)

    def _send(self, size, payload):
        self.client.send(Packet(src=self.client.name, dst=self.server_name,
                                port=self.server_port, size=size,
                                payload=payload))

    def _await(self, event, seq, timeout, what):
        """Wait for ``event``, optionally bounded by ``timeout`` seconds."""
        if timeout is None:
            reply = yield event
            return reply
        deadline = self.sim.timeout(timeout)
        yield AnyOf(self.sim, [event, deadline])
        if not event.triggered:
            # Abandon the exchange: whatever still answers it is late.
            self.exchanges.abandon(seq)
            self._retract(seq)
            self.timeouts += 1
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("rpc.timeouts", connection=self.connection_id)
                rec.event("rpc.timeout", connection=self.connection_id,
                          what=what, timeout=timeout)
            raise RpcTimeout(
                f"{self.connection_id}: {what} timed out after {timeout} s"
            )
        if not event.ok:
            # Failed in the deadline's own instant: the AnyOf fired on the
            # deadline and swallowed this failure, which must still raise.
            raise event.value
        return event.value

    # -- retry-with-backoff ----------------------------------------------------

    def _with_retry(self, attempt, retry):
        """Drive ``attempt(timeout)`` under ``retry``, backing off between timeouts."""
        schedule = RetrySchedule(retry or RetryPolicy(), self.clock)
        while True:
            try:
                result = yield from attempt(schedule.attempt_timeout())
                return result
            except RpcTimeout as timeout:
                delay = schedule.step(timeout, self, self.connection_id)
                if delay > 0:
                    yield self.clock.sleep(delay)

    def call_with_retry(self, op, body=None, body_bytes=256, retry=None):
        """:meth:`call` with timeout/retry-with-backoff (see :class:`RetryPolicy`).

        Generator; returns the reply body.  The recourse against injected
        link blackouts, loss bursts, and server stalls: instead of hanging
        forever (no timeout) or failing on the first drop (bare timeout),
        the caller rides out the fault and resumes when connectivity does.
        """
        result = yield from self._with_retry(
            lambda timeout: self.call(op, body, body_bytes, timeout=timeout),
            retry,
        )
        return result

    def fetch_with_retry(self, op, body=None, body_bytes=256, retry=None):
        """:meth:`fetch` with timeout/retry-with-backoff.

        Generator; returns ``(reply_body, meta, nbytes)``.  A timed-out
        transfer is restarted from scratch (the server issues a fresh bulk
        ticket), so a fault mid-transfer costs the bytes already moved —
        robustness benchmarks measure exactly this degradation.
        """
        result = yield from self._with_retry(
            lambda timeout: self.fetch(op, body, body_bytes, timeout=timeout),
            retry,
        )
        return result

    # -- bulk fetch (receiver-driven) ------------------------------------------

    def fetch(self, op, body=None, body_bytes=256, timeout=None):
        """Call ``op`` and fetch the bulk data its reply references.

        Generator; returns ``(reply_body, meta, nbytes)``.  Logs one
        round-trip entry for the initial exchange and one throughput entry
        per window of the transfer.  ``timeout`` bounds the initial call
        and each window independently.
        """
        reply_body, ticket = yield from self.call(op, body, body_bytes,
                                                  timeout=timeout)
        if ticket is None:
            raise RpcError(f"fetch: op {op!r} reply carries no bulk data")
        transfer_id, nbytes, meta = ticket
        yield from self.fetch_ticket(transfer_id, nbytes, timeout=timeout)
        return reply_body, meta, nbytes

    def fetch_ticket(self, transfer_id, nbytes, timeout=None):
        """Fetch ``nbytes`` of a known bulk source, window by window."""
        self._check_open()
        # One recorder lookup per transfer, not per window: the module
        # attribute cannot change mid-operation (enable/disable happens
        # between runs, never inside one).
        rec = telemetry.RECORDER
        fetch = _SimFetch(nbytes, self.window_bytes)
        while (window := fetch.next_window()) is not None:
            offset, size = window
            fetch.event = self.sim.event(name="window")
            seq = self.exchanges.open(fetch)
            request = WindowRequest(
                connection_id=self.connection_id,
                seq=seq,
                transfer_id=transfer_id,
                offset=offset,
                window_bytes=size,
                fragment_bytes=self.fragment_bytes,
                reply_port=self._port,
            )
            started = self.sim.now
            span = None
            if rec.enabled:
                span = rec.begin("rpc.window", connection=self.connection_id,
                                 offset=offset, window_bytes=size)
            self._send(HEADER_BYTES, request)
            try:
                yield from self._await(fetch.event, seq, timeout,
                                       f"window @{offset}")
            except RpcTimeout:
                if span is not None:
                    rec.end(span, status="timeout")
                raise
            if span is not None:
                rec.observe("rpc.window_seconds", self.sim.now - started,
                            buckets=RPC_SECONDS_BUCKETS,
                            connection=self.connection_id)
                rec.end(span, status="ok", received=fetch.received)
            self.log.add_throughput(started, fetch.received)
        return nbytes

    # -- bulk push (sender-driven) ---------------------------------------------

    def push(self, op, nbytes, body=None, reply_bytes=64):
        """Ship ``nbytes`` to the server, then run ``op`` on it there.

        Generator; returns the handler's reply body.  Logs one throughput
        entry per window ("a sender to transmit that data and receive an
        acknowledgement") — the final window's acknowledgement is the
        operation's response itself.
        """
        self._check_open()
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise RpcError(f"push: nbytes must be positive, got {nbytes}")
        transfer_id = self.exchanges.open()
        response_event = self.sim.event(name="pushresp")
        response_seq = self.exchanges.open(response_event)
        for offset, window, _, _ in fragments(0, nbytes, nbytes,
                                              self.window_bytes):
            started = self.sim.now
            event = self.sim.event(name="push")
            seq = self.exchanges.open(event)
            for at, frag, last_in_window, last_in_transfer in fragments(
                    offset, offset + window, nbytes, self.fragment_bytes):
                push = BulkPush(
                    connection_id=self.connection_id,
                    seq=seq,
                    transfer_id=transfer_id,
                    offset=at,
                    nbytes=frag,
                    last_in_window=last_in_window,
                    last_in_transfer=last_in_transfer,
                    reply_port=self._port,
                    body=(op, body) if last_in_transfer else None,
                    response_seq=response_seq if last_in_transfer else None,
                )
                self._send(HEADER_BYTES + frag, push)
            yield event
            self.log.add_throughput(started, window)
        response = yield response_event
        self.log.add_delivery(response.body_bytes)
        if response.error is not None:
            raise response.error
        return response.body[0]

    # -- receive dispatch --------------------------------------------------------

    def _on_packet(self, packet):
        if type(packet) is Train:
            self._on_run(packet)
            return
        message = packet.payload
        if not isinstance(message, (CallResponse, WindowAck)):
            raise RpcError(f"{self!r}: unexpected message {message!r}")
        waiter = self.exchanges.settle(message.seq)
        if waiter is LATE:
            self._late(1)  # a reply outliving its exchange: dropped, counted
        elif waiter is UNKNOWN:
            raise RpcError(f"{self!r}: reply for unknown seq {message.seq}")
        else:
            waiter.succeed(message)

    def _on_run(self, train):
        """Take the fragments ``[train.lo, train.hi)`` of a window.

        Each is logged at its own arrival, those after now ahead of time
        (the log's readers see them when their time comes), and all are
        counted in one :meth:`WindowedFetch.take`.  Nothing reads a
        window's count before it closes, and an abandoned window's
        fragments still to come are taken back from the log
        (:meth:`_retract`), so this is exactly what taking them one by one
        as they arrive would give.
        """
        message = train.payload
        seq = message.seq
        lo, hi = train.lo, train.hi
        fetch = self.exchanges.get(seq)
        if fetch is LATE:
            self._late(hi - lo)
            return
        if fetch is UNKNOWN:
            raise RpcError(f"{self!r}: fragments for unknown seq {seq}")
        closes = hi == len(train.sizes) and message.last_in_window
        nbytes = message.nbytes
        if hi - lo == 1:
            self._ahead = None
            self.log.add_delivery(nbytes[lo])
        else:
            self._ahead = seq
            self.log.add_deliveries(train.arrivals[lo:hi], nbytes[lo:hi])
        if fetch.take(message.offsets[lo], sum(nbytes[lo:hi]), closes,
                      closes and message.last_in_transfer):
            self.exchanges.settle(seq)
            fetch.event.succeed()

    def _check_open(self):
        if self._closed:
            raise RpcError(f"{self!r} is closed")
