"""The broker: one asyncio process multiplexing many RPC clients.

The deployable face of the viceroy/warden architecture (pyshv-lineage
design; docs/architecture.md §15).  One broker process listens on a TCP
port and, per connected client:

- **handshake** — the first operation must be ``__hello__`` carrying a
  unique client name; the broker answers with the client's *registration
  namespace* (``clients/<name>``) and its heartbeat budget;
- **calls** — ``CallRequest`` frames dispatch to broker-local handlers
  (``echo``, ``__ping__``, …) or relay to the client that registered the
  named operation, and the response is routed back to the caller;
- **namespaces** — a client may only register operations under its own
  namespace prefix; registrations elsewhere are rejected;
- **upcalls** — clients register windows of tolerance on named resources
  (``__request__``) in a :class:`~repro.core.windows.WindowRegistry`; when
  a reported level leaves a window the broker drops it (one-shot, like the
  viceroy) and pushes an ``__upcall__`` to the *owning* connection, which
  acknowledges it;
- **liveness** — every frame refreshes the session's last-seen stamp; a
  reaper task tears down sessions silent past the heartbeat budget, and a
  socket death tears down immediately.  Teardown cancels the client's
  registrations and operations and fails its in-flight relayed calls back
  to their callers.
"""

import asyncio
import itertools
import math

from repro import telemetry
from repro.core.windows import WindowRegistry
from repro.errors import BrokerError, RemoteCallError
from repro.rpc.clock import MonotonicClock
from repro.rpc.connection import PING_OP
from repro.rpc.messages import CallRequest, CallResponse
from repro.transport.tcp import serve_tcp

#: Reserved operations (clients cannot register these).
HELLO_OP = "__hello__"
REGISTER_OP = "__register__"
REQUEST_OP = "__request__"
CANCEL_OP = "__cancel__"
REPORT_OP = "__report__"
BYE_OP = "__bye__"
#: Broker-to-client push notifying a violated window of tolerance.
UPCALL_OP = "__upcall__"

#: Prefix of every client's registration namespace.
NAMESPACE_PREFIX = "clients"

#: Seconds of silence before the reaper declares a session dead.  Clients
#: learn this in the hello reply and size their heartbeat interval off it.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Modeled reply size for broker-originated responses, bytes.
REPLY_BODY_BYTES = 64


class _Session:
    """Per-connection broker state."""

    __slots__ = ("channel", "name", "namespace", "ops", "pending_relays",
                 "pending_upcalls", "last_seen", "calls", "closed")

    def __init__(self, channel, now):
        self.channel = channel
        self.name = None  # set by hello
        self.namespace = None
        self.ops = set()  # operations this client registered
        self.pending_relays = {}  # broker seq -> (caller, caller CallRequest)
        self.pending_upcalls = {}  # broker seq -> request id
        self.last_seen = now
        self.calls = 0
        self.closed = False

    def __repr__(self):
        return f"<Session {self.name or '?'} calls={self.calls}>"


class Broker:
    """Accepts many clients; routes calls, relays, and upcalls."""

    def __init__(self, host="127.0.0.1", port=0,
                 heartbeat_timeout=DEFAULT_HEARTBEAT_TIMEOUT, clock=None):
        if heartbeat_timeout <= 0:
            raise BrokerError(f"heartbeat timeout must be positive, "
                              f"got {heartbeat_timeout!r}")
        self._host = host
        self._port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.clock = clock or MonotonicClock()
        self._server = None
        self._reaper = None
        self._handlers = {}
        self._sessions = []  # every live session, named or not
        self._named = {}  # client name -> session
        self._client_ops = {}  # registered op -> owning session
        self._registry = WindowRegistry()  # owners are sessions
        self._levels = {}  # resource -> last reported level
        self._relay_seq = itertools.count(1)
        # Counters (surfaced by `repro serve` and the loadtest report).
        self.connections_accepted = 0
        self.connections_closed = 0
        self.sessions_expired = 0
        self.calls_served = 0
        self.calls_relayed = 0
        self.upcalls_sent = 0
        self.upcalls_acked = 0
        self.errors_returned = 0
        self.namespace_rejections = 0
        self.register(PING_OP, lambda body: {"pong": True})
        self.register("echo", lambda body: body)

    # -- lifecycle ----------------------------------------------------------

    async def start(self):
        """Bind the listening socket and start the heartbeat reaper."""
        self._server = await serve_tcp(self._accept, host=self._host,
                                       port=self._port, label="broker")
        interval = max(self.heartbeat_timeout / 4.0, 0.05)
        self._reaper = asyncio.ensure_future(self._reap_loop(interval))
        return self

    @property
    def address(self):
        """``(host, port)`` actually bound (resolves an ephemeral port)."""
        return self._server.host, self._server.port

    async def close(self):
        """Tear down every session and stop listening."""
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        for session in list(self._sessions):
            self._teardown(session, reason="broker shutdown")
            session.channel.close()
        if self._server is not None:
            await self._server.close()
            self._server = None

    def describe(self):
        """Counter snapshot for status output and the loadtest report."""
        return {
            "clients": len(self._named),
            "connections_accepted": self.connections_accepted,
            "connections_closed": self.connections_closed,
            "sessions_expired": self.sessions_expired,
            "calls_served": self.calls_served,
            "calls_relayed": self.calls_relayed,
            "upcalls_sent": self.upcalls_sent,
            "upcalls_acked": self.upcalls_acked,
            "errors_returned": self.errors_returned,
            "namespace_rejections": self.namespace_rejections,
            "registrations": len(self._registry),
            "client_ops": len(self._client_ops),
        }

    def register(self, op, handler):
        """Register a broker-local ``handler(body) -> reply_body``."""
        if op in self._handlers:
            raise BrokerError(f"broker op {op!r} already registered")
        self._handlers[op] = handler

    def _adopt(self, session):
        """Hook: ``session`` just claimed a name in :meth:`_hello`.  The
        base broker needs no per-client state beyond the session itself;
        the live broker adopts the client into its estimation tables."""

    def _abandon(self, session):
        """Hook: ``session`` is being torn down (name may be ``None`` if
        it never completed the handshake).  Runs before the registration
        and relay cleanup so overrides still see the session's state."""

    # -- accepting ----------------------------------------------------------

    def _accept(self, channel):
        self.connections_accepted += 1
        session = _Session(channel, self.clock.now())
        self._sessions.append(session)
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("broker.connections")
        channel.open(
            lambda message: self._on_message(session, message),
            lambda exc: self._on_channel_closed(session, exc),
        )

    def _on_channel_closed(self, session, exc):
        if not session.closed:
            self._teardown(session, reason="socket closed"
                           if exc is None else f"socket error: {exc}")

    async def _reap_loop(self, interval):
        while True:
            await self.clock.sleep(interval)
            deadline = self.clock.now() - self.heartbeat_timeout
            for session in list(self._sessions):
                if session.last_seen < deadline:
                    self.sessions_expired += 1
                    rec = telemetry.RECORDER
                    if rec.enabled:
                        rec.count("broker.sessions_expired")
                    self._teardown(session, reason="heartbeat expired")
                    session.channel.close()

    def _teardown(self, session, reason):
        """Remove every trace of a session; fail its in-flight relays."""
        if session.closed:
            return
        session.closed = True
        self.connections_closed += 1
        self._abandon(session)
        if session in self._sessions:
            self._sessions.remove(session)
        if session.name is not None and \
                self._named.get(session.name) is session:
            del self._named[session.name]
        for op in session.ops:
            self._client_ops.pop(op, None)
        self._registry.drop_owner(session)
        for caller, request in session.pending_relays.values():
            self._respond(caller, request, error=RemoteCallError(
                "BrokerError", f"operation owner disconnected ({reason})"))
        session.pending_relays.clear()
        session.pending_upcalls.clear()
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("broker.teardowns")
            rec.event("broker.teardown", client=session.name, reason=reason)

    # -- dispatch -----------------------------------------------------------

    def _on_message(self, session, message):
        session.last_seen = self.clock.now()
        if isinstance(message, CallRequest):
            self._on_call(session, message)
        elif isinstance(message, CallResponse):
            self._on_response(session, message)
        else:
            self._on_stream(session, message)

    def _on_stream(self, session, message):
        """Non-call frame from a peer.  The base broker speaks only the
        request/response protocol, so this is a violation; subclasses that
        stream (the live broker's bulk transfer) override it."""
        self._teardown(session, reason=f"unexpected frame "
                                       f"{type(message).__name__}")
        session.channel.close()

    def _respond(self, session, request, body=None, error=None,
                 server_seconds=0.0):
        if session.closed:
            return
        if error is not None:
            self.errors_returned += 1
        session.channel.send(CallResponse(
            connection_id=request.connection_id, seq=request.seq,
            body=body, body_bytes=REPLY_BODY_BYTES,
            server_seconds=server_seconds, error=error,
        ))

    def _on_call(self, session, request):
        session.calls += 1
        self.calls_served += 1
        rec = telemetry.RECORDER
        span = None
        if rec.enabled:
            rec.count("broker.calls", op=request.op)
            span = rec.begin("broker.call", op=request.op,
                             client=session.name)
        try:
            self._dispatch_call(session, request)
        except BrokerError as exc:
            self._respond(session, request,
                          error=RemoteCallError("BrokerError", str(exc)))
            if span is not None:
                rec.end(span, status="error")
            return
        if span is not None:
            rec.end(span, status="ok")

    def _dispatch_call(self, session, request):
        op = request.op
        if op == HELLO_OP:
            return self._hello(session, request)
        if op == BYE_OP:
            self._respond(session, request, body={"bye": True})
            self._teardown(session, reason="bye")
            session.channel.close()
            return
        # The ping probe works pre-handshake: `repro connect` uses it to
        # test reachability without claiming a name.
        if session.name is None and op != PING_OP:
            raise BrokerError(f"operation {op!r} before {HELLO_OP}")
        if op == REGISTER_OP:
            return self._register_client_op(session, request)
        if op == REQUEST_OP:
            return self._request(session, request)
        if op == CANCEL_OP:
            return self._cancel(session, request)
        if op == REPORT_OP:
            return self._report(session, request)
        owner = self._client_ops.get(op)
        if owner is not None:
            return self._relay(session, request, owner)
        handler = self._handlers.get(op)
        if handler is None:
            raise BrokerError(f"no handler for operation {op!r}")
        started = self.clock.now()
        try:
            body = handler(request.body)
        except Exception as exc:  # noqa: BLE001 - handler faults go back to the caller
            self._respond(session, request, error=RemoteCallError(
                type(exc).__name__, str(exc)))
            return
        self._respond(session, request, body=body,
                      server_seconds=self.clock.now() - started)

    # -- handshake and registration ------------------------------------------

    def _hello(self, session, request):
        body = request.body or {}
        name = body.get("client") if isinstance(body, dict) else None
        if not name or not isinstance(name, str):
            raise BrokerError(f"{HELLO_OP} requires a 'client' name")
        if "/" in name:
            raise BrokerError(f"client name {name!r} may not contain '/'")
        if name in self._named:
            raise BrokerError(f"client name {name!r} already connected")
        if session.name is not None:
            raise BrokerError(f"session already registered as "
                              f"{session.name!r}")
        session.name = name
        session.namespace = f"{NAMESPACE_PREFIX}/{name}"
        self._named[name] = session
        self._adopt(session)
        self._respond(session, request, body={
            "welcome": True,
            "namespace": session.namespace,
            "heartbeat_seconds": self.heartbeat_timeout,
        })

    def _register_client_op(self, session, request):
        body = request.body or {}
        op = body.get("op") if isinstance(body, dict) else None
        if not op or not isinstance(op, str):
            raise BrokerError(f"{REGISTER_OP} requires an 'op' name")
        if not op.startswith(session.namespace + "/"):
            self.namespace_rejections += 1
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("broker.namespace_rejections")
            raise BrokerError(
                f"operation {op!r} is outside your namespace "
                f"{session.namespace!r}"
            )
        if op in self._client_ops:
            raise BrokerError(f"operation {op!r} already registered")
        self._client_ops[op] = session
        session.ops.add(op)
        self._respond(session, request, body={"registered": op})

    # -- windows of tolerance -------------------------------------------------

    def _request(self, session, request):
        resource, lower, upper = _window_body(
            request, "numeric lower/upper bounds", "lower", "upper")
        if lower > upper:
            raise BrokerError(f"window [{lower}, {upper}] is inverted")
        level = self._level_for(session, resource)
        request_id = None
        if level is None or lower <= level <= upper:
            request_id = self._registry.register(resource, session,
                                                lower, upper)
        self._answer_request(session, request, resource, level, request_id)

    def _level_for(self, session, resource):
        """Hook: the level a new window is checked against (None = none
        known yet): here the last one reported for ``resource``."""
        return self._levels.get(resource)

    def _answer_request(self, session, request, resource, level, request_id):
        """Hook: reply to a window request; ``request_id`` is None when
        ``level`` lay outside the window and nothing was registered."""
        if request_id is None:
            # Mirrors the viceroy's ToleranceError: the caller learns the
            # available level and re-registers around a fitting fidelity.
            raise BrokerError(f"resource {resource!r} outside window; "
                              f"available={level}")
        self._respond(session, request, body={"request_id": request_id})

    def _cancel(self, session, request):
        body = request.body or {}
        request_id = body.get("request_id") if isinstance(body, dict) else None
        # ``type``, not isinstance: a bool would look up request 0 or 1.
        entry = self._registry.get(request_id) if type(request_id) is int else None
        if entry is None or entry.owner is not session:
            raise BrokerError(f"no registered request {request_id!r}")
        self._registry.cancel(request_id)
        self._respond(session, request, body={"cancelled": request_id})

    def _report(self, session, request):
        resource, level = _window_body(request, "a numeric 'level'", "level")
        self._levels[resource] = level
        upcalls = self._recheck(resource, lambda owner: level)
        self._respond(session, request,
                      body={"resource": resource, "level": level,
                            "upcalls": upcalls})

    def _recheck(self, resource, level_of):
        """Drop each window on ``resource`` that ``level_of(session)``
        violates and upcall its owner; returns how many were violated."""
        violated = self._registry.observe(resource, level_of)
        for entry, level in violated:
            self._push_upcall(entry, level)
        return len(violated)

    def _push_upcall(self, entry, level):
        owner = entry.owner
        if owner.closed:
            return
        seq = next(self._relay_seq)
        owner.pending_upcalls[seq] = entry.request_id
        self.upcalls_sent += 1
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("broker.upcalls", resource=entry.resource)
        owner.channel.send(CallRequest(
            connection_id="broker", seq=seq, op=UPCALL_OP,
            body={"request_id": entry.request_id,
                  "resource": entry.resource, "level": level},
            body_bytes=REPLY_BODY_BYTES, reply_port="",
        ))

    # -- relayed calls and acks -----------------------------------------------

    def _relay(self, session, request, owner):
        seq = next(self._relay_seq)
        owner.pending_relays[seq] = (session, request)
        self.calls_relayed += 1
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("broker.relays", op=request.op)
        owner.channel.send(CallRequest(
            connection_id="broker", seq=seq, op=request.op,
            body=request.body, body_bytes=request.body_bytes, reply_port="",
        ))

    def _on_response(self, session, response):
        relay = session.pending_relays.pop(response.seq, None)
        if relay is not None:
            caller, request = relay
            self._respond(caller, request, body=response.body,
                          error=response.error,
                          server_seconds=response.server_seconds)
            return
        if session.pending_upcalls.pop(response.seq, None) is not None:
            self.upcalls_acked += 1
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("broker.upcall_acks")
            return
        # A response to nothing we asked: stale after a teardown; ignore.


def _window_body(request, wants, *keys):
    """``(resource, *numbers)`` from a window body.  NaN is refused: no level
    satisfies a NaN bound, and a NaN level rejects every later window."""
    body = request.body or {}
    try:
        resource = body.get("resource", "bandwidth")
        numbers = [float(body[key]) for key in keys]
    except (AttributeError, TypeError, KeyError, ValueError) as exc:
        raise BrokerError(f"{request.op} requires {wants}") from exc
    if any(math.isnan(number) for number in numbers):
        raise BrokerError(f"{request.op} requires {wants}, not NaN")
    if not isinstance(resource, str):
        raise BrokerError(f"{request.op} requires a string 'resource', "
                          f"got {resource!r}")
    return (resource, *numbers)
