"""Exception hierarchy shared across the reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """A misuse of the simulation kernel (e.g. rescheduling a fired event)."""


class TelemetryError(ReproError):
    """A misuse of the telemetry subsystem (e.g. re-registering a metric
    under a different instrument kind, or ending an unknown span)."""


class ProcessInterrupt(ReproError):
    """Raised inside a simulated process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.Process.interrupt`.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class NetworkError(ReproError):
    """Base class for simulated network failures."""


class LinkDown(NetworkError):
    """A packet was offered to a link whose bandwidth is currently zero."""


class FaultError(NetworkError):
    """A fault-injection plan is malformed or cannot be armed."""


class RpcError(ReproError):
    """Base class for simulated RPC failures."""


class RpcTimeout(RpcError):
    """An RPC exchange exceeded its timeout without completing."""


class OdysseyError(ReproError):
    """Base class for errors returned by the Odyssey API."""


class ToleranceError(OdysseyError):
    """A ``request`` call found the resource outside the requested window.

    Mirrors the paper's API: the error carries the currently available level
    so the application can immediately pick a new fidelity and re-request.
    """

    def __init__(self, resource_id, available):
        super().__init__(f"resource {resource_id!r} outside window; available={available}")
        self.resource_id = resource_id
        self.available = available


class NegotiationError(OdysseyError):
    """A fidelity ladder ran out of rungs to ask for: re-anchoring on the
    reported availability would request a rung already refused."""


class Disconnected(OdysseyError):
    """A fetch could not be served while its connection is disconnected.

    Raised by degraded-service mode when the requested object is not in the
    warden's cache (or its cached copy is older than the warden's staleness
    bound).  Carries the cache ``key`` and the ``age`` of the too-stale copy
    (``None`` for a plain miss) so applications can distinguish the cases.
    """

    def __init__(self, message, key=None, age=None):
        super().__init__(message)
        self.key = key
        self.age = age


class DeferredLogFull(OdysseyError):
    """A mutating operation could not be queued: the deferred-op log is at
    capacity.  The application must drop the operation or retry later."""


class NoSuchObject(OdysseyError):
    """An Odyssey path did not resolve to any warden-managed object."""


class NoSuchOperation(OdysseyError):
    """A ``tsop`` opcode is not supported by the object's warden."""


class BadDescriptor(OdysseyError):
    """A resource descriptor is malformed (unknown resource, bad bounds)."""


class RequestNotFound(OdysseyError):
    """``cancel`` named a request identifier that is not registered."""


class TransportError(ReproError):
    """Base class for real-transport (socket/broker) failures."""


class WireError(TransportError):
    """A message could not be encoded to or decoded from the wire format
    (unsupported value type, unknown message kind, malformed payload)."""


class FrameError(WireError):
    """A wire frame is unusable: bad magic, unsupported version, oversize
    or truncated length, or a checksum mismatch.  The connection that
    produced it cannot be resynchronized and must be closed."""


class BrokerError(TransportError):
    """A broker protocol violation (bad handshake, namespace breach,
    duplicate client name, or an operation on a dead session)."""


class RemoteCallError(TransportError):
    """An error raised by a remote handler, reconstructed from the wire.

    The original exception type cannot cross the wire; ``kind`` carries its
    class name and ``message`` its text.  Compares by value so round-tripped
    responses stay equal to what was sent.
    """

    def __init__(self, kind, message):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message

    def __eq__(self, other):
        return (isinstance(other, RemoteCallError)
                and self.kind == other.kind and self.message == other.message)

    def __hash__(self):
        return hash((self.kind, self.message))


class ParallelError(ReproError):
    """A trial unit could not be scheduled, executed, or cached."""


class BenchmarkError(ReproError):
    """A benchmark baseline document or run report is malformed or missing."""
