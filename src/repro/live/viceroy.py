"""The live viceroy: the paper's resource arbiter on wall-clock time.

Two pieces:

- :class:`LiveViceroy` — the estimation and window-of-tolerance engine.
  It is deliberately thin: per-client :class:`~repro.rpc.logs.RpcLog`
  observation logs feed the *unmodified*
  :class:`~repro.estimation.share.ClientShares` — the same Eq. 1/2
  smoothing, the same fair-share + competed split, the same rise-capped
  round trip — with one substitution: ``sim.now`` is a
  :class:`~repro.rpc.clock.MonotonicClock` behind a :class:`WallSim`
  shim.  Every estimation constant and code path that the seeded
  experiments validated runs verbatim here.

- :class:`LiveBroker` — a :class:`~repro.broker.Broker` subclass that
  serves the viceroy RPC surface over TCP.  ``__report__`` grows
  estimation kinds (``round_trip`` / ``delivery`` / ``throughput``
  samples, exactly the entries the sim RPC protocol appends as a side
  effect of traffic), and the bulk plane's one-way delivery receipts
  feed the same path; ``__request__`` windows on the ``bandwidth``
  resource are checked against the *owning client's* estimated
  availability instead of a globally reported level; violations ride the
  broker's existing one-shot ``__upcall__`` push.  Plain ``level``
  reports and non-bandwidth resources keep the base broker's semantics,
  so every existing client (the loadtest included) runs unchanged
  against a live broker.

The bulk-transfer half of the live stack (``__open__`` +
``WindowRequest``/``Fragment`` streaming through the synthetic
:class:`~repro.live.throttle.Throttle`) lives in
:mod:`repro.live.bulk` and is mixed into :class:`LiveBroker` here.
"""

from repro import telemetry
from repro.broker.server import Broker, _Registration
from repro.errors import BrokerError
from repro.estimation.share import ClientShares
from repro.live.bulk import BulkServerMixin
from repro.rpc.clock import MonotonicClock
from repro.rpc.logs import RpcLog

#: The one resource the live viceroy estimates (per client).  Windows on
#: other resources fall back to the broker's reported-level semantics.
BANDWIDTH_RESOURCE = "bandwidth"

#: Modeled wire sizes for reported round trips (the live client reports
#: elapsed seconds; the log entry's byte fields only feed diagnostics).
REPORTED_CALL_BYTES = 256


class WallSim:
    """The narrowest possible ``sim`` stand-in: a ``now`` attribute.

    :class:`~repro.rpc.logs.RpcLog` and the estimators read exactly one
    thing from the simulator — the current time.  Backing that read with
    a monotonic clock is the entire sim-vs-live seam on the estimation
    path; everything downstream of ``.now`` is shared code.
    """

    __slots__ = ("clock",)

    def __init__(self, clock):
        self.clock = clock

    @property
    def now(self):
        return self.clock.now()


class LiveViceroy:
    """Per-client bandwidth estimation and availability on wall time."""

    def __init__(self, clock=None):
        self.clock = clock or MonotonicClock()
        self.wall_sim = WallSim(self.clock)
        self.shares = ClientShares(self.wall_sim)
        self._logs = {}  # client name -> RpcLog
        self.reports_absorbed = 0

    @property
    def clients(self):
        """Names of adopted clients."""
        return list(self._logs)

    def adopt(self, name):
        """Begin estimating for a connected client."""
        if name in self._logs:
            raise BrokerError(f"client {name!r} already adopted")
        log = RpcLog(self.wall_sim, name)
        self._logs[name] = log
        self.shares.register(log)
        # ClientShares *is* a log observer (on_round_trip/on_throughput);
        # the sim viceroy subscribes it per connection, and so do we.
        log.subscribe(self.shares)

    def abandon(self, name):
        """Forget a departed client's log and estimator state."""
        log = self._logs.pop(name, None)
        if log is not None:
            log.unsubscribe(self.shares)
            self.shares.unregister(name)

    # -- the __report__ estimation feed --------------------------------------

    def absorb(self, name, body):
        """One estimation sample from ``name``; returns its availability.

        Sample kinds mirror the entries the sim RPC protocol logs:

        - ``{"kind": "round_trip", "seconds": r}`` — one small exchange's
          elapsed time (request out to first byte back), the R of Eq. 2;
        - ``{"kind": "delivery", "nbytes": n}`` — payload bytes that just
          arrived (one bulk fragment), the aggregate-capacity raw signal;
        - ``{"kind": "throughput", "seconds": t, "nbytes": n}`` — one
          completed bulk window: n bytes over t seconds, the W/T of Eq. 2.
        """
        log = self._logs.get(name)
        if log is None:
            raise BrokerError(f"no adopted client {name!r}")
        kind = body.get("kind")
        try:
            if kind == "round_trip":
                log.add_round_trip(float(body["seconds"]),
                                   REPORTED_CALL_BYTES, REPORTED_CALL_BYTES)
            elif kind == "delivery":
                log.add_delivery(int(body["nbytes"]))
            elif kind == "throughput":
                seconds = float(body["seconds"])
                if seconds <= 0:
                    raise BrokerError(
                        f"throughput sample needs positive seconds, "
                        f"got {seconds!r}")
                # The log computes T as now - started; the client measured
                # T directly, so anchor the window back from its arrival.
                log.add_throughput(self.wall_sim.now - seconds,
                                   int(body["nbytes"]))
            else:
                raise BrokerError(f"unknown report kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise BrokerError(f"malformed {kind!r} report: {exc}") from exc
        self.reports_absorbed += 1
        return self.availability(name)

    # -- queries --------------------------------------------------------------

    def availability(self, name):
        """Bandwidth likely available to ``name`` (bytes/s, None before
        any throughput sample) — the ClientShares split, unmodified."""
        if name not in self._logs:
            return None
        return self.shares.availability(name)

    def total(self):
        """The smoothed total-capacity estimate (None before data)."""
        return self.shares.total

    def describe(self):
        """Availability snapshot keyed by client (diagnostics)."""
        return {
            "total": self.total(),
            "clients": {name: self.availability(name)
                        for name in self._logs},
            "reports_absorbed": self.reports_absorbed,
        }


class LiveBroker(BulkServerMixin, Broker):
    """A broker whose viceroy surface runs on estimated availability.

    Everything the base :class:`~repro.broker.Broker` does — handshake,
    namespaces, relays, heartbeat reaping, socket-death teardown — is
    inherited untouched.  This subclass adds:

    - a :class:`LiveViceroy` fed by ``__report__`` estimation samples
      and bulk delivery receipts;
    - ``bandwidth`` windows checked per owning client against estimated
      availability (registration-time rejection carries the available
      level, and every estimation sample rechecks all bandwidth windows);
    - the bulk-transfer plane (``__open__`` plus ``WindowRequest`` →
      ``Fragment`` streaming with ``drain`` backpressure, shaped by a
      :class:`~repro.live.throttle.Throttle`).
    """

    def __init__(self, host="127.0.0.1", port=0, throttle=None, **kwargs):
        super().__init__(host=host, port=port, **kwargs)
        self.viceroy = LiveViceroy(clock=self.clock)
        self.throttle = throttle
        self._init_bulk()

    # -- session lifecycle hooks ----------------------------------------------

    def _adopt(self, session):
        self.viceroy.adopt(session.name)

    def _abandon(self, session):
        self._abort_session_transfers(session)
        if session.name is not None:
            self.viceroy.abandon(session.name)

    async def close(self):
        await self._close_bulk()
        await super().close()

    # -- the viceroy RPC surface ----------------------------------------------

    def _request(self, session, request):
        body = request.body or {}
        resource = (body.get("resource", BANDWIDTH_RESOURCE)
                    if isinstance(body, dict) else BANDWIDTH_RESOURCE)
        if resource != BANDWIDTH_RESOURCE:
            return super()._request(session, request)
        try:
            lower = float(body["lower"])
            upper = float(body["upper"])
        except (TypeError, KeyError, ValueError) as exc:
            raise BrokerError("__request__ requires numeric "
                              "lower/upper bounds") from exc
        if lower > upper:
            raise BrokerError(f"window [{lower}, {upper}] is inverted")
        level = self.viceroy.availability(session.name)
        if level is not None and not (lower <= level <= upper):
            # The live twin of ToleranceError: no registration, and the
            # caller learns the available level to re-request around.  A
            # structured reply (not an error) so adaptive clients can
            # renegotiate without string-matching error text.
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("live.tolerance_rejections")
            self._respond(session, request,
                          body={"request_id": None, "rejected": True,
                                "available": level})
            return
        request_id = next(self._request_ids)
        registration = _Registration(request_id, session, resource,
                                     lower, upper)
        self._registrations[request_id] = registration
        session.registrations.add(request_id)
        self._respond(session, request,
                      body={"request_id": request_id, "available": level})

    def _report(self, session, request):
        body = request.body or {}
        if not (isinstance(body, dict) and "kind" in body):
            # A plain level report: the base broker's global semantics
            # (the loadtest and `repro connect` keep working unchanged).
            return super()._report(session, request)
        level, upcalls = self._absorb_sample(session, body)
        self._respond(session, request,
                      body={"resource": BANDWIDTH_RESOURCE, "level": level,
                            "upcalls": upcalls})

    def _absorb_sample(self, session, body):
        """Fold one estimation sample — a ``__report__`` body or the bytes
        of a bulk receipt — and recheck every bandwidth window against
        it; returns ``(level, upcalls pushed)``."""
        level = self.viceroy.absorb(session.name, body)
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("live.reports", kind=body.get("kind"),
                      client=session.name)
        return level, self._recheck_bandwidth()

    def _recheck_bandwidth(self):
        """Re-check every bandwidth window against its owner's availability.

        One client's sample moves the shared total, and with it *every*
        client's split — exactly why the sim viceroy's
        ``recheck_bandwidth`` scans all bandwidth registrations.  Violated
        windows are dropped (one-shot) and upcalled with the level that
        broke them; the count of upcalls pushed is returned.
        """
        violated = []
        for registration in self._registrations.values():
            if registration.resource != BANDWIDTH_RESOURCE:
                continue
            level = self.viceroy.availability(registration.session.name)
            if level is None:
                continue
            if not registration.contains(level):
                violated.append((registration, level))
        for registration, level in violated:
            del self._registrations[registration.request_id]
            registration.session.registrations.discard(
                registration.request_id)
            self._push_upcall(registration, level)
        return len(violated)

    def describe(self):
        snapshot = super().describe()
        snapshot["estimation"] = self.viceroy.describe()
        snapshot["bulk"] = self.describe_bulk()
        return snapshot
