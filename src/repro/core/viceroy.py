"""The viceroy: centralized, type-independent resource management (§3.2).

The viceroy is responsible for:

- routing operations on Odyssey objects to the managing warden (via the
  :class:`~repro.core.namespace.Namespace`, standing in for the in-kernel
  interceptor);
- monitoring resources — network bandwidth through the RPC logs and its
  :class:`~repro.core.policies.Policy`, other resources through attached
  :mod:`~repro.core.monitors`;
- tracking ``request`` registrations and generating upcalls the moment a
  resource's availability leaves a registered window of tolerance.

A registration is one-shot: once violated and notified, it is dropped; the
application re-registers with a window matching its new fidelity (paper
§4.3).
"""

from repro import telemetry
from repro.connectivity.state import ConnState, ConnectivityTracker
from repro.core.namespace import Namespace
from repro.core.policies import OdysseyPolicy
from repro.core.resources import (
    Registration,
    Resource,
    ResourceDescriptor,
    Window,
)
from repro.core.upcalls import Upcall, UpcallDispatcher
from repro.core.windows import WindowRegistry
from repro.errors import (
    BadDescriptor,
    OdysseyError,
    RequestNotFound,
    ToleranceError,
)


class Viceroy:
    """Central resource manager for one mobile client."""

    def __init__(self, sim, network, policy=None, upcalls=None, root="/odyssey",
                 connectivity=None):
        self.sim = sim
        self.network = network
        self.policy = policy or OdysseyPolicy()
        self.policy.attach(self)
        self.namespace = Namespace(root)
        self.upcalls = upcalls or UpcallDispatcher(sim)
        self._registry = WindowRegistry()  # owner: connection id or None
        self._connections = {}  # connection_id -> (conn, warden)
        self._monitors = {}  # Resource -> monitor
        #: Per-connection connectivity trackers; ``connectivity`` supplies
        #: shared hysteresis overrides (degrade_after/disconnect_after/
        #: recover_after) for every tracker this viceroy creates.
        self._trackers = {}
        self._tracker_config = dict(connectivity or {})
        self.upcalls_sent = 0
        #: level=0 "disconnected" upcalls issued (subset of upcalls_sent).
        self.disconnect_upcalls = 0
        #: Observers called as ``fn(event, **info)`` on registration
        #: activity ("request", "upcall", "connection") — the seam the
        #: chaos auditor hangs off without a live telemetry recorder.
        self._observers = []

    # -- wiring -------------------------------------------------------------

    def add_observer(self, fn):
        """Subscribe ``fn(event, **info)`` to registration-path activity.

        Events: ``"request"`` (app, path, request_id, time), ``"upcall"``
        (kind, app, request_id, level, time), ``"connection"``
        (connection_id, tracker, time).  The list is empty in ordinary
        runs, so the hot path pays one truthiness check.
        """
        self._observers.append(fn)

    def _notify_observers(self, event, **info):
        for fn in self._observers:
            fn(event, **info)

    def mount(self, prefix, warden):
        """Mount ``warden`` into the Odyssey namespace."""
        self.namespace.mount(prefix, warden)

    def register_connection(self, conn, warden=None):
        """Adopt an RPC connection: subscribe to its log, inform the policy.

        Every adopted connection gets a :class:`ConnectivityTracker`; its
        transitions drive disconnected upcalls and warden reintegration.
        """
        if conn.connection_id in self._connections:
            raise OdysseyError(f"connection {conn.connection_id!r} already registered")
        self._connections[conn.connection_id] = (conn, warden)
        tracker = ConnectivityTracker(
            clock=lambda: self.sim.now, name=conn.connection_id,
            **self._tracker_config,
        )
        tracker.subscribe(
            lambda transition, cid=conn.connection_id:
            self._connectivity_changed(cid, transition)
        )
        self._trackers[conn.connection_id] = tracker
        self.policy.register_connection(conn)
        conn.log.subscribe(self)
        if self._observers:
            self._notify_observers("connection",
                                   connection_id=conn.connection_id,
                                   tracker=tracker, time=self.sim.now)

    def unregister_connection(self, connection_id, notify=True):
        """Drop an adopted connection and tear down everything keyed on it.

        Registrations bound to the connection can never be re-checked once
        it is gone (``availability`` would raise on the dead id, wedging
        every subsequent window check), so they are removed here.  With
        ``notify=True`` each owning application that has an upcall receiver
        gets one final upcall carrying ``level=None`` — the teardown signal
        (see :class:`~repro.core.upcalls.Upcall`) — so it can re-register
        against a replacement connection.  Returns the number of
        registrations torn down.
        """
        if connection_id not in self._connections:
            raise OdysseyError(f"unknown connection {connection_id!r}")
        conn, _ = self._connections.pop(connection_id)
        self._trackers.pop(connection_id, None)
        conn.log.unsubscribe(self)
        self.policy.unregister_connection(connection_id)
        doomed = self._registry.drop_owner(connection_id)
        if notify:
            self._upcall_owners(doomed, None, kind="teardown")
        return len(doomed)

    def attach_monitor(self, monitor):
        """Adopt a non-bandwidth resource monitor (battery, CPU, ...)."""
        if monitor.resource in self._monitors:
            raise OdysseyError(f"monitor for {monitor.resource} already attached")
        self._monitors[monitor.resource] = monitor
        monitor.attach(self)

    # -- connectivity -----------------------------------------------------------

    def connectivity(self, connection_id):
        """The connectivity tracker for an adopted connection (or None)."""
        return self._trackers.get(connection_id)

    def _connectivity_changed(self, connection_id, transition):
        """A tracker moved: issue disconnected upcalls / trigger reintegration."""
        if transition.target is ConnState.DISCONNECTED:
            self._notify_disconnected(connection_id)
        elif (transition.target is ConnState.CONNECTED
              and transition.source is ConnState.RECONNECTING):
            entry = self._connections.get(connection_id)
            if entry is not None:
                conn, warden = entry
                if warden is not None:
                    warden.on_reconnect(conn)

    def _notify_disconnected(self, connection_id):
        """Tear down the connection's registrations with level=0 upcalls.

        A disconnected link has zero availability by definition, so every
        window riding on it is violated at once: the registration is
        dropped (one-shot, as usual) and the owning application's handler
        receives an upcall carrying ``level=0.0`` — the "disconnected"
        signal.  Unlike the teardown notice (``level=None``) the connection
        object still exists; applications should drop to their lowest
        fidelity, lean on the warden's cache, and re-register when the
        degraded-service period ends.
        """
        self._upcall_owners(self._registry.drop_owner(connection_id), 0.0,
                            kind="disconnect")

    def _upcall_owners(self, entries, level, kind):
        for entry in entries:
            if self.upcalls.has_receiver(entry.data.app):
                self._send_upcall(entry, level, kind)

    def _distinct_wardens(self):
        """Each mounted warden once, in mount order (a warden may back
        several prefixes)."""
        seen = []
        for warden in self.namespace.mounts.values():
            if warden not in seen:
                seen.append(warden)
        return seen

    # -- checkpoint / restore ----------------------------------------------------

    def checkpoint(self):
        """Plain-data snapshot of the state a viceroy restart must not lose.

        Covers live registrations (with their request ids and the
        registry's ``next_request_id``), upcall counters, each connection's
        connectivity state, and every mounted warden's deferred-op log, keyed
        by warden name and with its seq counter, so a restored viceroy
        replays queued writes in the original order.  Everything is
        JSON-serializable; :meth:`restore` is the inverse.
        """
        return {
            "deferred": {warden.name: warden.deferred.checkpoint()
                         for warden in self._distinct_wardens()},
            "registrations": [
                {"request_id": r.request_id, "app": r.app, "path": r.path,
                 "resource": r.descriptor.resource.label,
                 "lower": r.descriptor.window.lower,
                 "upper": r.descriptor.window.upper,
                 "handler": r.descriptor.handler,
                 "connection_id": r.connection_id}
                for r in self.registered_requests()
            ],
            "next_request_id": self._registry.next_id,
            "upcalls_sent": self.upcalls_sent,
            "disconnect_upcalls": self.disconnect_upcalls,
            "connectivity": {cid: tracker.state.value
                             for cid, tracker in self._trackers.items()},
        }

    def restore(self, state):
        """Rebuild registrations from a :meth:`checkpoint` snapshot.

        Replaces the current registration table.  Registrations bound to a
        connection id this viceroy no longer knows are dropped; their ids
        are returned so the caller can notify the owning applications.  Ids
        resume at or past the snapshot's next id and every id in it, never
        backwards, so no id is minted twice.  Returns
        ``(restored, dropped_ids)``.

        Connectivity trackers are *not* restored: a restarted viceroy must
        re-derive link health from fresh evidence, not trust a snapshot
        from before it went down.  Deferred-op logs are restored into the
        warden with the matching name; snapshots for wardens this viceroy
        does not mount are ignored.
        """
        snaps = state["registrations"]
        self._registry = WindowRegistry(next_id=max(
            self._registry.next_id, state.get("next_request_id", 1),
            *(snap["request_id"] + 1 for snap in snaps)))
        dropped = []
        for snap in snaps:
            connection_id = snap["connection_id"]
            if (connection_id is not None
                    and connection_id not in self._connections):
                dropped.append(snap["request_id"])
                continue
            descriptor = ResourceDescriptor(
                resource=Resource.from_label(snap["resource"]),
                window=Window(snap["lower"], snap["upper"]),
                handler=snap["handler"],
            )
            self._register(Registration(
                app=snap["app"], path=snap["path"], descriptor=descriptor,
                connection_id=connection_id, request_id=snap["request_id"]))
        wardens = {warden.name: warden for warden in self._distinct_wardens()}
        for name, snapshot in state.get("deferred", {}).items():
            warden = wardens.get(name)
            if warden is not None:
                warden.deferred.restore(snapshot)
        self.upcalls_sent = state.get("upcalls_sent", self.upcalls_sent)
        self.disconnect_upcalls = state.get("disconnect_upcalls",
                                            self.disconnect_upcalls)
        return len(self._registry), dropped

    # -- log observation (RpcLog observer interface) ---------------------------

    def on_round_trip(self, log, entry):
        self.policy.on_round_trip(log, entry)
        self._recheck(Resource.NETWORK_LATENCY, connection_id=log.connection_id)

    def on_throughput(self, log, entry):
        self.policy.on_throughput(log, entry)
        self.recheck_bandwidth()

    def monitor_changed(self, resource):
        """A monitor's level moved; re-check its registrations."""
        self._recheck(resource)

    # -- availability -----------------------------------------------------------

    def availability(self, resource, connection_id=None, path=None):
        """Current availability of ``resource`` (None if not yet known).

        Bandwidth and latency are per-connection: give either the
        connection id or an Odyssey path whose warden identifies it.
        """
        if resource is Resource.NETWORK_BANDWIDTH:
            cid = self._connection_for(connection_id, path)
            return None if cid is None else self.policy.availability(cid)
        if resource is Resource.NETWORK_LATENCY:
            cid = self._connection_for(connection_id, path)
            return None if cid is None else self._one_way_latency(cid)
        monitor = self._monitors.get(resource)
        if monitor is None:
            raise BadDescriptor(f"no monitor attached for resource {resource}")
        return monitor.current()

    def total_bandwidth(self):
        """The policy's estimate of total client bandwidth (or None)."""
        return self.policy.total()

    def availability_for_connection(self, connection_id):
        """Shorthand: bandwidth available to one connection (or None)."""
        return self.availability(
            Resource.NETWORK_BANDWIDTH, connection_id=connection_id
        )

    def _one_way_latency(self, connection_id):
        """Half the policy's round trip, in microseconds (None if unknown)."""
        rtt = self.policy.round_trip(connection_id)
        return rtt * 1e6 / 2.0 if rtt else None

    def _connection_for(self, connection_id, path):
        if connection_id is not None:
            if connection_id not in self._connections:
                raise OdysseyError(f"unknown connection {connection_id!r}")
            return connection_id
        if path is not None:
            warden, rest = self.namespace.resolve(path)
            return warden.primary_connection(rest).connection_id
        return None

    # -- the request/cancel interface (paper Fig. 3a) ------------------------------

    def request(self, app, path, descriptor):
        """Register a window of tolerance (paper §4.2).

        If the resource is currently outside the window, raises
        :class:`~repro.errors.ToleranceError` carrying the available level
        — the application is expected to retry with a window matching a
        new fidelity.  Otherwise returns a unique request id.
        """
        resource = descriptor.resource
        connection_id = self._connection_for(None, path) if resource in (
            Resource.NETWORK_BANDWIDTH, Resource.NETWORK_LATENCY) else None
        level = self.availability(resource, connection_id=connection_id)
        rec = telemetry.RECORDER
        if level is not None and not descriptor.window.contains(level):
            if rec.enabled:
                rec.count("viceroy.tolerance_rejections",
                          resource=resource.label)
            raise ToleranceError(resource, level)
        registration = self._register(Registration(
            app=app, path=path, descriptor=descriptor, connection_id=connection_id
        ))
        if rec.enabled:
            rec.count("viceroy.requests", resource=resource.label)
            rec.event("viceroy.request", app=app, path=path,
                      request_id=registration.request_id,
                      resource=resource.label,
                      lower=descriptor.window.lower,
                      upper=descriptor.window.upper)
        if self._observers:
            self._notify_observers("request", app=app, path=path,
                                   request_id=registration.request_id,
                                   time=self.sim.now)
        return registration.request_id

    def _register(self, registration):
        """Enter ``registration`` (its id minted unless restored); returns it."""
        descriptor = registration.descriptor
        registration.request_id = self._registry.register(
            descriptor.resource, registration.connection_id,
            descriptor.window.lower, descriptor.window.upper, registration,
            request_id=registration.request_id)
        return registration

    def cancel(self, request_id):
        """Discard a registration (paper Fig. 3a)."""
        if self._registry.cancel(request_id) is None:
            raise RequestNotFound(f"no registered request {request_id!r}")
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("viceroy.cancels")

    def registered_requests(self, app=None):
        """Live registrations, optionally filtered by application."""
        return [entry.data for entry in self._registry
                if app is None or entry.data.app == app]

    # -- window checking ------------------------------------------------------------

    def recheck_bandwidth(self):
        """Re-check every bandwidth registration (estimate or level changed)."""
        self._recheck(Resource.NETWORK_BANDWIDTH)

    def _recheck(self, resource, connection_id=None):
        """Upcall each window on ``resource`` its level has left (only
        ``connection_id``'s, if given), choosing the level function once."""
        if resource is Resource.NETWORK_BANDWIDTH:
            level_of = self.policy.levels()
        elif resource is Resource.NETWORK_LATENCY:
            level_of = self._one_way_latency
        else:
            current = self._monitors[resource].current
            level_of = lambda owner: current()  # noqa: E731 - owner is None here
        for entry, level in self._registry.observe(resource, level_of,
                                                  connection_id):
            self._send_upcall(entry, level, kind="violation")

    def _send_upcall(self, entry, level, kind):
        """Issue one upcall for a dropped registry entry (all three
        flavours: window ``violation``, connection ``teardown``, link
        ``disconnect``)."""
        registration = entry.data
        self.upcalls_sent += 1
        if kind == "disconnect":
            self.disconnect_upcalls += 1
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("viceroy.upcalls", kind=kind)
            rec.event("viceroy.upcall", kind=kind, app=registration.app,
                      request_id=entry.request_id,
                      resource=entry.resource.label, level=level)
        if self._observers:
            self._notify_observers("upcall", kind=kind, app=registration.app,
                                   request_id=entry.request_id,
                                   level=level, time=self.sim.now)
        self.upcalls.send(
            registration.app,
            registration.descriptor.handler,
            Upcall(entry.request_id, entry.resource, level),
        )

    # -- object operations (delegated through the namespace) --------------------------

    def tsop(self, app, path, opcode, inbuf=None):
        """Type-specific operation (paper Fig. 3e).  Generator."""
        warden, rest = self.namespace.resolve(path)
        result = yield from warden.tsop(app, rest, opcode, inbuf)
        return result

    def vfs_open(self, app, path, flags="r"):
        warden, rest = self.namespace.resolve(path)
        return warden, warden.vfs_open(app, rest, flags)

    def vfs_stat(self, path):
        warden, rest = self.namespace.resolve(path)
        return warden.vfs_stat(rest)

    def vfs_readdir(self, path):
        return self.namespace.readdir(path)

    # -- introspection ---------------------------------------------------------

    def describe(self):
        """A snapshot of the viceroy's state, for debugging and tooling.

        Returns a dict: mounts, connections (with availability), attached
        monitors (with levels), live registrations, and counters.
        """
        connections = {}
        for cid in self._connections:
            try:
                connections[cid] = self.policy.availability(cid)
            except Exception:  # noqa: BLE001 - introspection must not throw
                connections[cid] = None
        return {
            "policy": self.policy.name,
            "total_bandwidth": self.total_bandwidth(),
            "mounts": {prefix: warden.name
                       for prefix, warden in self.namespace.mounts.items()},
            "connections": connections,
            "monitors": {resource.label: monitor.current()
                         for resource, monitor in self._monitors.items()},
            "connectivity": {cid: tracker.state.value
                             for cid, tracker in self._trackers.items()},
            "disconnect_upcalls": self.disconnect_upcalls,
            "registrations": [
                {"request_id": r.request_id, "app": r.app, "path": r.path,
                 "resource": r.descriptor.resource.label,
                 "window": (r.descriptor.window.lower,
                            r.descriptor.window.upper)}
                for r in self.registered_requests()
            ],
            "upcalls_sent": self.upcalls_sent,
        }
