"""Wardens: type-specific system components (paper §3.2).

"A warden encapsulates the system-level support at a client necessary to
effectively manage a data type."  Wardens are subordinate to the viceroy,
communicate with their servers over logged RPC connections, cache data, and
expose fidelity levels through type-specific operations.

:class:`Warden` is the base class concrete wardens (video, web, speech,
bitstream) extend.  :class:`WardenCache` is a byte-accounted LRU cache used
by wardens that cache server data; its occupancy backs the disk-cache-space
resource monitor.
"""

from collections import OrderedDict

from repro import telemetry
from repro.connectivity.deferred import (
    DEFAULT_CAPACITY,
    DeferredOp,
    DeferredOpLog,
    ReplayReport,
)
from repro.connectivity.probe import HeartbeatProber
from repro.errors import (
    Disconnected,
    NoSuchObject,
    NoSuchOperation,
    OdysseyError,
    RpcError,
    RpcTimeout,
)
from repro.rpc.connection import RpcConnection

#: Histogram buckets (seconds) for the age of stale copies served in
#: degraded mode: seconds-old reconnection gaps up to hour-long outages.
STALENESS_BUCKETS = (1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 3600.0)


class WardenCache:
    """A byte-accounted LRU cache of warden objects.

    Each entry remembers when it was stored (``clock`` is a zero-arg
    callable returning the current time; wardens pass the simulation
    clock), which is what degraded-service mode's per-entry staleness
    tracking reads through :meth:`age`.
    """

    def __init__(self, capacity_bytes, clock=None, name=None):
        if capacity_bytes <= 0:
            raise OdysseyError(f"cache capacity must be positive, got {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        self.clock = clock or (lambda: 0.0)
        #: Label for telemetry series (the owning warden's name).
        self.name = name or "cache"
        self._entries = OrderedDict()  # key -> (value, nbytes, stored_at)
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    @property
    def hit_ratio(self):
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def get(self, key):
        """Return the cached value or None, updating recency and stats."""
        entry = self._entries.get(key)
        rec = telemetry.RECORDER
        if entry is None:
            self.misses += 1
            if rec.enabled:
                rec.count("warden.cache_misses", warden=self.name)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if rec.enabled:
            rec.count("warden.cache_hits", warden=self.name)
        return entry[0]

    def peek(self, key):
        """Return the cached value or None — no recency or stat mutation.

        The degraded-service probe: wardens consult the cache without
        committing to serving from it (and without polluting hit counters
        that tune adaptation decisions).
        """
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def age(self, key):
        """Seconds since ``key`` was stored, or None if absent."""
        entry = self._entries.get(key)
        return None if entry is None else self.clock() - entry[2]

    def put(self, key, value, nbytes):
        """Insert ``value``; evicts LRU entries to stay within capacity.

        Objects larger than the whole cache are refused (returns False);
        non-positive sizes raise — a zero-byte entry would make occupancy
        accounting (and the disk-cache-space monitor riding on it) lie.
        """
        if nbytes <= 0:
            raise OdysseyError(f"cache entry size must be positive, got {nbytes!r}")
        if nbytes > self.capacity_bytes:
            return False
        if key in self._entries:
            self.discard(key)
        rec = telemetry.RECORDER
        while self.used_bytes + nbytes > self.capacity_bytes:
            old_key, (_, old_bytes, _) = self._entries.popitem(last=False)
            self.used_bytes -= old_bytes
            self.evictions += 1
            if rec.enabled:
                rec.count("warden.cache_evictions", warden=self.name)
        self._entries[key] = (value, nbytes, self.clock())
        self.used_bytes += nbytes
        return True

    def discard(self, key):
        """Remove ``key`` if present; returns True if something was removed."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.used_bytes -= entry[1]
        return True

    def discard_matching(self, predicate):
        """Remove all entries whose key satisfies ``predicate``; returns count.

        Used by the video warden, which discards prefetched low-quality
        frames when switching to a higher-fidelity track (paper §5.1).
        """
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            self.discard(key)
        return len(doomed)

    def clear(self):
        self._entries.clear()
        self.used_bytes = 0


class Warden:
    """Base class for type-specific wardens.

    Subclasses:

    - set :attr:`TSOPS`, mapping opcode strings to method names; tsop
      methods are generators ``(app, rest, inbuf) -> outbuf``;
    - implement the ``vfs_*`` hooks they support;
    - describe their fidelity levels in :attr:`FIDELITIES`, a mapping of
      level name to a numeric fidelity in (0, 1] (strictly increasing with
      quality, as §6.1.2 requires).

    Wardens are statically linked with the viceroy in the paper; here they
    are registered with :meth:`Viceroy.mount` and share its address space
    trivially.
    """

    #: opcode -> method name for type-specific operations.
    TSOPS = {}
    #: fidelity level name -> numeric fidelity in (0, 1].
    FIDELITIES = {}

    #: tsop opcodes that mutate server state: queued to the deferred-op log
    #: while their connection is disconnected, replayed on reconnection.
    DEFERRABLE_TSOPS = frozenset()

    def __init__(self, sim, viceroy, name, cache_bytes=8 * 1024 * 1024,
                 max_staleness=None, deferred_capacity=DEFAULT_CAPACITY):
        self.sim = sim
        self.viceroy = viceroy
        self.name = name
        self.cache = WardenCache(cache_bytes, clock=lambda: sim.now, name=name)
        self.connections = []
        self.failovers = 0
        #: Staleness bound for degraded service, seconds (None = serve any
        #: cached copy, however old).
        self.max_staleness = max_staleness
        self.deferred = DeferredOpLog(deferred_capacity)
        self.reintegration_reports = []
        self._replayer = None  # the live replayer's token, or None
        self.stale_served = 0
        self.disconnected_misses = 0
        self.staleness_served = []  # age (s) of each stale copy served
        self._probers = {}  # connection_id -> HeartbeatProber

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name!r}>"

    # -- connections ----------------------------------------------------------

    def open_connection(self, server_name, server_port, connection_id=None,
                        **rpc_kwargs):
        """Create a logged RPC connection and register it with the viceroy.

        Applications never contact servers directly (paper §4.1): all
        communication flows through warden connections, which is what makes
        centralized observation possible.
        """
        connection_id = connection_id or f"{self.name}:{len(self.connections)}"
        conn = RpcConnection(
            self.sim, self.viceroy.network, server_name, server_port,
            connection_id, **rpc_kwargs,
        )
        self.connections.append(conn)
        self.viceroy.register_connection(conn, warden=self)
        return conn

    def close_connection(self, conn, notify=True):
        """Tear ``conn`` down cleanly: viceroy first, then the socket.

        Unregisters from the viceroy (which drops or upcall-notifies any
        registrations riding on the connection), closes the endpoint, and
        forgets it.  ``notify`` is forwarded to
        :meth:`~repro.core.viceroy.Viceroy.unregister_connection`.
        """
        if conn not in self.connections:
            raise OdysseyError(f"warden {self.name!r} does not own {conn!r}")
        self._stop_heartbeat(conn)
        self.viceroy.unregister_connection(conn.connection_id, notify=notify)
        conn.close()
        self.connections.remove(conn)

    def failover_connection(self, conn, connection_id=None, notify=True):
        """Replace ``conn`` with a fresh connection to the same server.

        The failed connection is torn down exactly as in
        :meth:`close_connection`; the replacement takes its slot in
        :attr:`connections` (so :meth:`primary_connection` routing is
        preserved) and is registered with the viceroy under a new id.
        Returns the replacement connection.
        """
        index = self.connections.index(conn)  # raises if not ours
        prober = self._stop_heartbeat(conn)
        self.viceroy.unregister_connection(conn.connection_id, notify=notify)
        conn.close()
        self.failovers += 1
        connection_id = connection_id or f"{conn.connection_id}+f{self.failovers}"
        replacement = RpcConnection(
            self.sim, self.viceroy.network, conn.server_name, conn.server_port,
            connection_id, window_bytes=conn.window_bytes,
            fragment_bytes=conn.fragment_bytes, client_host=conn.client,
        )
        self.connections[index] = replacement
        self.viceroy.register_connection(replacement, warden=self)
        if prober is not None:  # the heartbeat follows the warden, not the socket
            self.start_heartbeat(replacement, interval=prober.interval,
                                 timeout=prober.timeout)
        return replacement

    # -- connectivity ---------------------------------------------------------

    def connectivity(self, conn):
        """The viceroy's connectivity tracker for ``conn`` (or None)."""
        return self.viceroy.connectivity(conn.connection_id)

    def start_heartbeat(self, conn, **probe_kwargs):
        """Attach a heartbeat prober to ``conn``; returns it.

        The prober feeds probe evidence into the viceroy's tracker for the
        connection — without one, a connection that stops carrying fetch
        traffic (because degraded mode keeps traffic off it) would never
        produce the success evidence that ends an outage.
        """
        tracker = self.connectivity(conn)
        if tracker is None:
            raise OdysseyError(
                f"connection {conn.connection_id!r} has no connectivity "
                "tracker; register it with the viceroy first"
            )
        if conn.connection_id in self._probers:
            raise OdysseyError(
                f"connection {conn.connection_id!r} already has a heartbeat"
            )
        prober = HeartbeatProber(self.sim, conn, tracker, **probe_kwargs)
        self._probers[conn.connection_id] = prober
        return prober

    def _stop_heartbeat(self, conn):
        prober = self._probers.pop(conn.connection_id, None)
        if prober is not None:
            prober.stop()
        return prober

    def primary_connection(self, rest=None):
        """The connection serving ``rest`` (default: the first one)."""
        if not self.connections:
            raise OdysseyError(f"warden {self.name!r} has no connections")
        return self.connections[0]

    # -- tsop dispatch -----------------------------------------------------------

    def tsop(self, app, rest, opcode, inbuf):
        """Dispatch a type-specific operation.  Generator.

        Mutating opcodes (listed in :attr:`DEFERRABLE_TSOPS`) issued while
        the object's connection is disconnected are queued to the
        deferred-op log instead of dispatched; the caller receives a
        ``{"deferred": True, "seq": ...}`` marker immediately and the op is
        replayed during reintegration.
        """
        method_name = self.TSOPS.get(opcode)
        if method_name is None:
            raise NoSuchOperation(
                f"warden {self.name!r} has no tsop {opcode!r}; "
                f"supported: {sorted(self.TSOPS)}"
            )
        if opcode in self.DEFERRABLE_TSOPS and self._should_defer(rest):
            op = self.deferred.append(DeferredOp(
                app=app, rest=rest, opcode=opcode, inbuf=inbuf,
                queued_at=self.sim.now,
                coalesce=self.coalesce_key(opcode, rest, inbuf),
            ))
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("warden.deferred_ops", warden=self.name)
                rec.gauge("warden.deferred_depth", len(self.deferred),
                          warden=self.name)
                rec.event("warden.deferred", warden=self.name,
                          opcode=opcode, seq=op.seq,
                          depth=len(self.deferred))
            return {"deferred": True, "seq": op.seq, "opcode": opcode}
        method = getattr(self, method_name)
        result = yield from method(app, rest, inbuf)
        return result

    def coalesce_key(self, opcode, rest, inbuf):
        """Coalescing key for a deferrable op (None = never coalesce).

        Subclasses override for ops where only the latest value matters
        (e.g. the video warden's playback-position saves).
        """
        return None

    def _should_defer(self, rest):
        if not self.connections:
            return False
        # A non-empty log means earlier writes are still waiting to replay:
        # new writes queue behind them, or they would overtake the backlog
        # and invert the client's write order at the server.
        if self.deferred:
            return True
        tracker = self.connectivity(self.primary_connection(rest))
        return tracker is not None and tracker.offline

    # -- degraded service ------------------------------------------------------

    def resilient_fetch(self, conn, key, fetch_op):
        """Fetch through degraded-service mode.  Generator.

        ``fetch_op`` is a zero-arg callable returning a generator that
        performs the real network fetch and returns ``(value, nbytes)``.
        While the connection is healthy the fetch runs normally, feeds
        success/failure evidence to the connectivity tracker, and caches
        its result.  While DISCONNECTED (or RECONNECTING) the network is
        not touched: a cached copy within :attr:`max_staleness` is served
        (its age recorded in :attr:`staleness_served`), and a miss raises
        :class:`~repro.errors.Disconnected` instead of hanging in retries.
        A timeout on the healthy path falls back to the cache the same way,
        re-raising the timeout on a miss.
        """
        tracker = self.connectivity(conn)
        if tracker is not None and tracker.offline:
            return self._serve_degraded(key, cause=None)
        try:
            value, nbytes = yield from fetch_op()
        except RpcTimeout as cause:
            if tracker is not None:
                tracker.note_failure()
            return self._serve_degraded(key, cause=cause)
        if tracker is not None:
            tracker.note_success()
        self.cache.put(key, value, nbytes)
        return value

    def _serve_degraded(self, key, cause):
        """Serve ``key`` from cache under the staleness bound, or raise.

        ``cause`` is the triggering :class:`~repro.errors.RpcTimeout` when
        the network was actually tried (and is re-raised on a miss, keeping
        connected-path semantics); ``None`` means degraded mode skipped the
        network, where a miss is a typed ``Disconnected`` error.
        """
        value = self.cache.peek(key)
        if value is not None:
            age = self.cache.age(key)
            if self.max_staleness is None or age <= self.max_staleness:
                self.cache.get(key)  # commit: count the hit, refresh recency
                self.stale_served += 1
                self.staleness_served.append(age)
                rec = telemetry.RECORDER
                if rec.enabled:
                    rec.count("warden.stale_served", warden=self.name)
                    rec.observe("warden.staleness_seconds", age,
                                buckets=STALENESS_BUCKETS, warden=self.name)
                    rec.event("warden.stale_serve", warden=self.name,
                              key=str(key), age=age)
                return value
            if cause is None:
                raise Disconnected(
                    f"warden {self.name!r}: cached {key!r} is {age:.1f} s old, "
                    f"over the {self.max_staleness:.1f} s staleness bound",
                    key=key, age=age,
                )
        if cause is not None:
            raise cause
        self.disconnected_misses += 1
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("warden.disconnected_misses", warden=self.name)
        raise Disconnected(
            f"warden {self.name!r}: {key!r} not cached while disconnected",
            key=key,
        )

    # -- reintegration ---------------------------------------------------------

    def on_reconnect(self, conn):
        """Viceroy hook: ``conn`` recovered; replay the deferred-op log.

        One replayer at most: the op on the wire is still in the log, so a
        second replayer would apply it twice.
        """
        if self.deferred and self._replayer is None:
            self._replayer = token = object()
            self.sim.process(self._reintegrate(conn, token),
                             name=f"{self.name}.reintegrate")

    def _reintegrate(self, conn, token):
        """Replay queued ops in enqueue order, recording each op's fate.

        Write-ahead: the op at the head of the log is replayed directly (not
        through :meth:`tsop`, whose deferral check would queue it again) and
        retired only on a terminal outcome: a reply (``applied`` /
        ``conflict``) or an :class:`OdysseyError` (``failed``).  A timeout
        feeds the tracker and retries the op; an offline link or any other
        :class:`RpcError` stops the replay with the op still at the head.
        ``token`` is bound at spawn; once a crash drill revokes it, the
        replayer exits at its next wakeup without touching the log.
        """
        while self._replayer is token and self.deferred:
            tracker = self.connectivity(conn)
            if tracker is not None and tracker.offline:
                break
            op = self.deferred.head()
            method = getattr(self, self.TSOPS[op.opcode])
            try:
                result = yield from method(op.app, op.rest, op.inbuf)
            except (RpcError, OdysseyError) as exc:
                result = exc
            if self._replayer is not token:
                return  # superseded by a crash
            if isinstance(result, RpcTimeout):
                if tracker is not None:
                    tracker.note_failure()
                continue
            if isinstance(result, RpcError):
                break
            if isinstance(result, OdysseyError):
                status = "failed"
            else:
                if tracker is not None:
                    tracker.note_success()
                conflict = isinstance(result, dict) and result.get("conflict")
                status = "conflict" if conflict else "applied"
            self.deferred.retire(op)
            self.reintegration_reports.append(ReplayReport(
                op, status, detail=result, replayed_at=self.sim.now,
            ))
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("warden.reintegration", warden=self.name,
                          status=status)
                rec.gauge("warden.deferred_depth", len(self.deferred),
                          warden=self.name)
        if self._replayer is token:
            self._replayer = None

    # -- vfs hooks (subclasses override what they support) ------------------------

    def vfs_open(self, app, rest, flags="r"):
        """Open an object; returns an opaque per-open handle object."""
        raise NoSuchObject(f"warden {self.name!r} does not support open on {rest!r}")

    def vfs_read(self, app, handle, nbytes):
        """Read from an open object.  Generator returning bytes-like or object."""
        raise NoSuchObject(f"warden {self.name!r} does not support read")
        yield  # pragma: no cover - makes this a generator

    def vfs_write(self, app, handle, data):
        """Write to an open object.  Generator."""
        raise NoSuchObject(f"warden {self.name!r} does not support write")
        yield  # pragma: no cover - makes this a generator

    def vfs_close(self, app, handle):
        """Close an open handle (default: no-op)."""

    def vfs_stat(self, rest):
        """Metadata for an object: a dict with at least 'size'."""
        raise NoSuchObject(f"warden {self.name!r} does not support stat on {rest!r}")

    def vfs_readdir(self, rest):
        """Names under ``rest`` (virtual-directory naming)."""
        raise NoSuchObject(f"warden {self.name!r} does not support readdir on {rest!r}")
