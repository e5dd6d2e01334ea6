"""The live warden: an app's adaptive loop speaking ``BrokerClient``.

The adaptation contract — ladder, windows, upcall and rejection rules,
pacing, QoE counters — is the :class:`~repro.core.adaptive.AdaptiveClient`
the sim fleet client and the paper's sim applications also drive;
:class:`LiveWarden` is its asyncio shell.  It runs the core's cancel / ``__request__`` steps against the
live broker (a structured rejection carries the available level), fetches
paced chunks through :class:`~repro.live.bulk.BulkReceiver`, whose
receipts and ``__report__`` samples feed the broker's estimate, and hands
off to disconnected mode: while the
:class:`~repro.connectivity.ConnectivityTracker` (fed by an
:class:`~repro.connectivity.AsyncHeartbeatProber`) says offline, it
serves stale chunks from a :class:`~repro.core.warden.WardenCache`; the
RECONNECTING -> CONNECTED recovery makes the core replace its window
before fetching resumes.
"""

from repro import telemetry
from repro.apps.video.warden import VideoWarden
from repro.apps.web.images import FIDELITY_LEVELS as WEB_IMAGE_LEVELS
from repro.broker.client import BrokerClient
from repro.broker.server import REPORT_OP, REQUEST_OP
from repro.connectivity import AsyncHeartbeatProber
from repro.connectivity.state import ConnState
from repro.core.adaptive import CANCEL, AdaptiveClient, stream_ladder
from repro.core.warden import WardenCache
from repro.errors import (
    BrokerError,
    NegotiationError,
    RemoteCallError,
    RpcTimeout,
    TransportError,
)
from repro.live.bulk import BulkReceiver

#: Defaults sized for a demo that must adapt within seconds: small chunks
#: on a short period keep per-window throughput samples frequent.
DEFAULT_CHUNK_BYTES = 16 * 1024
DEFAULT_PERIOD = 0.25
#: Bulk shape of one chunk fetch (smaller than the transfer-layer
#: defaults): small windows mean one estimation sample every few KB, so
#: the EWMA tracks a square-wave link within a phase.
CHUNK_WINDOW_BYTES = 4 * 1024
CHUNK_FRAGMENT_BYTES = 2 * 1024

#: Smallest fetch the warden will issue, regardless of fidelity.  At the
#: bottom rung a fidelity-scaled chunk is a couple hundred bytes — pure
#: latency, no bandwidth signal — and the estimate would anchor at current
#: usage instead of probing capacity (the fleet client documents the same
#: hazard).  Keeping every fetch at least a window keeps samples honest,
#: so recovery upcalls actually fire when the link comes back.
MIN_PROBE_BYTES = CHUNK_WINDOW_BYTES

#: Disconnected-mode cache capacity (enough for the recent chunk per rung).
CACHE_CAPACITY_BYTES = 256 * 1024


class FidelityProfile:
    """An app's fidelity ladder: named rungs mapping to demand fractions."""

    def __init__(self, app, fidelities):
        if not fidelities:
            raise BrokerError(f"profile {app!r} has no fidelity levels")
        self.app = app
        #: fraction -> name, ascending by fraction.
        self.names = {float(level): name
                      for name, level in fidelities.items()}
        self.levels = tuple(sorted(self.names))

    def name_of(self, level):
        return self.names[level]

    def __repr__(self):
        return f"<FidelityProfile {self.app} levels={self.levels}>"


def video_profile():
    """The video player's ladder (paper §5.1): bw / jpeg50 / jpeg99."""
    return FidelityProfile("video", VideoWarden.FIDELITIES)


def web_profile():
    """The web cellophane's ladder (paper §5.2): JPEG distillation rungs."""
    return FidelityProfile(
        "web", {name: level for level, (name, _) in WEB_IMAGE_LEVELS.items()})


def _from_core(name):
    """A read-only warden attribute that is the core's ``name``."""
    return property(lambda self: getattr(self.core, name),
                    doc=f"The adaptive core's ``{name}``.")


class LiveWarden:
    """One adaptive application loop over a live broker connection."""

    #: What ``describe()``, the demo and ``bench/`` read off a warden.
    fidelity = _from_core("fidelity")
    fidelity_changes = _from_core("fidelity_changes")
    upcalls_received = _from_core("upcalls_received")
    renegotiations = _from_core("renegotiations")
    chunks = _from_core("chunks")
    bytes_fetched = _from_core("bytes_fetched")
    stalls = _from_core("stalls")

    def __init__(self, host, port, name, profile=None,
                 chunk_bytes=DEFAULT_CHUNK_BYTES, period=DEFAULT_PERIOD,
                 window_bytes=CHUNK_WINDOW_BYTES,
                 fragment_bytes=CHUNK_FRAGMENT_BYTES,
                 probe_interval=None, clock=None):
        self.profile = profile or video_profile()
        self.name = name
        self.window_bytes = window_bytes
        self.fragment_bytes = fragment_bytes
        self.probe_interval = probe_interval
        self.core = AdaptiveClient(
            stream_ladder(self.profile.levels, chunk_bytes, period),
            chunk_bytes, period, min_fetch=min(MIN_PROBE_BYTES, chunk_bytes))
        self.core.on_fidelity = self._fidelity_changed
        self.client = BrokerClient(host, port, name, clock=clock)
        self.clock = self.client.clock
        self.receiver = BulkReceiver(self.client)
        self.cache = WardenCache(CACHE_CAPACITY_BYTES,
                                 clock=self.clock.now, name=name)
        self.prober = None
        self.transfer_id = None
        self.connectivity_log = []  # Transition records
        self.cache_chunks = 0  # chunks served stale while offline

    @property
    def fidelity_log(self):
        """``(time, fraction, rung name)`` at each fidelity change."""
        name_of = self.profile.name_of
        return [(at, level, name_of(level))
                for at, level in self.core.fidelity_log]

    def _fidelity_changed(self, at, level):
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("live.fidelity_changes", client=self.name,
                      level=self.profile.name_of(level))

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Connect, open the content stream, start probing, register."""
        await self.client.connect()
        self.client.on_upcall(self._on_upcall)
        self.client.tracker.subscribe(self._on_connectivity)
        interval = self.probe_interval
        if interval is None:
            # Keepalive duty: stay well inside the broker's reaper budget.
            interval = max(self.client.heartbeat_seconds / 4.0, 0.05)
        self.prober = AsyncHeartbeatProber(self.client,
                                           interval=interval).start()
        # One endless source blob; chunks are windows into it.
        self.transfer_id = await self.receiver.open(
            f"{self.profile.app}/{self.name}", 1 << 40)
        self.core.join(None)  # optimistic, like the paper
        await self._negotiate()
        return self

    async def stop(self):
        if self.prober is not None:
            await self.prober.stop()
        await self.client.close()

    # -- negotiation ---------------------------------------------------------

    async def _negotiate(self):
        """Carry out the core's registration steps against the broker."""
        core = self.core
        while (step := core.negotiation(self.clock.now())) is not None:
            action, arg = step
            if action == CANCEL:
                try:
                    await self.client.cancel(arg)
                except RemoteCallError as err:
                    # An upcall for this window raced the cancel: gone.
                    if not err.message.startswith("no registered request"):
                        raise
                core.cancelled()
                continue
            lower, upper = arg
            reply = await self.client.call(REQUEST_OP, {
                "resource": "bandwidth", "lower": lower, "upper": upper,
            })
            if reply.get("rejected"):
                core.rejected(reply["available"])
            else:
                core.accepted(reply["request_id"])

    def _on_upcall(self, body):
        self.core.upcall(body.get("request_id"), body.get("level"),
                         self.clock.now())

    def _on_connectivity(self, transition):
        self.connectivity_log.append(transition)
        if (transition.source is ConnState.RECONNECTING
                and transition.target is ConnState.CONNECTED):
            self.core.reconnected()

    # -- the adaptive loop ----------------------------------------------------

    async def run(self, seconds):
        """Fetch on cadence for ``seconds``, adapting as upcalls arrive."""
        deadline = self.clock.now() + seconds
        self.core.next_due = self.clock.now()
        while self.clock.now() < deadline:
            await self._cycle()
            now = self.clock.now()
            wait = self.core.wait(now)
            if wait:
                await self.clock.sleep(min(wait, deadline - now))

    async def _cycle(self):
        """One chunk period: fetch (or serve stale), note the outcome."""
        core = self.core
        if self.client.tracker.offline:
            # Disconnected mode: degraded service from the cache, no
            # network traffic (the prober alone re-establishes trust).
            self.cache_chunks += 1
            self.cache.get(("chunk", core.fidelity))
            return
        started = self.clock.now()
        try:
            await self._negotiate()
            started = self.clock.now()
            # A small control exchange per cycle: its latency is the R
            # sample of Eq. 2 (the sim protocol logs it passively; the
            # live client reports it explicitly).
            latency = await self.client.ping()
            await self.client.call(REPORT_OP, {
                "kind": "round_trip", "seconds": max(latency, 1e-6),
            })
            result = await self.receiver.fetch(
                self.transfer_id, core.fetch_size(),
                window_bytes=self.window_bytes,
                fragment_bytes=self.fragment_bytes,
            )
        except (RpcTimeout, TransportError, NegotiationError):
            # A dead spot ate the exchange; the tracker (fed by the call
            # machinery and the prober) owns the connectivity judgement —
            # the warden records the miss and keeps its cadence.
            core.chunk_done(self.clock.now() - started, 0)
            return
        core.chunk_done(self.clock.now() - started, result.nbytes)
        self.cache.put(("chunk", core.fidelity), self.clock.now(),
                       max(1, result.nbytes))

    # -- reductions -----------------------------------------------------------

    def describe(self):
        return {
            "client": self.name,
            "app": self.profile.app,
            "fidelity": self.profile.name_of(self.fidelity),
            "fidelity_changes": self.fidelity_changes,
            "upcalls_received": self.upcalls_received,
            "renegotiations": self.renegotiations,
            "rejections": self.core.rejections,
            "chunks": self.chunks,
            "bytes_fetched": self.bytes_fetched,
            "stalls": self.stalls,
            "failures": self.core.failures,
            "cache_chunks": self.cache_chunks,
            "reintegrations": self.core.reintegrations,
            "connectivity": str(self.client.tracker.state),
        }
