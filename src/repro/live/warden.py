"""The live warden: an app's adaptive loop speaking ``BrokerClient``.

The sim wardens (video, web, ...) talk to the viceroy through an
in-process :class:`~repro.rpc.connection.RpcConnection`.
:class:`LiveWarden` is the adapter that puts the same adaptation
contract on a real socket:

- **fidelity ladder** — a :class:`FidelityProfile` built from the app
  wardens' own tables (:data:`~repro.apps.video.warden.VideoWarden.FIDELITIES`,
  the web cellophane's distillation levels), with the fleet client's
  guard-banded tolerance windows around each rung;
- **negotiation** — ``__request__`` windows against the live broker;
  a structured rejection carries the available level, so the warden
  re-requests around a fitting rung without string-matching error text;
- **violation upcalls** — fidelity follows the upcall's level
  immediately, the re-registration RPC waits for the next chunk boundary
  (the fleet client's anti-storm discipline);
- **data plane** — paced chunk fetches through
  :class:`~repro.live.bulk.BulkReceiver`, whose delivery receipts and
  per-window ``__report__`` samples are what feed the broker's estimate;
- **disconnected handoff** — an
  :class:`~repro.connectivity.AsyncHeartbeatProber` keeps probe evidence
  flowing into the client's
  :class:`~repro.connectivity.ConnectivityTracker`; when the tracker
  declares the link offline the warden stops touching the network and
  serves stale chunks from its :class:`~repro.core.warden.WardenCache`,
  and the RECONNECTING -> CONNECTED recovery triggers re-registration
  (reintegration) before fetching resumes.
"""

from repro import telemetry
from repro.apps.video.warden import VideoWarden
from repro.apps.web.images import FIDELITY_LEVELS as WEB_IMAGE_LEVELS
from repro.broker.client import BrokerClient
from repro.broker.server import REPORT_OP, REQUEST_OP
from repro.connectivity import AsyncHeartbeatProber
from repro.connectivity.state import ConnState
from repro.core.warden import WardenCache
from repro.errors import (
    BrokerError,
    RemoteCallError,
    RpcTimeout,
    TransportError,
)
from repro.live.bulk import BulkReceiver

#: Fleet-client hysteresis guards, reused verbatim: a level's window digs
#: a little below its own demand and reaches a little past the next
#: level's, so a wobbling estimate does not upcall per wobble.
LOWER_GUARD = 0.8
UPPER_GUARD = 1.3

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


PROFILES = {"video": video_profile, "web": web_profile}


class LiveWarden:
    """One adaptive application loop over a live broker connection."""

    def __init__(self, host, port, name, profile=None,
                 chunk_bytes=DEFAULT_CHUNK_BYTES, period=DEFAULT_PERIOD,
                 window_bytes=CHUNK_WINDOW_BYTES,
                 fragment_bytes=CHUNK_FRAGMENT_BYTES,
                 probe_interval=None, clock=None):
        self.profile = profile or video_profile()
        self.name = name
        self.chunk_bytes = chunk_bytes
        self.period = period
        self.window_bytes = window_bytes
        self.fragment_bytes = fragment_bytes
        self.probe_interval = probe_interval
        self.client = BrokerClient(host, port, name, clock=clock)
        self.clock = self.client.clock
        self.receiver = BulkReceiver(self.client)
        self.cache = WardenCache(CACHE_CAPACITY_BYTES,
                                 clock=self.clock.now, name=name)
        self.prober = None
        self.transfer_id = None
        self.request_id = None
        self.fidelity = self.profile.levels[-1]  # optimistic, like the paper
        self.fidelity_log = []  # (time, fraction, name)
        self.connectivity_log = []  # Transition records
        self.upcalls_received = 0
        self.renegotiations = 0
        self.rejections = 0
        self.chunks = 0
        self.bytes_fetched = 0
        self.stalls = 0
        self.failures = 0
        self.cache_chunks = 0  # chunks served stale while offline
        self.reintegrations = 0
        self._needs_register = False
        self._pending_level = None
        self._log_fidelity(self.fidelity)

    # -- ladder arithmetic (the fleet client's, on profile fractions) --------

    def demand(self, fidelity):
        """Bandwidth (bytes/s) one chunk cadence consumes at ``fidelity``."""
        return fidelity * self.chunk_bytes / self.period

    def best_level_for(self, bandwidth):
        """Highest sustainable rung (optimistic when no estimate yet)."""
        levels = self.profile.levels
        if bandwidth is None:
            return levels[-1]
        for level in reversed(levels):
            if self.demand(level) <= bandwidth:
                return level
        return levels[0]

    def window_for_level(self, level):
        levels = self.profile.levels
        index = levels.index(level)
        lower = 0.0 if index == 0 else self.demand(level) * LOWER_GUARD
        upper = 1e12 if level == levels[-1] \
            else self.demand(levels[index + 1]) * UPPER_GUARD
        return lower, upper

    def _log_fidelity(self, level):
        self.fidelity = level
        self.fidelity_log.append(
            (self.clock.now(), level, self.profile.name_of(level)))

    def _set_fidelity(self, level):
        if level != self.fidelity:
            self._log_fidelity(level)
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
        await self._register(level_hint=None)
        return self

    async def stop(self):
        if self.prober is not None:
            await self.prober.stop()
        await self.client.close()

    # -- negotiation ---------------------------------------------------------

    async def _register(self, level_hint):
        """Register a window around the best rung for ``level_hint``.

        A structured rejection (the live broker's ToleranceError twin)
        re-anchors on the broker's reported availability; each retry can
        only move down a finite ladder, so the loop terminates.
        """
        level = self.best_level_for(level_hint)
        for _ in range(len(self.profile.levels) + 1):
            lower, upper = self.window_for_level(level)
            reply = await self.client.call(REQUEST_OP, {
                "resource": "bandwidth", "lower": lower, "upper": upper,
            })
            if not reply.get("rejected"):
                self.request_id = reply["request_id"]
                self._set_fidelity(level)
                return
            self.rejections += 1
            level = self.best_level_for(reply["available"])
        raise BrokerError(f"{self.name}: could not place a window on the "
                          f"ladder {self.profile.levels}")

    def _on_upcall(self, body):
        """Window violated: adapt now, re-register at the chunk boundary."""
        self.upcalls_received += 1
        level = body.get("level")
        self._pending_level = level
        self._needs_register = True
        self.request_id = None  # one-shot: the broker already dropped it
        if level is not None:
            self._set_fidelity(self.best_level_for(level))

    def _on_connectivity(self, transition):
        self.connectivity_log.append(transition)
        if (transition.source is ConnState.RECONNECTING
                and transition.target is ConnState.CONNECTED):
            # Reintegration: the window registered before the outage may
            # be gone (or stale); negotiate afresh before fetching.
            self.reintegrations += 1
            self._needs_register = True
            self._pending_level = None

    # -- the adaptive loop ----------------------------------------------------

    async def run(self, seconds):
        """Fetch on cadence for ``seconds``, adapting as upcalls arrive."""
        deadline = self.clock.now() + seconds
        next_due = self.clock.now()
        while self.clock.now() < deadline:
            await self._cycle()
            next_due += self.period
            now = self.clock.now()
            if next_due > now:
                await self.clock.sleep(min(next_due - now, deadline - now))
            else:
                next_due = now

    async def _cycle(self):
        """One chunk period: fetch (or serve stale), note the outcome."""
        if self.client.tracker.offline:
            # Disconnected mode: degraded service from the cache, no
            # network traffic (the prober alone re-establishes trust).
            self.cache_chunks += 1
            self.cache.get(("chunk", self.fidelity))
            return
        if self.client.closed:
            self.failures += 1
            return
        try:
            if self._needs_register:
                self._needs_register = False
                self.renegotiations += 1
                await self._register(level_hint=self._pending_level)
            started = self.clock.now()
            # A small control exchange per cycle: its latency is the R
            # sample of Eq. 2 (the sim protocol logs it passively; the
            # live client reports it explicitly).
            latency = await self.client.ping()
            await self.client.call(REPORT_OP, {
                "kind": "round_trip", "seconds": max(latency, 1e-6),
            })
            nbytes = max(int(self.chunk_bytes * self.fidelity),
                         min(MIN_PROBE_BYTES, self.chunk_bytes), 1)
            result = await self.receiver.fetch(
                self.transfer_id, nbytes,
                window_bytes=self.window_bytes,
                fragment_bytes=self.fragment_bytes,
            )
            elapsed = self.clock.now() - started
            self.chunks += 1
            self.bytes_fetched += result.nbytes
            if elapsed > self.period:
                self.stalls += 1
            self.cache.put(("chunk", self.fidelity), self.clock.now(),
                           max(1, result.nbytes))
        except (RpcTimeout, TransportError, RemoteCallError, BrokerError):
            # A dead spot ate the exchange; the tracker (fed by the call
            # machinery and the prober) owns the connectivity judgement —
            # the warden records the miss and keeps its cadence.
            self.failures += 1

    # -- reductions -----------------------------------------------------------

    @property
    def fidelity_changes(self):
        """Number of rung changes after the initial optimistic choice."""
        return max(0, len(self.fidelity_log) - 1)

    def describe(self):
        return {
            "client": self.name,
            "app": self.profile.app,
            "fidelity": self.profile.name_of(self.fidelity),
            "fidelity_changes": self.fidelity_changes,
            "upcalls_received": self.upcalls_received,
            "renegotiations": self.renegotiations,
            "rejections": self.rejections,
            "chunks": self.chunks,
            "bytes_fetched": self.bytes_fetched,
            "stalls": self.stalls,
            "failures": self.failures,
            "cache_chunks": self.cache_chunks,
            "reintegrations": self.reintegrations,
            "connectivity": str(self.client.tracker.state),
        }
