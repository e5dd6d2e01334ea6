"""The fleet client: a small adaptive streamer, instantiated by the thousand.

Each client is a :class:`~repro.apps.base.Application` that fetches chunks
through its own :class:`~repro.apps.bitstream.StreamWarden` connection on a
fixed pacing period, scaling the chunk size by a fidelity ladder.  The
ladder is negotiated with the viceroy exactly as the paper's applications
do: a tolerance window per fidelity level, violation upcalls trigger
re-negotiation at the observed availability.

Unlike the single-application experiments, nothing here is measured at
fine grain — a client reduces itself to a handful of QoE numbers (bytes,
stalls, chunk latency, time-weighted fidelity, upcall traffic) so that
thousands of them stay cheap to aggregate across shards.
"""

from repro.apps.base import Application, negotiate
from repro.core.ladder import FidelityLadder
from repro.core.resources import Resource
from repro.errors import OdysseyError, ProcessInterrupt, RpcError

#: Full-fidelity chunk size, bytes.  Large enough that a chunk's transfer
#: time is bandwidth-dominated rather than latency-dominated — tiny fetches
#: would anchor the viceroy's total-bandwidth estimate at current usage
#: instead of probing actual link capacity.
DEFAULT_CHUNK_BYTES = 32 * 1024
#: Seconds between chunk deadlines (one chunk per period).
DEFAULT_PERIOD = 4.0
#: The fidelity ladder, ascending.  Each level fetches this fraction of the
#: full chunk; the lowest level's tolerance window is open at the bottom so
#: a client can always register, however bad the link.
FIDELITY_LEVELS = (0.125, 0.25, 0.5, 1.0)
#: Hysteresis on the tolerance window.  A level's window reaches a little
#: below its own demand and a little above the next level's, so an
#: estimate wobbling around a ladder boundary does not generate an upcall
#: (and a re-registration) per wobble.
DOWNGRADE_GUARD = 0.8
UPGRADE_MARGIN = 1.3


class FleetClient(Application):
    """One paced adaptive stream with a negotiated fidelity ladder."""

    def __init__(self, sim, api, name, path, chunk_bytes=DEFAULT_CHUNK_BYTES,
                 period=DEFAULT_PERIOD, levels=FIDELITY_LEVELS,
                 measure_from=0.0, mark_every=0):
        super().__init__(sim, api, name)
        self.path = path
        self.chunk_bytes = chunk_bytes
        self.period = period
        self.ladder = FidelityLadder(sorted(levels), self.demand,
                                     UPGRADE_MARGIN, DOWNGRADE_GUARD)
        self.measure_from = measure_from
        #: Issue a ``save-mark`` write every N chunk cycles (0 = never).
        #: Chaos fleets turn this on so disconnected periods exercise the
        #: deferred-op log; the plain fleet path stays write-free.
        self.mark_every = mark_every
        self.marks_attempted = 0
        self.marks_deferred = 0
        self.marks_acked = 0
        self.mark_failures = 0
        self._cycles = 0
        self.fidelity = None
        self.fidelity_log = []  # (time, fidelity) at each change
        self.bytes_consumed = 0  # within the measurement window
        self.chunks = 0
        self.stalls = 0  # chunk fetches that overran the pacing period
        self.failures = 0  # fetches lost to RPC/connectivity errors
        self.latency_sum = 0.0
        self.latency_max = 0.0
        self.upcalls_received = 0
        self.renegotiations = 0
        self._needs_register = False
        self._pending_level = None

    # -- fidelity ladder -------------------------------------------------------

    def demand(self, fidelity):
        """Bandwidth (bytes/s) this client consumes at ``fidelity``."""
        return fidelity * self.chunk_bytes / self.period

    # -- negotiation -----------------------------------------------------------

    def _set_fidelity(self, fidelity):
        if fidelity != self.fidelity:
            self.fidelity = fidelity
            self.fidelity_log.append((self.sim.now, fidelity))

    def _register(self, level_hint=None):
        negotiate(
            self.api, self.path, Resource.NETWORK_BANDWIDTH,
            window_for=lambda bw: self.ladder.window(self.fidelity),
            on_level=lambda bw: self._set_fidelity(self.ladder.best(bw)),
            level_hint=level_hint,
            handler="fleet-bw",
        )

    def _on_upcall(self, upcall):
        """Adapt now, re-register at the client's own cadence.

        Fidelity follows the upcall's level immediately (the paper's
        contract), but the re-registration RPC waits for the next chunk
        boundary: re-registering inline would let a wobbling estimate
        drive one negotiation round-trip per violation, per client — at
        fleet scale that negotiation storm dwarfs the data traffic.
        """
        self.upcalls_received += 1
        self._pending_level = upcall.level
        self._needs_register = True
        if upcall.level is not None:
            self._set_fidelity(self.ladder.best(upcall.level))

    # -- main loop -------------------------------------------------------------

    def run(self):
        self.api.on_upcall("fleet-bw", self._on_upcall)
        self._register(level_hint=self.api.availability(self.path))
        next_due = self.sim.now
        try:
            while True:
                if self._needs_register:
                    self._needs_register = False
                    self.renegotiations += 1
                    self._register(level_hint=self._pending_level)
                started = self.sim.now
                nbytes = max(1, int(self.chunk_bytes * self.fidelity))
                try:
                    fetched = yield from self.api.tsop(
                        self.path, "get-chunk", {"nbytes": nbytes}
                    )
                except (RpcError, OdysseyError):
                    # A dead spot ate the fetch; the viceroy's lifecycle
                    # machinery (and our upcall handler) will adapt — the
                    # client just records the miss and keeps its cadence.
                    fetched = 0
                elapsed = self.sim.now - started
                if self.sim.now > self.measure_from:
                    self.chunks += 1
                    self.bytes_consumed += fetched
                    self.latency_sum += elapsed
                    if elapsed > self.latency_max:
                        self.latency_max = elapsed
                    if elapsed > self.period:
                        self.stalls += 1
                    if fetched == 0:
                        self.failures += 1
                self._cycles += 1
                if self.mark_every and self._cycles % self.mark_every == 0:
                    yield from self._save_mark()
                next_due += self.period
                if next_due > self.sim.now:
                    yield self.sim.timeout(next_due - self.sim.now)
                else:
                    next_due = self.sim.now
        except ProcessInterrupt:
            return self.bytes_consumed

    def _save_mark(self):
        """Persist the stream position; disconnected marks defer, not fail.

        The warden queues the op when the link is down (the result dict
        carries ``deferred``); an RPC/connectivity error just counts — the
        client never retries inline, reintegration owns the replay.
        """
        self.marks_attempted += 1
        try:
            result = yield from self.api.tsop(
                self.path, "save-mark",
                {"client": self.name, "position": self._cycles},
            )
        except (RpcError, OdysseyError):
            self.mark_failures += 1
            return
        if isinstance(result, dict) and result.get("deferred"):
            self.marks_deferred += 1
        else:
            self.marks_acked += 1

    # -- reductions ------------------------------------------------------------

    @property
    def mean_latency(self):
        return self.latency_sum / self.chunks if self.chunks else 0.0

    def mean_fidelity(self, start, end):
        """Time-weighted mean fidelity over [start, end]."""
        if end <= start or not self.fidelity_log:
            return 0.0
        log = self.fidelity_log
        # Value in force at ``start``: the last change at or before it.
        current = log[0][1]
        weighted = 0.0
        cursor = start
        for at, value in log:
            if at <= start:
                current = value
                continue
            if at >= end:
                break
            weighted += current * (at - cursor)
            cursor = at
            current = value
        weighted += current * (end - cursor)
        return weighted / (end - start)

    def min_fidelity(self, start, end):
        """Lowest fidelity in force at any point during [start, end].

        The chaos scorecard's *fidelity floor*: how far a client was
        pushed down the ladder at its worst moment.
        """
        if end <= start or not self.fidelity_log:
            return 0.0
        log = self.fidelity_log
        current = log[0][1]
        floor = None
        for at, value in log:
            if at <= start:
                current = value
                continue
            if at >= end:
                break
            floor = current if floor is None else min(floor, current)
            current = value
        return current if floor is None else min(floor, current)
