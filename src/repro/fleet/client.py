"""The fleet client: a small adaptive streamer, instantiated by the thousand.

Each client is a :class:`~repro.apps.base.Application` that fetches chunks
through its own :class:`~repro.apps.bitstream.StreamWarden` connection on a
fixed pacing period, scaling the chunk size by a fidelity ladder.  What to
register, fetch and wait for is decided by its
:class:`~repro.core.adaptive.AdaptiveClient`; this class is the sim
shell that carries those actions out through the Odyssey API, running the
core's owed registrations at each chunk boundary (the paper's own
applications run them inline from their upcall handler).

Unlike the single-application experiments, nothing here is measured at
fine grain — a client reduces itself to a handful of QoE numbers (bytes,
stalls, chunk latency, time-weighted fidelity, upcall traffic) so that
thousands of them stay cheap to aggregate across shards.
"""

from repro.apps.base import Application
from repro.core.adaptive import AdaptiveClient, stream_ladder
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


class FleetClient(Application):
    """One paced adaptive stream: a sim process driving an adaptive core."""

    handler = "fleet-bw"

    def __init__(self, sim, api, name, path, chunk_bytes=DEFAULT_CHUNK_BYTES,
                 period=DEFAULT_PERIOD, levels=FIDELITY_LEVELS,
                 measure_from=0.0, mark_every=0):
        super().__init__(sim, api, name)
        self.path = path
        self.core = AdaptiveClient(
            stream_ladder(sorted(levels), chunk_bytes, period),
            chunk_bytes, period)
        self.measure_from = measure_from
        #: Issue a ``save-mark`` write every N chunk cycles (0 = never).
        #: Chaos fleets turn this on so disconnected periods exercise the
        #: deferred-op log; the plain fleet path stays write-free.
        self.mark_every = mark_every
        self.marks_attempted = 0
        self.marks_deferred = 0
        self._cycles = 0

    def _on_upcall(self, upcall):
        # Fidelity follows now; the re-registration waits for the chunk
        # boundary.
        self.core.upcall(upcall.request_id, upcall.level, self.sim.now)

    def run(self):
        core = self.core
        self._join(self.api.availability(self.path))
        core.next_due = self.sim.now
        try:
            while True:
                self._negotiate()
                started = self.sim.now
                try:
                    fetched = yield from self.api.tsop(
                        self.path, "get-chunk", {"nbytes": core.fetch_size()}
                    )
                except (RpcError, OdysseyError):
                    # A dead spot ate the fetch; the viceroy's lifecycle
                    # machinery (and our upcall handler) will adapt — the
                    # client just records the miss and keeps its cadence.
                    fetched = 0
                if self.sim.now > self.measure_from:
                    core.chunk_done(self.sim.now - started, fetched)
                self._cycles += 1
                if self.mark_every and self._cycles % self.mark_every == 0:
                    yield from self._save_mark()
                wait = core.wait(self.sim.now)
                if wait:
                    yield self.sim.timeout(wait)
        except ProcessInterrupt:
            return core.bytes_fetched

    def _save_mark(self):
        """Persist the stream position; disconnected marks defer, not fail.

        The warden queues the op when the link is down (the result dict
        carries ``deferred``); an RPC/connectivity error is dropped — the
        client never retries inline, reintegration owns the replay.
        """
        self.marks_attempted += 1
        try:
            result = yield from self.api.tsop(
                self.path, "save-mark",
                {"client": self.name, "position": self._cycles},
            )
        except (RpcError, OdysseyError):
            return
        if isinstance(result, dict) and result.get("deferred"):
            self.marks_deferred += 1
