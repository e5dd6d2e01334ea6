"""Per-endpoint observation logs (paper §6.2.1).

"Each distinct endpoint has its own log, and observations for different
endpoints are recorded independently."  Entries are appended by the RPC
protocol as a side effect of ordinary traffic — estimation is purely
passive.  Observers (the viceroy's policy) subscribe to be told about each
new entry.

Beyond the two entry kinds the paper names, the log also records raw
*delivery* events (timestamped byte arrivals).  The centralized viceroy uses
these to compute aggregate link throughput across all connections during any
interval — the mechanism behind "the viceroy collects information from all
logs to estimate the total bandwidth available to the client".

Deliveries arrive in time order, so an interval query bisects into a
prefix-sum :class:`DeliveryIndex`.  Each log owns one; the share estimator
owns a second that every tracked log also appends to, so the aggregate is
kept as traffic passes (one per macroflow, as in the Congestion Manager,
PAPERS.md cs/0104012) and an observation costs the same at any fleet size.
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass

#: How much delivery history each log retains, seconds.
DELIVERY_HISTORY_SECONDS = 30.0

#: Round-trip / throughput entries retained per log.  Estimators only ever
#: read the newest entry (plus the delivery window above), so with
#: thousands of fleet connections the unbounded lists were pure memory
#: growth.  Compaction keeps the most recent ``HISTORY_LIMIT`` entries and
#: runs only once the list doubles past the cap, so the amortized cost per
#: append is O(1).
HISTORY_LIMIT = 512


@dataclass(frozen=True, slots=True)
class RoundTripEntry:
    """One small exchange: elapsed wall time minus server compute time."""

    at: float  # completion time
    seconds: float  # R: round trip less server computation
    request_bytes: int
    response_bytes: int


@dataclass(frozen=True, slots=True)
class ThroughputEntry:
    """One bulk-transfer window: request-to-last-byte elapsed time."""

    at: float  # completion time
    started: float  # window request time
    nbytes: int  # W: window payload bytes
    seconds: float  # T: elapsed

    @property
    def raw_rate(self):
        """Unsmoothed W/T in bytes/s (no round-trip correction)."""
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0


class DeliveryIndex:
    """Time-sorted prefix sums of byte arrivals, pruned to the retention.

    ``times`` and ``cums`` are parallel typed arrays (unboxed: a fleet holds
    hundreds); ``cums`` is the running total *including pruned entries*, so
    an interval sum is one subtraction at two bisected positions.  ``head``
    marks the first live entry; the dead prefix is removed in chunks
    (amortized O(1)) except its last entry, which — like the zero sentinel
    before any pruning — keeps ``cums[lo - 1]`` valid without a guard.

    Entries may be dated ahead of now (:meth:`extend`: a fragment train
    whose later packets have not arrived yet).  Every reader asks about
    ``(start, now]``, so they stay invisible until their time comes.  An
    entry ahead never prunes: on each add or retraction, retention is
    reckoned from the newest entry not ahead of now.  An :meth:`add`
    behind them is inserted in order, and :meth:`retract` drops them.
    """

    __slots__ = ("times", "cums", "head")

    def __init__(self):
        self.times = array("d", (float("-inf"),))
        self.cums = array("q", (0,))
        self.head = 1

    def add(self, now, nbytes):
        """Record ``nbytes`` arriving at ``now``, the current time."""
        times = self.times
        if now < times[-1]:
            self._insert(now, nbytes)
            self._prune(now)
            return
        times.append(now)
        self.cums.append(self.cums[-1] + nbytes)
        horizon = now - DELIVERY_HISTORY_SECONDS
        head = self.head
        while times[head] < horizon:  # stops at the entry just appended
            head += 1
        if head > 4096 and head * 2 > len(times):
            del times[:head - 1]
            del self.cums[:head - 1]
            head = 1
        self.head = head

    def extend(self, times, sizes, now):
        """Record ``sizes[i]`` arriving at ``times[i]``, sorted; those
        after ``now``, the current time, are dated ahead."""
        if times[0] >= self.times[-1]:
            cums = self.cums
            total = cums[-1]
            for nbytes in sizes:
                total += nbytes
                cums.append(total)
            self.times.extend(times)
        else:
            for at, nbytes in zip(times, sizes):
                self._insert(at, nbytes)
        self._prune(now)

    def _insert(self, at, nbytes):
        times, cums = self.times, self.cums
        i = bisect_right(times, at, self.head)
        times.insert(i, at)
        cums.insert(i, cums[i - 1] + nbytes)
        for j in range(i + 1, len(cums)):
            cums[j] += nbytes

    def _prune(self, now):
        times = self.times
        newest = times[bisect_right(times, now, self.head) - 1]
        horizon = newest - DELIVERY_HISTORY_SECONDS
        head = self.head
        while head < len(times) and times[head] < horizon:
            head += 1
        self.head = head

    def retract(self, now):
        """Drop every entry dated after ``now``; returns how many."""
        times = self.times
        keep = bisect_right(times, now, self.head)
        dropped = len(times) - keep
        if dropped:
            del times[keep:]
            del self.cums[keep:]
            self._prune(now)
        return dropped

    def total(self, now):
        """Bytes that arrived up to ``now``, pruned entries included."""
        times = self.times
        if times[-1] <= now:
            return self.cums[-1]
        return self.cums[bisect_right(times, now, self.head) - 1]

    def latest(self, now):
        """Time of the newest entry not after ``now``, or None."""
        times = self.times
        at = times[bisect_right(times, now, self.head) - 1]
        return None if at == float("-inf") else at

    def between(self, start, end):
        """Bytes that arrived in the half-open interval (start, end]."""
        lo = bisect_right(self.times, start, self.head)
        hi = bisect_right(self.times, end, lo)
        return self.cums[hi - 1] - self.cums[lo - 1]

    def live(self):
        """``(time, nbytes)`` of every retained entry, oldest first."""
        cums = self.cums
        for i in range(self.head, len(cums)):
            yield self.times[i], cums[i] - cums[i - 1]


class RpcLog:
    """The observation log of one RPC endpoint (connection)."""

    #: Entry-history cap; a class attribute so tests can tighten it.
    history_limit = HISTORY_LIMIT

    def __init__(self, sim, connection_id):
        self.sim = sim
        self.connection_id = connection_id
        self.round_trips = []
        self.throughputs = []
        self.deliveries = DeliveryIndex()
        self._observers = []
        #: The tracking share estimator's all-connections index, or None.
        #: Deliveries are too frequent for the observer fan-out above, so
        #: the aggregate is fed by one attribute check per delivery.
        self.shared_deliveries = None

    def subscribe(self, observer):
        """Register ``observer``; it must expose ``on_round_trip(log, entry)``
        and ``on_throughput(log, entry)`` methods."""
        self._observers.append(observer)

    def unsubscribe(self, observer):
        self._observers.remove(observer)

    # -- appends (called by the protocol) -----------------------------------

    def _compact(self, entries):
        if len(entries) > 2 * self.history_limit:
            del entries[:len(entries) - self.history_limit]

    def add_round_trip(self, seconds, request_bytes, response_bytes):
        entry = RoundTripEntry(self.sim.now, seconds, request_bytes, response_bytes)
        self.round_trips.append(entry)
        self._compact(self.round_trips)
        for observer in list(self._observers):
            observer.on_round_trip(self, entry)
        return entry

    def add_throughput(self, started, nbytes):
        entry = ThroughputEntry(
            self.sim.now, started, nbytes, self.sim.now - started
        )
        self.throughputs.append(entry)
        self._compact(self.throughputs)
        for observer in list(self._observers):
            observer.on_throughput(self, entry)
        return entry

    def add_delivery(self, nbytes):
        """Record ``nbytes`` of payload arriving now (fragment or response)."""
        now = self.sim.now
        self.deliveries.add(now, nbytes)
        if self.shared_deliveries is not None:
            self.shared_deliveries.add(now, nbytes)

    def add_deliveries(self, times, sizes):
        """Record payload ``sizes[i]`` arriving at ``times[i]``, sorted and
        none before now: a fragment train, logged at its first arrival."""
        now = self.sim.now
        self.deliveries.extend(times, sizes, now)
        if self.shared_deliveries is not None:
            self.shared_deliveries.extend(times, sizes, now)

    def retract(self):
        """Drop the deliveries logged ahead of now (an abandoned train's
        fragments still to come); returns how many."""
        now = self.sim.now
        if self.shared_deliveries is not None:
            self.shared_deliveries.retract(now)
        return self.deliveries.retract(now)

    # -- queries (used by estimators) ----------------------------------------

    @property
    def delivered_total(self):
        """Total payload bytes delivered on this endpoint so far."""
        return self.deliveries.total(self.sim.now)

    def bytes_delivered_between(self, start, end):
        """Payload bytes that arrived in the half-open interval (start, end].

        Only ``DELIVERY_HISTORY_SECONDS`` of history is retained; asking
        about older intervals undercounts, which estimators tolerate.
        """
        return self.deliveries.between(start, end)

    def recent_rate(self, horizon):
        """Mean delivery rate over the last ``horizon`` seconds (bytes/s)."""
        if horizon <= 0:
            return 0.0
        start = self.sim.now - horizon
        return self.bytes_delivered_between(start, self.sim.now) / horizon

    def last_activity(self):
        """Time of the most recent entry of any kind, or None."""
        times = [entries[-1].at
                 for entries in (self.round_trips, self.throughputs) if entries]
        latest = self.deliveries.latest(self.sim.now)
        if latest is not None:
            times.append(latest)
        return max(times, default=None)
