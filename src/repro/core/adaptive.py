"""The adaptive client: the paper's application contract, with no clock and no I/O.

An application registers a window of tolerance around its fidelity, moves
to the level a violation upcall reports, and re-anchors on the reported
availability when a request is refused (paper §4.2–4.3).
:class:`AdaptiveClient` holds that contract for a paced chunk streamer:
a shell feeds it events and carries out the actions it returns — a
window to cancel or register, a fetch size, a wait.  The sim's
:class:`~repro.fleet.client.FleetClient` and the live
:class:`~repro.live.warden.LiveWarden` are its two shells.
"""

from repro.core.ladder import FidelityLadder
from repro.errors import NegotiationError

#: Hysteresis on the tolerance window.  A rung's window reaches a little
#: below its own demand and a little above the next rung's, so an estimate
#: wobbling around a ladder boundary does not generate an upcall (and a
#: re-registration) per wobble.
DOWNGRADE_GUARD = 0.8
UPGRADE_MARGIN = 1.3

#: The registration actions :meth:`AdaptiveClient.negotiation` returns.
CANCEL = "cancel"
REGISTER = "register"


class AdaptiveClient:
    """One paced adaptive stream: fidelity, its window, pacing and QoE.

    ``rungs`` are fidelities, ascending.  At fidelity ``f`` a chunk is
    ``f * chunk_bytes`` (never under ``min_fetch``) every ``period``
    seconds.  Events that can move fidelity take the shell's ``now`` for
    :attr:`fidelity_log`.
    """

    def __init__(self, rungs, chunk_bytes, period, min_fetch=1):
        self.chunk_bytes = chunk_bytes
        self.period = period
        self.min_fetch = max(1, min_fetch)
        self.ladder = FidelityLadder(rungs, self.demand,
                                     UPGRADE_MARGIN, DOWNGRADE_GUARD)
        self.fidelity = None
        self.fidelity_log = []  # (time, fidelity) at each change
        #: Called ``(now, fidelity)`` after each change, if set.
        self.on_fidelity = None
        self.level = None  # the availability the next registration anchors on
        self.request_id = None  # the window held, if any
        self.window_due = False  # a registration is owed
        self._joining = False  # the owed registration is not a renegotiation
        self._retrying = False  # the last reply was a refusal
        self._superseded = False  # an upcall or reconnect since the last ask
        self._tried = set()  # rungs this negotiation has asked for
        self.upcalls_received = 0
        self.renegotiations = 0
        self.rejections = 0
        self.reintegrations = 0
        self.next_due = 0.0  # when the chunk in progress was due
        self.chunks = 0
        self.bytes_fetched = 0
        self.stalls = 0  # chunks that overran the pacing period
        self.failures = 0  # chunks lost to errors (no bytes)
        self.latency_sum = 0.0
        self.latency_max = 0.0

    def demand(self, fidelity):
        """Bandwidth (bytes/s) the stream consumes at ``fidelity``."""
        return fidelity * self.chunk_bytes / self.period

    def _set_fidelity(self, fidelity, now):
        if fidelity != self.fidelity:
            self.fidelity = fidelity
            self.fidelity_log.append((now, fidelity))
            if self.on_fidelity is not None:
                self.on_fidelity(now, fidelity)

    # -- events ---------------------------------------------------------------

    def join(self, level):
        """The client (re)starts: it registers around the rung ``level``
        sustains (``None``: optimistic) before its first chunk."""
        self.level = level
        self.window_due = self._joining = True

    def upcall(self, request_id, level, now):
        """Window ``request_id`` was violated at ``level`` (``None``: torn
        down).  Fidelity follows the level now; the re-registration waits
        for the next chunk boundary, so a wobbling estimate cannot drive
        one negotiation round trip per violation."""
        self.upcalls_received += 1
        if request_id == self.request_id:
            self.request_id = None  # one-shot: the window is already gone
        self.level = level
        self.window_due = self._superseded = True
        if level is not None:
            self._set_fidelity(self.ladder.best(level), now)

    def reconnected(self):
        """The link is back: the window held from before the outage may be
        gone or stale, so cancel it and negotiate afresh, optimistically."""
        self.reintegrations += 1
        self.level = None
        self.window_due = self._superseded = True

    def rejected(self, available):
        """The window asked for was refused at ``available``."""
        self.rejections += 1
        self.level = available
        self._retrying = True

    def accepted(self, request_id):
        """The window asked for is registered as ``request_id``.  It settles
        the owed registration unless an upcall or reconnect came meanwhile."""
        self.request_id = request_id
        if not self._superseded:
            self.window_due = False

    def cancelled(self):
        """The window held is gone (cancelled, or dropped by an upcall
        that raced the cancel)."""
        self.request_id = None

    def chunk_done(self, elapsed, nbytes):
        """One chunk took ``elapsed`` seconds and brought ``nbytes`` (0:
        lost)."""
        self.chunks += 1
        self.bytes_fetched += nbytes
        self.latency_sum += elapsed
        if elapsed > self.latency_max:
            self.latency_max = elapsed
        if elapsed > self.period:
            self.stalls += 1
        if not nbytes:
            self.failures += 1

    # -- actions --------------------------------------------------------------

    def negotiation(self, now):
        """The registration step due, or ``None`` once the window held is
        current: ``(CANCEL, request_id)`` for a window held from before
        (answer :meth:`cancelled`), else ``(REGISTER, (lower, upper))``
        (answer :meth:`accepted` or :meth:`rejected`).

        Fidelity moves to the rung the anchor level sustains *before* each
        ask, as ``apps.base.negotiate`` does.  After a refusal the next ask
        re-anchors on the reported availability; asking again for a rung
        this negotiation already tried raises :class:`NegotiationError`, so
        the finite ladder bounds the retries.  A lost reply leaves the
        registration owed: the next call starts a new negotiation.
        """
        if not self.window_due:
            return None
        if self.request_id is not None:
            return CANCEL, self.request_id
        if not self._retrying:
            self._tried.clear()
            if self._joining:
                self._joining = False
            else:
                self.renegotiations += 1
        self._retrying = self._superseded = False
        rung = self.ladder.best(self.level)
        self._set_fidelity(rung, now)
        if rung in self._tried:
            raise NegotiationError(
                f"no rung of {self.ladder.rungs} registers at "
                f"available={self.level}")
        self._tried.add(rung)
        return REGISTER, self.ladder.window(rung)

    def fetch_size(self):
        """Bytes to fetch for the next chunk at the current fidelity."""
        return max(int(self.chunk_bytes * self.fidelity), self.min_fetch)

    def wait(self, now):
        """Seconds from ``now`` to the next chunk, due one period after the
        last; a late stream gets 0.0 and restarts its cadence at ``now``.
        A shell sets :attr:`next_due` to ``now`` when pacing starts."""
        self.next_due += self.period
        if self.next_due > now:
            return self.next_due - now
        self.next_due = now
        return 0.0

    # -- reductions -----------------------------------------------------------

    @property
    def mean_latency(self):
        return self.latency_sum / self.chunks if self.chunks else 0.0

    @property
    def fidelity_changes(self):
        """Rung changes after the first choice."""
        return max(0, len(self.fidelity_log) - 1)

    def _in_force(self, start, end):
        """``(fidelity, seconds)`` for each stretch of [start, end]."""
        log = self.fidelity_log
        # Value in force at ``start``: the last change at or before it.
        current = log[0][1]
        cursor = start
        for at, value in log:
            if at <= start:
                current = value
                continue
            if at >= end:
                break
            yield current, at - cursor
            cursor = at
            current = value
        yield current, end - cursor

    def mean_fidelity(self, start, end):
        """Time-weighted mean fidelity over [start, end]."""
        if end <= start or not self.fidelity_log:
            return 0.0
        weighted = 0.0
        for value, seconds in self._in_force(start, end):
            weighted += value * seconds
        return weighted / (end - start)

    def min_fidelity(self, start, end):
        """Lowest fidelity in force during [start, end]: the chaos
        scorecard's *fidelity floor*."""
        if end <= start or not self.fidelity_log:
            return 0.0
        return min(value for value, _ in self._in_force(start, end))
