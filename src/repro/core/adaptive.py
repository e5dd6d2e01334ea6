"""The adaptive client: the paper's application contract, with no clock and no I/O.

An application registers a window of tolerance around its fidelity, moves
to the level a violation upcall reports, and re-anchors on the reported
availability when a request is refused (paper §4.2–4.3).
:class:`AdaptiveClient` holds that contract over the caller's
:class:`~repro.core.ladder.FidelityLadder`: a shell feeds it events and
carries out the actions it returns — a window to cancel or register and,
for a paced chunk streamer, a fetch size and a wait.  *When* an owed
registration is carried out is where the shell calls
:meth:`~AdaptiveClient.negotiation`: the paper's sim applications do it
inline from their upcall handler, the sim
:class:`~repro.fleet.client.FleetClient` and the live
:class:`~repro.live.warden.LiveWarden` at their next chunk boundary.
:meth:`repro.apps.base.Application._negotiate` is the one sim loop.
"""

from repro.core.ladder import FidelityLadder
from repro.errors import NegotiationError

#: Hysteresis on the tolerance window.  A rung's window reaches a little
#: below its own demand and a little above the next rung's, so an estimate
#: wobbling around a ladder boundary does not generate an upcall (and a
#: re-registration) per wobble.
DOWNGRADE_GUARD = 0.8
UPGRADE_MARGIN = 1.3

#: How far a held window reaches around its anchor level (see ``dwell``).
HOLD_BELOW = 0.90
HOLD_ABOVE = 1.10

#: The registration actions :meth:`AdaptiveClient.negotiation` returns.
CANCEL = "cancel"
REGISTER = "register"


def stream_ladder(rungs, chunk_bytes, period):
    """The paced streamer's ladder: fidelity ``f`` (``rungs`` ascending)
    demands ``f * chunk_bytes / period`` bytes/s, with the
    :data:`DOWNGRADE_GUARD` / :data:`UPGRADE_MARGIN` hysteresis."""
    return FidelityLadder(rungs, lambda f: f * chunk_bytes / period,
                          UPGRADE_MARGIN, DOWNGRADE_GUARD)


class AdaptiveClient:
    """One adaptive application: fidelity, its window, and for a paced
    stream its pacing and QoE.

    Fidelity is a rung of ``ladder``.  A paced stream fetches
    ``f * chunk_bytes`` (never under ``min_fetch``) every ``period``
    seconds; a shell that does not pace leaves them 0.  Within ``dwell``
    seconds of the last rung change (the first choice does not count)
    fidelity holds: the window asked for widens to contain the anchor
    level, and :attr:`hold_until` says when the shell should
    :meth:`recheck`.  Events that can move fidelity take the shell's
    ``now`` for :attr:`fidelity_log`.
    """

    def __init__(self, ladder, chunk_bytes=0, period=0.0, min_fetch=1,
                 dwell=0.0):
        self.ladder = ladder
        self.chunk_bytes = chunk_bytes
        self.period = period
        self.min_fetch = max(1, min_fetch)
        self.dwell = dwell
        #: When the latest hold ends, until the next :meth:`recheck`.
        self.hold_until = None
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
        self._tried = set()  # windows this negotiation has asked for
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

    def _set_fidelity(self, fidelity, now):
        if fidelity != self.fidelity:
            self.fidelity = fidelity
            self.fidelity_log.append((now, fidelity))
            if self.on_fidelity is not None:
                self.on_fidelity(now, fidelity)

    def _follow(self, level, now):
        """Move to the rung ``level`` sustains; ``True`` if the dwell holds
        the current rung instead."""
        rung = self.ladder.best(level)
        log = self.fidelity_log
        if (rung != self.fidelity and len(log) > 1
                and now - log[-1][0] < self.dwell):
            self.hold_until = log[-1][0] + self.dwell
            return True
        self._set_fidelity(rung, now)
        return False

    # -- events ---------------------------------------------------------------

    def join(self, level):
        """The client (re)starts: it registers around the rung ``level``
        sustains (``None``: optimistic) before its first chunk."""
        self.level = level
        self.window_due = self._joining = True

    def upcall(self, request_id, level, now):
        """Window ``request_id`` was violated at ``level`` (``None``: torn
        down).  Fidelity follows the level now; the re-registration is
        owed until the shell's next :meth:`negotiation` (a streamer waits
        for its chunk boundary, so a wobbling estimate cannot drive one
        negotiation round trip per violation)."""
        self.upcalls_received += 1
        if request_id == self.request_id:
            self.request_id = None  # one-shot: the window is already gone
        self.level = level
        self.window_due = self._superseded = True
        if level is not None:
            self._follow(level, now)

    def recheck(self, level):
        """Cancel the window held and negotiate afresh around ``level``:
        what a shell does when a hold ends."""
        self.hold_until = None
        self.level = level
        self.window_due = self._superseded = True

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
        ask, or holds within the dwell, its window widened to
        :data:`HOLD_BELOW` / :data:`HOLD_ABOVE` times the anchor.  After a
        refusal the next ask re-anchors on the reported availability;
        asking again for a window this negotiation already tried raises
        :class:`NegotiationError`, so the finite ladder bounds the retries.
        A lost reply leaves the registration owed: the next call starts a
        new negotiation.
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
        level = self.level
        held = self._follow(level, now)
        window = self.ladder.window(self.fidelity)
        if held and level is not None:
            lower, upper = window
            window = (min(lower, level * HOLD_BELOW),
                      max(upper, level * HOLD_ABOVE))
        if window in self._tried:
            raise NegotiationError(
                f"no rung of {self.ladder.rungs} registers at "
                f"available={level}")
        self._tried.add(window)
        return REGISTER, window

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
