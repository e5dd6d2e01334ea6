"""Synthetic link shaping inside the live broker (no ``tc`` required).

The live demo needs the one thing a loopback socket cannot give it: a
link whose capacity *changes*.  Rather than reach for kernel traffic
control, the broker paces its own bulk stream through a :class:`Throttle`
— a model of one serial downlink shared by every transfer, whose rate at
any instant comes from a :class:`~repro.trace.replay.ReplayTrace` (the
same waveform objects the simulator modulates its links with) or a
constant.

The model is the simulator's :class:`~repro.net.link.SimplexLink`
translated to wall time: the link is busy transmitting one fragment at a
time, a fragment of ``n`` bytes holds it for ``n / rate`` seconds, and
concurrent transfers queue — so N clients fetching at once each observe
roughly ``rate / N``, which is exactly the contention the viceroy's
:class:`~repro.estimation.share.ClientShares` arbitration exists to split
fairly.  A zero-rate segment (a blackout) parks the virtual link until
the trace comes back, stalling every transfer through it.

Pacing is a reservation plus a sleep.  The bulk streamer reserves each
fragment synchronously with :meth:`~Throttle.reserve`, offered at the
instant its window's request reached the broker (``queued_at``), so the
fragment starts at ``max(queued_at, cursor)`` and finishes ``n / rate``
later: the recurrence :meth:`SimplexLink.send
<repro.net.link.SimplexLink.send>` uses, on the same single ``_free_at``
cursor.  The reservation returns the finish time, and the streamer does
not release the fragment before it.  Starting from the queue time rather
than from "now" is what holds the rate end to end: a sleep always wakes
a little late, and a link that restarted its cursor at the wake-up would
add every wake-up's lateness to the window.  Here the lateness is caught
up by the next fragment, so a window ends one lateness after its
schedule, not one per fragment.

Pacing has a timer granularity, :data:`PACING_GRANULARITY`.  A fragment
that holds the link for at most a granularity and finishes at most a
granularity from now is due at once: :meth:`~Throttle.reserve` returns
``None`` for it.  The reason is timer cost: a sleep is a timer handle and
a full event-loop turn, and on a fast link (8 KiB at 1 TB/s is 8 ns of
link time) that is all it does.  Every fragment due at once joins one
train, which the streamer writes to the socket in one write.  So no
fragment leaves more than one granularity before its finish on the
cursor, and the link is never more than one granularity ahead of its
schedule.  A fragment longer than a granularity (8 KiB at 2 MB/s is
4.1 ms) always waits for its own finish and leaves alone, however late
the last wake-up was: how many writes a window costs is set by the link,
not by the host's timers.

A link that can never transmit again, because a non-looping trace ends
on a zero-rate segment, raises :class:`~repro.errors.LinkDown` from
``reserve``, as the simulator's link does; a trace with no transmitting
segment at all is rejected at construction.
"""

from repro.errors import BrokerError, LinkDown
from repro.rpc.clock import MonotonicClock

#: How far ``reserve`` steps through a zero-rate (blackout) stretch while
#: looking for the next transmitting instant, seconds.
DEAD_ZONE_STEP = 0.05

#: Shortest wait a reservation asks for, seconds: a fragment due within
#: this of now goes out at once (RFC 9002's ``kGranularity``; the
#: same millisecond as the receiver's ``RECEIPT_HOLD``).
PACING_GRANULARITY = 0.001


class Throttle:
    """A wall-clock serial link: fragments reserve it one at a time."""

    def __init__(self, bandwidth=None, trace=None, clock=None, loop=True):
        if (bandwidth is None) == (trace is None):
            raise BrokerError("Throttle needs exactly one of "
                              "bandwidth= or trace=")
        if bandwidth is not None and bandwidth <= 0:
            raise BrokerError(f"throttle bandwidth must be positive, "
                              f"got {bandwidth!r}")
        if trace is not None and not any(
                segment.bandwidth > 0 for segment in trace.segments):
            raise BrokerError(f"throttle trace {trace.name!r} never "
                              f"transmits: every segment has zero bandwidth")
        self.bandwidth = bandwidth
        self.trace = trace
        #: Replay the trace cyclically (a finite waveform drives an
        #: arbitrarily long demo); ``False`` holds the last segment's rate.
        self.loop = loop
        self.clock = clock or MonotonicClock()
        self.started = self.clock.now()
        self._free_at = self.started
        self.bytes_shaped = 0
        self.fragments_shaped = 0
        #: Reservations the streamer waited for (the rest were due at
        #: once).
        self.sleeps = 0

    def rate_at(self, elapsed):
        """Link capacity ``elapsed`` seconds into the run, bytes/s."""
        if self.trace is None:
            return self.bandwidth
        duration = self.trace.duration
        if self.loop and elapsed >= duration:
            elapsed = elapsed % duration
        return self.trace.bandwidth_at(min(elapsed, duration))

    def rate_now(self):
        """Current link capacity, bytes/s."""
        return self.rate_at(self.clock.now() - self.started)

    def reserve(self, nbytes, queued_at):
        """Queue ``nbytes`` on the link, offered at ``queued_at``.

        The fragment starts once the link is free and it has been offered,
        ``max(queued_at, cursor)``, and holds the link for ``nbytes`` of
        transmission time; concurrent streams serialize through the cursor
        like packets queueing on a modem.  Returns the instant it finishes,
        before which it must not be released, or ``None`` when it is due
        at once (see the module docstring).  Raises
        :class:`~repro.errors.LinkDown` if the link never transmits again.
        """
        start = max(queued_at, self._free_at)
        rate = self.rate_at(start - self.started)
        if rate <= 0:
            # A blackout segment: walk forward to the next instant the
            # trace transmits at all.  One trace length covers a whole
            # period of a looping trace and the end of one that is not.
            horizon = start + self.trace.duration
            while rate <= 0:
                start += DEAD_ZONE_STEP
                if start > horizon:
                    raise LinkDown(f"throttle trace {self.trace.name!r}: "
                                   f"bandwidth zero from here on; cannot "
                                   f"transmit {nbytes} bytes")
                rate = self.rate_at(start - self.started)
        hold = nbytes / rate
        self._free_at = finish = start + hold
        self.bytes_shaped += nbytes
        self.fragments_shaped += 1
        if hold > PACING_GRANULARITY \
                or finish - self.clock.now() > PACING_GRANULARITY:
            return finish
        return None

    async def sleep_until(self, when):
        """Sleep until ``when``, the finish :meth:`reserve` returned (not
        at all if that has passed)."""
        self.sleeps += 1
        delay = when - self.clock.now()
        if delay > 0:
            await self.clock.sleep(delay)


def square_wave(high, low, phase_seconds, latency=0.002):
    """A cycling high/low bandwidth trace for the live demo.

    One period is ``high`` for ``phase_seconds`` then ``low`` for
    ``phase_seconds``; the :class:`Throttle` loops it, so a demo of any
    duration sees repeated step-down *and* step-up transitions — each one
    a forced adaptation in some direction for every connected client.
    """
    from repro.trace.replay import ReplayTrace, Segment

    if high <= 0 or low <= 0:
        raise BrokerError(f"square wave rates must be positive, "
                          f"got high={high!r} low={low!r}")
    if phase_seconds <= 0:
        raise BrokerError(f"square wave phase must be positive, "
                          f"got {phase_seconds!r}")
    return ReplayTrace(
        [Segment(phase_seconds, high, latency),
         Segment(phase_seconds, low, latency)],
        name=f"live-square-{high:g}-{low:g}",
    )
