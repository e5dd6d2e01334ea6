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

Pacing has a timer granularity, :data:`PACING_GRANULARITY`: ``acquire``
sleeps only when its fragment is due more than one granularity from now.
A fragment due sooner goes out at once, its transmission time left on the
``_free_at`` cursor.  The reason is timer cost: a sleep is a timer handle
and a full event-loop turn, and on a fast link (8 KiB at 1 TB/s is 8 ns
of link time) that is all it does, so every fragment would reach the
receiver alone; without it a window goes out in one loop turn and the
receiver takes the train in one wake-up.  The rate holds because the
cursor does: every acquire advances it by ``n / rate`` from
``max(now, _free_at)``, asleep or not, so it stands where per-fragment
sleeping would put it, and an acquire returns at most one granularity
before it.  The link is never more than one granularity ahead of its
schedule.  A paced link (8 KiB at 2 MB/s is 4.1 ms) still sleeps for
every fragment.
"""

from repro.errors import BrokerError
from repro.rpc.clock import MonotonicClock

#: How far ``acquire`` steps through a zero-rate (blackout) stretch while
#: looking for the next transmitting instant, seconds.
DEAD_ZONE_STEP = 0.05

#: Shortest link time ``acquire`` sleeps for, seconds: a fragment due
#: within this of now goes out at once (RFC 9002's ``kGranularity``; the
#: same millisecond as the receiver's ``RECEIPT_HOLD``).
PACING_GRANULARITY = 0.001


class Throttle:
    """A wall-clock serial link: fragments acquire it one at a time."""

    def __init__(self, bandwidth=None, trace=None, clock=None, loop=True):
        if (bandwidth is None) == (trace is None):
            raise BrokerError("Throttle needs exactly one of "
                              "bandwidth= or trace=")
        if bandwidth is not None and bandwidth <= 0:
            raise BrokerError(f"throttle bandwidth must be positive, "
                              f"got {bandwidth!r}")
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
        #: Acquires that slept (the rest were due within a granularity).
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

    async def acquire(self, nbytes):
        """Hold the link for ``nbytes`` worth of transmission time.

        Returns once the virtual link has finished "transmitting" the
        fragment, or at once if that is at most :data:`PACING_GRANULARITY`
        away; concurrent acquirers serialize through ``_free_at`` exactly
        like packets queueing on a modem.
        """
        now = self.clock.now()
        start = max(now, self._free_at)
        rate = self.rate_at(start - self.started)
        while rate <= 0:
            # A blackout segment: walk forward to the next instant the
            # trace transmits at all.
            start += DEAD_ZONE_STEP
            rate = self.rate_at(start - self.started)
        self._free_at = start + nbytes / rate
        self.bytes_shaped += nbytes
        self.fragments_shaped += 1
        delay = self._free_at - now
        if delay > PACING_GRANULARITY:
            self.sleeps += 1
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
