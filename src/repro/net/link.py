"""A serializing, trace-modulated simplex link.

The link is the paper's delay layer: traffic is delayed "according to a
simple linear model combining latency and bandwidth-induced delays"
(§6.1.2).  Packets serialize FIFO through the bandwidth term (they queue
behind each other), then experience the propagation latency in effect when
serialization finishes.  Delivery order is forced FIFO even across latency
drops, matching in-order modulation of a single radio.

The serializer is work-conserving and its trace is fixed before the run
starts, so a packet's whole schedule is known the moment it is enqueued:
it starts when the packet ahead of it finishes (or at once, on an idle
link) and finishes where the trace's piecewise integration says.  ``send``
computes that schedule for a packet, or for each packet of a
:class:`~repro.net.packet.Train` in turn, in one loop — the live
:class:`~repro.live.throttle.Throttle` models the same link with the same
single ``free_at`` cursor.  A packet costs one scheduled event, its
delivery; a train of n >= 2 packets costs two, its runs (every packet but
the last at the first's arrival, the last at its own).  A per-link
segment cursor answers the common case, a packet that starts and finishes
inside one trace segment, with one division; everything else falls back
to :func:`~repro.trace.integrate.transmission_finish_time`.
"""

import math
from dataclasses import dataclass

from repro.errors import LinkDown
from repro.net.packet import Train
from repro.sim.events import Event
from repro.trace.integrate import transmission_finish_time


@dataclass(slots=True)
class LinkStats:
    """Counters a link keeps for evaluation and tests.

    ``packets_sent``, ``bytes_sent`` and ``busy_seconds`` count a packet
    when the link accepts it, because its transmission is fully determined
    at that point; a packet still in flight when a run stops is counted.
    A packet that can never finish (the trace pins bandwidth at zero
    forever) is not accepted and not counted.
    """

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    busy_seconds: float = 0.0


class SimplexLink:
    """One direction of the modulated wireless link.

    ``send(packet)`` serializes the packet (or each packet of a train)
    behind every packet already accepted, then delivers it
    ``latency_at(finish)`` later via ``deliver`` (a callable set by the
    network), never ahead of an earlier packet.
    Completion times are exact across trace transitions, and bit-identical
    to :func:`~repro.trace.integrate.transmission_finish_time` and
    :meth:`~repro.trace.replay.ReplayTrace.latency_at`.

    A send whose packet can never finish raises :class:`LinkDown` out of
    the simulator's ``run``; every later packet is silently parked, as on
    a link busy forever.

    Loss bursts (``drop_filter``) are decided when a packet's delivery
    fires, with its finish time as ``when``; a dropped packet keeps its
    place in the FIFO delivery order.  A train accepted while a filter is
    armed is delivered one packet per run, so each is decided alone (the
    filter sees it as :meth:`Train.packet` builds it).  Against deciding at the
    finish instant, as a link with a separate finish event would, this
    differs in two corner cases, both only when latency falls between two
    finishes: draws on an rng shared by both directions happen in delivery
    order, not finish order; and a packet can be clamped behind a dropped
    packet's delivery time.
    """

    def __init__(self, sim, trace, name, deliver=None):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.deliver = deliver
        self.stats = LinkStats()
        #: Optional fault hook: ``drop_filter(packet, when) -> bool``.  A
        #: truthy return discards the packet after serialization (the bytes
        #: occupied the air, but the receiver never sees them) — the
        #: mechanism behind injected loss bursts (:mod:`repro.faults`).
        self.drop_filter = None
        #: When the last accepted packet finishes serializing.
        self._free_at = 0.0
        self._last_delivery = 0.0
        # The segment cursor: the trace stretch [_seg_start, _seg_end)
        # holding the latest finish, and its parameters.  Per link, since
        # the trace itself is shared and immutable.
        self._seek(0.0)

    def _seek(self, t):
        self._seg_start, self._seg_end, segment = self.trace.span_at(t)
        self._bandwidth = segment.bandwidth
        self._latency = segment.latency

    def send(self, packet):
        """Accept ``packet``, or every packet of a :class:`Train` in
        order, and schedule delivery."""
        sim = self.sim
        now = sim.now
        start = self._free_at
        if start < now:
            start = now
        stats = self.stats
        last = self._last_delivery
        finishes = []
        deliveries = []
        down = False
        for size in packet.sizes:
            if not self._seg_start <= start < self._seg_end:
                self._seek(start)
            bandwidth = self._bandwidth
            # The same float operations as transmission_finish_time's first
            # segment, so the fast path is bit-identical to it.
            if bandwidth > 0 and (needed := size / bandwidth) <= self._seg_end - start:
                finish = start + needed
            else:
                finish = transmission_finish_time(self.trace, start, size)
                if finish == math.inf:
                    down = True
                    break
            if finish >= self._seg_end:
                self._seek(finish)
            stats.packets_sent += 1
            stats.bytes_sent += size
            stats.busy_seconds += finish - start
            deliver_at = finish + self._latency
            # Enforce FIFO delivery even if latency drops mid-flight.
            if deliver_at < last:
                deliver_at = last
            last = deliver_at
            finishes.append(finish)
            deliveries.append(deliver_at)
            start = finish
        self._last_delivery = last
        if type(packet) is Train:
            # Where the kernel lands each call_at(deliver_at) issued now.
            packet.arrivals = [now + (at - now) for at in deliveries]
            for lo, hi in packet.runs(self.drop_filter is not None):
                sim.call_at(deliveries[lo], self._finish_transmission,
                            packet, finishes[lo], lo, hi)
        elif deliveries:
            sim.call_at(deliveries[0], self._finish_transmission, packet,
                        finishes[0])
        if not down:
            self._free_at = start
        elif self._free_at != math.inf:
            self._free_at = math.inf
            # Surface at run(): an unwaited failing event propagates out of
            # the kernel.  Packets after this one are parked with it.
            Event(sim, name=f"{self.name}.down").fail(LinkDown(
                f"link {self.name!r}: bandwidth pinned at zero forever; "
                f"cannot transmit {packet!r}"
            ))

    def _finish_transmission(self, packet, when, lo=0, hi=1):
        # The link's one delivery event per packet or per run of a train:
        # deliver or drop.  The repository benchmark counts these events by
        # this function's name (bench/).
        if hi - lo == 1 and self.drop_filter is not None and self.drop_filter(
                packet.packet(lo), when):
            self.stats.packets_dropped += 1
            return
        if self.deliver is None:
            raise LinkDown(f"link {self.name!r} has no delivery target")
        if type(packet) is Train:
            packet.lo = lo
            packet.hi = hi
        self.deliver(packet)
