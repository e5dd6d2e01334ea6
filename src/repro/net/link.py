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
computes that schedule and each packet costs one scheduled event, its
delivery — the live :class:`~repro.live.throttle.Throttle` models the same
link with the same single ``free_at`` cursor.  A per-link segment cursor
answers the common case, a packet that starts and finishes inside one
trace segment, with one division; everything else falls back to
:func:`~repro.trace.integrate.transmission_finish_time`.
"""

import math
from dataclasses import dataclass

from repro.errors import LinkDown
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

    ``send(packet)`` serializes the packet behind every packet already
    accepted, then delivers it ``latency_at(finish)`` later via ``deliver``
    (a callable set by the network), never ahead of an earlier packet.
    Completion times are exact across trace transitions, and bit-identical
    to :func:`~repro.trace.integrate.transmission_finish_time` and
    :meth:`~repro.trace.replay.ReplayTrace.latency_at`.

    A send whose packet can never finish raises :class:`LinkDown` out of
    the simulator's ``run``; every later send is silently parked, as on a
    link busy forever.

    Loss bursts (``drop_filter``) are decided when the packet's delivery
    fires, with its finish time as ``when``; a dropped packet keeps its
    place in the FIFO delivery order.  Against deciding at the finish
    instant, as a link with a separate finish event would, this differs
    in two corner cases, both only when latency falls between two
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
        """Accept ``packet`` and schedule its delivery."""
        sim = self.sim
        now = sim.now
        packet.enqueued_at = now
        start = self._free_at
        if start < now:
            start = now
        size = packet.size
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
                if self._free_at != math.inf:
                    self._free_at = math.inf
                    # Surface at run(): an unwaited failing event propagates
                    # out of the kernel.
                    Event(sim, name=f"{self.name}.down").fail(LinkDown(
                        f"link {self.name!r}: bandwidth pinned at zero "
                        f"forever; cannot transmit {packet!r}"
                    ))
                return
        if finish >= self._seg_end:
            self._seek(finish)
        self._free_at = finish
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        stats.busy_seconds += finish - start
        deliver_at = finish + self._latency
        # Enforce FIFO delivery even if latency drops mid-flight.
        if deliver_at < self._last_delivery:
            deliver_at = self._last_delivery
        self._last_delivery = deliver_at
        sim.call_at(deliver_at, self._finish_transmission, packet, finish)

    def _finish_transmission(self, packet, finish):
        # The link's one event per packet: deliver or drop.  The repository
        # benchmark counts packets by this function's name (bench/).
        if self.drop_filter is not None and self.drop_filter(packet, finish):
            self.stats.packets_dropped += 1
            return
        packet.delivered_at = self.sim.now
        if self.deliver is None:
            raise LinkDown(f"link {self.name!r} has no delivery target")
        self.deliver(packet)
