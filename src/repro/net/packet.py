"""Packets: the unit of simulated transmission."""

import itertools
from dataclasses import dataclass, field

from repro.errors import NetworkError

#: Bytes of protocol header per packet (IP + UDP + RPC framing).
HEADER_BYTES = 64

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """One datagram in flight.

    ``size`` is the on-the-wire size in bytes including headers; ``payload``
    is an arbitrary message object (never serialized — this is a simulation).
    Slotted: experiments push millions of these through the links.
    """

    src: str
    dst: str
    port: str
    size: int
    payload: object = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self):
        if self.size < HEADER_BYTES:
            raise NetworkError(
                f"packet size {self.size} smaller than header ({HEADER_BYTES})"
            )

    @property
    def payload_bytes(self):
        """Application bytes carried (wire size minus header)."""
        return self.size - HEADER_BYTES

    @property
    def sizes(self):
        """Wire sizes of the packets sent: a packet is a train of one."""
        return (self.size,)

    def packet(self, i):
        """Packet ``i`` of the train of one: this packet."""
        return self


@dataclass(slots=True)
class Train:
    """Packets sent back to back as one unit: a bulk window's fragments.

    ``sizes`` are the packets' wire sizes, in order; ``payload`` describes
    them all, and ``payload.fragment(i)`` is what packet ``i`` carries.
    Accepting a train, the network sets ``arrivals`` to every packet's
    delivery instant, then hands the train to the receiver in *runs*: at
    the first arrival of each run ``[lo, hi)`` it sets ``lo`` and ``hi``
    and delivers the train.  A train of n >= 2 packets arrives as two
    runs, every packet but the last at the first's arrival and the last
    at its own; a link with a drop filter delivers every packet as a run
    of one.  A run's later packets have not arrived yet when it is
    delivered: their ``arrivals`` say when they will.
    """

    src: str
    dst: str
    port: str
    sizes: list
    payload: object = None
    arrivals: list = None
    lo: int = 0
    hi: int = 0

    def packet(self, i):
        """Packet ``i`` as if it travelled alone."""
        return Packet(self.src, self.dst, self.port, self.sizes[i],
                      self.payload.fragment(i))

    def runs(self, one_by_one=False):
        """The runs ``(lo, hi)`` the packets with ``arrivals`` arrive in."""
        n = len(self.arrivals)
        if one_by_one or n < 2:
            return [(k, k + 1) for k in range(n)]
        return [(0, n - 1), (n - 1, n)]
