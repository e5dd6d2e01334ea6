"""Trace-modulated network emulation (paper §6.1.2).

The paper emulates slow wireless networks over a fast LAN with *trace
modulation*: a delay layer in the protocol stack applies a simple linear
model — latency plus bandwidth-induced delay — driven by a replay trace.  We
model one level further down: the network itself is simulated, and the
mobile client's (single) wireless link is the modulated element.

- :class:`Packet` — what moves: addressed, sized, carrying a payload object;
  a :class:`Train` is packets sent back to back and delivered in runs.
- :class:`SimplexLink` — a serializing FIFO link whose rate and latency
  follow a :class:`~repro.trace.ReplayTrace`; packet completion times are
  integrated exactly across trace transitions.
- :class:`Host` — endpoint with named ports dispatching received packets.
- :class:`Network` — the paper's topology: one mobile client behind a
  modulated duplex link; servers on the fast wired side.
"""

from repro.net.host import Host
from repro.net.link import LinkStats, SimplexLink
from repro.net.network import Network
from repro.net.packet import HEADER_BYTES, Packet, Train

__all__ = [
    "HEADER_BYTES",
    "Host",
    "LinkStats",
    "Network",
    "Packet",
    "SimplexLink",
    "Train",
]
