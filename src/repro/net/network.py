"""The experimental topology: one mobile client behind a modulated link.

All experiments in the paper share one shape (§6.1.3): a single client
whose network connection is modulated, talking to a collection of servers on
a fast wired LAN.  Contention between concurrent applications arises
naturally because every byte to or from the client serializes through the
same modulated duplex link.

Wired (server-to-server) traffic — e.g. the distillation server fetching
from a web server — experiences only a small fixed LAN delay plus
transmission at Ethernet speed, with no modeled contention.
"""

from repro.errors import NetworkError
from repro.net.host import Host
from repro.net.link import SimplexLink
from repro.net.packet import Train

#: Fast-LAN parameters for server-to-server hops.
WIRED_BANDWIDTH = 1250 * 1024  # 10 Mb/s Ethernet, bytes/s
WIRED_LATENCY = 0.0005


class Network:
    """A star of servers around one trace-modulated mobile client.

    Parameters
    ----------
    sim:
        The simulator.
    trace:
        Replay trace modulating the client's link, both directions.
    client_name:
        Name of the mobile client host (created eagerly).
    """

    def __init__(self, sim, trace, client_name="client"):
        self.sim = sim
        self.trace = trace
        self.hosts = {}
        self.client = self.add_host(client_name, wired=False)
        self.uplink = SimplexLink(sim, trace, f"{client_name}.up", deliver=self._deliver)
        self.downlink = SimplexLink(
            sim, trace, f"{client_name}.down", deliver=self._deliver
        )
        self._wired_last_delivery = {}  # (src, dst) -> time, enforces FIFO

    def add_host(self, name, wired=True):
        """Create and attach a host.  ``wired`` is informational."""
        if name in self.hosts:
            raise NetworkError(f"duplicate host name {name!r}")
        host = Host(self.sim, name)
        host.network = self
        host.wired = wired
        self.hosts[name] = host
        return host

    def host(self, name):
        """Look up a host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def route(self, packet):
        """Send ``packet`` toward its destination.

        Client-involved paths traverse the modulated link; wired-to-wired
        paths get the fixed fast-LAN delay.
        """
        if packet.dst not in self.hosts:
            raise NetworkError(f"packet addressed to unknown host {packet.dst!r}")
        if packet.src == self.client.name:
            self.uplink.send(packet)
        elif packet.dst == self.client.name:
            self.downlink.send(packet)
        else:
            # Fixed fast-LAN delay, with per-pair FIFO: a small packet must
            # not overtake a large one sent earlier on the same path (a
            # window's final fragment arriving first would corrupt
            # transfers).
            sim = self.sim
            now = sim.now
            pair = (packet.src, packet.dst)
            last = self._wired_last_delivery.get(pair, 0.0)
            deliveries = []
            for size in packet.sizes:
                deliver_at = now + (WIRED_LATENCY + size / WIRED_BANDWIDTH)
                if deliver_at < last:
                    deliver_at = last
                last = deliver_at
                deliveries.append(deliver_at)
            self._wired_last_delivery[pair] = last
            if type(packet) is Train:
                packet.arrivals = [now + (at - now) for at in deliveries]
                for lo, hi in packet.runs():
                    sim.call_at(deliveries[lo], self._deliver_run, packet,
                                lo, hi)
            else:
                sim.call_at(last, self._deliver, packet)

    def _deliver(self, packet):
        self.hosts[packet.dst].receive(packet)

    def _deliver_run(self, train, lo, hi):
        train.lo = lo
        train.hi = hi
        self._deliver(train)
