"""Hosts: named endpoints with port-based dispatch."""

from repro.errors import NetworkError


class Host:
    """A simulated machine.

    Services bind to named ports; arriving packets dispatch to the bound
    handler (``handler(packet)``), and a train once per run.  Sending goes
    through the attached :class:`~repro.net.network.Network`, which owns
    routing.
    """

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.network = None
        self._ports = {}

    def __repr__(self):
        return f"<Host {self.name!r} ports={sorted(self._ports)}>"

    def bind(self, port, handler):
        """Attach ``handler`` to ``port``.  Rebinding a port is an error."""
        if port in self._ports:
            raise NetworkError(f"host {self.name!r}: port {port!r} already bound")
        self._ports[port] = handler

    def unbind(self, port):
        """Detach whatever is bound to ``port``."""
        if port not in self._ports:
            raise NetworkError(f"host {self.name!r}: port {port!r} not bound")
        del self._ports[port]

    def send(self, packet):
        """Hand ``packet`` to the network for routing."""
        if self.network is None:
            raise NetworkError(f"host {self.name!r} is not attached to a network")
        if packet.src != self.name:
            raise NetworkError(
                f"host {self.name!r} sending packet with src {packet.src!r}"
            )
        self.network.route(packet)

    def receive(self, packet):
        """Dispatch an arriving packet to its port's handler."""
        handler = self._ports.get(packet.port)
        if handler is None:
            raise NetworkError(
                f"host {self.name!r}: no handler for port {packet.port!r} "
                f"(packet from {packet.src!r})"
            )
        handler(packet)
