"""The transport seam: one channel contract.

A *transport* moves whole :mod:`repro.rpc.messages` objects between two
endpoints and delivers arrivals to a callback.  The contract:

- ``channel.send(message)`` enqueues one message toward the peer; delivery
  is in order and at-most-once (the RPC layer above owns retries);
- arrivals invoke ``on_message(message)`` one at a time, in arrival order;
- ``channel.close()`` is idempotent; after close, ``send`` raises
  :class:`~repro.errors.TransportError` and ``on_close(exc)`` has fired
  exactly once (``exc`` is ``None`` for a deliberate close, the fatal
  exception for a transport death).

:class:`~repro.transport.tcp.TcpChannel` implements it over real asyncio
TCP sockets, messages serialized through :mod:`repro.transport.wire`.
"""

from repro.errors import TransportError


class Channel:
    """Base class for one duplex message channel (see module docstring)."""

    def send(self, message):
        raise NotImplementedError

    def close(self):
        raise NotImplementedError

    @property
    def closed(self):
        raise NotImplementedError

    def _check_open(self):
        if self.closed:
            raise TransportError(f"{self!r} is closed")
