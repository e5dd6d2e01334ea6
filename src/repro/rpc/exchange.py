"""The call exchange, with no clock and no transport.

Every request a client sends carries a seq, and every reply names the seq
it answers.  :class:`ExchangeTable` is the client's half of that
bookkeeping; the sim :class:`~repro.rpc.connection.RpcConnection` and the
live :class:`~repro.broker.client.BrokerClient` each hold one, and own the
clocks, the messages and the waiting around it.

A reply with no pending waiter is one of two things:

- **late** — its seq was issued and is no longer pending: the caller gave
  up on it (a timeout, a crash drill, a closed socket).  It is dropped and
  counted;
- **unknown** — its seq was never issued.  The peer broke the protocol.

The table remembers no settled seq, so its memory is the exchanges in
flight.  That is exact because each client issues every seq from one
counter, and no transport duplicates a message — simulated links drop or
delay and never copy, a fault plan has no duplication, and TCP delivers
each byte once — so a reply to an issued seq that is not pending can only
be late.  (It could not tell a duplicate reply from a late one; neither
transport can produce one.)
"""

import enum


class Miss(enum.Enum):
    """What :meth:`ExchangeTable.settle` returns for a seq with no waiter."""

    LATE = "late"
    UNKNOWN = "unknown"


LATE = Miss.LATE
UNKNOWN = Miss.UNKNOWN


class ExchangeTable:
    """One client's seqs and the waiters of its exchanges in flight."""

    __slots__ = ("issued", "_pending")

    def __init__(self):
        #: The last seq issued; seqs run ``1 .. issued``.
        self.issued = 0
        self._pending = {}  # seq -> waiter of an exchange in flight

    def __len__(self):
        return len(self._pending)

    def open(self, waiter=None):
        """Issue the next seq, pending on ``waiter``.  With no waiter the
        seq only names something (a push's transfer id)."""
        seq = self.issued = self.issued + 1
        if waiter is not None:
            self._pending[seq] = waiter
        return seq

    def get(self, seq):
        """The waiter of a window still taking runs, or :data:`LATE` /
        :data:`UNKNOWN` like :meth:`settle`; the seq stays pending."""
        waiter = self._pending.get(seq)
        if waiter is None:
            return LATE if 0 < seq <= self.issued else UNKNOWN
        return waiter

    def settle(self, seq):
        """Pop the waiter a reply to ``seq`` completes, or say why there
        is none: :data:`LATE` (issued, no longer pending) or
        :data:`UNKNOWN` (never issued)."""
        waiter = self._pending.pop(seq, None)
        if waiter is None:
            return LATE if 0 < seq <= self.issued else UNKNOWN
        return waiter

    def abandon(self, seq):
        """Give up on ``seq``: a reply to it will be :data:`LATE`."""
        self._pending.pop(seq, None)

    def drain(self):
        """Abandon every exchange in flight; returns them as
        ``{seq: waiter}`` for the caller to fail."""
        pending, self._pending = self._pending, {}
        return pending
