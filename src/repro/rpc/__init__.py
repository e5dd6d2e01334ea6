"""User-level RPC with passive network observation (paper §6.2.1).

Odyssey estimates bandwidth from *purely passive observations* logged by its
RPC mechanism: a conventional request/response protocol for small exchanges,
combined with a windowed bulk-transfer protocol for data.  Two kinds of log
entries result:

- **round-trip entries** — elapsed time for a small exchange, minus server
  computation time;
- **throughput entries** — the time for a receiver to request and receive a
  window's worth of data.

This package implements both protocols over :mod:`repro.net`, plus the
per-endpoint logs (:class:`RpcLog`) that the viceroy's estimators observe.

- :class:`RpcService` — server-side: registers operation handlers, models
  server compute time, serves windowed bulk reads.
- :class:`RpcConnection` — client-side endpoint: ``call`` for small
  exchanges, ``fetch``/``push`` for bulk transfers, each a generator to be
  driven with ``yield from`` inside a simulated process.
- :mod:`repro.rpc.transfer` — the windowed transfer's cut and receiver,
  with no clock and no transport; the live bulk plane runs it too.
- :mod:`repro.rpc.exchange` — the table of seqs and exchanges in flight,
  with no clock and no transport; the live broker client runs it too.
"""

from repro.rpc.connection import RpcConnection, RpcService
from repro.rpc.logs import RoundTripEntry, RpcLog, ThroughputEntry
from repro.rpc.messages import BulkSource, ServerReply

__all__ = [
    "BulkSource",
    "RoundTripEntry",
    "RpcConnection",
    "RpcLog",
    "RpcService",
    "ServerReply",
    "ThroughputEntry",
]
