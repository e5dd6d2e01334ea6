"""Disconnected operation: state machine, heartbeats, and deferred writes.

The subsystem behind degraded service (see docs/architecture.md §9): a
hysteresis-filtered per-connection :class:`ConnectivityTracker`, the
:class:`HeartbeatProber` that watches for a dead link's return, and the
:class:`DeferredOpLog` that queues mutating operations for reintegration.
The viceroy owns one tracker per registered connection; wardens consult it
through :meth:`~repro.core.warden.Warden.resilient_fetch` and queue writes
through :meth:`~repro.core.warden.Warden.tsop`.
"""

from repro.connectivity.deferred import (
    DEFAULT_CAPACITY,
    DeferredOp,
    DeferredOpLog,
    ReplayReport,
)
from repro.connectivity.probe import PROBE_OP, HeartbeatProber
from repro.connectivity.state import (
    VALID_TRANSITIONS,
    ConnState,
    ConnectivityTracker,
    Transition,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "PROBE_OP",
    "VALID_TRANSITIONS",
    "AsyncHeartbeatProber",
    "ConnState",
    "ConnectivityTracker",
    "DeferredOp",
    "DeferredOpLog",
    "HeartbeatProber",
    "ReplayReport",
    "Transition",
]


def __getattr__(name):
    # Loaded on first use: the asyncio prober would otherwise pull asyncio
    # into every simulator process.
    if name == "AsyncHeartbeatProber":
        from repro.connectivity.async_probe import AsyncHeartbeatProber

        return AsyncHeartbeatProber
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
