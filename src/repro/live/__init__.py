"""The live adaptation stack: viceroy and wardens on real sockets.

Everything the simulator validates — Eq. 1/2 estimation,
:class:`~repro.estimation.share.ClientShares` arbitration, windows of
tolerance, one-shot violation upcalls, the connectivity state machine —
runs here unmodified over the asyncio TCP transport and broker from
:mod:`repro.transport` / :mod:`repro.broker`.  The seam is deliberately
tiny: the estimation code reads time through
:class:`~repro.live.viceroy.WallSim` (a ``.now`` shim over a monotonic
clock) and the app loop speaks :class:`~repro.broker.BrokerClient`
instead of ``RpcConnection``; see docs/architecture.md §16.
"""

from repro.live.bulk import (
    BulkReceiver,
    BulkServerMixin,
    DEFAULT_FRAGMENT_BYTES,
    DEFAULT_WINDOW_BYTES,
    OPEN_OP,
    TransferResult,
)
from repro.live.demo import (
    LiveReport,
    format_live_report,
    run_live_demo,
)
from repro.live.throttle import Throttle, square_wave
from repro.live.viceroy import (
    BANDWIDTH_RESOURCE,
    LiveBroker,
    LiveViceroy,
    WallSim,
)
from repro.live.warden import (
    FidelityProfile,
    LiveWarden,
    video_profile,
    web_profile,
)

__all__ = [
    "BANDWIDTH_RESOURCE",
    "DEFAULT_FRAGMENT_BYTES",
    "DEFAULT_WINDOW_BYTES",
    "OPEN_OP",
    "BulkReceiver",
    "BulkServerMixin",
    "FidelityProfile",
    "LiveBroker",
    "LiveReport",
    "LiveViceroy",
    "LiveWarden",
    "Throttle",
    "TransferResult",
    "WallSim",
    "format_live_report",
    "run_live_demo",
    "square_wave",
    "video_profile",
    "web_profile",
]
