"""Transport: the seam that lifts the RPC stack off the simulator.

One channel contract (:class:`~repro.transport.base.Channel`,
docs/architecture.md §15) over asyncio TCP sockets
(:mod:`repro.transport.tcp`) speaking the versioned, length-prefixed,
checksummed wire format of :mod:`repro.transport.wire`; :mod:`repro.broker`
builds on it.  The simulated RPC stack keeps sending live objects through
:mod:`repro.net`, and importing this package must never perturb a
simulation — ``tests/test_transport_golden.py`` holds that line.
"""

from repro.transport.base import Channel
from repro.transport.tcp import (
    READ_CHUNK_BYTES,
    TcpChannel,
    TcpServer,
    connect_tcp,
    serve_tcp,
)
from repro.transport.wire import (
    FRAME_HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    WIRE_VERSION,
    FrameDecoder,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    try_decode_frame,
)

__all__ = [
    "FRAME_HEADER_BYTES",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MESSAGE_KINDS",
    "READ_CHUNK_BYTES",
    "WIRE_VERSION",
    "Channel",
    "FrameDecoder",
    "TcpChannel",
    "TcpServer",
    "connect_tcp",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
    "serve_tcp",
    "try_decode_frame",
]
