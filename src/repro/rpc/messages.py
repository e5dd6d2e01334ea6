"""Message types exchanged by the RPC protocol.

These are payload objects carried inside :class:`~repro.net.Packet`; they
are never serialized, only sized.  All are slotted: some are allocated per
packet or per frame on the bulk hot paths.
"""

from dataclasses import dataclass, field


@dataclass(slots=True)
class CallRequest:
    """A small-exchange request (paper: 'conventional RPC protocol')."""

    connection_id: str
    seq: int
    op: str
    body: object
    body_bytes: int
    reply_port: str


@dataclass(slots=True)
class CallResponse:
    """Reply to a :class:`CallRequest`.

    ``server_seconds`` is the server computation time, reported so the
    client can subtract it from the observed elapsed time (paper §6.2.1).
    """

    connection_id: str
    seq: int
    body: object
    body_bytes: int
    server_seconds: float
    error: object = None


@dataclass(slots=True)
class WindowRequest:
    """Receiver-driven request for the next window of a bulk transfer."""

    connection_id: str
    seq: int
    transfer_id: int
    offset: int
    window_bytes: int
    fragment_bytes: int
    reply_port: str


@dataclass(slots=True)
class Fragment:
    """One packet's worth of a bulk-transfer window."""

    connection_id: str
    seq: int
    transfer_id: int
    offset: int
    nbytes: int
    last_in_window: bool
    last_in_transfer: bool


@dataclass(slots=True)
class FragmentTrain:
    """Contiguous fragments of a bulk-transfer window, sent as one train.

    Fragment ``i`` carries ``nbytes[i]`` bytes from ``offsets[i]``; the
    last closes the window if ``last_in_window``, and ends the transfer
    if ``last_in_transfer``.  The sim sends a whole window as the payload
    of one :class:`~repro.net.packet.Train`; the live broker sends the
    fragments due together as one frame, so its train can end mid-window.
    """

    connection_id: str
    seq: int
    transfer_id: int
    offsets: list
    nbytes: list
    last_in_transfer: bool
    last_in_window: bool = True

    def fragment(self, i):
        """Fragment ``i`` as a message of its own."""
        last = i == len(self.nbytes) - 1
        return Fragment(self.connection_id, self.seq, self.transfer_id,
                        self.offsets[i], self.nbytes[i],
                        last and self.last_in_window,
                        last and self.last_in_transfer)


@dataclass(slots=True)
class BulkPush:
    """Sender-side bulk transfer: a window of data offered to the server.

    Models the 'sender transmits that data and receives an acknowledgement'
    half of the paper's protocol (used by the speech application to ship
    utterances to the server).
    """

    connection_id: str
    seq: int
    transfer_id: int
    offset: int
    nbytes: int
    last_in_window: bool
    last_in_transfer: bool
    reply_port: str
    body: object = None
    response_seq: int = None


@dataclass(slots=True)
class WindowAck:
    """Acknowledgement completing a pushed window."""

    connection_id: str
    seq: int
    transfer_id: int
    next_offset: int


@dataclass(slots=True)
class ServerReply:
    """What an operation handler returns to the RPC service.

    ``body`` rides back in the response; ``body_bytes`` is its wire size.
    ``compute_seconds`` models the handler's CPU time (elapsed on the server
    before the response leaves, and reported to the client so it can be
    subtracted from round-trip observations).  ``bulk`` optionally names a
    :class:`BulkSource` the client may then ``fetch``.
    """

    body: object = None
    body_bytes: int = 64
    compute_seconds: float = 0.0
    bulk: object = None


@dataclass(slots=True)
class BulkSource:
    """Server-side descriptor of fetchable bulk data."""

    transfer_id: int
    nbytes: int
    meta: object = None
    consumed: int = field(default=0, compare=False)
