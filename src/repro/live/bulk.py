"""Receiver-driven bulk transfer over the live broker (paper §6.3).

The sim's RPC protocol models windowed bulk transfer; this module runs
the same shape over real sockets:

- the client *opens* a named blob (``__open__``, an ordinary call) and
  learns its transfer id and size;
- it then pulls the payload one **window** at a time: a
  :class:`~repro.rpc.messages.WindowRequest` frame asks for
  ``window_bytes`` starting at an offset, and the broker answers with a
  train of :class:`~repro.rpc.messages.Fragment` frames, the last one
  flagged ``last_in_window`` (and ``last_in_transfer`` at the end);
- every fragment the broker sends passes through the shared
  :class:`~repro.live.throttle.Throttle` (the synthetic link) and then
  ``await drain()`` — real TCP backpressure, so a slow or stalled
  receiver stops the sender instead of ballooning the send buffer;
- the receiver acknowledges the bytes it holds with a one-way
  :class:`~repro.rpc.messages.WindowAck` **receipt** (the ``delivery``
  sample) and reports each completed window's elapsed time with an
  awaited ``__report__`` (the ``throughput`` sample) — the same passive
  samples the sim protocol logs as a side effect of traffic — which is
  what keeps the live viceroy's estimate honest.

One window on the wire, receiver on the left::

    WindowRequest(transfer, offset)    ->
                                       <-  Fragment(offset)
    WindowAck(transfer, next_offset)   ->                      (no reply)
                                       <-  Fragment ... last_in_window
    WindowAck(transfer, next_offset)   ->                      (no reply)
    CallRequest(__report__ throughput) ->
                                       <-  CallResponse(level)

A receipt is *cumulative*: ``next_offset`` says "I hold this transfer up
to here".  The receiver sends one when the window closes and, before
that, whenever no further fragment has joined what it holds for
:data:`RECEIPT_HOLD` — so on a slow link every fragment is receipted on
its own, a millisecond after it arrived, and a train at loopback speed is
receipted in one frame: TCP's cumulative, delayed ACK.  (How promptly
the receiver sees a fragment depends on the event loop; how many samples
a megabyte yields must not, so the pause that ends a train is stated in
seconds rather than left to queue timing.)  The broker keeps
``[acked, sent]`` for the one window in flight per (session, transfer)
and absorbs ``next_offset - acked`` bytes as a delivery sample only when
``acked < next_offset <= sent``; any other receipt cannot be matched to
bytes it streamed and tears the session down, like a window against an
unopened transfer.  The throughput report stays a call: it returns the
level, and TCP ordering makes its reply the proof that every earlier
receipt was absorbed.

Fragments are *sized, not serialized*: like the sim's messages they
carry byte counts rather than payloads, so the wire cost is a frame
header and the transfer's timing comes from the throttle.  (The paper's
measurements care about when bytes arrive, not what they spell.)
"""

import asyncio
import itertools
from collections import deque

from repro import telemetry
from repro.broker.server import REPORT_OP
from repro.errors import BrokerError, RpcTimeout
from repro.rpc.clock import wait_with_deadline
from repro.rpc.messages import Fragment, WindowAck, WindowRequest

#: Ordinary call that registers a blob for pulling: body
#: ``{"name": str, "nbytes": int}`` -> ``{"transfer_id": int, "nbytes": int}``.
OPEN_OP = "__open__"

#: Default shape of a pull: how much one WindowRequest asks for, and how
#: the broker fragments it on the way back.
DEFAULT_WINDOW_BYTES = 64 * 1024
DEFAULT_FRAGMENT_BYTES = 8 * 1024

#: Receiver-side patience for the next fragment, seconds.  Spans a
#: blackout phase of the demo throttle with room to spare.
FRAGMENT_TIMEOUT = 30.0

#: How long a mid-window receipt waits for the next fragment to join it,
#: seconds.  Fragments closer together than this are one train, receipted
#: in one frame when it pauses or the window closes; further apart, each
#: is receipted on its own, this long after it arrived.  TCP's delayed
#: ACK, much tighter: a receipt is an estimator sample, and the link
#: speeds the estimator has to follow space fragments milliseconds apart.
RECEIPT_HOLD = 0.001


def _all_ints(*values):
    """Whether every wire field is a real integer (JSON also carries
    floats, strings and nulls where the dataclass says ``int``)."""
    return all(type(value) is int for value in values)


class _Window:
    """The window in flight on one (session, transfer): how far it has
    been streamed and how far the receiver has receipted it."""

    __slots__ = ("acked", "sent")

    def __init__(self, offset):
        self.acked = offset
        self.sent = offset


class BulkServerMixin:
    """Bulk-transfer plane for a broker: ``__open__`` plus window streaming.

    Mixed in ahead of :class:`~repro.broker.Broker`; the host class calls
    :meth:`_init_bulk` from ``__init__`` and provides ``self.throttle``
    (a :class:`~repro.live.throttle.Throttle` or ``None`` for unshaped)
    and ``_absorb_sample(session, body)`` for receipted bytes.
    """

    def _init_bulk(self):
        self._contents = {}  # transfer_id -> (name, nbytes)
        self._transfer_ids = itertools.count(1)
        self._bulk_seq = itertools.count(1)
        self._stream_tasks = {}  # session -> set of streaming tasks
        self._windows = {}  # session -> {transfer_id: _Window in flight}
        self.transfers_opened = 0
        self.windows_streamed = 0
        self.fragments_streamed = 0
        self.bulk_bytes_streamed = 0
        self.streams_aborted = 0
        self.receipts_absorbed = 0
        self.receipt_bytes = 0
        self.register(OPEN_OP, self._open_content)

    def _open_content(self, body):
        body = body or {}
        try:
            nbytes = int(body["nbytes"])
        except (TypeError, KeyError, ValueError) as exc:
            raise BrokerError(f"{OPEN_OP} requires integer 'nbytes'") from exc
        if nbytes < 0:
            raise BrokerError(f"content size must be >= 0, got {nbytes}")
        transfer_id = next(self._transfer_ids)
        self._contents[transfer_id] = (body.get("name", ""), nbytes)
        self.transfers_opened += 1
        return {"transfer_id": transfer_id, "nbytes": nbytes}

    # -- inbound stream frames ------------------------------------------------

    def _on_stream(self, session, message):
        # A window against nothing we opened, or a receipt for bytes we
        # did not stream, is a protocol violation, same as any other
        # unexpected frame.
        if isinstance(message, WindowRequest):
            if self._open_window(session, message):
                return
        elif isinstance(message, WindowAck):
            if self._take_receipt(session, message):
                return
        super()._on_stream(session, message)

    def _open_window(self, session, request):
        transfer_id = request.transfer_id
        if session.name is None or transfer_id not in self._contents \
                or not _all_ints(transfer_id, request.offset,
                                 request.window_bytes, request.fragment_bytes):
            return False
        _, total = self._contents[transfer_id]
        # An offset at (or past) the end is a legitimate race, not a
        # violation: the reply is one empty terminal fragment.
        offset = min(max(0, request.offset), total)
        end = min(total, offset + max(0, request.window_bytes))
        # One window in flight per (session, transfer): this one replaces
        # whatever was there, and a train still streaming for the old one
        # (a fetch retried after a timeout) stops at its next fragment.
        window = _Window(offset)
        self._windows.setdefault(session, {})[transfer_id] = window
        task = asyncio.ensure_future(
            self._stream_window(session, request, window, end, total))
        tasks = self._stream_tasks.setdefault(session, set())
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        return True

    def _take_receipt(self, session, receipt):
        """Absorb the bytes a cumulative receipt newly covers as one
        delivery sample; False if it matches nothing we streamed."""
        transfer_id, upto = receipt.transfer_id, receipt.next_offset
        if not _all_ints(transfer_id, upto):
            return False
        windows = self._windows.get(session)
        window = windows.get(transfer_id) if windows else None
        if window is None or not window.acked < upto <= window.sent:
            return False
        nbytes = upto - window.acked
        window.acked = upto
        self.receipts_absorbed += 1
        self.receipt_bytes += nbytes
        self._absorb_sample(session, {"kind": "delivery", "nbytes": nbytes})
        return True

    async def _stream_window(self, session, request, window, end, total):
        """Send one window of fragments, throttle-paced and drain-gated."""
        offset = window.sent
        fragment_bytes = max(1, request.fragment_bytes)
        rec = telemetry.RECORDER
        try:
            while True:
                size = min(fragment_bytes, end - offset)
                last_in_window = offset + size >= end
                last_in_transfer = offset + size >= total
                if self.throttle is not None and size > 0:
                    await self.throttle.acquire(size)
                if session.closed:
                    return
                if self._windows[session].get(
                        request.transfer_id) is not window:
                    self.streams_aborted += 1  # superseded by a new request
                    return
                session.channel.send(Fragment(
                    connection_id="broker", seq=next(self._bulk_seq),
                    transfer_id=request.transfer_id, offset=offset,
                    nbytes=size, last_in_window=last_in_window,
                    last_in_transfer=last_in_transfer,
                ))
                # Receiptable from the moment it is on the socket.
                window.sent = offset + size
                # The backpressure point: a receiver that stops reading
                # parks the stream here until its socket drains.
                await session.channel.drain()
                self.fragments_streamed += 1
                self.bulk_bytes_streamed += size
                if rec.enabled:
                    rec.count("live.fragments", client=session.name)
                offset += size
                if last_in_window:
                    break
            self.windows_streamed += 1
        except asyncio.CancelledError:
            self.streams_aborted += 1
            raise
        except Exception:  # noqa: BLE001 - a dead receiver ends its own stream
            self.streams_aborted += 1
            if rec.enabled:
                rec.count("live.streams_aborted", client=session.name)

    # -- teardown -------------------------------------------------------------

    def _abort_session_transfers(self, session):
        self._windows.pop(session, None)
        for task in self._stream_tasks.pop(session, ()):
            task.cancel()

    async def _close_bulk(self):
        tasks = [t for tasks in self._stream_tasks.values() for t in tasks]
        self._stream_tasks.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def describe_bulk(self):
        return {
            "transfers_opened": self.transfers_opened,
            "windows_streamed": self.windows_streamed,
            "fragments_streamed": self.fragments_streamed,
            "bytes_streamed": self.bulk_bytes_streamed,
            "streams_aborted": self.streams_aborted,
            "receipts_absorbed": self.receipts_absorbed,
            "receipt_bytes": self.receipt_bytes,
        }


class TransferResult:
    """What one :meth:`BulkReceiver.fetch` observed."""

    __slots__ = ("transfer_id", "nbytes", "windows", "fragments",
                 "fragments_stale", "seconds", "levels")

    def __init__(self, transfer_id):
        self.transfer_id = transfer_id
        self.nbytes = 0
        self.windows = 0
        self.fragments = 0
        #: Fragments dropped for not continuing the window in flight (the
        #: tail of a train an earlier, abandoned fetch asked for).
        self.fragments_stale = 0
        self.seconds = 0.0
        #: Availability estimate returned after each window's throughput
        #: report (None entries predate the first sample).
        self.levels = []

    @property
    def rate(self):
        """Observed end-to-end rate, bytes/s."""
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0

    @property
    def level(self):
        """The viceroy's latest availability estimate for this client."""
        return self.levels[-1] if self.levels else None

    def __repr__(self):
        return (f"<TransferResult id={self.transfer_id} "
                f"bytes={self.nbytes} windows={self.windows} "
                f"rate={self.rate:.0f}B/s>")


class _Inbox:
    """The fragments that arrived for one fetch, and the future it parks
    on while there are none.  The fetch is the only taker, so waiting is
    one future under the deadline every call uses."""

    __slots__ = ("fragments", "_arrival")

    def __init__(self):
        self.fragments = deque()
        self._arrival = None

    def put_nowait(self, fragment):
        self.fragments.append(fragment)
        if self._arrival is not None and not self._arrival.done():
            self._arrival.set_result(None)

    async def wait(self, seconds):
        """Return once a fragment is held; :class:`asyncio.TimeoutError`
        after ``seconds`` without one."""
        self._arrival = asyncio.get_running_loop().create_future()
        try:
            await wait_with_deadline(self._arrival, seconds)
        finally:
            self._arrival = None


class BulkReceiver:
    """Receiver-driven pulls over one :class:`~repro.broker.BrokerClient`.

    Installs itself as the client's stream handler; fragments route to
    per-transfer queues, so concurrent fetches of different transfers
    interleave safely on one connection.
    """

    def __init__(self, client):
        self.client = client
        self._queues = {}  # transfer_id -> _Inbox of the fetch in progress
        self._seq = itertools.count(1)
        client.on_stream(self._on_frame)

    def _on_frame(self, message):
        if isinstance(message, Fragment):
            queue = self._queues.get(message.transfer_id)
            if queue is not None:
                queue.put_nowait(message)
        # Anything else: not ours; the request/response plane already
        # handled CallRequest/CallResponse before we were consulted.

    async def open(self, name, nbytes):
        """Register a blob with the broker; returns its transfer id."""
        reply = await self.client.call(OPEN_OP,
                                       {"name": name, "nbytes": nbytes})
        return reply["transfer_id"]

    async def fetch(self, transfer_id, nbytes,
                    window_bytes=DEFAULT_WINDOW_BYTES,
                    fragment_bytes=DEFAULT_FRAGMENT_BYTES,
                    report=True, timeout=FRAGMENT_TIMEOUT):
        """Pull ``nbytes`` of an opened transfer, window by window.

        With ``report=True`` (the default) the bytes held go back as
        one-way cumulative receipts and every window's elapsed time as a
        ``__report__`` estimation sample — the passive feed the live
        viceroy shares out; ``report=False`` sends no samples at all.
        """
        if transfer_id in self._queues:
            raise BrokerError(f"transfer {transfer_id} already being fetched")
        inbox = self._queues[transfer_id] = _Inbox()
        fragments = inbox.fragments
        result = TransferResult(transfer_id)
        clock = self.client.clock
        send = self.client.channel.send
        name = self.client.name

        def receipt(upto):
            send(WindowAck(connection_id=name, seq=next(self._seq),
                           transfer_id=transfer_id, next_offset=upto))

        started = clock.now()
        try:
            offset = 0
            done = False
            while not done and offset < nbytes:
                window_started = clock.now()
                send(WindowRequest(
                    connection_id=name, seq=next(self._seq),
                    transfer_id=transfer_id, offset=offset,
                    window_bytes=min(window_bytes, nbytes - offset),
                    fragment_bytes=fragment_bytes, reply_port="",
                ))
                held = receipted = offset
                closed = False
                while not closed:
                    if not fragments:
                        unreceipted = report and held > receipted
                        try:
                            await inbox.wait(RECEIPT_HOLD if unreceipted
                                             else timeout)
                        except asyncio.TimeoutError:
                            if not unreceipted:
                                raise RpcTimeout(
                                    f"{name}: no fragment for transfer "
                                    f"{transfer_id} within {timeout} s"
                                ) from None
                            receipt(held)  # the train paused
                            receipted = held
                        continue
                    fragment = fragments.popleft()
                    if fragment.offset == held:
                        held += fragment.nbytes
                        result.fragments += 1
                        if fragment.last_in_transfer:
                            done = True
                        closed = fragment.last_in_window
                    else:
                        result.fragments_stale += 1
                        rec = telemetry.RECORDER
                        if rec.enabled:
                            rec.count("live.fragments_stale", client=name)
                if report and held > receipted:
                    receipt(held)
                window_got = held - offset
                offset = held
                result.nbytes += window_got
                result.windows += 1
                elapsed = clock.now() - window_started
                if report and window_got > 0 and elapsed > 0:
                    reply = await self.client.call(REPORT_OP, {
                        "kind": "throughput", "seconds": elapsed,
                        "nbytes": window_got,
                    })
                    result.levels.append(reply.get("level"))
                if window_got == 0:
                    break  # empty terminal window (offset past the end)
            result.seconds = clock.now() - started
            return result
        finally:
            self._queues.pop(transfer_id, None)
