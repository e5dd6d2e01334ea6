"""Receiver-driven bulk transfer over the live broker (paper §6.3).

The protocol is the sim's, from :mod:`repro.rpc.transfer`: the client
opens a named blob (``__open__``, an ordinary call), then pulls it one
window at a time — a :class:`~repro.rpc.messages.WindowRequest` per
window, answered by the window's fragments, the last one flagged.  That
module cuts the windows and fragments and decides how a train of them is
taken, when a window closes and when the transfer is done.  What this
shell adds is the wire:

- every fragment the broker sends reserves the shared
  :class:`~repro.live.throttle.Throttle` (the synthetic link), offered
  when its window's request arrived, and leaves no earlier than a pacing
  granularity before the link finishes it.  The fragments due together
  form a train that goes out as one
  :class:`~repro.rpc.messages.FragmentTrain` frame — the message the
  sim's link carries a window in — in one socket write, and every write
  is followed by ``await drain()``: real TCP backpressure, so a slow or
  stalled receiver stops the sender instead of ballooning the send
  buffer.  An unshaped window is one frame; a paced one, one frame per
  fragment;
- the receiver takes each train as one run of its
  :class:`~repro.rpc.transfer.WindowedFetch`, holding only bytes that
  continue what it holds (TCP keeps order, so anything else is the tail
  of an abandoned train, or a malformed one), receipts
  them with a one-way :class:`~repro.rpc.messages.WindowAck` (the
  ``delivery`` sample) and reports each completed window's elapsed time
  with an awaited ``__report__`` (the ``throughput`` sample) — the same
  passive samples the sim protocol logs as a side effect of traffic —
  which is what keeps the live viceroy's estimate honest.

One window on the wire, receiver on the left::

    WindowRequest(transfer, offset)    ->
                                       <-  FragmentTrain(offsets)
    WindowAck(transfer, next_offset)   ->                      (no reply)
                                       <-  FragmentTrain(...) last_in_window
    WindowAck(transfer, next_offset)   ->                      (no reply)
    CallRequest(__report__ throughput) ->   (same socket write)
                                       <-  CallResponse(level)

A receipt is *cumulative*: ``next_offset`` says "I hold this transfer up
to here".  The receiver sends one when the window closes and, before
that, whenever no further train has joined what it holds for
:data:`RECEIPT_HOLD` — so on a slow link every fragment is receipted on
its own, a millisecond after it arrived, and the trains of a window at
loopback speed are receipted in one frame: TCP's cumulative, delayed
ACK.  (How promptly the receiver sees a train depends on the event
loop; how many samples a megabyte yields must not, so the pause that
ends a burst is stated in seconds rather than left to queue timing.)  The broker keeps
``[acked, sent]`` for the one window in flight per (session, transfer)
and absorbs ``next_offset - acked`` bytes as a delivery sample only when
``acked < next_offset <= sent``; any other receipt cannot be matched to
bytes it streamed and tears the session down, like a window against an
unopened transfer or one asking for fragments under a byte or for more
than :data:`MAX_FRAGMENTS_PER_WINDOW` of them.  The
throughput report stays a call: it returns the level, and TCP ordering
makes its reply the proof that every earlier receipt was absorbed.

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
from repro.errors import BrokerError, LinkDown, RpcTimeout
from repro.rpc.clock import wait_with_deadline
from repro.rpc.messages import FragmentTrain, WindowAck, WindowRequest
from repro.rpc.transfer import WindowedFetch, fragments

#: Ordinary call that registers a blob for pulling: body
#: ``{"name": str, "nbytes": int}`` -> ``{"transfer_id": int, "nbytes": int}``.
OPEN_OP = "__open__"

#: Default shape of a pull: how much one WindowRequest asks for, and how
#: the broker fragments it on the way back.
DEFAULT_WINDOW_BYTES = 64 * 1024
DEFAULT_FRAGMENT_BYTES = 8 * 1024
#: The most fragments one window may be cut into.  The defaults cut 8 (the
#: live warden's chunks, 2); one window of one-byte fragments would be a
#: train of a frame per byte that holds the broker's loop for seconds.
MAX_FRAGMENTS_PER_WINDOW = 64

#: Receiver-side patience for the next fragment, seconds.  Spans a
#: blackout phase of the demo throttle with room to spare.
FRAGMENT_TIMEOUT = 30.0

#: How long a mid-window receipt waits for the next train to join it,
#: seconds.  Trains closer together than this are receipted in one frame
#: when they pause or the window closes; further apart, each is
#: receipted on its own, this long after it arrived.  TCP's delayed
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
        # A window against nothing we opened or cut into fragments under
        # a byte or into too many, or a receipt for bytes we did not
        # stream, is a protocol violation, same as any other unexpected
        # frame.
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
                                 request.window_bytes, request.fragment_bytes) \
                or request.fragment_bytes < 1:
            return False
        _, total = self._contents[transfer_id]
        # An offset at (or past) the end is a legitimate race, not a
        # violation: the reply is one empty terminal fragment.
        offset = min(max(0, request.offset), total)
        end = min(total, offset + max(0, request.window_bytes))
        if end - offset > MAX_FRAGMENTS_PER_WINDOW * request.fragment_bytes:
            return False
        # One window in flight per (session, transfer): this one replaces
        # whatever was there, and a train still streaming for the old one
        # (a fetch retried after a timeout) stops at its next fragment.
        window = _Window(offset)
        self._windows.setdefault(session, {})[transfer_id] = window
        # The window's fragments are offered to the link now, whenever the
        # streamer gets round to reserving each one.
        queued_at = (None if self.throttle is None
                     else self.throttle.clock.now())
        task = asyncio.ensure_future(self._stream_window(
            session, request, window, end, total, queued_at))
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

    async def _stream_window(self, session, request, window, end, total,
                             queued_at):
        """Send one window of fragments, throttle-paced and drain-gated:
        every fragment due within a pacing granularity joins one train,
        and a train leaves before the stream sleeps for the next one."""
        throttle = self.throttle
        transfer_id = request.transfer_id
        offsets, sizes = [], []
        try:
            for offset, size, _, last_in_transfer in fragments(
                    window.sent, end, total, request.fragment_bytes):
                if throttle is not None and size > 0:
                    try:
                        wake = throttle.reserve(size, queued_at)
                    except LinkDown:
                        # Dark for good: what is already due still leaves.
                        await self._send_train(session, transfer_id, window,
                                               offsets, sizes)
                        raise
                    if wake is not None:
                        await self._send_train(session, transfer_id, window,
                                               offsets, sizes)
                        await throttle.sleep_until(wake)
                if session.closed:
                    return
                if self._windows[session].get(transfer_id) is not window:
                    self.streams_aborted += 1  # superseded by a new request
                    return
                offsets.append(offset)
                sizes.append(size)
            await self._send_train(session, transfer_id, window, offsets,
                                   sizes, True, last_in_transfer)
            self.windows_streamed += 1
        except asyncio.CancelledError:
            self.streams_aborted += 1
            raise
        except Exception:  # noqa: BLE001 - a dead receiver ends its own stream
            self.streams_aborted += 1
            rec = telemetry.RECORDER
            if rec.enabled:
                rec.count("live.streams_aborted", client=session.name)

    async def _send_train(self, session, transfer_id, window, offsets,
                          sizes, last_in_window=False,
                          last_in_transfer=False):
        """Write the fragments ``offsets`` / ``sizes`` as one
        :class:`~repro.rpc.messages.FragmentTrain` frame, then wait for
        the socket to drain; empties both lists."""
        if not offsets:
            return
        session.channel.send(FragmentTrain(
            connection_id="broker", seq=next(self._bulk_seq),
            transfer_id=transfer_id, offsets=offsets[:], nbytes=sizes[:],
            last_in_transfer=last_in_transfer,
            last_in_window=last_in_window,
        ))
        # Receiptable from the moment it is on the socket.
        window.sent = offsets[-1] + sizes[-1]
        count = len(offsets)
        nbytes = window.sent - offsets[0]
        offsets.clear()
        sizes.clear()
        # The backpressure point: a receiver that stops reading parks the
        # stream here until its socket drains.
        await session.channel.drain()
        self.fragments_streamed += count
        self.bulk_bytes_streamed += nbytes
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("live.fragments", count, client=session.name)

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
        #: Fragments taken, however many trains carried them.
        self.fragments = 0
        #: Fragments dropped for not continuing the window in flight (the
        #: tail of a train an earlier, abandoned fetch asked for), and
        #: those of a malformed train.
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
    """The trains that arrived for one fetch, and the future it parks on
    while there are none.  The fetch is the only taker, so waiting is one
    future under the deadline every call uses."""

    __slots__ = ("trains", "_arrival")

    def __init__(self):
        self.trains = deque()
        self._arrival = None

    def put_nowait(self, train):
        self.trains.append(train)
        if self._arrival is not None and not self._arrival.done():
            self._arrival.set_result(None)

    async def wait(self, seconds):
        """Return once a train is held; :class:`asyncio.TimeoutError`
        after ``seconds`` without one."""
        self._arrival = asyncio.get_running_loop().create_future()
        try:
            await wait_with_deadline(self._arrival, seconds)
        finally:
            self._arrival = None


class BulkReceiver:
    """Receiver-driven pulls over one :class:`~repro.broker.BrokerClient`.

    Installs itself as the client's stream handler; fragment trains
    route to per-transfer queues, so concurrent fetches of different
    transfers interleave safely on one connection.
    """

    def __init__(self, client):
        self.client = client
        self._queues = {}  # transfer_id -> _Inbox of the fetch in progress
        self._seq = itertools.count(1)
        client.on_stream(self._on_frame)

    def _on_frame(self, message):
        # The fetch checks a train's fields; routing it needs only an int
        # transfer id (an unhashable one must not raise in the read
        # handler).
        if type(message) is FragmentTrain \
                and type(message.transfer_id) is int:
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
        if window_bytes < 1 or fragment_bytes < 1:
            raise BrokerError("window_bytes and fragment_bytes must be >= 1, "
                              f"got {window_bytes!r} and {fragment_bytes!r}")
        if min(window_bytes, nbytes) > MAX_FRAGMENTS_PER_WINDOW * fragment_bytes:
            raise BrokerError(
                f"a {window_bytes}-byte window would cut into more than "
                f"{MAX_FRAGMENTS_PER_WINDOW} {fragment_bytes}-byte fragments")
        if transfer_id in self._queues:
            raise BrokerError(f"transfer {transfer_id} already being fetched")
        inbox = self._queues[transfer_id] = _Inbox()
        arrived = inbox.trains
        result = TransferResult(transfer_id)
        fetch = WindowedFetch(nbytes, window_bytes)
        clock = self.client.clock
        send = self.client.channel.send
        name = self.client.name

        def receipt(upto):
            return WindowAck(connection_id=name, seq=next(self._seq),
                             transfer_id=transfer_id, next_offset=upto)

        started = clock.now()
        try:
            while (window := fetch.next_window()) is not None:
                offset, size = window
                window_started = clock.now()
                send(WindowRequest(
                    connection_id=name, seq=next(self._seq),
                    transfer_id=transfer_id, offset=offset,
                    window_bytes=size, fragment_bytes=fragment_bytes,
                    reply_port="",
                ))
                receipted = offset
                while True:
                    if not arrived:
                        unreceipted = report and fetch.held > receipted
                        try:
                            await inbox.wait(RECEIPT_HOLD if unreceipted
                                             else timeout)
                        except asyncio.TimeoutError:
                            if not unreceipted:
                                raise RpcTimeout(
                                    f"{name}: no fragment for transfer "
                                    f"{transfer_id} within {timeout} s"
                                ) from None
                            send(receipt(fetch.held))  # the train paused
                            receipted = fetch.held
                        continue
                    train = arrived.popleft()
                    taken, stale, closed = fetch.take_train(
                        train.offsets, train.nbytes, train.last_in_window,
                        train.last_in_transfer)
                    result.fragments += taken
                    if stale:
                        result.fragments_stale += stale
                        rec = telemetry.RECORDER
                        if rec.enabled:
                            rec.count("live.fragments_stale", stale,
                                      client=name)
                    if closed:
                        break
                # The closing receipt leads the report in its socket write.
                held = fetch.held
                final = (receipt(held),) if report and held > receipted \
                    else ()
                result.nbytes = held
                result.windows += 1
                elapsed = clock.now() - window_started
                if report and fetch.received > 0 and elapsed > 0:
                    reply = await self.client.call(REPORT_OP, {
                        "kind": "throughput", "seconds": elapsed,
                        "nbytes": fetch.received,
                    }, ahead=final)
                    result.levels.append(reply.get("level"))
                elif final:
                    send(final[0])
            result.seconds = clock.now() - started
            return result
        finally:
            self._queues.pop(transfer_id, None)
