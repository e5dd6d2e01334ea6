"""The windowed transfer core (``repro.rpc.transfer``) and its two receivers.

Four properties: the cutter tiles a window exactly; ``WindowedFetch``
asks for the same windows and counts the same bytes as the simulated
receiver's loop did before the core existed; taking a train as one run
counts what taking its fragments one by one does; and the live
receiver, whatever mix of duplicated, reordered and stale trains reaches
it, holds its bytes contiguously and receipts each byte exactly once.
"""

import asyncio
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.live.bulk as bulk
from repro.live import BulkReceiver
from repro.rpc.clock import MonotonicClock
from repro.rpc.messages import FragmentTrain, WindowAck, WindowRequest
from repro.rpc.transfer import WindowedFetch, fragments, is_train


# -- the cutter ----------------------------------------------------------------

@given(offset=st.integers(0, 10_000), size=st.integers(0, 5_000),
       beyond=st.integers(0, 5_000), fragment_bytes=st.integers(1, 3_000))
@example(offset=0, size=0, beyond=0, fragment_bytes=1)
@example(offset=100, size=4_096, beyond=0, fragment_bytes=1_024)
def test_fragments_tile_the_window_and_flag_its_ends(offset, size, beyond,
                                                     fragment_bytes):
    end = offset + size
    total = end + beyond
    cut = list(fragments(offset, end, total, fragment_bytes))
    if size == 0:
        assert cut == [(offset, 0, True, beyond == 0)]
        return
    at = offset
    for index, (start, nbytes, last_in_window, last_in_transfer) in \
            enumerate(cut):
        assert start == at
        assert 1 <= nbytes <= fragment_bytes
        at += nbytes
        closing = index == len(cut) - 1
        assert last_in_window is closing
        assert last_in_transfer is (closing and end == total)
        if not closing:
            assert nbytes == fragment_bytes
    assert at == end


@pytest.mark.parametrize("fragment_bytes", [0, -7])
def test_a_fragment_below_one_byte_is_refused(fragment_bytes):
    with pytest.raises(ValueError):
        next(fragments(0, 1 << 20, 1 << 20, fragment_bytes))


def test_an_empty_closing_fragment_ends_the_fetch():
    """A sender with nothing left to send answers with one empty closing
    fragment; asking again would get the same answer forever."""
    fetch = WindowedFetch(100, 40)
    assert fetch.next_window() == (0, 40)
    assert fetch.take(0, 0, True, False) is True
    assert fetch.next_window() is None


# -- the receiver against the simulated receiver's loop ------------------------

class LossySender:
    """``RpcService._serve_window`` on one source: it retires the source
    once every byte has been sent, and loses each fragment ``lose`` marks
    (by fragment count, cycled) unless it closes its window.  A lost
    closing fragment is a timeout, which neither receiver handles."""

    def __init__(self, total, fragment_bytes, lose):
        self.total = total
        self.fragment_bytes = fragment_bytes
        self.lose = lose
        self.consumed = 0
        self.sent = 0

    def serve(self, offset, window_bytes):
        retired = self.consumed >= self.total
        end = offset + window_bytes if retired else self.total
        window = min(window_bytes, end - offset)
        assert window > 0, "the sim server refuses an empty window"
        delivered = []
        for fragment in fragments(offset, offset + window, end,
                                  self.fragment_bytes):
            lost = self.lose[self.sent % len(self.lose)]
            self.sent += 1
            if fragment[2] or not lost:
                delivered.append(fragment)
        self.consumed = max(self.consumed, offset + window)
        return delivered


def reference_fetch(nbytes, window_bytes, sender):
    """The simulated receiver's loop as it stood before the core: resume
    after the bytes counted, until ``nbytes`` are counted."""
    asks, counts = [], []
    offset = 0
    while offset < nbytes:
        window = min(window_bytes, nbytes - offset)
        asks.append((offset, window))
        received = sum(nbytes for _, nbytes, _, _ in
                       sender.serve(offset, window))
        counts.append(received)
        offset += received
    return asks, counts


def core_fetch(nbytes, window_bytes, sender):
    fetch = WindowedFetch(nbytes, window_bytes)
    asks, counts = [], []
    window = fetch.next_window()
    while window is not None:
        asks.append(window)
        closed = [fetch.take(*fragment) for fragment in sender.serve(*window)]
        assert closed[-1] and not any(closed[:-1])
        counts.append(fetch.received)
        window = fetch.next_window()
    return asks, counts


@settings(deadline=None)
@given(nbytes=st.integers(0, 20_000), window_bytes=st.integers(1, 8_192),
       fragment_share=st.integers(1, 16), lose=st.lists(st.booleans(),
                                                        min_size=1,
                                                        max_size=16))
@example(nbytes=40_000, window_bytes=32_768, fragment_share=16,
         lose=[False] * 16 + [True] + [False] * 8)
def test_windowed_fetch_matches_the_simulated_receivers_loop(
        nbytes, window_bytes, fragment_share, lose):
    fragment_bytes = max(1, window_bytes // fragment_share)
    expected = reference_fetch(nbytes, window_bytes,
                               LossySender(nbytes, fragment_bytes, lose))
    got = core_fetch(nbytes, window_bytes,
                     LossySender(nbytes, fragment_bytes, lose))
    assert got == expected
    assert sum(got[1]) == nbytes


# -- a train as one run, against its fragments one by one ---------------------

def train_of(cut, transfer_id=1):
    """The :class:`FragmentTrain` of contiguous fragments ``cut``
    (``fragments`` tuples), flagged as its last one is."""
    return FragmentTrain(
        connection_id="broker", seq=0, transfer_id=transfer_id,
        offsets=[offset for offset, _, _, _ in cut],
        nbytes=[nbytes for _, nbytes, _, _ in cut],
        last_in_transfer=cut[-1][3], last_in_window=cut[-1][2])


def take_as_run(fetch, train):
    return fetch.take_train(train.offsets, train.nbytes,
                            train.last_in_window, train.last_in_transfer)


def take_one_by_one(fetch, train):
    """The live receiver's loop when every fragment was a frame: a
    fragment that does not continue the bytes held is stale."""
    taken = stale = 0
    closed = False
    for index in range(len(train.nbytes)):
        fragment = train.fragment(index)
        if fragment.offset != fetch.held:
            stale += 1
            continue
        taken += 1
        closed = fetch.take(fragment.offset, fragment.nbytes,
                            fragment.last_in_window,
                            fragment.last_in_transfer)
    return taken, stale, closed


def receive(nbytes, window_bytes, trains, take):
    """Feed ``trains`` to a fetch, asking for the next window whenever
    one closes; what each train did, and the window asked for last."""
    fetch = WindowedFetch(nbytes, window_bytes)
    window = fetch.next_window()
    seen = []
    for train in trains:
        if window is None:
            break
        taken, stale, closed = take(fetch, train)
        seen.append((taken, stale, closed, fetch.held, fetch.received))
        if closed:
            window = fetch.next_window()
    return seen, window


@st.composite
def train_streams(draw):
    """A transfer's true windows, each cut into trains at drawn points,
    mixed with copies of slices of any window (duplicates, and stale
    prefixes where a slice starts behind what is held) and with window
    tails cut with a different fragment size."""
    nbytes = draw(st.integers(1, 20_000))
    window_bytes = draw(st.integers(1, 8_192))
    fragment_bytes = max(1, window_bytes // draw(st.integers(1, 16)))
    windows = [list(fragments(offset, min(offset + window_bytes, nbytes),
                              nbytes, fragment_bytes))
               for offset in range(0, nbytes, window_bytes)]
    stream = []
    for cut in windows:
        ends = sorted(draw(st.sets(st.integers(1, len(cut)), max_size=4))
                      | {len(cut)})
        stream.extend(train_of(cut[lo:hi])
                      for lo, hi in zip([0, *ends], ends))
    for _ in range(draw(st.integers(0, 8))):
        cut = windows[draw(st.integers(0, len(windows) - 1))]
        if draw(st.booleans()):
            lo = draw(st.integers(0, len(cut) - 1))
            noise = cut[lo:draw(st.integers(lo + 1, len(cut)))]
        else:
            start = draw(st.integers(cut[0][0], cut[-1][0]))
            end = cut[-1][0] + cut[-1][1]
            noise = list(fragments(start, end, nbytes,
                                   draw(st.integers(1, fragment_bytes))))
            noise = noise[:draw(st.integers(1, len(noise)))]
        stream.insert(draw(st.integers(0, len(stream))), train_of(noise))
    return nbytes, window_bytes, stream


@settings(deadline=None)
@given(case=train_streams())
def test_a_train_taken_as_one_run_counts_what_its_fragments_do(case):
    nbytes, window_bytes, trains = case
    assert all(is_train(t.offsets, t.nbytes) for t in trains)
    expected = receive(nbytes, window_bytes, trains, take_one_by_one)
    assert receive(nbytes, window_bytes, trains, take_as_run) == expected


@pytest.mark.parametrize("offsets, nbytes", [
    pytest.param([0, 8], [8], id="unequal-lengths"),
    pytest.param([0, 8.0], [8, 8], id="float-offset"),
    pytest.param([0, 8], [8, "8"], id="string-size"),
    pytest.param([0, 8], [8, True], id="bool-size"),
    pytest.param([0, None], [8, 8], id="null-offset"),
    pytest.param([], [], id="empty"),
    pytest.param(0, [8], id="offsets-not-a-list"),
    pytest.param([0, 16], [8, 8], id="gap"),
    pytest.param([0, 4], [8, 8], id="overlap"),
    pytest.param([0, 8], [8, 0], id="empty-fragment-in-a-train"),
    pytest.param([0], [-8], id="negative-size"),
])
def test_a_malformed_train_is_stale_as_a_whole(offsets, nbytes):
    fetch = WindowedFetch(64, 64)
    fetch.next_window()
    assert not is_train(offsets, nbytes)
    taken, stale, closed = fetch.take_train(offsets, nbytes, True, True)
    assert (taken, closed) == (0, False) and stale >= 1
    assert (fetch.held, fetch.received) == (0, 0)
    assert fetch.next_window() == (0, 64)


# -- the live receiver, through a stub broker ----------------------------------

class StubBroker:
    """The broker side of one :class:`BrokerClient`, in process: answers
    each ``WindowRequest`` with its true fragments, mixed with copies of
    fragments already or not yet sent and the tail of a train behind the
    window, delivered in bursts some of which pause past the receipt
    hold.  A burst's fragments go out as trains, one per run of them
    that continue each other.  Records every receipt and throughput
    report."""

    def __init__(self, total, noise, bursts):
        self.name = "alpha"
        self.clock = MonotonicClock()
        self.channel = self
        self.total = total
        self.noise = noise
        self.bursts = bursts
        self.trains = []  # every true fragment sent, for the copies
        self.receipts = []
        self.reported = []
        self._handler = None

    def on_stream(self, handler):
        self._handler = handler

    def send(self, message):
        if isinstance(message, WindowAck):
            self.receipts.append(message.next_offset)
        elif isinstance(message, WindowRequest):
            self._serve(message)

    async def call(self, op, body=None, ahead=()):
        for message in ahead:
            self.send(message)
        self.reported.append(body["nbytes"])
        return {"level": None}

    def _serve(self, request):
        offset = request.offset
        end = min(self.total, offset + request.window_bytes)
        train = list(fragments(offset, end, self.total,
                               request.fragment_bytes))
        # The tail of an abandoned train, cut differently, behind the window.
        behind = list(fragments(offset // 2, offset, self.total,
                                max(1, request.fragment_bytes // 3))) \
            if offset else []
        copies = self.trains + train + behind
        self.trains.extend(train)
        stream = list(train)
        for index, (pick, at) in enumerate(self.noise):
            if copies:
                stream.insert(at % (len(stream) + 1),
                              copies[(pick + index) % len(copies)])
        loop = asyncio.get_running_loop()
        start, delay = 0, 0.0
        for size, pause in self.bursts * len(stream):
            if start >= len(stream):
                break
            burst = stream[start:start + size]
            start += size
            delay += 2 * bulk.RECEIPT_HOLD if pause else 0.0
            loop.call_later(delay, self._deliver, burst)

    def _deliver(self, burst):
        run = burst[:1]
        for cut in burst[1:]:
            offset, nbytes, last_in_window, _ = run[-1]
            if last_in_window or cut[0] != offset + nbytes:
                self._handler(train_of(run))
                run = []
            run.append(cut)
        self._handler(train_of(run))


class ContiguousFetch(WindowedFetch):
    """``WindowedFetch`` that checks what the live shell lets through."""

    __slots__ = ()

    def take(self, offset, nbytes, last_in_window, last_in_transfer):
        assert offset == self.held, "a fragment that skips or repeats bytes"
        return super().take(offset, nbytes, last_in_window, last_in_transfer)


@settings(deadline=None)
@given(window_bytes=st.integers(1, 16_384), windows=st.integers(1, 5),
       short=st.integers(0, 16_383), fragment_share=st.integers(1, 8),
       noise=st.lists(st.tuples(st.integers(0, 1_000), st.integers(0, 100)),
                      max_size=12),
       bursts=st.lists(st.tuples(st.integers(1, 6), st.booleans()),
                       min_size=1, max_size=6))
@example(window_bytes=8_192, windows=2, short=0, fragment_share=4,
         noise=[(0, 0), (1, 0), (2, 0), (3, 0)], bursts=[(2, True)])
def test_live_receiver_holds_contiguous_bytes_and_receipts_each_once(
        window_bytes, windows, short, fragment_share, noise, bursts):
    nbytes = windows * window_bytes - short % window_bytes
    fragment_bytes = max(1, window_bytes // fragment_share)
    broker = StubBroker(nbytes, noise, bursts)
    receiver = BulkReceiver(broker)

    async def scenario():
        return await receiver.fetch(1, nbytes, window_bytes=window_bytes,
                                    fragment_bytes=fragment_bytes,
                                    timeout=5.0)

    with mock.patch.object(bulk, "WindowedFetch", ContiguousFetch):
        result = asyncio.run(asyncio.wait_for(scenario(), 30.0))
    assert result.nbytes == nbytes
    assert result.windows == windows == len(broker.reported)
    assert result.fragments == len(broker.trains)
    # Cumulative receipts rise strictly to the end: every byte once.
    assert broker.receipts == sorted(set(broker.receipts))
    assert broker.receipts[-1] == nbytes
    assert sum(broker.reported) == nbytes
