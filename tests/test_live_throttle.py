"""The synthetic serial link pacing the live broker's bulk plane."""

import asyncio
import heapq
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import BrokerError, LinkDown, RpcTimeout
from repro.live import Throttle, square_wave
from repro.live.bulk import BulkServerMixin, _Window
from repro.live.throttle import PACING_GRANULARITY
from repro.rpc.messages import WindowRequest
from repro.trace.replay import ReplayTrace, Segment

from tests.test_live_bulk import connect_receiver, start_live_broker


class FakeClock:
    """A controllable wall clock: sleep() advances now() instantly, and
    wakes ``lateness`` seconds after it was asked to, as a timer does."""

    def __init__(self, lateness=0.0):
        self.time = 100.0
        self.lateness = lateness
        self.sleeps = []

    def now(self):
        return self.time

    async def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.time += seconds + self.lateness


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


def run_on_a_thread(coro_fn, seconds=10.0):
    """``run(coro_fn())`` on a worker thread.  A throttle that spins
    without awaiting blocks its event loop, where no asyncio timeout can
    fire; joining the thread turns that hang into a failure."""
    outcome = {}

    def target():
        try:
            outcome["value"] = asyncio.run(
                asyncio.wait_for(coro_fn(), seconds))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds + 5.0)
    assert not thread.is_alive(), "the event loop hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


async def pace(throttle, nbytes, queued_at):
    """What the bulk streamer does per fragment: reserve, then sleep until
    the fragment is due unless it is due at once."""
    wake = throttle.reserve(nbytes, queued_at)
    if wake is not None:
        await throttle.sleep_until(wake)


def test_ctor_requires_exactly_one_shape():
    with pytest.raises(BrokerError, match="exactly one"):
        Throttle()
    with pytest.raises(BrokerError, match="exactly one"):
        Throttle(bandwidth=100, trace=square_wave(2, 1, 1.0))
    with pytest.raises(BrokerError, match="positive"):
        Throttle(bandwidth=0)


def test_constant_bandwidth_rate():
    throttle = Throttle(bandwidth=5_000, clock=FakeClock())
    assert throttle.rate_at(0.0) == 5_000
    assert throttle.rate_at(1e6) == 5_000
    assert throttle.rate_now() == 5_000


def test_trace_rate_loops_by_default():
    wave = square_wave(high=100, low=50, phase_seconds=1.0)
    throttle = Throttle(trace=wave, clock=FakeClock())
    assert throttle.rate_at(0.5) == 100
    assert throttle.rate_at(1.5) == 50
    # Past the 2 s period the wave repeats...
    assert throttle.rate_at(2.5) == 100
    assert throttle.rate_at(3.5) == 50
    # ...unless looping is off, which holds the final segment's rate.
    frozen = Throttle(trace=wave, clock=FakeClock(), loop=False)
    assert frozen.rate_at(2.5) == 50
    assert frozen.rate_at(99.0) == 50


def test_acquire_serializes_like_a_modem():
    async def scenario():
        clock = FakeClock()
        throttle = Throttle(bandwidth=1_000, clock=clock)
        await pace(throttle, 500, clock.now())  # 0.5 s of link time
        first_done = clock.now()
        await pace(throttle, 250, clock.now())  # queued behind: 0.25 s more
        return first_done - 100.0, clock.now() - 100.0, throttle

    first, second, throttle = run(scenario())
    assert first == pytest.approx(0.5)
    assert second == pytest.approx(0.75)
    assert throttle.bytes_shaped == 750
    assert throttle.fragments_shaped == 2


def test_concurrent_acquirers_split_the_link():
    async def scenario():
        clock = FakeClock()
        throttle = Throttle(bandwidth=1_000, clock=clock)
        # Two "clients" offer a fragment at the same instant: the second
        # queues behind the first on _free_at, exactly like packets on a
        # serial line.
        started = clock.now()
        one = throttle.reserve(1_000, started)
        two = throttle.reserve(1_000, started)
        await throttle.sleep_until(one)
        await throttle.sleep_until(two)
        return one - started, clock.now() - started

    # 2000 bytes through 1000 B/s: 2 s of link time in total.
    first, total = run(scenario())
    assert first == pytest.approx(1.0)
    assert total == pytest.approx(2.0)


def test_fragment_due_within_a_granularity_goes_out_without_a_sleep():
    async def scenario():
        clock = FakeClock()
        # Half a granularity of link time.
        throttle = Throttle(bandwidth=1e6, clock=clock)
        await pace(throttle, int(PACING_GRANULARITY * 1e6 / 2), clock.now())
        return clock, throttle

    clock, throttle = run(scenario())
    assert clock.sleeps == [] and throttle.sleeps == 0
    assert clock.now() == 100.0
    # The link time stays on the cursor for the next acquirer to queue on.
    assert throttle._free_at == pytest.approx(100.0 + PACING_GRANULARITY / 2)
    assert throttle.fragments_shaped == 1


def test_unslept_link_time_keeps_the_modelled_rate():
    """10 000 one-byte fragments at 1 MB/s: each is 1 us of link time, far
    under a granularity, yet the cursor ends exactly 10 ms on and the
    link never runs more than a granularity ahead of it."""
    rate = 1e6

    async def scenario():
        clock = FakeClock()
        throttle = Throttle(bandwidth=rate, clock=clock)
        ahead = 0.0
        for _ in range(10_000):
            await pace(throttle, 1, 100.0)  # one window, offered at once
            ahead = max(ahead, throttle._free_at - clock.now())
        return clock, throttle, ahead

    clock, throttle, ahead = run(scenario())
    assert throttle._free_at == pytest.approx(100.0 + 10_000 / rate,
                                              rel=0, abs=1e-9)
    assert ahead <= PACING_GRANULARITY
    assert clock.sleeps and min(clock.sleeps) > PACING_GRANULARITY
    assert throttle.sleeps == len(clock.sleeps) < 10
    assert throttle.fragments_shaped == 10_000


def test_blackout_segment_parks_the_link():
    async def scenario():
        clock = FakeClock()
        trace = ReplayTrace([Segment(0.5, 0.0, 0.002),
                             Segment(10.0, 1_000.0, 0.002)],
                            name="blackout-then-up")
        throttle = Throttle(trace=trace, clock=clock)
        await pace(throttle, 100, clock.now())
        return clock.now() - 100.0

    elapsed = run(scenario())
    # The reservation walked past the 0.5 s dead zone, then transmitted
    # 100 bytes at 1000 B/s.
    assert elapsed >= 0.5 + 0.1
    assert elapsed < 1.0


def test_square_wave_validates_its_shape():
    with pytest.raises(BrokerError, match="rates must be positive"):
        square_wave(high=0, low=10, phase_seconds=1.0)
    with pytest.raises(BrokerError, match="phase must be positive"):
        square_wave(high=10, low=5, phase_seconds=0)
    wave = square_wave(high=10, low=5, phase_seconds=1.5)
    assert wave.duration == pytest.approx(3.0)


# -- a link that never transmits again -----------------------------------------

@pytest.mark.parametrize("loop", [True, False])
def test_a_trace_that_never_transmits_is_rejected(loop):
    dead = ReplayTrace([Segment(1.0, 0.0, 0.002), Segment(2.0, 0.0, 0.002)],
                       name="all-dark")
    with pytest.raises(BrokerError, match="never transmits"):
        Throttle(trace=dead, loop=loop)


def trailing_blackout(rate=2e6, up=0.01):
    """``up`` seconds of ``rate``, then zero for good (without looping)."""
    return ReplayTrace([Segment(up, rate, 0.002), Segment(0.1, 0.0, 0.002)],
                       name="up-then-dark")


def test_a_link_dark_for_good_raises_link_down_and_stays_down():
    async def scenario():
        clock = FakeClock()
        throttle = Throttle(trace=trailing_blackout(rate=1_000, up=1.0),
                            clock=clock, loop=False)
        await pace(throttle, 500, clock.now())  # inside the live second
        downs = 0
        for _ in range(2):
            try:
                await pace(throttle, 1_000, clock.now())
            except LinkDown:
                downs += 1
        return clock, throttle, downs

    clock, throttle, downs = run_on_a_thread(scenario)
    # The second fragment starts in the live second at its rate; the third
    # starts in the dark and never finishes.
    assert clock.now() == pytest.approx(101.5)
    assert downs == 1
    with pytest.raises(LinkDown):
        throttle.reserve(1, clock.now())
    assert throttle.fragments_shaped == 2


def test_a_stream_onto_a_dead_link_aborts_and_the_broker_lives_on():
    """Three 8 KiB fragments fit in the link's live 10 ms; the fourth
    would start in a blackout that never ends.  The stream aborts there,
    the receiver times out, and the broker still answers."""

    async def scenario():
        clock = FakeClock()
        throttle = Throttle(trace=trailing_blackout(), clock=clock,
                            loop=False)
        broker = await start_live_broker(throttle=throttle)
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            with pytest.raises(RpcTimeout):
                await receiver.fetch(transfer_id, 65_536, report=False,
                                     timeout=0.3)
            await client.ping(timeout=2.0)
            return broker.describe_bulk()
        finally:
            await client.close()
            await broker.close()

    bulk = run_on_a_thread(scenario)
    assert bulk["streams_aborted"] == 1
    assert bulk["fragments_streamed"] == 3
    assert bulk["windows_streamed"] == 0


# -- pacing from the queue time ------------------------------------------------

def test_late_wake_ups_do_not_stretch_a_window():
    """Every sleep wakes ``LATE`` after it was due.  One 8 x 8 KiB window
    at 2 MB/s ends one lateness after its link schedule, 8 x 4.096 ms
    from the request, not eight latenesses after it."""
    late = 0.0005

    async def scenario():
        clock = FakeClock(lateness=late)
        throttle = Throttle(bandwidth=2e6, clock=clock)
        broker = await start_live_broker(throttle=throttle)
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            result = await receiver.fetch(transfer_id, 65_536,
                                          window_bytes=65_536,
                                          fragment_bytes=8_192,
                                          report=False)
            return result, clock, throttle
        finally:
            await client.close()
            await broker.close()

    result, clock, throttle = run(scenario())
    assert result.fragments == throttle.sleeps == 8
    assert clock.now() == pytest.approx(100.0 + 8 * 8_192 / 2e6 + late,
                                        rel=0, abs=1e-9)


class _Wake:
    """What a driven sleep yields to :func:`drive`: when it wakes."""

    def __init__(self, at):
        self.at = at

    def __await__(self):
        yield self


class DrivenClock(FakeClock):
    """A FakeClock whose sleeps park their stream on :func:`drive`, so
    concurrent streams interleave in time order."""

    async def sleep(self, seconds):
        self.sleeps.append(seconds)
        await _Wake(self.time + seconds + self.lateness)


def drive(clock, streams, running):
    """Run ``(start, coroutine)`` streams to completion in time order:
    each starts at its queue time and resumes when its sleep wakes.
    ``running[0]`` names the stream being run."""
    pending = [(at, index, coro) for index, (at, coro) in enumerate(streams)]
    heapq.heapify(pending)
    while pending:
        at, index, coro = heapq.heappop(pending)
        clock.time = at
        running[0] = index
        try:
            wake = coro.send(None)
        except StopIteration:
            continue
        heapq.heappush(pending, (wake.at, index, coro))


class _Channel:
    """Records every socket write: when, and the fragments of its train."""

    def __init__(self, clock, writes):
        self.clock = clock
        self.writes = writes

    def send(self, train):
        self.writes.append((self.clock.now(), [
            train.fragment(index) for index in range(len(train.nbytes))]))

    async def drain(self):
        pass


class _Session:
    def __init__(self, name, channel):
        self.name = name
        self.channel = channel
        self.closed = False


class _BulkPlane(BulkServerMixin):
    """The bulk plane without a broker around it."""

    def __init__(self, throttle):
        self.throttle = throttle
        self._init_bulk()

    def register(self, op, handler):
        pass


STREAM = st.tuples(st.integers(1, 96 * 1024),     # window bytes
                   st.integers(256, 16 * 1024),   # fragment bytes
                   st.floats(0.0, 0.05))          # queued, after t0


@given(rate=st.floats(1e5, 1e9), lateness=st.floats(0.0, 0.005),
       streams=st.lists(STREAM, min_size=1, max_size=2))
@example(rate=2e6, lateness=0.0005, streams=[(65_536, 8_192, 0.0)])
@example(rate=2e6, lateness=0.004, streams=[(65_536, 8_192, 0.0),
                                            (32_768, 4_096, 0.006)])
def test_paced_streams_follow_the_serial_link_schedule(rate, lateness,
                                                       streams):
    """(i) The cursor follows a FIFO serial link, each fragment starting
    at ``max(its window's queue time, the previous finish)``; (ii) no
    fragment leaves more than a granularity before its finish.  Together
    they hold the rate.  And a late wake-up is caught up, never carried:
    a fragment leaves at most one lateness after its finish."""
    clock = DrivenClock(lateness=lateness)
    throttle = Throttle(bandwidth=rate, clock=clock)
    plane = _BulkPlane(throttle)
    running = [None]
    reserved = []  # (stream, nbytes, queued_at, finish) in link order
    reserve = throttle.reserve

    def spy(nbytes, queued_at):
        wake = reserve(nbytes, queued_at)
        reserved.append((running[0], nbytes, queued_at, throttle._free_at))
        return wake

    throttle.reserve = spy
    writes = [[] for _ in streams]
    runs = []
    for index, (nbytes, fragment_bytes, after) in enumerate(streams):
        session = _Session(f"s{index}", _Channel(clock, writes[index]))
        window = _Window(0)
        plane._windows[session] = {1: window}
        request = WindowRequest(connection_id=session.name, seq=1,
                                transfer_id=1, offset=0,
                                window_bytes=nbytes,
                                fragment_bytes=fragment_bytes, reply_port="")
        queued_at = 100.0 + after
        runs.append((queued_at, plane._stream_window(
            session, request, window, nbytes, nbytes, queued_at)))
    drive(clock, runs, running)

    # (i) the reference FIFO serial link, in the order the link saw them.
    cursor = 100.0
    for stream, nbytes, queued_at, finish in reserved:
        assert queued_at == 100.0 + streams[stream][2]
        cursor = max(queued_at, cursor) + nbytes / rate
        assert finish == pytest.approx(cursor, rel=0, abs=1e-9)
    assert plane.windows_streamed == len(streams)
    assert plane.streams_aborted == 0
    for index, (nbytes, fragment_bytes, _) in enumerate(streams):
        finishes = [f for s, _, _, f in reserved if s == index]
        released = [(at, fragment) for at, train in writes[index]
                    for fragment in train]
        # Every byte, in order, one fragment per reservation.
        assert [f.offset for _, f in released] \
            == list(range(0, nbytes, fragment_bytes))
        assert sum(f.nbytes for _, f in released) == nbytes
        assert released[-1][1].last_in_window
        assert len(finishes) == len(released)
        for (at, _), finish in zip(released, finishes):
            assert at >= finish - PACING_GRANULARITY - 1e-9  # (ii)
            assert at <= finish + lateness + 1e-9
        # A fragment holding the link longer than a granularity waits for
        # its own finish, so it heads its write: nothing rides ahead of it.
        for _, train in writes[index]:
            assert all(f.nbytes / rate <= PACING_GRANULARITY
                       for f in train[1:])
