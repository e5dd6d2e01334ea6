"""The synthetic serial link pacing the live broker's bulk plane."""

import asyncio

import pytest

from repro.errors import BrokerError
from repro.live import Throttle, square_wave
from repro.live.throttle import PACING_GRANULARITY
from repro.trace.replay import ReplayTrace, Segment


class FakeClock:
    """A controllable wall clock: sleep() advances now() instantly."""

    def __init__(self):
        self.time = 100.0
        self.sleeps = []

    def now(self):
        return self.time

    async def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.time += seconds


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


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
        await throttle.acquire(500)  # 0.5 s of link time
        first_done = clock.now()
        await throttle.acquire(250)  # queued behind: 0.25 s more
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
        # Two "clients" grab the link back to back without the clock
        # advancing between the calls: the second queues behind the
        # first on _free_at, exactly like packets on a serial line.
        started = clock.now()
        one = throttle.acquire(1_000)
        two = throttle.acquire(1_000)
        await one
        await two
        return clock.now() - started

    # 2000 bytes through 1000 B/s: 2 s of link time in total.
    assert run(scenario()) == pytest.approx(2.0)


def test_fragment_due_within_a_granularity_goes_out_without_a_sleep():
    async def scenario():
        clock = FakeClock()
        # Half a granularity of link time.
        throttle = Throttle(bandwidth=1e6, clock=clock)
        await throttle.acquire(int(PACING_GRANULARITY * 1e6 / 2))
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
            await throttle.acquire(1)
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
        await throttle.acquire(100)
        return clock.now() - 100.0

    elapsed = run(scenario())
    # The acquire walked past the 0.5 s dead zone, then transmitted
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
