"""The clock seam: retry arithmetic identical on sim and wall time."""

import asyncio
import time

import pytest

from repro.errors import RpcTimeout
from repro.rpc.clock import (
    MonotonicClock,
    RetrySchedule,
    SimClock,
    wait_with_deadline,
)
from repro.rpc.connection import RetryPolicy
from repro.sim.kernel import Simulator


class FakeClock:
    """A hand-cranked clock so deadline arithmetic is exact."""

    def __init__(self):
        self.time = 0.0
        self.sleeps = []

    def now(self):
        return self.time

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.time += seconds
        return _nothing()  # awaitable, per the MonotonicClock contract


async def _nothing():
    return None


def test_sim_clock_reads_sim_time():
    sim = Simulator()
    clock = SimClock(sim)
    assert clock.now() == sim.now

    seen = []

    def process():
        yield clock.sleep(2.5)
        seen.append(clock.now())

    sim.process(process())
    sim.run()
    assert seen == [2.5]


def test_monotonic_clock_reads_wall_time():
    clock = MonotonicClock()
    before = time.monotonic()
    now = clock.now()
    after = time.monotonic()
    assert before <= now <= after

    async def nap():
        start = clock.now()
        await clock.sleep(0.01)
        return clock.now() - start

    assert asyncio.run(nap()) >= 0.009


def test_schedule_without_deadline_never_clips():
    clock = FakeClock()
    policy = RetryPolicy(timeout=3.0, retries=2, backoff=1.0)
    schedule = RetrySchedule(policy, clock)
    assert schedule.deadline_at is None
    clock.time = 1_000.0
    assert schedule.attempt_timeout() == 3.0
    assert schedule.past_deadline(1e9) is False


def test_schedule_clips_attempt_timeout_to_deadline():
    clock = FakeClock()
    policy = RetryPolicy(timeout=5.0, retries=3, backoff=1.0, deadline=8.0)
    schedule = RetrySchedule(policy, clock)
    assert schedule.attempt_timeout() == 5.0  # plenty of budget left
    clock.time = 6.0
    assert schedule.attempt_timeout() == pytest.approx(2.0)  # clipped
    assert schedule.past_deadline(1.0) is False
    assert schedule.past_deadline(2.0) is True  # 6 + 2 >= 8


def test_schedule_walks_the_policy_backoff():
    clock = FakeClock()
    policy = RetryPolicy(timeout=1.0, retries=3, backoff=0.5,
                         multiplier=2.0)
    schedule = RetrySchedule(policy, clock)
    delays = [schedule.next_delay() for _ in range(5)]
    expected = list(policy.delays()) + [None, None]
    assert delays == expected[:5]
    assert delays[-1] is None  # exhausted -> the driver re-raises


def test_broker_client_retry_honours_deadline():
    """The wall-clock twin of the sim retry loop: a deadline exhausts
    retries even when attempts remain."""
    from repro.broker.client import BrokerClient

    client = BrokerClient("127.0.0.1", 1, "t", clock=FakeClock())
    attempts = []

    async def failing_call(op, body=None, body_bytes=256, timeout=None):
        attempts.append(timeout)
        client.clock.time += timeout  # the attempt burns its full budget
        raise RpcTimeout("synthetic")

    client.call = failing_call
    policy = RetryPolicy(timeout=2.0, retries=5, backoff=1.0,
                         multiplier=1.0, deadline=5.0)
    with pytest.raises(RpcTimeout, match="deadline"):
        asyncio.run(client.call_with_retry("op", retry=policy))
    # t=0: attempt(2) -> t=2, backoff 1 -> t=3; attempt clipped to 2 ->
    # t=5; next backoff would land at the deadline -> exhausted.
    assert attempts == [2.0, pytest.approx(2.0)]
    assert client.clock.sleeps == [1.0]


# -- the per-call deadline -------------------------------------------------------

def test_deadline_returns_the_result_of_a_future_that_completes():
    async def scenario():
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        loop.call_later(0.01, future.set_result, "done")
        return await wait_with_deadline(future, 5.0)

    assert asyncio.run(scenario()) == "done"


def test_deadline_expiry_fails_the_future_itself():
    async def scenario():
        future = asyncio.get_running_loop().create_future()
        with pytest.raises(asyncio.TimeoutError):
            await wait_with_deadline(future, 0.01)
        # The late result finds the future done: the owner can tell.
        return future.done(), isinstance(future.exception(),
                                         asyncio.TimeoutError)

    assert asyncio.run(scenario()) == (True, True)


def test_deadline_passes_a_failure_and_a_cancellation_through():
    async def scenario():
        loop = asyncio.get_running_loop()
        failing = loop.create_future()
        loop.call_soon(failing.set_exception, RpcTimeout("theirs"))
        with pytest.raises(RpcTimeout, match="theirs"):
            await wait_with_deadline(failing, 5.0)
        parked = loop.create_future()
        waiter = asyncio.ensure_future(wait_with_deadline(parked, 5.0))
        await asyncio.sleep(0)
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        return parked.cancelled()

    assert asyncio.run(scenario())
