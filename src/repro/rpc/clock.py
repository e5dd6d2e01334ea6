"""The clock seam: retry deadlines that work on sim time *and* wall time.

:class:`~repro.rpc.connection.RetryPolicy` arithmetic — per-attempt
timeouts clipped to a deadline, backoff pauses between attempts — used to
read ``sim.now`` directly, a latent assumption that the policy only ran
inside the simulator.  The real transport (:mod:`repro.broker`) retries
over wall-clock time, so the arithmetic now goes through a clock object:

- :class:`SimClock` — ``now`` is ``sim.now``; ``sleep`` returns a
  simulation timeout event to ``yield`` (generator processes);
- :class:`MonotonicClock` — ``now`` is :func:`time.monotonic`; ``sleep``
  returns an :func:`asyncio.sleep` coroutine to ``await``;
  :func:`wait_with_deadline` is its per-call timeout.

:class:`RetrySchedule` is the shared driver state: one per operation,
computing attempt timeouts and deadline checks identically on both clocks.
The sim path's behaviour is unchanged to the byte — same reads of the
same clock in the same order.
"""

import asyncio
import time


class SimClock:
    """Simulation time.  ``sleep`` yields inside a simulated process."""

    __slots__ = ("sim",)

    def __init__(self, sim):
        self.sim = sim

    def now(self):
        return self.sim.now

    def sleep(self, seconds):
        """A timeout event: ``yield clock.sleep(delay)``."""
        return self.sim.timeout(seconds)


class MonotonicClock:
    """Wall-clock time.  ``sleep`` awaits inside an asyncio coroutine."""

    __slots__ = ()

    def now(self):
        return time.monotonic()

    def sleep(self, seconds):
        """A coroutine: ``await clock.sleep(delay)``."""
        return asyncio.sleep(seconds)


def _expire(future):
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


async def wait_with_deadline(future, seconds):
    """Await ``future``, giving up after ``seconds``: its result, or
    :class:`asyncio.TimeoutError` raised through the future itself.

    The wall-clock timeout of the live stack: one ``loop.call_later``
    handle, cancelled on completion — where ``asyncio.wait_for`` wakes
    the caller through a second future, one loop turn later
    (``asyncio.timeout`` is 3.11-only).  The caller must own ``future``:
    on expiry it *is* failed, so a result arriving later finds it done.
    """
    handle = future.get_loop().call_later(seconds, _expire, future)
    try:
        return await future
    finally:
        handle.cancel()


class RetrySchedule:
    """One operation's walk through a retry policy, on a given clock.

    The driver loop (generator or coroutine) owns control flow; this
    object owns the arithmetic:

    - :meth:`attempt_timeout` — the next attempt's timeout, clipped to
      what remains of the overall deadline;
    - :meth:`next_delay` — the next backoff pause, ``None`` once retries
      are exhausted;
    - :meth:`past_deadline` — whether pausing ``delay`` seconds would
      land past the deadline (no retry may start there).
    """

    __slots__ = ("policy", "clock", "deadline_at", "_delays")

    def __init__(self, policy, clock):
        self.policy = policy
        self.clock = clock
        self._delays = policy.delays()
        self.deadline_at = None
        if policy.deadline is not None:
            self.deadline_at = clock.now() + policy.deadline

    def attempt_timeout(self):
        timeout = self.policy.timeout
        if self.deadline_at is not None:
            timeout = min(timeout, self.deadline_at - self.clock.now())
        return timeout

    def next_delay(self):
        return next(self._delays, None)

    def past_deadline(self, delay):
        return (self.deadline_at is not None
                and self.clock.now() + delay >= self.deadline_at)
