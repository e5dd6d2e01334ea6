"""Unit tests for the simulator event loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

NAN = float("nan")
INF = float("inf")


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_time(sim):
    fired = []
    sim.timeout(2.5).add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_timeout_carries_value(sim):
    seen = []
    sim.timeout(1.0, value="payload").add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay, value=delay).add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_schedule_order(sim):
    order = []
    for tag in "abcde":
        sim.timeout(1.0, value=tag).add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == list("abcde")


def test_run_until_time_stops_exactly(sim):
    fired = []
    sim.timeout(5.0).add_callback(lambda e: fired.append("late"))
    sim.timeout(1.0).add_callback(lambda e: fired.append("early"))
    sim.run(until=3.0)
    assert fired == ["early"]
    assert sim.now == 3.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_past_time_rejected(sim):
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_run_until_event_returns_value(sim):
    event = sim.event()
    sim.call_in(2.0, event.succeed, 42)
    assert sim.run(until=event) == 42
    assert sim.now == 2.0


def test_run_until_failed_event_raises(sim):
    event = sim.event()
    sim.call_in(1.0, event.fail, ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=event)


def test_run_until_event_never_fired_raises(sim):
    event = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="drained"):
        sim.run(until=event)


def test_step_on_empty_queue_raises(sim):
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time(sim):
    assert sim.peek() is None
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_call_at_and_call_in(sim):
    calls = []
    sim.call_at(2.0, calls.append, "at")
    sim.call_in(1.0, calls.append, "in")
    sim.run()
    assert calls == ["in", "at"]


def test_call_at_past_rejected(sim):
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_event_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_event_value_before_trigger_raises(sim):
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_unhandled_failed_event_propagates(sim):
    sim.event().fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_defused_failure_does_not_propagate(sim):
    event = sim.event()
    event.fail(RuntimeError("handled"))
    event.defuse()
    sim.run()  # no raise


def test_late_callback_runs_immediately(sim):
    event = sim.timeout(1.0, value="x")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_many_events_deterministic():
    def run_once():
        sim = Simulator()
        order = []
        for i in range(500):
            delay = (i * 37) % 97 / 10.0
            sim.timeout(delay, value=i).add_callback(
                lambda e: order.append(e.value)
            )
        sim.run()
        return order

    assert run_once() == run_once()


@pytest.mark.parametrize("until", [None, 1000.0])
def test_overflow_mid_drain_runs_every_event_once(sim, until):
    # The first of three same-instant calls schedules far past the
    # calendar's horizon, into the overflow heap, while the other two
    # still wait in the bucket being drained; its last call is zero-delay.
    fired = []

    def flood():
        fired.append("flood")
        for i in range(600):
            sim.call_at(100.0 + i, fired.append, i)
        sim.call_at(1.0, fired.append, "echo")

    sim.call_at(1.0, flood)
    sim.call_at(1.0, fired.append, "second")
    sim.call_at(1.0, fired.append, "third")
    sim.run(until=until)
    assert fired == ["flood", "second", "third", "echo", *range(600)]


_SCHEDULERS = {
    "timeout": lambda sim, delay: sim.timeout(delay),
    "call_in": lambda sim, delay: sim.call_in(delay, lambda: None),
    "call_at": lambda sim, delay: sim.call_at(sim.now + delay, lambda: None),
    "succeed": lambda sim, delay: sim.event().succeed(delay=delay),
    "fail": lambda sim, delay: sim.event().fail(RuntimeError(), delay=delay),
}


@pytest.mark.parametrize("delay", [NAN, INF, -INF, -1.0])
@pytest.mark.parametrize("how", sorted(_SCHEDULERS))
def test_non_finite_or_negative_delay_rejected(sim, how, delay):
    with pytest.raises(SimulationError):
        _SCHEDULERS[how](sim, delay)
    assert sim.peek() is None


@pytest.mark.parametrize("delay", [NAN, INF, -1.0])
@pytest.mark.parametrize("trigger", ["succeed", "fail"])
def test_rejected_trigger_delay_leaves_event_pending(sim, trigger, delay):
    event = sim.event()
    arg = RuntimeError("x") if trigger == "fail" else "x"
    with pytest.raises(SimulationError):
        getattr(event, trigger)(arg, delay=delay)
    assert not event.triggered
    event.succeed("ok", delay=1.0)
    assert sim.run(until=event) == "ok"


@pytest.mark.parametrize("until", [NAN, INF, -INF])
def test_run_until_non_finite_rejected(sim, until):
    sim.timeout(2.0)
    with pytest.raises(SimulationError):
        sim.run(until=until)
    assert sim.now == 0.0 and sim.peek() == 2.0
    sim.run()
    assert sim.now == 2.0
    sim.timeout(1.0)
    sim.run()
    assert sim.now == 3.0


# -- one kernel, two drive modes: a sorted-key reference --------------------

# Zero delays (into the bucket being drained), bucket-boundary multiples of
# the default width, and delays past the default ring's 12.8 s horizon.
_delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.05, 0.1, 12.75, 12.8, 12.85, 25.6, 100.0]),
    st.floats(min_value=0.0, max_value=40.0,
              allow_nan=False, allow_infinity=False),
)
_kinds = st.sampled_from(["timeout", "call_at", "succeed"])
_trees = st.recursive(
    st.tuples(_kinds, _delays, st.just(())),
    lambda children: st.tuples(_kinds, _delays,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=30,
)
_programs = st.lists(_trees, min_size=1, max_size=6)


def _drive(program, stops):
    """Run ``program`` (trees of (kind, delay, children): each node, when
    it fires, schedules its children) and check the firing order against
    the ``(time, schedule order)`` sort of every key scheduled so far —
    after each ``run(until=stop)``, where ``program[0]`` is also scheduled
    afresh, and after the final ``run()``."""
    sim = Simulator()
    keys, fired = [], []

    def schedule(node):
        kind, delay, children = node
        order = len(keys)

        def fire(*_):
            fired.append((sim.now, order))
            for child in children:
                schedule(child)

        now = sim.now
        if kind == "timeout":
            sim.timeout(delay).add_callback(fire)
            keys.append((now + delay, order))
        elif kind == "call_at":
            when = now + delay
            sim.call_at(when, fire)
            keys.append((now + (when - now), order))
        else:
            event = sim.event()
            event.add_callback(fire)
            event.succeed(delay=delay)
            keys.append((now + delay, order))

    for node in program:
        schedule(node)
    for stop in stops:
        sim.run(until=stop)
        assert sim.now == stop
        assert fired == sorted(key for key in keys if key[0] <= stop)
        schedule(program[0])
    sim.run()
    assert fired == sorted(keys)
    assert sim.now == max(time for time, _ in keys)
    assert sim.peek() is None


@settings(max_examples=200, deadline=None)
@given(program=_programs,
       stops=st.lists(st.floats(min_value=0.0, max_value=120.0,
                                allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=6).map(sorted))
def test_firing_order_is_the_sorted_schedule(program, stops):
    _drive(program, [])
    _drive(program, stops)
