"""Endpoint observation logs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.logs import DELIVERY_HISTORY_SECONDS, DeliveryIndex, RpcLog


@pytest.fixture
def log(sim):
    return RpcLog(sim, "conn")


class Recorder:
    def __init__(self):
        self.round_trips = []
        self.throughputs = []

    def on_round_trip(self, log, entry):
        self.round_trips.append(entry)

    def on_throughput(self, log, entry):
        self.throughputs.append(entry)


def test_observers_notified(sim, log):
    recorder = Recorder()
    log.subscribe(recorder)
    log.add_round_trip(0.02, 100, 200)
    log.add_throughput(started=0.0, nbytes=1000)
    assert len(recorder.round_trips) == 1
    assert len(recorder.throughputs) == 1
    log.unsubscribe(recorder)
    log.add_round_trip(0.02, 100, 200)
    assert len(recorder.round_trips) == 1


def test_throughput_entry_fields(sim, log):
    sim.run(until=2.0)
    entry = log.add_throughput(started=1.5, nbytes=4096)
    assert entry.at == 2.0
    assert entry.seconds == pytest.approx(0.5)
    assert entry.raw_rate == pytest.approx(8192)


def test_deliveries_window_query(sim, log):
    log.add_delivery(100)
    sim.run(until=5.0)
    log.add_delivery(200)
    sim.run(until=10.0)
    log.add_delivery(400)
    assert log.bytes_delivered_between(-1.0, 10.0) == 700
    assert log.bytes_delivered_between(0, 10.0) == 600  # start is exclusive
    assert log.bytes_delivered_between(2.0, 7.0) == 200
    assert log.bytes_delivered_between(4.9, 10.0) == 600
    assert log.delivered_total == 700


def test_delivery_interval_is_half_open(sim, log):
    sim.run(until=5.0)
    log.add_delivery(100)
    assert log.bytes_delivered_between(5.0, 6.0) == 0  # start exclusive
    assert log.bytes_delivered_between(4.0, 5.0) == 100  # end inclusive


def test_old_deliveries_pruned(sim, log):
    log.add_delivery(100)
    sim.run(until=DELIVERY_HISTORY_SECONDS + 10)
    log.add_delivery(50)
    # The first delivery fell off the retained window.
    assert log.bytes_delivered_between(0, sim.now) == 50
    assert log.delivered_total == 150  # the total counter never forgets


def test_recent_rate(sim, log):
    sim.run(until=10.0)
    log.add_delivery(5000)
    assert log.recent_rate(5.0) == pytest.approx(1000)
    assert log.recent_rate(0) == 0.0


def test_last_activity(sim, log):
    assert log.last_activity() is None
    sim.run(until=3.0)
    log.add_round_trip(0.02, 10, 10)
    assert log.last_activity() == 3.0
    sim.run(until=7.0)
    log.add_delivery(10)
    assert log.last_activity() == 7.0


# -- entries dated ahead of now -------------------------------------------------

#: Quarter seconds: ties between a train's packets, and with the clock,
#: are common.
quarters = st.integers(0, 48).map(lambda n: n / 4)
operations = st.lists(st.one_of(
    st.tuples(st.just("advance"), quarters),
    st.tuples(st.just("add"), st.integers(0, 5000)),
    st.tuples(st.just("train"), st.lists(
        st.tuples(quarters, st.integers(0, 5000)), min_size=1, max_size=12)),
    st.tuples(st.just("retract"), st.none()),
), max_size=60)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(operations=operations)
def test_entries_ahead_of_now_match_a_plain_event_list(operations):
    """Against every entry kept in a list: entries after now are invisible
    to ``(start, now]``, an add behind them lands in order, no entry a
    30 s query at now needs is ever pruned, a retraction drops exactly
    the entries after now, and the total and the latest entry answer as
    of now."""
    index = DeliveryIndex()
    events = []  # (time, nbytes), every entry ever kept
    now = 0.0
    for op, arg in operations:
        if op == "advance":
            now += arg
        elif op == "add":
            index.add(now, arg)
            events.append((now, arg))
        elif op == "train":
            times, at = [], now
            for gap, _ in arg:
                at += gap
                times.append(at)
            sizes = [nbytes for _, nbytes in arg]
            index.extend(times, sizes, now)
            events.extend(zip(times, sizes))
        else:
            after = [event for event in events if event[0] > now]
            assert index.retract(now) == len(after)
            events = [event for event in events if event[0] <= now]
        for back in (0.0, 0.25, 7.5, 29.75, DELIVERY_HISTORY_SECONDS):
            start = now - back
            assert index.between(start, now) == sum(
                nbytes for at, nbytes in events if start < at <= now)
        assert index.total(now) == sum(n for at, n in events if at <= now)
        assert index.latest(now) == max(
            (at for at, _ in events if at <= now), default=None)
        assert list(index.times[index.head:]) == sorted(
            index.times[index.head:])


def test_a_train_logged_ahead_is_seen_as_it_arrives(sim, log):
    sim.run(until=1.0)
    log.add_deliveries([1.0, 1.5, 2.0], [100, 200, 400])
    assert log.delivered_total == 100
    assert log.bytes_delivered_between(0, sim.now) == 100
    assert log.last_activity() == 1.0
    log.add_delivery(64)  # a reply logged at the train's first arrival
    sim.run(until=1.75)
    assert log.delivered_total == 364
    assert log.last_activity() == 1.5
    assert log.retract() == 1
    sim.run(until=5.0)
    assert log.delivered_total == log.bytes_delivered_between(0, 5.0) == 364
    assert log.last_activity() == 1.5


def test_a_train_ahead_prunes_nothing_a_query_at_now_needs(sim, log):
    sim.run(until=1.0)
    log.add_delivery(100)
    sim.run(until=30.5)
    log.add_deliveries([30.5, 40.0], [10, 20])
    assert log.bytes_delivered_between(sim.now - 30.0, sim.now) == 110
