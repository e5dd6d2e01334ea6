"""Modulated links: serialization, FIFO delivery, stats."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinkDown, NetworkError
from repro.faults.injector import LinkFaultInjector
from repro.faults.plan import LossBurst
from repro.net.link import LinkStats, SimplexLink
from repro.net.packet import HEADER_BYTES, Packet, Train
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.trace.integrate import transmission_finish_time
from repro.trace.replay import ReplayTrace, Segment


def make_packet(size, tag=None):
    return Packet(src="a", dst="b", port="p", size=size, payload=tag)


def collecting_link(sim, trace):
    received = []
    link = SimplexLink(sim, trace, "test-link",
                       deliver=lambda p: received.append((sim.now, p)))
    return link, received


def test_packet_smaller_than_header_rejected():
    with pytest.raises(NetworkError):
        make_packet(HEADER_BYTES - 1)


def test_payload_bytes_excludes_header():
    packet = make_packet(HEADER_BYTES + 100)
    assert packet.payload_bytes == 100


def test_single_packet_latency_plus_transmission():
    sim = Simulator()
    trace = ReplayTrace([Segment(100, 1000, 0.5)])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(1000))
    sim.run()
    # 1 s serialization + 0.5 s propagation.
    assert received[0][0] == pytest.approx(1.5)


def test_packets_serialize_fifo():
    sim = Simulator()
    trace = ReplayTrace([Segment(100, 1000, 0.0)])
    link, received = collecting_link(sim, trace)
    for tag in ("first", "second", "third"):
        link.send(make_packet(1000, tag))
    sim.run()
    times = [t for t, _ in received]
    tags = [p.payload for _, p in received]
    assert tags == ["first", "second", "third"]
    assert times == pytest.approx([1.0, 2.0, 3.0])


def test_transmission_straddles_bandwidth_step():
    sim = Simulator()
    trace = ReplayTrace([Segment(1, 1000, 0.0), Segment(100, 3000, 0.0)])
    link, received = collecting_link(sim, trace)
    # 4000 bytes: 1000 in the first second, 3000 in the next -> t=2.
    link.send(make_packet(4000))
    sim.run()
    assert received[0][0] == pytest.approx(2.0)


def test_fifo_preserved_across_latency_drop():
    sim = Simulator()
    trace = ReplayTrace([Segment(1.05, 10000, 1.0), Segment(100, 10000, 0.0)])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(10000))  # finishes t=1, delivered t=2 (latency 1.0)
    link.send(make_packet(1000))   # finishes t=1.1, latency now 0
    sim.run()
    tags = [p.packet_id for _, p in received]
    assert tags == sorted(tags)
    assert received[1][0] >= received[0][0]


def test_stats_accumulate():
    sim = Simulator()
    trace = ReplayTrace([Segment(100, 1000, 0.0)])
    link, _ = collecting_link(sim, trace)
    for _ in range(3):
        link.send(make_packet(500))
    sim.run()
    assert link.stats.packets_sent == 3
    assert link.stats.bytes_sent == 1500
    assert link.stats.busy_seconds == pytest.approx(1.5)


def test_zero_bandwidth_forever_raises_linkdown():
    sim = Simulator()
    trace = ReplayTrace([Segment(1, 0, 0.0)])
    link, _ = collecting_link(sim, trace)
    link.send(make_packet(100))
    with pytest.raises(LinkDown):
        sim.run()


def test_sends_after_linkdown_are_parked():
    sim = Simulator()
    trace = ReplayTrace([Segment(1, 1000, 0.0), Segment(1, 0, 0.0)])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(500))   # finishes at 0.5
    link.send(make_packet(1000))  # 500 bytes fit before the stall: never
    with pytest.raises(LinkDown):
        sim.run()
    link.send(make_packet(100))
    sim.run()
    assert [t for t, _ in received] == [0.5]
    assert link.stats.packets_sent == 1


def test_stalled_packet_resumes_after_outage():
    sim = Simulator()
    trace = ReplayTrace([
        Segment(1, 1000, 0.0), Segment(5, 0, 0.0), Segment(100, 1000, 0.0),
    ])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(2000))  # 1000 by t=1, stall 5 s, 1000 more by t=7
    sim.run()
    assert received[0][0] == pytest.approx(7.0)


def test_finish_on_a_boundary_takes_the_next_segments_latency():
    sim = Simulator()
    trace = ReplayTrace([Segment(1, 1000, 0.5), Segment(10, 1000, 0.25)])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(1000))  # finishes exactly at t=1
    sim.run()
    assert received[0][0] == 1.25


def test_packet_straddling_the_trace_end_finishes_where_the_integral_does():
    # start + size/bw would read 1.1660000000000001: the final segment
    # holds forever, but the integral still crosses the trace's end.
    sim = Simulator()
    trace = ReplayTrace([Segment(0.49, 1000, 0.0)])
    link, _ = collecting_link(sim, trace)
    finishes = []
    link.drop_filter = lambda packet, when: finishes.append(when)
    sim.call_at(0.058, link.send, make_packet(1108))
    sim.run()
    assert finishes == [transmission_finish_time(trace, 0.058, 1108)] == [1.166]


def test_dropped_packet_keeps_its_place_in_delivery_order():
    sim = Simulator()
    trace = ReplayTrace([Segment(1.5, 1000, 2.0), Segment(100, 1000, 0.0)])
    link, received = collecting_link(sim, trace)
    link.drop_filter = lambda packet, when: packet.payload == "lost"
    link.send(make_packet(1000, "lost"))  # finishes at 1, would land at 3
    link.send(make_packet(1000, "kept"))  # finishes at 2, where latency is 0
    sim.run()
    assert [(t, p.payload) for t, p in received] == [(3.0, "kept")]
    assert link.stats.packets_dropped == 1


# -- the one-event link against the two-event link it replaced --------------------

class ReferenceLink:
    """The link as first written: one event to finish each transmission,
    then one to deliver it.  Slow and obviously right."""

    def __init__(self, sim, trace, name, deliver=None):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.deliver = deliver
        self.stats = LinkStats()
        self.drop_filter = None
        self._waiting = deque()
        self._busy = False
        self._last_delivery = 0.0

    def send(self, packet):
        if self._busy:
            self._waiting.append(packet)
        else:
            self._busy = True
            self._begin_transmission(packet)

    def _begin_transmission(self, packet):
        start = self.sim.now
        finish = transmission_finish_time(self.trace, start, packet.size)
        if math.isinf(finish):
            Event(self.sim).fail(LinkDown(f"{self.name}: down"))
            return
        self.sim.call_at(finish, self._finish_transmission, packet, start)

    def _finish_transmission(self, packet, start):
        finish = self.sim.now
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.size
        self.stats.busy_seconds += finish - start
        if self.drop_filter is not None and self.drop_filter(packet, finish):
            self.stats.packets_dropped += 1
        else:
            deliver_at = finish + self.trace.latency_at(finish)
            if deliver_at < self._last_delivery:
                deliver_at = self._last_delivery
            self._last_delivery = deliver_at
            self.sim.call_at(deliver_at, self.deliver, packet)
        if self._waiting:
            self._begin_transmission(self._waiting.popleft())
        else:
            self._busy = False


def run_link(link_cls, trace, sends, drop_filter=None):
    """Deliveries ``[(time, tag)]`` and stats of one link driven by
    ``sends`` (``(gap, size)`` pairs); ``None`` deliveries on LinkDown."""
    sim = Simulator()
    delivered = []
    link = link_cls(sim, trace, "link",
                    deliver=lambda p: delivered.append((sim.now, p.payload)))
    link.drop_filter = drop_filter
    at = 0.0
    for tag, (gap, size) in enumerate(sends):
        at += gap
        sim.call_at(at, link.send, make_packet(size, tag))
    try:
        sim.run()
    except LinkDown:
        return None, link.stats
    return delivered, link.stats


# Dyadic parameters keep every time both links compute exact, so the two
# kernel round trips per packet of the reference (send -> finish ->
# delivery) and the one of the new link (send -> delivery) land on the
# same float; the bit-for-bit test below covers arbitrary floats.
dyadic_bandwidths = st.sampled_from([0.0, 256.0, 1024.0, 4096.0, 16384.0])
dyadic_latencies = st.integers(0, 64).map(lambda n: n / 64)


def dyadic_traces(latencies=dyadic_latencies):
    segments = st.builds(
        Segment,
        duration=st.integers(1, 32).map(lambda n: n / 8),
        bandwidth=dyadic_bandwidths,
        latency=latencies,
    )
    return st.lists(segments, min_size=1, max_size=6).map(ReplayTrace)


#: Mostly back-to-back sends (a busy link), some after idle gaps, running
#: past the end of most traces.
dyadic_sends = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.integers(1, 24).map(lambda n: n / 16)),
        st.integers(HEADER_BYTES, 3000),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(trace=dyadic_traces(), sends=dyadic_sends)
def test_deliveries_match_the_two_event_link(trace, sends):
    """Zero-bandwidth stalls, latency drops, packets straddling segment
    boundaries, sends past the trace end and sends while busy: the same
    deliveries at the same instants, the same counters."""
    delivered, stats = run_link(SimplexLink, trace, sends)
    expected, expected_stats = run_link(ReferenceLink, trace, sends)
    assert delivered == expected
    if expected is not None:
        assert stats == expected_stats


@settings(max_examples=200, deadline=None)
@given(trace=dyadic_traces(latencies=st.just(0.125)), sends=dyadic_sends,
       seed=st.integers(0, 2**32 - 1),
       fraction=st.sampled_from([0.25, 0.5, 1.0]))
def test_drops_match_the_two_event_link_at_constant_latency(trace, sends,
                                                            seed, fraction):
    """With one link and a constant latency, drops decided at delivery draw
    the same rng values for the same packets as drops decided at finish."""
    def drops():
        return LinkFaultInjector([LossBurst(2.0, 8.0, fraction)],
                                 random.Random(seed))

    delivered, stats = run_link(SimplexLink, trace, sends, drops())
    expected, expected_stats = run_link(ReferenceLink, trace, sends, drops())
    assert delivered == expected
    if expected is not None:
        assert stats == expected_stats


arbitrary_bandwidths = st.floats(1e3, 1e6)
arbitrary_segments = st.builds(
    Segment,
    duration=st.floats(1e-3, 5.0),
    bandwidth=st.one_of(st.just(0.0), arbitrary_bandwidths),
    latency=st.floats(0.0, 0.5),
)


@settings(max_examples=300, deadline=None)
@given(segments=st.lists(arbitrary_segments, min_size=1, max_size=8),
       tail_bandwidth=arbitrary_bandwidths,
       sends=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                                st.integers(HEADER_BYTES, 1 << 16)),
                      max_size=40))
def test_schedule_is_bit_identical_to_the_trace_integrals(segments,
                                                          tail_bandwidth, sends):
    """The segment cursor answers exactly what ``transmission_finish_time``
    and ``latency_at`` answer, for arbitrary floats."""
    trace = ReplayTrace([*segments, Segment(1.0, tail_bandwidth, 0.01)])
    sim = Simulator()
    delivered, finishes, expected = [], {}, []
    link = SimplexLink(sim, trace, "link",
                       deliver=lambda p: delivered.append((sim.now, p.payload)))

    def record_finish(packet, when):
        finishes[packet.payload] = when
        return False

    link.drop_filter = record_finish
    free_at = last_delivery = 0.0

    def send(tag, size):
        nonlocal free_at, last_delivery
        now = sim.now
        finish = transmission_finish_time(trace, max(now, free_at), size)
        deliver_at = max(finish + trace.latency_at(finish), last_delivery)
        free_at, last_delivery = finish, deliver_at
        # Where the kernel lands a call_at(deliver_at) issued at ``now``.
        expected.append((now + (deliver_at - now), tag, finish))
        link.send(make_packet(size, tag))

    at = 0.0
    for tag, (gap, size) in enumerate(sends):
        at += gap
        sim.call_at(at, send, tag, size)
    sim.run()
    expected.sort(key=lambda item: item[:2])
    assert delivered == [(time, tag) for time, tag, _ in expected]
    assert finishes == {tag: finish for _, tag, finish in expected}


# -- a train against the back-to-back packets it stands for ---------------------

class Tagged:
    """A train payload naming each packet ``(train, index)``."""

    def __init__(self, tag):
        self.tag = tag

    def fragment(self, i):
        return self.tag, i


def run_trains(trace, trains, as_trains, drop_filter=None):
    """Every packet's ``(tag, index, arrival)`` in delivery order, the
    instants the link went down, and its stats, for ``trains``
    (``(gap, sizes)`` pairs) sent as :class:`Train` s or as the same
    packets one ``send`` each."""
    sim = Simulator()
    arrived, runs, downs = [], [], []

    def deliver(packet):
        if type(packet) is Train:
            lo, hi = packet.lo, packet.hi
            assert sim.now == packet.arrivals[lo]
            runs.append(hi - lo)
            arrived.extend((*packet.payload.fragment(k), packet.arrivals[k])
                           for k in range(lo, hi))
        else:
            arrived.append((*packet.payload, sim.now))

    link = SimplexLink(sim, trace, "link", deliver=deliver)
    link.drop_filter = drop_filter

    def send(tag, sizes):
        if as_trains:
            link.send(Train("a", "b", "p", list(sizes), Tagged(tag)))
        else:
            for i, size in enumerate(sizes):
                link.send(make_packet(size, (tag, i)))

    at = 0.0
    for tag, (gap, sizes) in enumerate(trains):
        at += gap
        sim.call_at(at, send, tag, sizes)
    while True:
        try:
            sim.run()
            break
        except LinkDown:
            downs.append(sim.now)
    return arrived, runs, downs, link.stats


train_sends = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
              st.lists(st.integers(HEADER_BYTES, 3000), min_size=1,
                       max_size=20)),
    max_size=12,
)
#: Arbitrary floats, and dyadic traces whose last segment may hold zero
#: bandwidth forever, so the link goes down mid-train.
train_traces = st.one_of(
    dyadic_traces(),
    st.builds(lambda segments, tail: ReplayTrace(
        [*segments, Segment(1.0, tail, 0.01)]),
        st.lists(arbitrary_segments, min_size=1, max_size=8),
        arbitrary_bandwidths),
)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(trace=train_traces, trains=train_sends, drops=st.booleans())
def test_a_train_is_its_packets_sent_back_to_back(trace, trains, drops):
    """Every packet of a train arrives at the instant, bit for bit, that
    it would sent alone right behind the one before, and the link counts
    the same: a train of n >= 2 packets in two runs, every packet but the
    last at the first's arrival; with a drop filter armed, one run per
    packet."""
    never = (lambda packet, when: False) if drops else None
    arrived, runs, downs, stats = run_trains(trace, trains, True, never)
    expected, _, expected_downs, expected_stats = run_trains(
        trace, trains, False, never)
    assert arrived == expected
    assert downs == expected_downs
    assert stats == expected_stats
    if drops:
        assert set(runs) <= {1}


# -- whole worlds: trains against runs of one ----------------------------------

def world_outcomes():
    """Two fig8 trials, a short fig14 trial, a 64-client fleet, and a
    stormed chaos shard whose fetch timeouts and crash drill both abandon
    a window mid-train."""
    from dataclasses import replace

    from repro.chaos import standard_profile
    from repro.experiments.concurrent import concurrent_trial_outcome
    from repro.experiments.supply import run_supply_trial
    from repro.fleet.harness import run_fleet
    from repro.fleet.shard import run_fleet_shard
    from repro.trace.algebra import scale_time
    from repro.trace.waveforms import urban_walk

    fig8 = [run_supply_trial(name, seed=seed).series
            for name, seed in (("step-up", 0), ("step-down", 1))]
    fig14 = concurrent_trial_outcome("odyssey", seed=0,
                                     trace=scale_time(urban_walk(), 0.02))
    fleet = run_fleet(clients=64, shards=4, duration=8.0, prime=4.0,
                      jobs=1, cache=None)
    storm = replace(standard_profile("regional-blackout", 30.0), drill_at=3.41)
    chaos = run_fleet_shard(8, 30.0, shard=0, seed=7, chaos=storm)
    assert chaos.chaos.drill is not None and chaos.chaos.violations == ()
    return fig8, fig14, fleet.fingerprint(), chaos


def test_worlds_are_identical_when_every_fragment_is_a_run_of_one(monkeypatch):
    """A drop filter that never drops makes each link deliver every
    fragment alone, at its own arrival; every figure, fleet and chaos
    outcome must stay bit for bit what whole trains give."""
    from repro.rpc.logs import RpcLog

    retract = RpcLog.retract
    retracted = []

    def counted_retract(log):
        retracted.append(retract(log))
        return retracted[-1]

    monkeypatch.setattr(RpcLog, "retract", counted_retract)
    trains = world_outcomes()
    # The storm's deadline and its drill each took back part of a train.
    assert len([n for n in retracted if n]) >= 2

    init = SimplexLink.__init__
    finish = SimplexLink._finish_transmission
    runs = []

    def armed(link, *args, **kwargs):
        init(link, *args, **kwargs)
        link.drop_filter = lambda packet, when: False

    def counted(link, packet, when, lo=0, hi=1):
        runs.append(hi - lo)
        return finish(link, packet, when, lo, hi)

    monkeypatch.setattr(SimplexLink, "__init__", armed)
    monkeypatch.setattr(SimplexLink, "_finish_transmission", counted)
    assert world_outcomes() == trains
    assert runs and set(runs) == {1}
