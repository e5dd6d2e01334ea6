"""Centralized total estimation and per-connection shares."""

import pytest

from repro.errors import ReproError
from repro.estimation.share import ClientShares
from repro.rpc.logs import RpcLog


def make_shares(sim, *connection_ids):
    shares = ClientShares(sim)
    logs = {}
    for cid in connection_ids:
        log = RpcLog(sim, cid)
        shares.register(log)
        logs[cid] = log
    return shares, logs


def feed_window(sim, shares, log, nbytes, seconds):
    """Simulate a completed window: deliveries plus a throughput entry.

    In the full system the viceroy observes the log and forwards entries to
    the policy; these unit tests forward by hand.
    """
    started = sim.now
    sim.run(until=sim.now + seconds)
    log.add_delivery(nbytes)
    entry = log.add_throughput(started, nbytes)
    shares.on_throughput(log, entry)
    return entry


def test_duplicate_registration_rejected(sim):
    shares, logs = make_shares(sim, "a")
    with pytest.raises(ReproError):
        shares.register(logs["a"])


def test_total_none_before_data(sim):
    shares, _ = make_shares(sim, "a")
    assert shares.total is None
    assert shares.availability("a") is None


def test_single_connection_availability_equals_total(sim):
    shares, logs = make_shares(sim, "a")
    feed_window(sim, shares, logs["a"], 32768, 0.3)
    assert shares.total is not None
    assert shares.availability("a") == pytest.approx(shares.total)


def test_unknown_connection_rejected(sim):
    shares, _ = make_shares(sim, "a")
    with pytest.raises(ReproError):
        shares.availability("ghost")


def test_equal_users_get_equal_shares(sim):
    shares, logs = make_shares(sim, "a", "b")
    for _ in range(5):
        feed_window(sim, shares, logs["a"], 32768, 0.3)
        feed_window(sim, shares, logs["b"], 32768, 0.3)
    a, b = shares.availability("a"), shares.availability("b")
    assert a == pytest.approx(b, rel=0.05)
    assert a == pytest.approx(shares.total / 2, rel=0.1)


def test_heavier_user_gets_bigger_competed_share(sim):
    shares, logs = make_shares(sim, "big", "small")
    for _ in range(5):
        feed_window(sim, shares, logs["big"], 65536, 0.3)
        feed_window(sim, shares, logs["small"], 4096, 0.05)
    assert shares.availability("big") > shares.availability("small")


def test_idle_connection_still_gets_fair_share(sim):
    shares, logs = make_shares(sim, "busy", "idle")
    for _ in range(5):
        feed_window(sim, shares, logs["busy"], 65536, 0.5)
    fair = shares.fair_fraction * shares.total / 2
    assert shares.availability("idle") == pytest.approx(fair, rel=0.01)


def test_availabilities_sum_to_total(sim):
    shares, logs = make_shares(sim, "a", "b", "c")
    for nbytes, cid in ((65536, "a"), (32768, "b"), (8192, "c")):
        for _ in range(3):
            feed_window(sim, shares, logs[cid], nbytes, 0.2)
    snapshot = shares.snapshot()
    assert sum(snapshot.values()) == pytest.approx(shares.total, rel=1e-6)


def test_aggregate_sample_counts_concurrent_connections(sim):
    """A window observed while another connection moves bytes yields a
    capacity sample near the sum, not the observer's share."""
    shares, logs = make_shares(sim, "a", "b")
    started = sim.now
    sim.run(until=1.0)
    logs["a"].add_delivery(50_000)
    logs["b"].add_delivery(50_000)
    entry = logs["a"].add_throughput(started, 50_000)
    shares.on_throughput(logs["a"], entry)
    assert shares.total == pytest.approx(100_000, rel=0.05)


def test_unregister_removes_connection(sim):
    shares, logs = make_shares(sim, "a", "b")
    shares.unregister("b")
    assert shares.connection_count == 1
    with pytest.raises(ReproError):
        shares.availability("b")


def test_fair_fraction_validated(sim):
    with pytest.raises(ReproError):
        ClientShares(sim, fair_fraction=0)


def test_competing_parameters_validated(sim):
    with pytest.raises(ReproError):
        ClientShares(sim, competing_horizon=0.0)
    with pytest.raises(ReproError):
        ClientShares(sim, competing_rate_floor=-1.0)


def test_competing_defaults_come_from_module_constants(sim):
    from repro.estimation.share import COMPETING_HORIZON, COMPETING_RATE_FLOOR

    shares = ClientShares(sim)
    assert shares.competing_horizon == COMPETING_HORIZON
    assert shares.competing_rate_floor == COMPETING_RATE_FLOOR


def test_competing_rate_floor_gates_competition(sim):
    """A peer below the floor must not flip the estimator into the
    competing (raw-aggregate) regime; one above it must."""
    trickle = 100  # bytes moved by the peer during the observed window

    def run_with(floor):
        shares = ClientShares(sim, competing_rate_floor=floor)
        a, b = RpcLog(sim, "a"), RpcLog(sim, "b")
        shares.register(a)
        shares.register(b)
        # A round-trip observation gives Eq. 2 a dead time to subtract, so
        # the non-competing sample genuinely exceeds the raw aggregate.
        rtt = a.add_round_trip(0.1, 256, 64)
        shares.on_round_trip(a, rtt)
        started = sim.now
        sim.run(until=sim.now + 0.5)
        b.add_delivery(trickle)
        b.add_throughput(started, trickle)
        a.add_delivery(65536)
        entry = a.add_throughput(started, 65536)
        return shares.on_throughput(a, entry)

    # Floor above the peer's rate: peer ignored, Eq. 2 correction applies,
    # yielding a higher capacity sample than the raw aggregate.
    generous = run_with(floor=1e9)
    strict = run_with(floor=0.0)
    assert generous > strict


@pytest.mark.parametrize("name", ["usage_horizon", "competing_horizon"])
@pytest.mark.parametrize("value", [0.0, -1.0, 30.5, float("inf")])
def test_horizons_must_lie_within_the_delivery_retention(sim, name, value):
    """A non-positive horizon silently split 1/n; one beyond the retention
    read history the logs had already pruned."""
    with pytest.raises(ReproError, match=name):
        ClientShares(sim, **{name: value})


def test_horizon_may_equal_the_retention(sim):
    from repro.rpc.logs import DELIVERY_HISTORY_SECONDS

    shares = ClientShares(sim, usage_horizon=DELIVERY_HISTORY_SECONDS,
                          competing_horizon=DELIVERY_HISTORY_SECONDS)
    assert shares.usage_horizon == DELIVERY_HISTORY_SECONDS


def test_departed_connections_bytes_leave_the_aggregate(sim):
    shares, logs = make_shares(sim, "stay", "leave")
    for _ in range(3):
        feed_window(sim, shares, logs["stay"], 10_000, 0.2)
        feed_window(sim, shares, logs["leave"], 30_000, 0.2)
    assert shares._delivered_between(0.0, sim.now) == 120_000
    assert shares.availability("stay") < shares.total / 2
    shares.unregister("leave")
    assert shares._delivered_between(0.0, sim.now) == 30_000
    assert shares.availability("stay") == pytest.approx(shares.total)
    # ... and its later traffic no longer reaches this estimator at all.
    logs["leave"].add_delivery(50_000)
    logs["stay"].add_delivery(1_000)
    assert shares._delivered_between(0.0, sim.now) == 31_000


def test_log_registered_with_history_joins_the_aggregate(sim):
    shares, logs = make_shares(sim, "a")
    late = RpcLog(sim, "late")
    sim.run(until=1.0)
    logs["a"].add_delivery(1_000)
    late.add_delivery(2_000)
    sim.run(until=2.0)
    late.add_delivery(4_000)
    assert shares._delivered_between(0.0, sim.now) == 1_000
    shares.register(late)
    assert shares._delivered_between(0.0, sim.now) == 7_000
    assert shares._delivered_between(1.0, sim.now) == 4_000
    late.add_delivery(8_000)
    assert shares._delivered_between(1.0, sim.now) == 12_000


def test_a_train_ahead_survives_a_re_merge(sim):
    """A log re-merged mid-train brings its entries ahead of now along,
    invisible until they arrive, and they prune nothing a query at now
    still needs; retracting them leaves the merged index too."""
    shares, logs = make_shares(sim, "a", "b")
    sim.run(until=1.0)
    logs["a"].add_delivery(1_000)
    sim.run(until=30.5)
    logs["b"].add_deliveries([30.5, 35.0, 40.0], [10, 20, 40])
    shares.unregister("a")  # marks the shared index stale
    shares.register(logs["a"])
    assert shares._delivered_between(sim.now - 30.0, sim.now) == 1_010
    sim.run(until=36.0)
    assert shares._delivered_between(sim.now - 30.0, sim.now) == 30
    assert logs["b"].retract() == 1  # and retention follows the 35.0 entry
    sim.run(until=41.0)
    assert shares._delivered_between(0.0, sim.now) == 30


# -- the shared index against a brute-force model ------------------------------


def _run_index_model(horizon, exact, n_logs, tracked, steps, windows):
    """Drive logs through ``steps``; after each, compare the shared index
    and every availability against sums over the plain event list."""
    import math

    from repro.rpc.logs import DELIVERY_HISTORY_SECONDS
    from repro.sim.kernel import Simulator

    sim = Simulator()
    shares = ClientShares(sim, usage_horizon=horizon)
    logs = [RpcLog(sim, f"c{i}") for i in range(n_logs)]
    live = set()  # indexes of the tracked logs
    events = []  # (time, log index, nbytes), never pruned

    def toggle(i):
        if i in live:
            shares.unregister(logs[i].connection_id)
            live.discard(i)
        else:
            shares.register(logs[i])
            live.add(i)

    def deliver(i, nbytes, count=1):
        for _ in range(count):
            logs[i].add_delivery(nbytes)
        events.append((sim.now, i, nbytes * count))

    def model(members, start, end):
        return sum(n for t, i, n in events if i in members and start < t <= end)

    for i in range(tracked):
        toggle(i)
    # One window so that ``total`` exists and availabilities are numbers.
    deliver(0, 4096)
    shares.on_throughput(logs[0], logs[0].add_throughput(sim.now, 4096))

    for op, i, arg in steps:
        i %= n_logs
        if op == "advance":
            sim.run(until=sim.now + arg)
        elif op == "deliver":
            deliver(i, arg)
        elif op == "burst":  # enough same-instant entries to force compaction
            deliver(i, 3, count=4200)
        elif op == "toggle":
            toggle(i)
        elif op == "window" and i in live:
            shares.on_throughput(
                logs[i], logs[i].add_throughput(sim.now - min(arg, sim.now), 512))

        now = sim.now
        for back, length in windows + [(DELIVERY_HISTORY_SECONDS, 0.0), (0.0, 0.0)]:
            start = now - back
            end = min(start + length, now) if length else now
            expected = model(live, start, end)
            assert shares._delivered_between(start, end) == expected
            assert sum(logs[j].bytes_delivered_between(start, end)
                       for j in live) == expected
        # The reference split: per-connection rates, summed in dict order.
        rates = {j: model({j}, now - horizon, now) / horizon for j in sorted(live)}
        denominator = sum(rates.values())
        for j in live:
            weight = rates[j] / denominator if denominator > 0 else 1.0 / len(live)
            reference = (shares.fair_fraction * shares.total / len(live)
                         + (1.0 - shares.fair_fraction) * shares.total * weight)
            got = shares.availability(logs[j].connection_id)
            if exact:
                assert got == reference
            else:  # one ulp in the weight
                assert abs(got - reference) <= 2 * math.ulp(reference)


@pytest.mark.parametrize("horizon,exact", [(4.0, True), (8.0, True), (16.0, True),
                                           (5.0, False), (10.0, False)])
def test_shared_index_matches_brute_force_model(horizon, exact):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    log_index = st.integers(0, 5)
    step = st.one_of(
        st.tuples(st.just("advance"), st.just(0),
                  st.sampled_from([0.0, 0.001, 0.25, 1.0, 3.5, 12.0, 31.0, 47.5])),
        st.tuples(st.just("deliver"), log_index, st.integers(0, 1 << 20)),
        st.tuples(st.just("deliver"), log_index, st.integers(0, 1 << 20)),  # twice as likely
        st.tuples(st.just("burst"), log_index, st.just(0)),
        st.tuples(st.just("toggle"), log_index, st.just(0)),
        st.tuples(st.just("window"), log_index, st.floats(0.0, 20.0)),
    )
    window = st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0))

    @settings(max_examples=40, deadline=None)
    @given(n_logs=st.integers(1, 6), tracked=st.integers(1, 6),
           steps=st.lists(step, min_size=1, max_size=30),
           windows=st.lists(window, min_size=1, max_size=4))
    def check(n_logs, tracked, steps, windows):
        _run_index_model(horizon, exact, n_logs, min(tracked, n_logs), steps, windows)

    check()


def test_index_survives_pruning_and_compaction(sim):
    """The deterministic core of the model above: a burst past the
    4 096-entry compaction threshold, a gap beyond the retention, and
    equal timestamps on two logs."""
    shares, logs = make_shares(sim, "a", "b")
    sim.run(until=1.0)
    for _ in range(4200):
        logs["a"].add_delivery(3)
    logs["b"].add_delivery(100)  # same instant as the burst
    assert shares._delivered_between(0.0, 1.0) == 12_700
    sim.run(until=40.0)  # the burst is now older than the retention
    logs["a"].add_delivery(7)
    logs["b"].add_delivery(11)
    index = shares._deliveries
    assert index.head == 1 and len(index.times) < 10  # compacted
    assert logs["a"].deliveries.head == 1 and len(logs["a"].deliveries.times) == 2
    assert shares._delivered_between(10.0, 40.0) == 18
    assert shares._delivered_between(39.999, 40.0) == 18
    assert shares._delivered_between(40.0, 41.0) == 0
    assert logs["a"].delivered_total == 12_607  # the totals never forget


# -- the work gate: cost per observation is independent of the fleet -----------


def _index_queries_per_observation(sim, monkeypatch, n, busy_peers):
    """``DeliveryIndex.between`` calls made by one throughput entry plus
    one availability query with ``n`` registered connections."""
    from repro.rpc.logs import DeliveryIndex

    shares, logs = make_shares(sim, *[f"c{i}" for i in range(n)])
    sim.run(until=sim.now + 1.0)
    if busy_peers:
        for log in logs.values():
            log.add_delivery(50_000)
    observer = logs["c0"]
    started = sim.now
    sim.run(until=sim.now + 0.5)
    observer.add_delivery(32_768)
    entry = observer.add_throughput(started, 32_768)

    calls = []
    between = DeliveryIndex.between

    def counting(self, start, end):
        calls.append(self)
        return between(self, start, end)

    with monkeypatch.context() as patch:
        patch.setattr(DeliveryIndex, "between", counting)
        shares.on_throughput(observer, entry)
        assert shares.availability("c0") is not None
    return len(calls)


@pytest.mark.parametrize("busy_peers", [True, False])
def test_index_queries_per_observation_do_not_grow_with_the_fleet(
        sim, monkeypatch, busy_peers):
    """ROADMAP item 1's deterministic work counter, at zero tolerance: the
    per-connection scans made this differ 16-fold."""
    small = _index_queries_per_observation(sim, monkeypatch, 16, busy_peers)
    large = _index_queries_per_observation(sim, monkeypatch, 256, busy_peers)
    assert small == large
    assert small <= 8
