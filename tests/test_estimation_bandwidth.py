"""Per-connection bandwidth estimation (Eq. 2) and its defenses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation.bandwidth import (
    BASE_RTT_HORIZON,
    MAX_CORRECTION_FACTOR,
    ConnectionEstimator,
)
from repro.rpc.logs import RoundTripEntry, RpcLog, ThroughputEntry
from repro.sim.kernel import Simulator


def rtt_entry(at, seconds):
    return RoundTripEntry(at, seconds, 100, 100)


def tput_entry(at, started, nbytes):
    return ThroughputEntry(at, started, nbytes, at - started)


def test_eq2_subtracts_dead_round_trip(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    estimator.on_round_trip(log, rtt_entry(0.0, 0.021))
    # 32 KiB that took 0.30 s: Eq. 2 recovers 32768 / (0.30 - 0.021).
    sample = estimator.bandwidth_sample(tput_entry(0.3, 0.0, 32768))
    assert sample == pytest.approx(32768 / (0.30 - 0.021))


def test_estimate_smoothed_with_gain(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    estimator.on_throughput(log, tput_entry(1.0, 0.0, 100_000))
    first = estimator.bandwidth
    estimator.on_throughput(log, tput_entry(3.0, 2.0, 50_000))
    expected = 0.875 * estimator.bandwidth_sample(tput_entry(3.0, 2.0, 50_000)) \
        + 0.125 * first
    assert estimator.bandwidth == pytest.approx(expected)


def test_correction_capped_at_twice_raw_rate(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    # A polluted round trip nearly as large as the window time.
    estimator.on_round_trip(log, rtt_entry(0.0, 0.29))
    sample = estimator.bandwidth_sample(tput_entry(0.3, 0.0, 3000))
    raw = 3000 / 0.3
    assert sample <= MAX_CORRECTION_FACTOR * raw + 1e-9


def test_base_rtt_is_windowed_minimum(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    sim.run(until=1.0)
    estimator.on_round_trip(log, rtt_entry(1.0, 0.020))
    sim.run(until=2.0)
    for _ in range(10):
        estimator.on_round_trip(log, rtt_entry(2.0, 0.200))  # congested
    assert estimator.base_round_trip == pytest.approx(0.020)
    # The smoothed estimate crept upward (rise-capped), the base did not.
    assert estimator.round_trip > 0.020


def test_base_rtt_forgets_stale_minimum(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    estimator.on_round_trip(log, rtt_entry(0.0, 0.010))
    sim.run(until=BASE_RTT_HORIZON + 5)
    estimator.on_round_trip(log, rtt_entry(sim.now, 0.050))
    assert estimator.base_round_trip == pytest.approx(0.050)


#: Few distinct samples, so equal and dominated ones are the common case;
#: gaps from "same instant" to "the whole window has aged out".
rtt_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.4, 3.0, 11.0, 29.5, 30.0, 30.5,
                               75.0]),
              st.sampled_from([0.010, 0.020, 0.020, 0.035, 0.2]),
              st.booleans()),
    min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(steps=rtt_steps)
def test_base_rtt_matches_a_brute_force_windowed_minimum(steps):
    """The monotone deque against the definition: every sample kept,
    expired only when a new one is absorbed, minimum by scanning — the
    same float, read between updates as well as right after one."""
    sim = Simulator()
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    window = []  # (time, sample), nothing ever dropped early
    for gap, sample, read_later in steps:
        sim.run(until=sim.now + gap)
        estimator.on_round_trip(log, rtt_entry(sim.now, sample))
        window.append((sim.now, sample))
        window = [(at, s) for at, s in window
                  if at >= sim.now - BASE_RTT_HORIZON]
        assert estimator.base_round_trip == min(s for _, s in window)
        if read_later:
            # A read long after the last update still sees that update's
            # window: expiry happens on absorb, never on read.
            sim.run(until=sim.now + 40.0)
            assert estimator.base_round_trip == min(s for _, s in window)


def test_own_log_aggregation_counts_pipelined_windows(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    sim.run(until=1.0)
    # Two overlapping windows delivered 2 x 8 KiB during the same second.
    log.add_delivery(8192)
    log.add_delivery(8192)
    entry = tput_entry(1.0, 0.0, 8192)
    with_aggregation = estimator.bandwidth_sample(entry, log)
    without = estimator.bandwidth_sample(entry)
    assert with_aggregation == pytest.approx(2 * without)


def test_isolated_estimator_ignores_own_log(sim):
    estimator = ConnectionEstimator(sim, aggregate_own_log=False)
    log = RpcLog(sim, "c")
    sim.run(until=1.0)
    log.add_delivery(8192)
    log.add_delivery(8192)
    entry = tput_entry(1.0, 0.0, 8192)
    assert estimator.bandwidth_sample(entry, log) == pytest.approx(
        estimator.bandwidth_sample(entry)
    )


def test_eq2_rtt_mode_validation(sim):
    with pytest.raises(ValueError):
        ConnectionEstimator(sim, eq2_rtt="nonsense")


def test_smoothed_mode_uses_polluted_rtt(sim):
    base = ConnectionEstimator(sim, eq2_rtt="base")
    naive = ConnectionEstimator(sim, eq2_rtt="smoothed")
    log = RpcLog(sim, "c")
    for estimator in (base, naive):
        estimator.on_round_trip(log, rtt_entry(0.0, 0.020))
        for _ in range(20):
            estimator.on_round_trip(log, rtt_entry(0.0, 0.500))
    entry = tput_entry(1.0, 0.0, 32768)
    # The naive estimator subtracts a bigger R, inflating its sample.
    assert naive.bandwidth_sample(entry) > base.bandwidth_sample(entry)


def test_history_records_estimates(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    sim.run(until=2.0)
    estimate = estimator.on_throughput(log, tput_entry(2.0, 1.0, 10_000))
    # The first sample primes the filter directly: 10 000 B over a 1 s
    # window with no round trip known yet.
    assert estimate == estimator.bandwidth == 10_000.0
    assert estimator.bandwidth_filter.updates == 1
