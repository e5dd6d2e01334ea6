"""Trace algebra operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.trace.algebra import (
    add_latency,
    clip,
    concat,
    scale_bandwidth,
    scale_time,
    with_fading,
)
from repro.trace.waveforms import (
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    step_down,
    step_up,
    urban_walk,
)


def test_concat_plays_back_to_back():
    trace = concat(step_up(), step_down())
    assert trace.duration == 120.0
    assert trace.bandwidth_at(10) == LOW_BANDWIDTH
    assert trace.bandwidth_at(45) == HIGH_BANDWIDTH
    assert trace.bandwidth_at(70) == HIGH_BANDWIDTH
    assert trace.bandwidth_at(100) == LOW_BANDWIDTH
    with pytest.raises(ReproError):
        concat()


def test_scale_bandwidth():
    halved = scale_bandwidth(step_up(), 0.5)
    assert halved.bandwidth_at(0) == LOW_BANDWIDTH / 2
    assert halved.bandwidth_at(40) == HIGH_BANDWIDTH / 2
    assert halved.duration == 60.0
    with pytest.raises(ReproError):
        scale_bandwidth(step_up(), 0)


def test_scale_time():
    stretched = scale_time(step_up(), 2.0)
    assert stretched.duration == 120.0
    assert stretched.transitions == [60.0]
    with pytest.raises(ReproError):
        scale_time(step_up(), -1)


def test_add_latency():
    slower = add_latency(step_up(), 0.05)
    assert slower.latency_at(0) == pytest.approx(0.0605)
    with pytest.raises(ReproError):
        add_latency(step_up(), -0.1)


def test_clip_inside_trace():
    clipped = clip(urban_walk(), 300.0)
    assert clipped.duration == pytest.approx(300.0)
    assert clipped.bandwidth_at(10) == urban_walk().bandwidth_at(10)


def test_clip_past_end_holds_final_value():
    clipped = clip(step_up(), 100.0)
    assert clipped.duration == pytest.approx(100.0)
    assert clipped.bandwidth_at(90) == HIGH_BANDWIDTH


def test_fading_preserves_mean_roughly():
    base = step_up()
    faded = with_fading(base, amplitude=0.2, period=0.5, seed=3)
    assert faded.duration == pytest.approx(base.duration)
    # Mean over each half stays near the base level.
    assert faded.mean_bandwidth(0, 30) == pytest.approx(LOW_BANDWIDTH, rel=0.08)
    assert faded.mean_bandwidth(30, 60) == pytest.approx(HIGH_BANDWIDTH, rel=0.08)


def test_fading_is_seeded():
    a = with_fading(step_up(), seed=1)
    b = with_fading(step_up(), seed=1)
    c = with_fading(step_up(), seed=2)
    assert a.segments == b.segments
    assert a.segments != c.segments


def test_fading_validation():
    with pytest.raises(ReproError):
        with_fading(step_up(), amplitude=1.0)
    with pytest.raises(ReproError):
        with_fading(step_up(), period=0)


@settings(max_examples=30, deadline=None)
@given(factor=st.floats(min_value=0.1, max_value=10.0))
def test_scaling_roundtrip(factor):
    base = step_down()
    there_and_back = scale_bandwidth(scale_bandwidth(base, factor), 1 / factor)
    for t in (0, 15, 45, 59):
        assert there_and_back.bandwidth_at(t) == pytest.approx(
            base.bandwidth_at(t), rel=1e-9
        )


def test_estimation_tracks_faded_trace():
    """Integration: the estimator follows a noisy (faded) step."""
    from repro.apps.bitstream import build_bitstream
    from repro.core.viceroy import Viceroy
    from repro.net.network import Network
    from repro.sim.kernel import Simulator

    trace = with_fading(step_down().shifted(10.0), amplitude=0.1, seed=4)
    sim = Simulator()
    network = Network(sim, trace)
    viceroy = Viceroy(sim, network)
    app, _, _ = build_bitstream(sim, viceroy, network)
    app.start()
    sim.run(until=65.0)
    tail = [v for t, v in viceroy.policy.total_history if 55 <= t <= 64]
    mean_tail = sum(tail) / len(tail)
    assert mean_tail == pytest.approx(LOW_BANDWIDTH, rel=0.2)
