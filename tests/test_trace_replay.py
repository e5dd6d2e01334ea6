"""Replay traces: construction, querying, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.trace.replay import ReplayTrace, Segment, parse_trace, serialize_trace

segments_strategy = st.lists(
    st.builds(
        Segment,
        duration=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        bandwidth=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        latency=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


def test_segment_validation():
    with pytest.raises(ReproError):
        Segment(0, 100, 0.01)
    with pytest.raises(ReproError):
        Segment(1, -5, 0.01)
    with pytest.raises(ReproError):
        Segment(1, 100, -0.01)


def test_empty_trace_rejected():
    with pytest.raises(ReproError):
        ReplayTrace([])


def test_bandwidth_at_boundaries():
    trace = ReplayTrace([Segment(10, 100, 0.01), Segment(10, 200, 0.02)])
    assert trace.bandwidth_at(0) == 100
    assert trace.bandwidth_at(9.999) == 100
    assert trace.bandwidth_at(10) == 200
    assert trace.bandwidth_at(19.9) == 200


def test_values_clamp_outside_range():
    trace = ReplayTrace([Segment(10, 100, 0.01), Segment(10, 200, 0.02)])
    assert trace.bandwidth_at(-5) == 100
    assert trace.bandwidth_at(1000) == 200
    assert trace.latency_at(1000) == 0.02


def test_transitions_skip_no_op_boundaries():
    trace = ReplayTrace([
        Segment(10, 100, 0.01),
        Segment(10, 100, 0.01),  # same parameters: not a transition
        Segment(10, 200, 0.01),
    ])
    assert trace.transitions == [20.0]


def test_duration_sums_segments():
    trace = ReplayTrace([Segment(10, 1, 0), Segment(5, 2, 0)])
    assert trace.duration == 15.0


def test_mean_bandwidth_weighted():
    trace = ReplayTrace([Segment(10, 100, 0), Segment(30, 200, 0)])
    assert trace.mean_bandwidth() == pytest.approx((100 * 10 + 200 * 30) / 40)
    assert trace.mean_bandwidth(0, 10) == pytest.approx(100)
    assert trace.mean_bandwidth(10, 40) == pytest.approx(200)


def test_mean_bandwidth_past_end_holds_final_value():
    trace = ReplayTrace([Segment(10, 100, 0)])
    assert trace.mean_bandwidth(0, 20) == pytest.approx(100)


def test_shifted_prepends_priming_segment():
    trace = ReplayTrace([Segment(10, 100, 0.01), Segment(10, 200, 0.01)])
    shifted = trace.shifted(30.0)
    assert shifted.duration == 50.0
    assert shifted.bandwidth_at(0) == 100
    assert shifted.bandwidth_at(35) == 100
    assert shifted.bandwidth_at(45) == 200
    assert trace.shifted(0) is trace


def test_parse_rejects_malformed_lines():
    with pytest.raises(ReproError, match="expected 3 fields"):
        parse_trace("1.0 2.0\n")
    with pytest.raises(ReproError, match="line 1"):
        parse_trace("a b c\n")


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n10 100 0.01  # trailing comment\n"
    trace = parse_trace(text)
    assert len(trace.segments) == 1
    assert trace.segments[0] == Segment(10, 100, 0.01)


@settings(max_examples=50, deadline=None)
@given(segments=segments_strategy)
def test_serialize_parse_roundtrip(segments):
    original = ReplayTrace(segments)
    parsed = parse_trace(serialize_trace(original))
    assert len(parsed.segments) == len(original.segments)
    for a, b in zip(parsed.segments, original.segments):
        assert a.duration == pytest.approx(b.duration, rel=1e-5)
        assert a.bandwidth == pytest.approx(b.bandwidth, rel=1e-5)
        assert a.latency == pytest.approx(b.latency, rel=1e-5)


@settings(max_examples=50, deadline=None)
@given(segments=segments_strategy, t=st.floats(min_value=0, max_value=500))
def test_segment_at_consistent_with_bandwidth_at(segments, t):
    trace = ReplayTrace(segments)
    assert trace.bandwidth_at(t) == trace.segment_at(t).bandwidth


@settings(max_examples=100, deadline=None)
@given(segments=segments_strategy, t=st.floats(min_value=0, max_value=500))
def test_span_at_holds_t_and_agrees_with_segment_at(segments, t):
    trace = ReplayTrace(segments)
    start, end, segment = trace.span_at(t)
    assert start <= t < end
    assert segment is trace.segment_at(t)
    # Every time in the stretch sees the same segment, the end does not.
    assert trace.segment_at(start) is segment
    if end < trace.duration:
        assert trace.span_at(end)[0] == end


def test_span_at_boundaries_and_tail():
    trace = ReplayTrace([Segment(1, 100, 0.1), Segment(2, 200, 0.2)])
    assert trace.span_at(0.0) == (0.0, 1.0, trace.segments[0])
    assert trace.span_at(1.0) == (1.0, 3.0, trace.segments[1])
    assert trace.span_at(3.0) == (3.0, float("inf"), trace.segments[1])
