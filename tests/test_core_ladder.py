"""The fidelity ladder against a brute-force reference, and as consumers set it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import stream_ladder
from repro.core.ladder import NO_UPPER, FidelityLadder
from repro.live.warden import video_profile


def reference_best(demands, bandwidth):
    """Index of the rung :meth:`FidelityLadder.best` must pick."""
    if bandwidth is None:
        return len(demands) - 1
    fits = [index for index, demand in enumerate(demands) if demand <= bandwidth]
    return max(fits) if fits else 0


#: Demands drawn from a few shared values as well as anywhere, so equal
#: demands and bandwidths exactly on a demand come up often.
DEMAND = st.one_of(st.sampled_from([0.0, 1.0, 4096.0, 65536.0]),
                   st.floats(min_value=0.0, max_value=1e9))


@st.composite
def ladders(draw):
    """(rungs, demand table, upper margin, lower guard): any order of
    demands — the player ranks tracks by fidelity, not by demand."""
    demands = draw(st.lists(DEMAND, min_size=1, max_size=8))
    rungs = draw(st.lists(st.integers(-1000, 1000), min_size=len(demands),
                          max_size=len(demands), unique=True))
    margin = draw(st.sampled_from([1.0, 1.03, 1.05, 1.1, 1.3])
                  | st.floats(0.5, 2.0))
    guard = draw(st.sampled_from([1.0, 0.8]) | st.floats(0.1, 1.0))
    return rungs, demands, margin, guard


def build(rungs, demands, margin=1.1, guard=1.0):
    return FidelityLadder(rungs, dict(zip(rungs, demands)).__getitem__,
                          margin, guard)


@settings(max_examples=300, deadline=None)
@given(ladders(), st.data())
def test_best_matches_the_brute_force_reference(spec, data):
    rungs, demands, margin, guard = spec
    ladder = build(rungs, demands, margin, guard)
    bandwidth = data.draw(st.one_of(
        st.none(), st.just(0.0), st.just(1e300), st.sampled_from(demands),
        st.floats(min_value=0.0, max_value=2e9)))
    assert ladder.best(bandwidth) == rungs[reference_best(demands, bandwidth)]


@settings(max_examples=300, deadline=None)
@given(ladders())
def test_window_follows_its_formula(spec):
    rungs, demands, margin, guard = spec
    ladder = build(rungs, demands, margin, guard)
    top = len(rungs) - 1
    for index, rung in enumerate(rungs):
        lower, upper = ladder.window(rung)
        assert lower == (0.0 if index == 0 else demands[index] * guard)
        assert upper == (NO_UPPER if index == top
                         else demands[index + 1] * margin)


def test_demand_is_evaluated_once_per_rung():
    calls = []
    ladder = FidelityLadder((1, 2, 3), lambda rung: calls.append(rung) or rung,
                            upper_margin=1.1)
    for bandwidth in (None, 0.0, 2.5, 99.0):
        ladder.window(ladder.best(bandwidth))
    assert calls == [1, 2, 3]


def test_single_rung_is_always_chosen_and_never_violated():
    ladder = build(["only"], [5000.0])
    assert ladder.best(None) == ladder.best(0.0) == ladder.best(1e12) == "only"
    assert ladder.window("only") == (0.0, NO_UPPER)


def test_rungs_must_be_distinct_and_present():
    with pytest.raises(ValueError):
        build([], [])
    with pytest.raises(ValueError):
        build([1, 1], [0.0, 1.0])


# -- the live warden's ladder (the adaptive core's guards, on a profile) -----


def video_ladder():
    return stream_ladder(video_profile().levels, 16 * 1024, 0.25)


def test_live_ladder_walks_the_video_rungs():
    ladder = video_ladder()
    assert ladder.best(None) == 1.0  # optimistic
    assert ladder.best(100_000) == 1.0
    assert ladder.best(40_000) == 0.5
    assert ladder.best(1_000) == 0.01
    assert ladder.best(0.0) == 0.01  # floor rung, always


def test_live_windows_carry_the_fleet_guards():
    ladder = video_ladder()
    lower, upper = ladder.window(0.01)
    assert lower == 0.0  # bottom rung never violates downward
    assert upper == pytest.approx(32_768 * 1.3)
    lower, upper = ladder.window(1.0)
    assert lower == pytest.approx(65_536 * 0.8)
    assert upper == NO_UPPER  # top rung never violates upward
    lower, upper = ladder.window(0.5)
    assert lower == pytest.approx(32_768 * 0.8)
    assert upper == pytest.approx(65_536 * 1.3)
