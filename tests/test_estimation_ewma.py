"""EWMA smoothing (paper Eq. 1) and the rise cap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.estimation.ewma import EwmaFilter


def test_first_sample_initializes():
    filt = EwmaFilter(0.5)
    assert not filt.primed
    assert filt.value is None
    filt.update(10)
    assert filt.primed
    assert filt.value == 10


def test_initial_seed_primes_without_an_update():
    filt = EwmaFilter(0.5, initial=42.0)
    assert filt.primed
    assert filt.value == 42.0
    assert filt.updates == 0
    assert filt.update(10.0) == 0.5 * 10.0 + 0.5 * 42.0


def test_equation_one_weighting():
    filt = EwmaFilter(0.875, initial=40.0)
    assert filt.update(120.0) == pytest.approx(0.875 * 120 + 0.125 * 40)


def test_gain_bounds():
    with pytest.raises(ReproError):
        EwmaFilter(0)
    with pytest.raises(ReproError):
        EwmaFilter(1.5)
    EwmaFilter(1.0)  # gain of exactly 1 tracks samples directly


def test_negative_sample_rejected():
    filt = EwmaFilter(0.5)
    with pytest.raises(ReproError):
        filt.update(-1)


def test_rise_cap_limits_upward_steps():
    filt = EwmaFilter(0.875, rise_cap=0.10, initial=100.0)
    filt.update(1000.0)
    assert filt.value == pytest.approx(110.0)  # capped at +10%


def test_rise_cap_never_limits_falls():
    filt = EwmaFilter(0.875, rise_cap=0.10, initial=100.0)
    filt.update(0.0)
    assert filt.value == pytest.approx(12.5)  # full fall applied


def test_rise_cap_validation():
    with pytest.raises(ReproError):
        EwmaFilter(0.5, rise_cap=0)


def test_reset():
    filt = EwmaFilter(0.5, initial=10)
    filt.update(20)
    filt.reset()
    assert filt.value is None
    assert filt.updates == 0


@settings(max_examples=100, deadline=None)
@given(
    gain=st.floats(min_value=0.01, max_value=1.0),
    samples=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                     max_size=50),
)
def test_value_bounded_by_sample_range(gain, samples):
    """Without a cap, the filtered value stays inside [min, max] of samples."""
    filt = EwmaFilter(gain)
    for sample in samples:
        filt.update(sample)
    assert min(samples) - 1e-6 <= filt.value <= max(samples) + 1e-6


@settings(max_examples=100, deadline=None)
@given(
    gain=st.floats(min_value=0.01, max_value=1.0),
    cap=st.floats(min_value=0.01, max_value=1.0),
    samples=st.lists(st.floats(min_value=1, max_value=1e6), min_size=2,
                     max_size=30),
)
def test_rise_cap_invariant(gain, cap, samples):
    """No update may raise the value by more than the cap fraction."""
    filt = EwmaFilter(gain, rise_cap=cap)
    filt.update(samples[0])
    previous = filt.value
    for sample in samples[1:]:
        current = filt.update(sample)
        assert current <= previous * (1 + cap) + 1e-9
        previous = current


def test_recovery_from_zero_is_capped():
    """An estimate that hit 0 must not jump uncapped on the first
    post-recovery sample — the cap base falls back to ``rise_floor``."""
    filt = EwmaFilter(0.875, rise_cap=0.10, rise_floor=100.0, initial=0.0)
    filt.update(1e6)
    assert filt.value == pytest.approx(110.0)  # max(0, floor) * (1 + cap)
    assert filt.capped_rises == 1


def test_recovery_climbs_multiplicatively_after_floor():
    filt = EwmaFilter(0.875, rise_cap=0.10, rise_floor=100.0, initial=0.0)
    values = [filt.update(1e6) for _ in range(4)]
    for previous, current in zip(values, values[1:]):
        assert current == pytest.approx(previous * 1.10)
    assert filt.capped_rises == 4


def test_rise_floor_validation():
    with pytest.raises(ReproError):
        EwmaFilter(0.5, rise_cap=0.1, rise_floor=0)


def test_rise_floor_irrelevant_for_positive_values():
    """A floor above the current value must not loosen the cap while the
    value is positive — positive-value behavior is unchanged."""
    filt = EwmaFilter(0.875, rise_cap=0.10, rise_floor=1e9, initial=100.0)
    filt.update(1e6)
    assert filt.value == pytest.approx(110.0)


@settings(max_examples=50, deadline=None)
@given(gain=st.floats(min_value=0.1, max_value=1.0),
       target=st.floats(min_value=1, max_value=1e5))
def test_converges_to_constant_input(gain, target):
    filt = EwmaFilter(gain, initial=0.0)
    for _ in range(200):
        filt.update(target)
    assert filt.value == pytest.approx(target, rel=1e-3)
