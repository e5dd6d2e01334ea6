"""Resources, windows of tolerance, descriptors."""

import pytest

from repro.core.resources import Resource, ResourceDescriptor, Window
from repro.errors import BadDescriptor


def test_all_six_generic_resources_present():
    labels = {r.label for r in Resource}
    assert labels == {
        "network-bandwidth", "network-latency", "disk-cache-space",
        "cpu", "battery-power", "money",
    }


def test_resources_carry_units():
    assert Resource.NETWORK_BANDWIDTH.unit == "bytes/second"
    assert Resource.BATTERY_POWER.unit == "minutes"
    assert Resource.MONEY.unit == "cents"
    assert Resource.CPU.unit == "SPECint95"


def test_lookup_by_label():
    assert Resource.from_label("cpu") is Resource.CPU
    with pytest.raises(BadDescriptor):
        Resource.from_label("bogons")


def test_window_contains_inclusive():
    window = Window(10.0, 20.0)
    assert window.contains(10.0)
    assert window.contains(20.0)
    assert window.contains(15.0)
    assert not window.contains(9.99)
    assert not window.contains(20.01)


def test_window_validation():
    with pytest.raises(BadDescriptor):
        Window(-1.0, 10.0)
    with pytest.raises(BadDescriptor):
        Window(10.0, 5.0)
    Window(5.0, 5.0)  # degenerate but legal
    for lower, upper in ((float("nan"), 1.0), (0.0, float("nan"))):
        with pytest.raises(BadDescriptor, match="NaN"):
            Window(lower, upper)  # no level satisfies a NaN bound
    Window(0.0, float("inf"))  # open above is legal


def test_descriptor_validation():
    descriptor = ResourceDescriptor(
        Resource.NETWORK_BANDWIDTH, Window(0, 100), handler="h"
    )
    assert descriptor.handler == "h"
    with pytest.raises(BadDescriptor):
        ResourceDescriptor("bandwidth", Window(0, 100))
    with pytest.raises(BadDescriptor):
        ResourceDescriptor(Resource.CPU, (0, 100))

