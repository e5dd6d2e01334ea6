"""Generic resources and resource descriptors (paper Fig. 3b-c).

The paper enumerates six generic resources a mobile client must manage.
The prototype — like the paper's — treats network bandwidth as the critical
one, but all six are first-class here and :mod:`repro.core.monitors`
provides sources for the rest.
"""

import enum
import math
from dataclasses import dataclass

from repro.errors import BadDescriptor


class Resource(enum.Enum):
    """The generic resources of Fig. 3(c), with their units."""

    NETWORK_BANDWIDTH = ("network-bandwidth", "bytes/second")
    NETWORK_LATENCY = ("network-latency", "microseconds")
    DISK_CACHE_SPACE = ("disk-cache-space", "kilobytes")
    CPU = ("cpu", "SPECint95")
    BATTERY_POWER = ("battery-power", "minutes")
    MONEY = ("money", "cents")

    def __init__(self, label, unit):
        self.label = label
        self.unit = unit

    def __str__(self):
        return self.label

    @classmethod
    def from_label(cls, label):
        """Look up a resource by its string label."""
        for resource in cls:
            if resource.label == label:
                return resource
        raise BadDescriptor(f"unknown resource {label!r}")


@dataclass(frozen=True)
class Window:
    """A window of tolerance: [lower, upper] on a resource's availability."""

    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise BadDescriptor(f"window bounds must not be NaN: {self!r}")
        if self.lower < 0:
            raise BadDescriptor(f"window lower bound must be >= 0, got {self.lower!r}")
        if self.upper < self.lower:
            raise BadDescriptor(
                f"window upper bound {self.upper!r} below lower bound {self.lower!r}"
            )

    def contains(self, level):
        """True if ``level`` lies within the window (inclusive)."""
        return self.lower <= level <= self.upper


@dataclass(frozen=True)
class ResourceDescriptor:
    """The argument to ``request`` (paper Fig. 3b).

    ``handler`` names the application's upcall handler to invoke when the
    resource strays outside the window.
    """

    resource: Resource
    window: Window
    handler: str = "default"

    def __post_init__(self):
        if not isinstance(self.resource, Resource):
            raise BadDescriptor(f"resource must be a Resource, got {self.resource!r}")
        if not isinstance(self.window, Window):
            raise BadDescriptor(f"window must be a Window, got {self.window!r}")


@dataclass
class Registration:
    """A live ``request``: the viceroy watches its window until violated
    or cancelled.  Its :class:`~repro.core.windows.WindowRegistry` mints
    ``request_id``."""

    app: str
    path: str
    descriptor: ResourceDescriptor
    connection_id: str = None
    request_id: int = None
