"""The Odyssey core: viceroy, wardens, upcalls, and the API of Fig. 3.

This package is the paper's primary contribution.  Applications operate on
Odyssey objects through a namespace (the VFS interceptor), express resource
expectations with ``request``, are notified through upcalls when
expectations no longer hold, and change fidelity through type-specific
operations (``tsop``).

- :class:`Viceroy` — type-independent centralized resource manager.
- :class:`Warden` — base class for type-specific components.
- :class:`OdysseyAPI` — the per-application system-call surface.
- :class:`UpcallDispatcher` — exactly-once, in-order notification delivery.
- :class:`FidelityLadder` — best fidelity for an estimate, and the window
  of tolerance around it.
- :mod:`repro.core.policies` — Odyssey's centralized estimation plus the
  two §6.2.3 baselines (laissez-faire, blind-optimism).
- :mod:`repro.core.monitors` — the Fig. 3(c) generic resources beyond
  network bandwidth (battery, CPU, cache space, money, latency).
"""

from repro.core.api import OdysseyAPI
from repro.core.dynsets import DynamicSet
from repro.core.interceptor import Interceptor, LocalFS
from repro.core.ladder import NO_UPPER, FidelityLadder
from repro.core.monitors import (
    BatteryMonitor,
    CpuMonitor,
    DiskCacheMonitor,
    MoneyMonitor,
)
from repro.core.namespace import Namespace
from repro.core.shipping import PlacementEngine, Plan
from repro.core.policies import (
    BlindOptimismPolicy,
    LaissezFairePolicy,
    OdysseyPolicy,
)
from repro.core.resources import Resource, ResourceDescriptor, Window
from repro.core.upcalls import Upcall, UpcallDispatcher
from repro.core.viceroy import Viceroy
from repro.core.warden import Warden

__all__ = [
    "BatteryMonitor",
    "BlindOptimismPolicy",
    "CpuMonitor",
    "DiskCacheMonitor",
    "DynamicSet",
    "FidelityLadder",
    "Interceptor",
    "LaissezFairePolicy",
    "LocalFS",
    "MoneyMonitor",
    "NO_UPPER",
    "Namespace",
    "OdysseyAPI",
    "OdysseyPolicy",
    "PlacementEngine",
    "Plan",
    "Resource",
    "ResourceDescriptor",
    "Upcall",
    "UpcallDispatcher",
    "Viceroy",
    "Warden",
    "Window",
]
