"""Bandwidth estimation and agility metrics (paper §6.1.1, §6.2.1).

Implements the viceroy's estimation machinery:

- :class:`EwmaFilter` — the paper's Eq. 1 smoothing, with the optional cap
  on per-estimate percentage rise used to discount round-trip anomalies.
- :class:`ConnectionEstimator` — per-endpoint estimate: smoothed round-trip
  time plus smoothed bandwidth derived via Eq. 2,
  ``B = W / (T - R/2)``.
- :class:`ClientShares` — the centralized model: total client bandwidth
  estimated from *all* logs (aggregate bytes moved during each observed
  window), split per connection into a competed-for part proportional to
  recent use plus a fair-share lower bound.
- :class:`BatchedEstimator` — the fleet-scale twin of :class:`EwmaFilter`:
  one vectorized Eq. 1 step across every connection in a shard,
  bit-identical to the scalar filter (numpy is scoped to this one module
  and optional — without it the lanes fall back to scalar filters).
- :mod:`repro.estimation.agility` — settling time, detection delay and
  tracking error: the metrics behind Figs. 8 and 9.

A note on Eq. 1's form: the paper prints ``new ← α·measured ⊕ old`` with
α = 0.75 (round trip) and 0.875 (throughput).  We weight the *measurement*
by α — the only reading consistent with the measured agility (a 2.0 s
Step-Down settling time is unreachable if 87.5 % of the old estimate is
retained per window).  EXPERIMENTS.md discusses the ambiguity.
"""

from repro.estimation.agility import (
    detection_delay,
    series_bounds,
    settling_time,
    time_in_band,
    tracking_error,
)
from repro.estimation.bandwidth import ConnectionEstimator
from repro.estimation.ewma import EwmaFilter
from repro.estimation.share import ClientShares

__all__ = [
    "BatchedEstimator",
    "ClientShares",
    "ConnectionEstimator",
    "EwmaFilter",
    "detection_delay",
    "series_bounds",
    "settling_time",
    "time_in_band",
    "tracking_error",
]


def __getattr__(name):
    # Loaded on first use: a process that never batches (a live broker,
    # the single-connection figures) then never imports numpy — 13 MB of
    # resident memory and 0.1 s of start-up.
    if name == "BatchedEstimator":
        from repro.estimation.batch import BatchedEstimator

        return BatchedEstimator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
