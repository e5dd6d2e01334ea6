"""Turbulence characterization: how sharp a change can Odyssey see?

"Agility is thus the property of a mobile system that determines the most
turbulent environment in which it can function acceptably" (§2.4).  The
paper chose a 2-second impulse because it is "large enough to be detectable
by a sensitive system, yet small enough to be missed by an insensitive one"
(Fig. 7 caption) — but never measured where the detection boundary lies.
This module does: sweep the impulse width and record how much of each
impulse the estimator registers.

The *visibility* of an impulse is the fraction of the bandwidth excursion
the estimate actually traverses: 1.0 means fully tracked, 0.0 means
entirely missed.  The *minimum detectable width* is where visibility
crosses one half.
"""

from dataclasses import dataclass, field

from repro.apps.bitstream import build_bitstream
from repro.experiments.harness import DEFAULT_TRIALS, ExperimentWorld
from repro.experiments.stats import Cell
from repro.parallel.runner import run_grid
from repro.trace.waveforms import (
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    WAVEFORM_DURATION,
    impulse_up,
)

#: Impulse widths swept, seconds.  The paper's reference width is 2.0.
DEFAULT_WIDTHS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass
class TurbulenceResult:
    """Visibility per impulse width, over trials."""

    widths: tuple
    visibility: dict = field(default_factory=dict)  # width -> Cell

    def minimum_detectable_width(self, threshold=0.5):
        """Smallest swept width whose mean visibility crosses ``threshold``.

        Returns None if even the widest impulse stays below threshold.
        """
        for width in sorted(self.widths):
            if self.visibility[width].mean >= threshold:
                return width
        return None


def impulse_visibility(width, seed=0, low=LOW_BANDWIDTH, high=HIGH_BANDWIDTH):
    """One trial: how much of a ``width``-second impulse the estimate sees."""
    trace = impulse_up(low=low, high=high, width=width)
    world = ExperimentWorld(trace, seed=seed)
    app, warden, server = build_bitstream(world.sim, world.viceroy,
                                          world.network)
    world.jitter_service(server.service)
    app.start()
    world.run_for(WAVEFORM_DURATION)
    series = world.relative(world.viceroy.policy.total_history)
    start = (WAVEFORM_DURATION - width) / 2
    # Allow the estimate one extra second to register the trailing samples
    # of a short burst (window completions land after the impulse ends).
    samples = [v for t, v in series if start <= t <= start + width + 1.0]
    if not samples:
        return 0.0
    peak = max(samples)
    visibility = (peak - low) / (high - low)
    return min(max(visibility, 0.0), 1.0)


def run_turbulence_sweep(widths=DEFAULT_WIDTHS, trials=DEFAULT_TRIALS,
                         master_seed=0):
    """Visibility across impulse widths; returns a TurbulenceResult."""
    widths = tuple(widths)
    values = run_grid("turbulence", [{"width": width} for width in widths],
                      trials, master_seed)
    return TurbulenceResult(widths, {width: Cell(chunk)
                                     for width, chunk in zip(widths, values)})


def format_turbulence(result):
    lines = ["Turbulence sweep — impulse visibility vs width "
             "(1.0 = fully tracked)"]
    for width in sorted(result.widths):
        cell = result.visibility[width]
        marker = "  <- paper's reference width" if width == 2.0 else ""
        lines.append(f"  {width:5.2f} s impulse: visibility {cell}{marker}")
    minimum = result.minimum_detectable_width()
    if minimum is None:
        lines.append("  no swept width reaches 50% visibility")
    else:
        lines.append(f"  minimum detectable width (50% visibility): "
                     f"~{minimum:.2f} s")
    return "\n".join(lines)
