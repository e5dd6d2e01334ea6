"""Fig. 8 — agility of bandwidth estimation under varying supply.

"To measure agility with respect to bandwidth supply, we ran a synthetic
Odyssey application, bitstream, that consumed data as fast as possible
through a streaming warden over a single connection from a server.  During
data transfer, we varied network bandwidth in accordance with the reference
waveforms."
"""

from dataclasses import dataclass, field

from repro import telemetry
from repro.apps.bitstream import build_bitstream
from repro.core.api import OdysseyAPI
from repro.core.ladder import NO_UPPER
from repro.core.resources import Resource
from repro.errors import ToleranceError
from repro.estimation.agility import detection_delay, settling_time
from repro.experiments.harness import DEFAULT_TRIALS, ExperimentWorld
from repro.experiments.stats import Cell
from repro.parallel.runner import run_grid
from repro.trace.waveforms import (
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    WAVEFORM_DURATION,
    waveform as make_waveform,
)

#: The four §6.1.1 reference waveforms.
REFERENCE_WAVEFORMS = ("step-up", "step-down", "impulse-up", "impulse-down")

#: Tolerance-window half-width factor for the fig8 supply tracker: each
#: registration spans [level/FACTOR, level*FACTOR].  The reference
#: waveforms move bandwidth by ~3x, so every transition violates the
#: window and produces a genuine upcall in the trial's event trace.
TRACK_WINDOW_FACTOR = 2.0


def _levels(name):
    """(initial level, post-transition level, transition time) for a waveform."""
    transition = WAVEFORM_DURATION / 2
    if name == "step-up":
        return LOW_BANDWIDTH, HIGH_BANDWIDTH, transition
    if name == "step-down":
        return HIGH_BANDWIDTH, LOW_BANDWIDTH, transition
    if name == "impulse-up":
        return LOW_BANDWIDTH, HIGH_BANDWIDTH, None
    if name == "impulse-down":
        return HIGH_BANDWIDTH, LOW_BANDWIDTH, None
    raise ValueError(f"not a reference waveform: {name!r}")


@dataclass
class SupplyTrial:
    """One trial's estimate series (times relative to waveform start)."""

    waveform: str
    series: list  # (t, estimated bandwidth bytes/s)
    settling: float  # seconds (steps only; None for impulses)
    detection: float  # seconds to cross halfway (steps only)


@dataclass
class SupplyResult:
    """Fig. 8 for one waveform: five overlaid trials plus summary metrics."""

    waveform: str
    trials: list = field(default_factory=list)

    @property
    def settling_cell(self):
        values = [t.settling for t in self.trials if t.settling is not None]
        return Cell(values) if values else None

    @property
    def detection_cell(self):
        values = [t.detection for t in self.trials if t.detection is not None]
        return Cell(values) if values else None

    def merged_series(self):
        """All trials' samples merged, as the paper's dot plots do."""
        merged = []
        for trial in self.trials:
            merged.extend(trial.series)
        merged.sort()
        return merged


def _register_tracker(world, path, factor=TRACK_WINDOW_FACTOR):
    """Arm a window-of-tolerance tracker on ``path`` after priming.

    Registers a bandwidth window around the current estimate and, on each
    violation upcall, re-registers around the level the upcall delivered —
    the paper's try-again protocol, run purely for observation.  The
    registration itself is a read-only check, so the estimate series the
    trial measures is unchanged; the upcalls it provokes are what give the
    fig8 event trace its application-visible notifications.  A refusal
    re-anchors once on the level it reports: a window centred on the
    current level cannot be refused.
    """
    api = OdysseyAPI(world.viceroy, "fig8-tracker")

    def request(level):
        if level is None or level <= 0:
            window = (0.0, NO_UPPER)
        else:
            window = (level / factor, level * factor)
        return api.request(path, Resource.NETWORK_BANDWIDTH, *window,
                           handler="bandwidth")

    def register(level):
        try:
            return request(level)
        except ToleranceError as err:
            return request(err.available)

    def handler(upcall):
        if upcall.level is None:
            return None  # connection torn down; nothing to track any more
        return register(upcall.level)

    api.on_upcall("bandwidth", handler)
    world.sim.call_at(world.prime, lambda: register(api.availability(path)))
    return api


def run_supply_trial(waveform_name, seed=0, chunk_bytes=64 * 1024,
                     track_window=True):
    """One bitstream run over one waveform; returns a :class:`SupplyTrial`."""
    world = ExperimentWorld(waveform_name, seed=seed)
    app, warden, server = build_bitstream(
        world.sim, world.viceroy, world.network, chunk_bytes=chunk_bytes
    )
    world.jitter_service(server.service)
    app.start()
    if track_window:
        _register_tracker(world, app.path)
    world.run_for(WAVEFORM_DURATION)
    series = world.relative(world.viceroy.policy.total_history)
    rec = telemetry.RECORDER
    if rec.enabled:
        # Absolute sim times keep the trace monotonic; ``prime`` lets
        # consumers shift to waveform-relative time themselves.
        rec.sample_series("fig8.estimate",
                          world.viceroy.policy.total_history,
                          waveform=waveform_name, prime=world.prime)
    initial, target, transition = _levels(waveform_name)
    settling = detection = None
    if transition is not None:
        settling = settling_time(
            series, transition, target, tolerance=0.10,
            horizon=WAVEFORM_DURATION - 1.0,
        )
        detection = detection_delay(series, transition, initial, target)
    return SupplyTrial(waveform_name, series, settling, detection)


def run_all_supply(trials=DEFAULT_TRIALS, master_seed=0,
                   waveforms=REFERENCE_WAVEFORMS):
    """Fig. 8, one panel per waveform: ``{waveform: SupplyResult}``."""
    cells = run_grid("supply", [{"waveform_name": name} for name in waveforms],
                     trials, master_seed)
    return {name: SupplyResult(name, chunk)
            for name, chunk in zip(waveforms, cells)}


def theoretical_series(waveform_name, step=0.25):
    """The dashed 'theoretical bandwidth' line of Fig. 8."""
    trace = make_waveform(waveform_name)
    points = []
    t = 0.0
    while t <= trace.duration:
        points.append((t, trace.bandwidth_at(t)))
        t += step
    return points
