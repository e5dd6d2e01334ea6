"""End-to-end adaptation agility: from transition to fidelity change.

§2.4 defines agility as "the speed and accuracy with which it detects and
responds to changes in resource availability".  Fig. 8 measures the
*detection* half (the estimate).  This experiment measures the whole
pipeline the paper's architecture implies:

    bandwidth transition → log entries → estimate crosses the window →
    upcall delivered → application switches fidelity

using the adaptive video player, whose track switches are visible events.
Reported per step waveform: detection latency (estimate crossing), upcall
latency (delivery), and response latency (the track switch) — each from
the moment the trace transitioned.
"""

from dataclasses import dataclass

from repro import telemetry
from repro.apps.video.movie import Movie, MovieStore
from repro.apps.video.player import VideoPlayer
from repro.apps.video.warden import build_video
from repro.core.api import OdysseyAPI
from repro.experiments.harness import DEFAULT_TRIALS, ExperimentWorld
from repro.experiments.stats import Cell
from repro.parallel.runner import run_grid
from repro.trace.waveforms import WAVEFORM_DURATION

TRANSITION = WAVEFORM_DURATION / 2


@dataclass
class AdaptationTrial:
    """Latencies (seconds after the transition) for one run."""

    upcall_latency: float
    switch_latency: float


@dataclass
class AdaptationResult:
    waveform: str
    trials: list

    @property
    def upcall_cell(self):
        return Cell([t.upcall_latency for t in self.trials])

    @property
    def switch_cell(self):
        return Cell([t.switch_latency for t in self.trials])


def run_adaptation_trial(waveform_name, seed=0):
    """One adaptive playback over a step; returns an AdaptationTrial."""
    world = ExperimentWorld(waveform_name, seed=seed)
    frames = int((world.prime + WAVEFORM_DURATION + 5) * 10)
    store = MovieStore()
    store.add(Movie("m", n_frames=frames))
    warden, server = build_video(world.sim, world.viceroy, world.network, store)
    world.jitter_service(server.service)
    api = OdysseyAPI(world.viceroy, "xanim")
    player = VideoPlayer(world.sim, api, "xanim", "/odyssey/video", "m",
                         policy="adaptive", measure_from=world.prime)
    player.start()
    world.run_for(WAVEFORM_DURATION)

    transition_at = world.prime + TRANSITION
    upcalls = [t for t, _, _ in world.viceroy.upcalls.delivered_to("xanim")
               if t >= transition_at]
    switches = [t for t, _, _ in player.stats.switches if t >= transition_at]
    if not upcalls or not switches:
        raise RuntimeError(
            f"{waveform_name}: the step produced no adaptation "
            f"(upcalls={len(upcalls)}, switches={len(switches)})"
        )
    upcall_latency = upcalls[0] - transition_at
    switch_latency = switches[0] - transition_at
    rec = telemetry.RECORDER
    if rec.enabled:
        rec.observe("adaptation.upcall_latency_seconds", upcall_latency,
                    waveform=waveform_name)
        rec.observe("adaptation.switch_latency_seconds", switch_latency,
                    waveform=waveform_name)
        rec.event("adaptation.measured", waveform=waveform_name,
                  upcall_latency=upcall_latency,
                  switch_latency=switch_latency)
    return AdaptationTrial(
        upcall_latency=upcall_latency,
        switch_latency=switch_latency,
    )


def run_adaptation(trials=DEFAULT_TRIALS, master_seed=0,
                   waveforms=("step-up", "step-down")):
    """Adaptation agility per step waveform: AdaptationResults, in order."""
    cells = run_grid("adaptation",
                     [{"waveform_name": name} for name in waveforms],
                     trials, master_seed)
    return [AdaptationResult(name, chunk)
            for name, chunk in zip(waveforms, cells)]


def format_adaptation(results):
    lines = ["Adaptation agility — transition to fidelity change (seconds)"]
    for result in results:
        lines.append(
            f"  {result.waveform:10s} upcall {result.upcall_cell}   "
            f"track switch {result.switch_cell}"
        )
    return "\n".join(lines)
