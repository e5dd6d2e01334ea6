"""Fig. 12 — speech recognizer performance.

Three strategies (always-hybrid, always-remote, adaptive) over the four
reference waveforms.  Only speed matters: recognition quality is fixed.
"""

from dataclasses import dataclass, field

from repro.apps.speech.recognizer import SpeechFrontEnd
from repro.apps.speech.warden import build_speech
from repro.core.api import OdysseyAPI
from repro.experiments.harness import DEFAULT_TRIALS, ExperimentWorld
from repro.experiments.stats import Cell
from repro.experiments.supply import REFERENCE_WAVEFORMS
from repro.parallel.runner import run_grid
from repro.trace.waveforms import WAVEFORM_DURATION

#: The strategies of Fig. 12, in column order.
SPEECH_STRATEGIES = ("hybrid", "remote", "adaptive")

#: Fig. 12's published recognition times (seconds).
PAPER_FIG12 = {
    "step-up": {"hybrid": 0.80, "remote": 0.91, "adaptive": 0.80},
    "step-down": {"hybrid": 0.80, "remote": 0.90, "adaptive": 0.80},
    "impulse-up": {"hybrid": 0.85, "remote": 1.11, "adaptive": 0.85},
    "impulse-down": {"hybrid": 0.76, "remote": 0.77, "adaptive": 0.76},
}


@dataclass
class SpeechTable:
    cells: dict = field(default_factory=dict)  # (waveform, strategy) -> Cell

    def cell(self, waveform, strategy):
        return self.cells[(waveform, strategy)]


def run_speech_trial(waveform_name, strategy, seed=0):
    """One recognition run; returns the front-end (stats attached)."""
    world = ExperimentWorld(waveform_name, seed=seed)
    warden, server = build_speech(world.sim, world.viceroy, world.network)
    world.jitter_service(server.service)
    api = OdysseyAPI(world.viceroy, "speech-fe")
    front_end = SpeechFrontEnd(
        world.sim, api, "speech-fe", "/odyssey/speech",
        strategy=strategy, measure_from=world.prime,
    )
    world.sim.call_in(world.start_offset(), front_end.start)
    world.run_for(WAVEFORM_DURATION)
    return front_end


def speech_trial_outcome(waveform_name, strategy, seed=0):
    """One recognition run reduced to its mean recognition time (picklable)."""
    front_end = run_speech_trial(waveform_name, strategy, seed=seed)
    return front_end.stats.mean_seconds


def run_speech_table(trials=DEFAULT_TRIALS, master_seed=0,
                     waveforms=REFERENCE_WAVEFORMS,
                     strategies=SPEECH_STRATEGIES):
    """The full Fig. 12 table, fanned out cell x trial."""
    cells = [(waveform_name, strategy)
             for waveform_name in waveforms for strategy in strategies]
    times = run_grid("speech", [{"waveform_name": waveform_name,
                                 "strategy": strategy}
                                for waveform_name, strategy in cells],
                     trials, master_seed)
    return SpeechTable({cell: Cell(chunk) for cell, chunk in zip(cells, times)})
