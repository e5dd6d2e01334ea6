"""Fig. 10 — video player performance and fidelity.

Four strategies (three static tracks plus Odyssey-adaptive) over the four
reference waveforms.  Drops and mean displayed fidelity, mean (σ) of five
trials, exactly the table's shape.
"""

from dataclasses import dataclass, field

from repro.apps.video.movie import Movie, MovieStore
from repro.apps.video.player import VideoPlayer
from repro.apps.video.warden import build_video
from repro.core.api import OdysseyAPI
from repro.experiments.harness import DEFAULT_TRIALS, ExperimentWorld
from repro.experiments.stats import Cell
from repro.experiments.supply import REFERENCE_WAVEFORMS
from repro.parallel.runner import run_grid
from repro.trace.waveforms import WAVEFORM_DURATION

#: The strategies of Fig. 10, in column order.
VIDEO_STRATEGIES = ("bw", "jpeg50", "jpeg99", "adaptive")

#: Fig. 10's published values, for paper-vs-measured reporting:
#: waveform -> strategy -> (drops, fidelity or None for static tracks).
PAPER_FIG10 = {
    "step-up": {"bw": (0, 0.01), "jpeg50": (3, 0.5), "jpeg99": (169, 1.0),
                "adaptive": (7, 0.73)},
    "step-down": {"bw": (0, 0.01), "jpeg50": (5, 0.5), "jpeg99": (169, 1.0),
                  "adaptive": (25, 0.76)},
    "impulse-up": {"bw": (0, 0.01), "jpeg50": (3, 0.5), "jpeg99": (325, 1.0),
                   "adaptive": (23, 0.50)},
    "impulse-down": {"bw": (0, 0.01), "jpeg50": (0, 0.5), "jpeg99": (12, 1.0),
                     "adaptive": (14, 0.98)},
}


@dataclass
class VideoCell:
    """One (waveform, strategy) cell: drops and fidelity over trials."""

    drops: Cell
    fidelity: Cell


@dataclass
class VideoTable:
    """The Fig. 10 table: rows are waveforms, columns strategies."""

    cells: dict = field(default_factory=dict)  # (waveform, strategy) -> VideoCell

    def cell(self, waveform, strategy):
        return self.cells[(waveform, strategy)]


def run_video_trial(waveform_name, strategy, seed=0, movie_frames=None):
    """One playback; returns the player (stats attached).

    The movie is long enough to cover priming plus the 60-second waveform;
    only the 600 frames whose deadlines fall inside the waveform are
    measured, matching the paper's "600 frames to display during each
    trial" after a 30-second priming period.
    """
    world = ExperimentWorld(waveform_name, seed=seed)
    frames = movie_frames or int((world.prime + WAVEFORM_DURATION + 5) * 10)
    store = MovieStore()
    store.add(Movie("benchmark", n_frames=frames))
    warden, server = build_video(world.sim, world.viceroy, world.network, store)
    world.jitter_service(server.service)
    api = OdysseyAPI(world.viceroy, "xanim")
    player = VideoPlayer(
        world.sim, api, "xanim", "/odyssey/video", "benchmark",
        policy=strategy, measure_from=world.prime,
    )
    start_delay = world.start_offset()
    world.sim.call_in(start_delay, player.start)
    world.run_for(WAVEFORM_DURATION + 3.0)
    return player


@dataclass
class VideoTrialOutcome:
    """One trial's numbers, detached from the live player (picklable)."""

    drops: float  # normalized to exactly 600 measured frames
    fidelity: float


def video_trial_outcome(waveform_name, strategy, seed=0, movie_frames=None):
    """One playback reduced to its reported cell values.

    This is the parallel/cache boundary: the live player holds simulator
    state no worker could ship back, so the normalization happens here
    and only the two numbers travel.
    """
    player = run_video_trial(waveform_name, strategy, seed=seed,
                             movie_frames=movie_frames)
    measured = player.stats.frames_displayed + player.stats.drops
    # Normalize to exactly 600 measured frames (start offsets can shift
    # a frame or two across the measurement boundary).
    scale = 600.0 / measured if measured else 1.0
    return VideoTrialOutcome(drops=player.stats.drops * scale,
                             fidelity=player.fidelity)


def _video_cell(outcomes):
    return VideoCell(drops=Cell([o.drops for o in outcomes], precision=0),
                     fidelity=Cell([o.fidelity for o in outcomes]))


def run_video_table(trials=DEFAULT_TRIALS, master_seed=0,
                    waveforms=REFERENCE_WAVEFORMS, strategies=VIDEO_STRATEGIES):
    """The full Fig. 10 table, fanned out cell x trial."""
    cells = [(waveform_name, strategy)
             for waveform_name in waveforms for strategy in strategies]
    outcomes = run_grid("video", [{"waveform_name": waveform_name,
                                   "strategy": strategy}
                                  for waveform_name, strategy in cells],
                        trials, master_seed)
    return VideoTable({cell: _video_cell(chunk)
                       for cell, chunk in zip(cells, outcomes)})
