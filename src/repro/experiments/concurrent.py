"""Figs. 13-14 — concurrent applications and centralized management.

All three applications run simultaneously over the 15-minute urban-walk
trace (Fig. 13), under each of the three resource-management strategies:
Odyssey's centralized estimation, laissez-faire (per-connection logs in
isolation), and blind-optimism (theoretical bandwidth pushed instantly at
transitions, blind to competition).  Fig. 14 reports video drops and
fidelity, web fetch time and fidelity, and speech recognition time.
"""

from dataclasses import dataclass, field

from repro.apps.speech.recognizer import SpeechFrontEnd
from repro.apps.speech.warden import build_speech
from repro.apps.video.movie import Movie, MovieStore
from repro.apps.video.player import VideoPlayer
from repro.apps.video.warden import build_video
from repro.apps.web.browser import CellophaneBrowser
from repro.apps.web.images import ImageStore
from repro.apps.web.warden import build_web
from repro.core.api import OdysseyAPI
from repro.experiments.harness import (
    DEFAULT_TRIALS,
    POLICIES,
    ExperimentWorld,
)
from repro.experiments.stats import Cell
from repro.parallel.runner import run_grid
from repro.trace.waveforms import urban_walk

#: Fig. 14's published values: policy -> (video drops, video fidelity,
#: web seconds, web fidelity, speech seconds).
PAPER_FIG14 = {
    "odyssey": (1018, 0.25, 0.54, 0.47, 1.00),
    "laissez-faire": (2249, 0.39, 0.95, 0.93, 1.21),
    "blind-optimism": (5320, 0.80, 1.20, 1.00, 1.26),
}


@dataclass
class ConcurrentRow:
    """One policy's row of Fig. 14 (cells over trials)."""

    policy: str
    video_drops: Cell
    video_fidelity: Cell
    web_seconds: Cell
    web_fidelity: Cell
    speech_seconds: Cell


@dataclass
class ConcurrentTable:
    rows: dict = field(default_factory=dict)  # policy -> ConcurrentRow

    def row(self, policy):
        return self.rows[policy]


@dataclass
class ConcurrentTrialResult:
    video: object
    web: object
    speech: object


def run_concurrent_trial(policy, seed=0, trace=None):
    """One 15-minute three-application run under ``policy``."""
    trace = trace or urban_walk()
    world = ExperimentWorld(trace, policy=policy, seed=seed)
    measure_until = world.prime + trace.duration

    store = MovieStore()
    n_frames = int((world.prime + trace.duration + 10) * 10)
    store.add(Movie("urban", n_frames=n_frames))
    video_warden, video_server = build_video(
        world.sim, world.viceroy, world.network, store
    )
    world.jitter_service(video_server.service)
    video_api = OdysseyAPI(world.viceroy, "xanim")
    player = VideoPlayer(
        world.sim, video_api, "xanim", "/odyssey/video", "urban",
        policy="adaptive", measure_from=world.prime,
    )

    image_store = ImageStore()
    image = image_store.add_benchmark_image()
    web_warden, distiller, web_server = build_web(
        world.sim, world.viceroy, world.network, image_store
    )
    world.jitter_service(web_server.service)
    world.jitter_service(distiller.service)
    web_api = OdysseyAPI(world.viceroy, "netscape")
    browser = CellophaneBrowser(
        world.sim, web_api, "netscape", "/odyssey/web", image.name,
        image.nbytes, policy="adaptive", measure_from=world.prime,
    )

    speech_warden, speech_server = build_speech(
        world.sim, world.viceroy, world.network
    )
    world.jitter_service(speech_server.service)
    speech_api = OdysseyAPI(world.viceroy, "speech-fe")
    front_end = SpeechFrontEnd(
        world.sim, speech_api, "speech-fe", "/odyssey/speech",
        strategy="adaptive", measure_from=world.prime,
    )

    for app in (player, browser, front_end):
        world.sim.call_in(world.start_offset(), app.start)
    world.sim.run(until=measure_until)
    return ConcurrentTrialResult(video=player, web=browser, speech=front_end)


@dataclass
class ConcurrentTrialOutcome:
    """One trial's Fig. 14 numbers, detached from the live apps (picklable)."""

    video_drops: float
    video_fidelity: float
    web_seconds: float
    web_fidelity: float
    speech_seconds: float


def concurrent_trial_outcome(policy, seed=0, trace=None):
    """One 15-minute run reduced to its reported row values."""
    result = run_concurrent_trial(policy, seed=seed, trace=trace)
    return ConcurrentTrialOutcome(
        video_drops=result.video.stats.drops,
        video_fidelity=result.video.fidelity,
        web_seconds=result.web.stats.mean_seconds,
        web_fidelity=result.web.stats.mean_fidelity,
        speech_seconds=result.speech.stats.mean_seconds,
    )


def _concurrent_row(policy, outcomes):
    return ConcurrentRow(
        policy=policy,
        video_drops=Cell([o.video_drops for o in outcomes], precision=0),
        video_fidelity=Cell([o.video_fidelity for o in outcomes]),
        web_seconds=Cell([o.web_seconds for o in outcomes]),
        web_fidelity=Cell([o.web_fidelity for o in outcomes]),
        speech_seconds=Cell([o.speech_seconds for o in outcomes]),
    )


def run_concurrent_table(trials=DEFAULT_TRIALS, master_seed=0, trace=None,
                         policies=POLICIES):
    """The full Fig. 14 table, fanned out policy x trial."""
    base = {} if trace is None else {"trace": trace}
    outcomes = run_grid("concurrent",
                        [{"policy": policy, **base} for policy in policies],
                        trials, master_seed)
    return ConcurrentTable({policy: _concurrent_row(policy, chunk)
                            for policy, chunk in zip(policies, outcomes)})
