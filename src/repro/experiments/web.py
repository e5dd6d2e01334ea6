"""Fig. 11 — web browser performance and fidelity.

Five strategies (four static fidelities plus Odyssey-adaptive) over the
four reference waveforms, plus the unmodified-Ethernet baseline row.
"""

from dataclasses import dataclass, field

from repro.apps.web.browser import CellophaneBrowser
from repro.apps.web.images import ImageStore
from repro.apps.web.warden import build_web
from repro.core.api import OdysseyAPI
from repro.experiments.harness import DEFAULT_TRIALS, ExperimentWorld
from repro.experiments.stats import Cell
from repro.experiments.supply import REFERENCE_WAVEFORMS
from repro.parallel.runner import run_grid
from repro.trace.waveforms import WAVEFORM_DURATION, ethernet

#: The strategies of Fig. 11, in column order.
WEB_STRATEGIES = (0.05, 0.25, 0.50, 1.00, "adaptive")

#: Fig. 11's published values: waveform -> strategy -> (seconds, fidelity).
PAPER_FIG11 = {
    "ethernet": {"baseline": (0.20, 1.0)},
    "step-up": {0.05: (0.25, 0.05), 0.25: (0.30, 0.25), 0.50: (0.29, 0.5),
                1.00: (0.46, 1.0), "adaptive": (0.35, 0.78)},
    "step-down": {0.05: (0.25, 0.05), 0.25: (0.30, 0.25), 0.50: (0.29, 0.5),
                  1.00: (0.46, 1.0), "adaptive": (0.35, 0.77)},
    "impulse-up": {0.05: (0.27, 0.05), 0.25: (0.33, 0.25), 0.50: (0.34, 0.5),
                   1.00: (0.71, 1.0), "adaptive": (0.42, 0.63)},
    "impulse-down": {0.05: (0.24, 0.05), 0.25: (0.27, 0.25), 0.50: (0.29, 0.5),
                     1.00: (0.34, 1.0), "adaptive": (0.36, 0.99)},
}


@dataclass
class WebCell:
    """One (waveform, strategy) cell: fetch seconds and fidelity."""

    seconds: Cell
    fidelity: Cell


@dataclass
class WebTable:
    cells: dict = field(default_factory=dict)

    def cell(self, waveform, strategy):
        return self.cells[(waveform, strategy)]


def run_web_trial(waveform_name, strategy, seed=0):
    """One browsing run; returns the browser (stats attached).

    ``waveform_name == "ethernet"`` runs the baseline: unmodulated private
    Ethernet, direct to the web server, no distillation.
    """
    direct = waveform_name == "ethernet"
    if direct:
        world = ExperimentWorld(
            ethernet(duration=WAVEFORM_DURATION * 2), seed=seed
        )
    else:
        world = ExperimentWorld(waveform_name, seed=seed)
    store = ImageStore()
    image = store.add_benchmark_image()
    warden, distiller, web_server = build_web(
        world.sim, world.viceroy, world.network, store, direct=direct
    )
    world.jitter_service(web_server.service)
    if distiller is not None:
        world.jitter_service(distiller.service)
    api = OdysseyAPI(world.viceroy, "netscape")
    browser = CellophaneBrowser(
        world.sim, api, "netscape", "/odyssey/web", image.name, image.nbytes,
        policy=(1.0 if direct else strategy), measure_from=world.prime,
    )
    world.sim.call_in(world.start_offset(), browser.start)
    world.run_for(WAVEFORM_DURATION)
    return browser


@dataclass
class WebTrialOutcome:
    """One trial's numbers, detached from the live browser (picklable)."""

    seconds: float
    fidelity: float


def web_trial_outcome(waveform_name, strategy, seed=0):
    """One browsing run reduced to its reported cell values."""
    browser = run_web_trial(waveform_name, strategy, seed=seed)
    return WebTrialOutcome(seconds=browser.stats.mean_seconds,
                           fidelity=browser.stats.mean_fidelity)


def _web_cell(outcomes):
    return WebCell(seconds=Cell([o.seconds for o in outcomes]),
                   fidelity=Cell([o.fidelity for o in outcomes]))


def run_web_table(trials=DEFAULT_TRIALS, master_seed=0,
                  waveforms=REFERENCE_WAVEFORMS, strategies=WEB_STRATEGIES):
    """The full Fig. 11 table, fanned out cell x trial.

    The Ethernet baseline row rides in the same unit list as the
    modulated cells.
    """
    cells = [("ethernet", 1.0)]
    cells.extend((waveform_name, strategy)
                 for waveform_name in waveforms for strategy in strategies)
    outcomes = run_grid("web", [{"waveform_name": waveform_name,
                                 "strategy": strategy}
                                for waveform_name, strategy in cells],
                        trials, master_seed)
    table = WebTable()
    for (waveform_name, strategy), chunk in zip(cells, outcomes):
        label = "baseline" if waveform_name == "ethernet" else strategy
        table.cells[(waveform_name, label)] = _web_cell(chunk)
    return table
