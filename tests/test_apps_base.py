"""The Application base class and its sim negotiation loop."""

import pytest

from repro.apps.base import Application
from repro.apps.bitstream import build_bitstream
from repro.core.adaptive import AdaptiveClient
from repro.core.api import OdysseyAPI
from repro.core.ladder import FidelityLadder
from repro.core.viceroy import Viceroy
from repro.errors import ProcessInterrupt
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import HIGH_BANDWIDTH, constant


class TickingApp(Application):
    def __init__(self, sim, api):
        super().__init__(sim, api, "ticker")
        self.ticks = 0

    def run(self):
        try:
            while True:
                yield self.sim.timeout(1.0)
                self.ticks += 1
        except ProcessInterrupt:
            return self.ticks


def test_application_start_stop(sim, api):
    app = TickingApp(sim, api)
    process = app.start()
    sim.run(until=5.5)
    app.stop()
    sim.run(until=6.0)
    assert not process.alive
    assert process.value == 5


def test_double_start_rejected(sim, api):
    app = TickingApp(sim, api)
    app.start()
    with pytest.raises(RuntimeError):
        app.start()


def test_stop_before_start_is_noop(sim, api):
    TickingApp(sim, api).stop()  # nothing to interrupt, nothing raised


def test_run_must_be_overridden(sim, api):
    app = Application(sim, api, "abstract")
    with pytest.raises(NotImplementedError):
        app.run()


def build_estimating_world():
    sim = Simulator()
    network = Network(sim, constant(HIGH_BANDWIDTH, duration=300))
    viceroy = Viceroy(sim, network)
    app, warden, _ = build_bitstream(sim, viceroy, network)
    app.start()
    sim.run(until=10.0)  # estimates now exist
    return sim, viceroy


class LadderApp(Application):
    """An adaptive application with an absurd top rung: its optimistic
    first ask is refused, and the retry lands on the rung that fits."""

    handler = "ladder-bw"

    def __init__(self, sim, api):
        super().__init__(sim, api, "ladder")
        self.path = "/odyssey/bitstream/0"
        self.core = AdaptiveClient(FidelityLadder(
            ("low", "absurd"), {"low": 0.0, "absurd": 1e11}.__getitem__,
            upper_margin=1.0))


def test_application_negotiates_through_the_core():
    sim, viceroy = build_estimating_world()
    app = LadderApp(sim, OdysseyAPI(viceroy, "bitstream-app-0"))
    app._join(None)
    core = app.core
    assert core.fidelity_log == [(10.0, "absurd"), (10.0, "low")]
    assert core.rejections == 1 and not core.window_due
    (registration,) = viceroy.registered_requests("bitstream-app-0")
    assert registration.request_id == core.request_id
    assert registration.descriptor.handler == "ladder-bw"
