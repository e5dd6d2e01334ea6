"""Shared fixtures: simulators, networks, and wired-up worlds."""

import pytest
from hypothesis import settings

from repro.core.api import OdysseyAPI
from repro.core.viceroy import Viceroy
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import HIGH_BANDWIDTH, constant

# Tier-1 replays the same hypothesis examples on every run.  Property tests
# that leave ``max_examples`` unset take it from the profile, so
# ``--hypothesis-profile=nightly`` turns them into sweeps.
settings.register_profile("ci", derandomize=True, max_examples=10)
settings.register_profile("nightly", max_examples=4000)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the on-disk result cache at a per-test directory.

    CLI invocations build a ResultCache by default; without this, a test
    run would scatter ``.repro-cache/`` entries into the repo root.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def network(sim):
    """A network with a constant high-bandwidth client link."""
    return Network(sim, constant(HIGH_BANDWIDTH, duration=3600))


@pytest.fixture
def viceroy(sim, network):
    return Viceroy(sim, network)


@pytest.fixture
def api(viceroy):
    return OdysseyAPI(viceroy, "test-app")


def drive(sim, generator, until=None):
    """Run ``generator`` as a process to completion; return its value."""
    process = sim.process(generator)
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
    assert process.triggered, "process did not finish in time"
    return process.value


@pytest.fixture
def run_process(sim):
    """Fixture-ized :func:`drive` bound to the test simulator."""

    def runner(generator, until=None):
        return drive(sim, generator, until=until)

    return runner
