"""Determinism regression net for the hot-path optimization work.

The sim substrate is allowed to get faster, never different: a seeded
experiment must emit byte-identical series before and after any kernel,
event, or link change.  The golden sha256 fingerprints below were
captured from the seed implementation and re-verified after the
event-driven link rewrite; if one of these fails, an optimization
changed event ordering or arithmetic, not just speed.

The second half guards the memory layout itself: the hot-path classes
promise ``__slots__`` all the way up their MRO, so a future edit that
quietly reintroduces per-instance ``__dict__`` (and its allocation cost)
fails here instead of only showing up as a benchmark regression.
"""

import hashlib

import pytest

from repro.apps.files import DocumentReader, build_files
from repro.apps.prefetch import FieldWorker, build_maps, walk_path
from repro.core.api import OdysseyAPI
from repro.core.ladder import FidelityLadder
from repro.core.viceroy import Viceroy
from repro.experiments.demand import run_demand_trial
from repro.experiments.supply import run_supply_trial
from repro.experiments.video import run_video_trial
from repro.experiments.web import run_web_trial
from repro.fleet import run_fleet
from repro.net.link import LinkStats
from repro.net.network import Network
from repro.net.packet import Packet, Train
from repro.rpc.connection import RetryPolicy
from repro.rpc.logs import RoundTripEntry, ThroughputEntry
from repro.rpc.messages import (
    BulkPush,
    BulkSource,
    CallRequest,
    CallResponse,
    Fragment,
    FragmentTrain,
    ServerReply,
    WindowAck,
    WindowRequest,
)
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.queues import Semaphore, Store
from repro.trace.waveforms import LOW_BANDWIDTH, constant, step_down

GOLDEN_FIG8_STEP_UP_SEED0 = (
    "42409d4ba6fa78d7992e9a394772431e91bb5c0011fe7328005cdaaa4aafbfa7"
)
GOLDEN_FIG8_STEP_DOWN_SEED1 = (
    "ce688e8b37639f7aa36a87b5e10c0c3c5523c67dcb299bf0b7dd11ccdf3082a6"
)
GOLDEN_FIG9_TOTAL_SEED0 = (
    "43dd89b6cd363a4fe446291d47a6ea3b01764db9c5f5997c9468aff506f44dac"
)
GOLDEN_FIG9_SECOND_SEED0 = (
    "4c24d44dc97b796dc5c5d4b7b176063acaacd6abc9a58eeed1c372f9c7729ccc"
)


def fingerprint(series):
    """sha256 over the rounded (time, value) pairs of one series."""
    rounded = [(round(t, 9), round(v, 6)) for t, v in series]
    return hashlib.sha256(repr(rounded).encode()).hexdigest()


def test_fig8_supply_series_match_golden_fingerprints():
    assert fingerprint(run_supply_trial("step-up", seed=0).series) \
        == GOLDEN_FIG8_STEP_UP_SEED0
    assert fingerprint(run_supply_trial("step-down", seed=1).series) \
        == GOLDEN_FIG8_STEP_DOWN_SEED1


def test_fig9_demand_series_match_golden_fingerprints():
    trial = run_demand_trial(0.45, seed=0)
    assert fingerprint(trial.total_series) == GOLDEN_FIG9_TOTAL_SEED0
    assert fingerprint(trial.second_series) == GOLDEN_FIG9_SECOND_SEED0


def digest(rows):
    """sha256 over logged rows, floats rounded as :func:`fingerprint` does."""
    rounded = [tuple(round(v, 9) if isinstance(v, float) else v for v in row)
               for row in rows]
    return hashlib.sha256(repr(rounded).encode()).hexdigest()


# The fidelity-ladder consumers: each app's seeded log pins every rung it
# picked and every window it registered, through the upcalls they caused.
GOLDEN_FIG10_STEP_UP_SEED0 = (
    "df7f0d605c6b4ed88abe9eeb1297dee498e1aed3906115bdee47a58adce24530"
)
GOLDEN_FIG10_IMPULSE_DOWN_SEED0 = (
    "2539ac427019a9fe6a7536869899f41cb32463ab218c0ad4ee438e86f9137e30"
)
GOLDEN_FIG11_STEP_DOWN_SEED0 = (
    "822276c4ff829a71b5e2b837f7799466a829b81ecc8b54ed7290bda97785ca80"
)
GOLDEN_FIG11_IMPULSE_UP_SEED0 = (
    "9f7164e748508cb10d7ab41eeb97e2cfbd67908bbdb8454356899d7afdc3f0dc"
)
GOLDEN_READER_OPENS = (
    "c261dc0844dbdaa042b5ce55039cb122998fd75f9775ac8c6e80fadc123a34e4"
)
GOLDEN_WORKER_VIEWS = (
    "50aecdfaf890873de85a2628486f1efa2a22bef82da39eb484b1bd844ca28a87"
)
GOLDEN_FLEET_64X4 = (
    "e99aa00448d4a7dfc8483f329365bb99cbf000f9ccb184d7b4c37621a7a2dbe4"
)


def video_digest(waveform):
    stats = run_video_trial(waveform, "adaptive", seed=0).stats
    return digest(stats.frame_log + stats.switches)


def web_digest(waveform):
    return digest(run_web_trial(waveform, "adaptive", seed=0).stats.fetches)


def reader_digest():
    sim = Simulator()
    network = Network(sim, constant(LOW_BANDWIDTH, duration=3600))
    viceroy = Viceroy(sim, network)
    _, server = build_files(sim, viceroy, network, update_period=3.0)
    docs = [server.create(f"doc{i}") for i in range(3)]
    reader = DocumentReader(sim, OdysseyAPI(viceroy, "reader"), "reader",
                            "/odyssey/files", docs, server, period_seconds=0.5)
    reader.start()
    sim.run(until=60.0)
    return digest(reader.stats.opens)


def worker_digest():
    sim = Simulator()
    network = Network(sim, step_down(duration=120))
    viceroy = Viceroy(sim, network)
    build_maps(sim, viceroy, network)
    worker = FieldWorker(sim, OdysseyAPI(viceroy, "field-worker"),
                         "field-worker", "/odyssey/maps", walk_path(100),
                         dwell_seconds=1.0)
    worker.start()
    sim.run(until=110.0)
    return digest(worker.stats.views)


def test_fig10_video_logs_match_golden_fingerprints():
    assert video_digest("step-up") == GOLDEN_FIG10_STEP_UP_SEED0
    assert video_digest("impulse-down") == GOLDEN_FIG10_IMPULSE_DOWN_SEED0


def test_fig11_browser_fetches_match_golden_fingerprints():
    assert web_digest("step-down") == GOLDEN_FIG11_STEP_DOWN_SEED0
    assert web_digest("impulse-up") == GOLDEN_FIG11_IMPULSE_UP_SEED0


def test_app_logs_match_golden_fingerprints():
    assert reader_digest() == GOLDEN_READER_OPENS
    assert worker_digest() == GOLDEN_WORKER_VIEWS


def test_fleet_fingerprint_matches_golden():
    report = run_fleet(clients=64, shards=4, duration=8.0, prime=4.0,
                       jobs=1, cache=None)
    assert report.fingerprint() == GOLDEN_FLEET_64X4


def test_same_seed_same_fingerprint_within_one_process():
    first = run_supply_trial("step-up", seed=3)
    second = run_supply_trial("step-up", seed=3)
    assert fingerprint(first.series) == fingerprint(second.series)


def _noop():
    yield


def _hot_path_instances():
    """One live instance of every class promised to be slotted."""
    sim = Simulator()
    yield sim
    yield Event(sim, name="e")
    yield Timeout(sim, 1.0)
    yield AnyOf(sim, [sim.timeout(1.0)])
    yield AllOf(sim, [sim.timeout(1.0)])
    yield Process(sim, _noop())
    yield Store(sim, name="s")
    yield Semaphore(sim, capacity=2)
    yield sim.call_at(5.0, lambda: None)
    yield Packet(src="a", dst="b", port="p", size=100)
    yield Train(src="a", dst="b", port="p", sizes=[100, 100])
    yield LinkStats()
    yield RetryPolicy()
    yield CallRequest(connection_id="c", seq=1, op="op", body=None,
                      body_bytes=10, reply_port="p")
    yield CallResponse(connection_id="c", seq=1, body=None, body_bytes=10,
                       server_seconds=0.0)
    yield WindowRequest(connection_id="c", seq=1, transfer_id=1, offset=0,
                        window_bytes=1024, fragment_bytes=256, reply_port="p")
    yield Fragment(connection_id="c", seq=1, transfer_id=1, offset=0,
                   nbytes=256, last_in_window=False, last_in_transfer=False)
    yield FragmentTrain(connection_id="c", seq=1, transfer_id=1,
                        offsets=[0], nbytes=[256], last_in_transfer=True)
    yield BulkPush(connection_id="c", seq=1, transfer_id=1, offset=0,
                   nbytes=256, last_in_window=True, last_in_transfer=False,
                   reply_port="p")
    yield WindowAck(connection_id="c", seq=1, transfer_id=1, next_offset=256)
    yield ServerReply()
    yield BulkSource(transfer_id=1, nbytes=1024)
    yield RoundTripEntry(at=1.0, seconds=0.1, request_bytes=64,
                         response_bytes=64)
    yield ThroughputEntry(at=1.0, started=0.5, nbytes=1024, seconds=0.5)
    yield FidelityLadder((0.5, 1.0), lambda rung: rung, upper_margin=1.1)


@pytest.mark.parametrize(
    "obj", list(_hot_path_instances()),
    ids=lambda obj: type(obj).__name__,
)
def test_hot_path_classes_stay_slotted(obj):
    cls = type(obj)
    assert not hasattr(obj, "__dict__"), (
        f"{cls.__name__} instances grew a __dict__ — some class in its MRO "
        "dropped __slots__, reintroducing per-event allocation overhead"
    )
    for klass in cls.__mro__[:-1]:  # every ancestor except object
        assert "__slots__" in vars(klass), (
            f"{klass.__name__} (base of {cls.__name__}) lacks __slots__"
        )
