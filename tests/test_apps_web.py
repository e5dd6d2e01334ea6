"""The web stack: images, distillation, warden, cellophane browser."""

import pytest

from repro.apps.web.browser import (
    CellophaneBrowser,
    FIXED_OVERHEAD_SECONDS,
    LATENCY_GOAL_SECONDS,
)
from repro.apps.web.images import (
    BENCHMARK_IMAGE_BYTES,
    FIDELITY_LEVELS,
    ImageStore,
    WebImage,
    distilled_bytes,
)
from repro.apps.web.warden import build_web
from repro.core.api import OdysseyAPI
from repro.core.viceroy import Viceroy
from repro.errors import OdysseyError, ReproError
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import HIGH_BANDWIDTH, LOW_BANDWIDTH, constant, ethernet


# -- image model -----------------------------------------------------------


def test_four_fidelity_levels():
    assert set(FIDELITY_LEVELS) == {1.0, 0.5, 0.25, 0.05}


def test_distilled_sizes_monotone():
    sizes = [distilled_bytes(BENCHMARK_IMAGE_BYTES, level)
             for level in sorted(FIDELITY_LEVELS)]
    assert sizes == sorted(sizes)
    assert distilled_bytes(BENCHMARK_IMAGE_BYTES, 1.0) == BENCHMARK_IMAGE_BYTES


def test_distilled_unknown_level():
    with pytest.raises(ReproError):
        distilled_bytes(1000, 0.42)


def test_image_store():
    store = ImageStore()
    image = store.add_benchmark_image()
    assert image.nbytes == 22 * 1024
    assert store.get(image.name) is image
    with pytest.raises(ReproError):
        store.add(WebImage(image.name, 10))
    with pytest.raises(ReproError):
        store.get("missing")
    with pytest.raises(ReproError):
        WebImage("x", 0)


def test_synthetic_corpus_deterministic():
    a, b = ImageStore(), ImageStore()
    images_a = a.add_synthetic_corpus(10, seed=3)
    images_b = b.add_synthetic_corpus(10, seed=3)
    assert [i.nbytes for i in images_a] == [i.nbytes for i in images_b]
    assert len({i.nbytes for i in images_a}) > 3  # actually varied


# -- wired world ----------------------------------------------------------------


def build_browser(bandwidth, policy, direct=False):
    sim = Simulator()
    if bandwidth == "ethernet":
        network = Network(sim, ethernet(duration=600))
    else:
        network = Network(sim, constant(bandwidth, duration=600))
    viceroy = Viceroy(sim, network)
    store = ImageStore()
    image = store.add_benchmark_image()
    warden, distiller, web_server = build_web(sim, viceroy, network, store,
                                              direct=direct)
    api = OdysseyAPI(viceroy, "netscape")
    browser = CellophaneBrowser(
        sim, api, "netscape", "/odyssey/web", image.name, image.nbytes,
        policy=policy,
    )
    return sim, browser, warden, distiller


def test_set_fidelity_validated(sim, viceroy, network, run_process):
    store = ImageStore()
    store.add_benchmark_image()
    warden, _, _ = build_web(sim, viceroy, network, store)
    api = OdysseyAPI(viceroy, "n")

    def flow():
        with pytest.raises(OdysseyError):
            yield from api.tsop("/odyssey/web/x", "set-fidelity",
                                {"fidelity": 0.42})
        kept = yield from api.tsop("/odyssey/web/x", "get-fidelity", {})
        yield from api.tsop("/odyssey/web/x", "set-fidelity",
                            {"fidelity": 0.25})
        moved = yield from api.tsop("/odyssey/web/x", "get-fidelity", {})
        return kept, moved

    # A refused level leaves the fidelity where it was.
    assert run_process(flow()) == (1.0, 0.25)


def test_full_quality_fetch_time_at_high_bandwidth():
    sim, browser, _, _ = build_browser(HIGH_BANDWIDTH, 1.0)
    browser.start()
    sim.run(until=20.0)
    # Paper Fig. 11 impulse-down (mostly high bandwidth): 0.34 s.
    assert browser.stats.mean_seconds == pytest.approx(0.38, abs=0.08)
    assert browser.stats.mean_fidelity == 1.0


def test_full_quality_misses_goal_at_low_bandwidth():
    sim, browser, _, _ = build_browser(LOW_BANDWIDTH, 1.0)
    browser.start()
    sim.run(until=20.0)
    assert browser.stats.mean_seconds > LATENCY_GOAL_SECONDS


def test_jpeg50_meets_goal_at_low_bandwidth():
    sim, browser, _, _ = build_browser(LOW_BANDWIDTH, 0.5)
    browser.start()
    sim.run(until=20.0)
    assert browser.stats.mean_seconds <= LATENCY_GOAL_SECONDS
    assert browser.stats.mean_fidelity == 0.5


def test_adaptive_meets_goal_at_both_levels():
    for bandwidth in (LOW_BANDWIDTH, HIGH_BANDWIDTH):
        sim, browser, _, _ = build_browser(bandwidth, "adaptive")
        browser.start()
        sim.run(until=30.0)
        # Allow the settling period a little slack.
        assert browser.stats.mean_seconds <= LATENCY_GOAL_SECONDS * 1.1


def test_adaptive_prefers_quality_at_high_bandwidth():
    sim, browser, _, _ = build_browser(HIGH_BANDWIDTH, "adaptive")
    browser.start()
    sim.run(until=30.0)
    assert browser.stats.mean_fidelity > 0.9


def test_adaptive_degrades_at_low_bandwidth():
    sim, browser, _, _ = build_browser(LOW_BANDWIDTH, "adaptive")
    browser.start()
    sim.run(until=30.0)
    assert 0.3 <= browser.stats.mean_fidelity <= 0.6  # JPEG-50 territory


def test_direct_mode_is_the_ethernet_baseline():
    sim, browser, warden, distiller = build_browser("ethernet", 1.0, direct=True)
    assert distiller is None
    browser.start()
    sim.run(until=20.0)
    # Paper: 0.20 s on the private Ethernet.
    assert browser.stats.mean_seconds == pytest.approx(0.20, abs=0.06)


def test_distillation_saves_bytes():
    sim, browser, warden, distiller = build_browser(LOW_BANDWIDTH, 0.05)
    browser.start()
    sim.run(until=10.0)
    assert distiller.bytes_saved > 0
    assert distiller.images_distilled == warden.images_fetched


def test_goal_met_fraction_stat():
    sim, browser, _, _ = build_browser(HIGH_BANDWIDTH, 0.05)
    browser.start()
    sim.run(until=10.0)
    assert browser.stats.goal_met_fraction() == 1.0
