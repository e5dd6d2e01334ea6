"""Ablation B — the round-trip rise cap (paper §6.2.1).

"Noise in round trip estimates can severely impact bandwidth estimates; to
discount anomalous increases in round trip time, we cap the percentage rise
possible at each estimate."  Without the cap, round trips observed while the
connection's own transfers queue the link inflate R, Eq. 2's denominator
collapses, and bandwidth estimates spike far above the physical link.
"""

from conftest import run_once

from repro.core.api import OdysseyAPI
from repro.core.policies import OdysseyPolicy
from repro.core.viceroy import Viceroy
from repro.apps.video.movie import Movie, MovieStore
from repro.apps.video.player import VideoPlayer
from repro.apps.video.warden import build_video
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import LOW_BANDWIDTH, constant


def max_estimate_spike(rise_cap):
    """Play video at low bandwidth; return the largest total-bandwidth
    estimate produced (the truth is LOW_BANDWIDTH)."""
    sim = Simulator()
    network = Network(sim, constant(LOW_BANDWIDTH, duration=600))
    policy = OdysseyPolicy(
        estimator_kwargs={"rtt_rise_cap": rise_cap, "eq2_rtt": "smoothed"}
    )
    viceroy = Viceroy(sim, network, policy=policy)
    store = MovieStore()
    store.add(Movie("m", n_frames=400))
    build_video(sim, viceroy, network, store)
    api = OdysseyAPI(viceroy, "xanim")
    player = VideoPlayer(sim, api, "xanim", "/odyssey/video", "m",
                         policy="jpeg50")
    player.start()
    sim.run(until=40.0)
    history = viceroy.policy.total_history
    return max(v for _, v in history)


def test_ablation_rtt_rise_cap(benchmark):
    def sweep():
        return {
            "capped (0.10)": max_estimate_spike(0.10),
            "loose (0.50)": max_estimate_spike(0.50),
            "uncapped": max_estimate_spike(10.0),
        }

    spikes = run_once(benchmark, sweep)
    print("\nAblation B — RTT rise cap vs worst-case estimate spike "
          f"(truth: {LOW_BANDWIDTH} B/s)")
    for label, spike in spikes.items():
        print(f"  {label:14s}: max estimate {spike / 1024:8.1f} KB/s "
              f"({spike / LOW_BANDWIDTH:4.1f}x truth)")

    # Looser caps admit bigger anomalies; the paper's defense matters.
    assert spikes["capped (0.10)"] <= spikes["loose (0.50)"] * 1.05
    assert spikes["capped (0.10)"] <= spikes["uncapped"]
    assert spikes["capped (0.10)"] < LOW_BANDWIDTH * 2.2
    benchmark.extra_info["spikes"] = {k: v for k, v in spikes.items()}
