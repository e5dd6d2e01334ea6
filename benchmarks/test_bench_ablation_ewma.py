"""Ablation A — how the Eq. 1 measurement weight shapes agility.

The paper prints Eq. 1 ambiguously; we read α (0.875 for throughput) as the
weight on the *measurement*.  This ablation shows why: with the weight on
the old estimate instead (gain 0.125), Step-Down settling blows out by an
order of magnitude, far from the paper's 2.0 s.
"""

from conftest import run_once

from repro.apps.bitstream import build_bitstream
from repro.core.policies import OdysseyPolicy
from repro.core.viceroy import Viceroy
from repro.estimation.agility import settling_time
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import LOW_BANDWIDTH, step_down

GAINS = (0.125, 0.5, 0.875, 1.0)


def settle_with_gain(gain):
    sim = Simulator()
    trace = step_down().shifted(30.0)
    network = Network(sim, trace)
    viceroy = Viceroy(sim, network, policy=OdysseyPolicy(gain=gain))
    app, warden, server = build_bitstream(sim, viceroy, network)
    app.start()
    sim.run(until=90.0)
    series = [(t - 30.0, v) for t, v in viceroy.policy.total_history]
    return settling_time(series, 30.0, LOW_BANDWIDTH, tolerance=0.10,
                         horizon=59.0)


def test_ablation_ewma_gain(benchmark):
    def sweep():
        return {gain: settle_with_gain(gain) for gain in GAINS}

    settling = run_once(benchmark, sweep)
    print("\nAblation A — Eq. 1 measurement weight vs Step-Down settling")
    for gain, seconds in settling.items():
        note = "  <- paper's constant" if gain == 0.875 else ""
        print(f"  gain {gain:5.3f}: settling {seconds:6.2f} s{note}")

    # Settling improves monotonically with measurement weight.
    assert settling[0.125] > settling[0.5] >= settling[0.875] * 0.9
    # The paper's 0.875 is consistent with its reported 2.0 s...
    assert settling[0.875] < 4.0
    # ...while the inverted reading is nowhere near it.
    assert settling[0.125] > 8.0
    benchmark.extra_info["settling_by_gain"] = {
        str(k): v for k, v in settling.items()
    }
