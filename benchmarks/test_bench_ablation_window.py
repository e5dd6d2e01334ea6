"""Ablation C — bulk-transfer window size vs Step-Down settling.

The paper explains its 2.0 s Step-Down settling: "we generate a throughput
estimate only at the end of a window of data.  If bandwidth falls abruptly
while a large window of data is being transmitted, the drop is not recorded
until the last packet of the window arrives."  Larger windows therefore
settle slower.
"""

from conftest import run_once

from repro.apps.bitstream import build_bitstream
from repro.core.viceroy import Viceroy
from repro.estimation.agility import settling_time
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import LOW_BANDWIDTH, step_down

WINDOW_SIZES = (8 * 1024, 32 * 1024, 128 * 1024)


def settle_with_window(window_bytes):
    sim = Simulator()
    trace = step_down().shifted(30.0)
    network = Network(sim, trace)
    viceroy = Viceroy(sim, network)
    app, warden, server = build_bitstream(
        sim, viceroy, network,
        chunk_bytes=max(window_bytes * 2, 64 * 1024),
        window_bytes=window_bytes,
    )
    app.start()
    sim.run(until=90.0)
    series = [(t - 30.0, v) for t, v in viceroy.policy.total_history]
    return settling_time(series, 30.0, LOW_BANDWIDTH, tolerance=0.10,
                         horizon=59.0)


def test_ablation_window_size(benchmark):
    def sweep():
        return {w: settle_with_window(w) for w in WINDOW_SIZES}

    settling = run_once(benchmark, sweep)
    print("\nAblation C — transfer window size vs Step-Down settling")
    for window, seconds in settling.items():
        note = "  <- default (paper-scale)" if window == 32 * 1024 else ""
        print(f"  {window // 1024:4d} KiB window: settling {seconds:5.2f} s{note}")

    # Bigger windows mean later throughput entries and slower settling.
    assert settling[8 * 1024] <= settling[32 * 1024] * 1.2
    assert settling[32 * 1024] < settling[128 * 1024]
    # The default window reproduces the paper's ~2 s figure.
    assert settling[32 * 1024] < 4.0
    benchmark.extra_info["settling_by_window"] = {
        str(k): v for k, v in settling.items()
    }
