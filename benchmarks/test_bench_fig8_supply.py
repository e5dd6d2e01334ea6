"""Fig. 8 — agility of bandwidth estimation, varying supply."""

from conftest import run_once

from repro.experiments.report import format_supply_result
from repro.experiments.supply import REFERENCE_WAVEFORMS, run_all_supply
from repro.trace.waveforms import HIGH_BANDWIDTH, LOW_BANDWIDTH

#: The paper's qualitative results, used as sanity gates.
PAPER_STEP_DOWN_SETTLING = 2.0  # seconds


def test_fig8_supply_agility(benchmark, trials):
    results = run_once(benchmark, run_all_supply, trials=trials)
    print("\n")
    for name in REFERENCE_WAVEFORMS:
        print(format_supply_result(results[name]))

    step_up = results["step-up"]
    step_down = results["step-down"]
    # Paper: Step-Up detected "almost instantaneously".
    assert step_up.detection_cell.mean < 1.5
    # Paper: Step-Down settling time 2.0 s.
    assert step_down.settling_cell.mean < PAPER_STEP_DOWN_SETTLING * 2.5
    benchmark.extra_info["step_down_settling_s"] = step_down.settling_cell.mean
    benchmark.extra_info["step_up_detection_s"] = step_up.detection_cell.mean

    # Series sanity: estimates track the theoretical levels from below.
    for name, result in results.items():
        tail = [v for t, v in result.merged_series() if 50 <= t <= 58]
        assert tail
        target = HIGH_BANDWIDTH if name == "step-up" else (
            LOW_BANDWIDTH if name == "step-down" else None)
        if target is not None:
            mean_tail = sum(tail) / len(tail)
            assert 0.85 * target <= mean_tail <= 1.05 * target
