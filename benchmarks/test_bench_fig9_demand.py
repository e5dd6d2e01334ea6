"""Fig. 9 — agility of bandwidth estimation, varying demand."""

from conftest import run_once

from repro.experiments.demand import UTILIZATIONS, run_all_demand
from repro.experiments.report import format_demand_result
from repro.trace.waveforms import HIGH_BANDWIDTH


def test_fig9_demand_agility(benchmark, trials):
    results = run_once(benchmark, run_all_demand, trials=trials)
    print("\n")
    for utilization in UTILIZATIONS:
        print(format_demand_result(results[utilization]))

    # Paper: the second stream settles in every case; the full-utilization
    # transient is the most pronounced (~5 s).
    for utilization, result in results.items():
        assert result.settling_cell.mean < 15.0
    assert (results[1.00].settling_cell.mean
            >= results[0.10].settling_cell.mean * 0.8)

    # The total estimate stays near the link capacity once both settle.
    for result in results.values():
        for trial in result.trials:
            tail = [v for t, v in trial.total_series if 50 <= t <= 58]
            mean_tail = sum(tail) / len(tail)
            assert 0.80 * HIGH_BANDWIDTH <= mean_tail <= 1.10 * HIGH_BANDWIDTH
    benchmark.extra_info["settling_full_util_s"] = results[1.00].settling_cell.mean
