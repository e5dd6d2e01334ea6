"""Extension benchmark — end-to-end adaptation agility (§2.4).

Fig. 8 measures how fast the *estimate* moves; this measures how fast an
*application's fidelity* follows: the full detect → notify → respond
pipeline, using the adaptive video player's track switches.
"""

from conftest import run_once

from repro.experiments.adaptation import format_adaptation, run_adaptation


def test_adaptation_agility(benchmark, trials):
    results = run_once(benchmark, run_adaptation, trials=trials)
    print("\n" + format_adaptation(results))
    by_name = {result.waveform: result for result in results}

    for result in results:
        # The upcall precedes (or coincides with) the response.
        assert result.upcall_cell.mean <= result.switch_cell.mean + 1e-6
        # The whole pipeline completes within a few seconds of the step.
        assert result.switch_cell.mean < 6.0

    # Downward steps must be acted on promptly — that is where frames die
    # (paper: drops cluster at downward transitions).
    assert by_name["step-down"].switch_cell.mean < 4.0
    benchmark.extra_info["switch_latency"] = {
        result.waveform: result.switch_cell.mean for result in results
    }
