"""The representative evaluation sweep, as one flat unit list.

``benchmarks/test_bench_suite.py`` times this sweep to produce the
``suite_wall_seconds`` headline metric — the wall-clock cost of the
evaluation pipeline itself, the quantity parallel trial execution
exists to shrink.  The sweep samples every fast experiment family
(supply, demand, speech, web, video, adaptation, turbulence) across
waveforms and seeds; the 15-minute concurrent-scenario trials are
deliberately excluded because a single ~4 s unit would dominate the
parallel critical path and turn the benchmark into a measurement of one
trial rather than of the fan-out.
"""

from repro.parallel.runner import TrialUnit, run_units, trial_seeds

#: Waveforms the web cells sweep (a fast, contrasting pair).
_WEB_WAVEFORMS = ("step-up", "impulse-down")

#: Impulse widths the turbulence cells sweep (sharpest + reference).
_TURBULENCE_WIDTHS = (0.5, 2.0)


def sweep_units(trials=3, master_seed=0):
    """Build the sweep's trial units, in deterministic order."""
    from repro.experiments.supply import REFERENCE_WAVEFORMS

    adaptive = {"strategy": "adaptive"}
    cells = [("supply", {"waveform_name": waveform})
             for waveform in REFERENCE_WAVEFORMS]
    cells.append(("demand", {"utilization": 0.45}))
    cells.extend(("speech", {"waveform_name": waveform, **adaptive})
                 for waveform in REFERENCE_WAVEFORMS)
    cells.extend(("web", {"waveform_name": waveform, **adaptive})
                 for waveform in _WEB_WAVEFORMS)
    cells.append(("video", {"waveform_name": "step-up", **adaptive}))
    cells.append(("adaptation", {"waveform_name": "step-up"}))
    cells.extend(("turbulence", {"width": width})
                 for width in _TURBULENCE_WIDTHS)
    seeds = trial_seeds(trials, master_seed)
    return [TrialUnit(experiment, params, seed)
            for experiment, params in cells for seed in seeds]


def run_sweep(trials=3, master_seed=0, jobs=None, cache=None):
    """Execute the sweep; returns the flat result list (unit order)."""
    return run_units(sweep_units(trials, master_seed), jobs=jobs, cache=cache)
