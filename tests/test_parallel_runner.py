"""The parallel trial runner: deterministic merge at any jobs count."""

import math
import time

import pytest

from repro import telemetry
from repro.errors import ParallelError
from repro.experiments.harness import seeded_rngs
from repro.parallel import (
    ResultCache,
    TrialUnit,
    overrides,
    register_trial_function,
    resolve_trial_function,
    run_grid,
    run_units,
    sweep_units,
    trial_seeds,
)
from repro.sim.rng import RngRegistry

from test_sim_determinism import (
    GOLDEN_FIG8_STEP_DOWN_SEED1,
    GOLDEN_FIG8_STEP_UP_SEED0,
    fingerprint,
)


def _echo(tag, delay=0.0, seed=0):
    """Registered test trial: sleeps, then returns its identity."""
    if delay:
        time.sleep(delay)
    return (tag, seed)


@pytest.fixture
def echo_experiment():
    previous = register_trial_function("echo", f"{__name__}:_echo")
    yield "echo"
    if previous is None:
        from repro.parallel.runner import TRIAL_FUNCTIONS

        TRIAL_FUNCTIONS.pop("echo", None)
    else:
        register_trial_function("echo", previous)


def test_trial_seeds_reproduce_seeded_rngs():
    """A bare trial seed rebuilds exactly the registry the serial loop got."""
    registries = seeded_rngs(4, master_seed=9)
    seeds = trial_seeds(4, master_seed=9)
    for registry, seed in zip(registries, seeds):
        rebuilt = RngRegistry(seed)
        assert [rebuilt.stream("x").random() for _ in range(3)] \
            == [registry.stream("x").random() for _ in range(3)]


def test_unknown_experiment_raises():
    with pytest.raises(ParallelError, match="unknown experiment"):
        resolve_trial_function("no-such-experiment")


def test_unresolvable_reference_raises(echo_experiment):
    register_trial_function("echo", "repro.experiments.supply:not_a_function")
    with pytest.raises(ParallelError, match="cannot resolve"):
        resolve_trial_function("echo")


def test_run_grid_splits_results_per_cell(echo_experiment):
    seeds = trial_seeds(3, master_seed=5)
    with overrides(jobs=1):
        grid = run_grid("echo", [{"tag": "a"}, {"tag": "b"}], 3,
                        master_seed=5)
    assert grid == [[("a", seed) for seed in seeds],
                    [("b", seed) for seed in seeds]]
    with pytest.raises(ParallelError, match="trials"):
        run_grid("echo", [{"tag": "a"}], 0)


def test_results_come_back_in_unit_order(echo_experiment):
    """A slow first unit must not let later units overtake it."""
    units = [TrialUnit("echo", {"tag": 0, "delay": 0.2}, 0),
             TrialUnit("echo", {"tag": 1}, 1),
             TrialUnit("echo", {"tag": 2}, 2)]
    results = run_units(units, jobs=2, cache=None)
    assert results == [(0, 0), (1, 1), (2, 2)]


def test_run_grid_serial_and_parallel_agree(echo_experiment):
    cells = [{"tag": "a"}, {"tag": "b"}]
    with overrides(jobs=1):
        serial = run_grid("echo", cells, 3, master_seed=5)
    with overrides(jobs=3):
        parallel = run_grid("echo", cells, 3, master_seed=5)
    assert serial == parallel
    assert [seed for _, seed in serial[1]] == trial_seeds(3, master_seed=5)


def test_jobs_config_default_applies(echo_experiment):
    with overrides(jobs=2):
        results = run_units([TrialUnit("echo", {"tag": i}, i)
                             for i in range(3)], cache=None)
    assert results == [(0, 0), (1, 1), (2, 2)]


def test_parallel_fig8_matches_golden_fingerprints():
    """The tentpole guarantee: jobs > 1 is byte-identical to serial."""
    units = [TrialUnit("supply", {"waveform_name": "step-up"}, 0),
             TrialUnit("supply", {"waveform_name": "step-down"}, 1)]
    step_up, step_down = run_units(units, jobs=2, cache=None)
    assert fingerprint(step_up.series) == GOLDEN_FIG8_STEP_UP_SEED0
    assert fingerprint(step_down.series) == GOLDEN_FIG8_STEP_DOWN_SEED1


def test_telemetry_shards_merge_in_unit_order():
    """Worker event shards land labelled, in unit order, uninterleaved."""
    units = [TrialUnit("supply", {"waveform_name": "step-up"}, 0),
             TrialUnit("supply", {"waveform_name": "step-down"}, 1)]
    with telemetry.enabled() as rec:
        run_units(units, jobs=2, cache=None)
    events = list(rec.trace.events())
    assert events
    assert all("worker" in event for event in events)
    waveforms = [event["fields"]["waveform"] for event in events
                 if event["fields"].get("waveform")]
    boundary = waveforms.index("step-down")
    assert set(waveforms[:boundary]) == {"step-up"}
    assert set(waveforms[boundary:]) == {"step-down"}
    # Less the worker labels, the merged stream is the serial one: the
    # same events in the same order, spans numbered the same.
    with telemetry.enabled() as serial:
        run_units(units, jobs=1, cache=None)
    assert [{k: v for k, v in event.items() if k != "worker"}
            for event in events] == list(serial.trace.events())


def test_telemetry_bypasses_cache(tmp_path, echo_experiment):
    """An observability run must execute, not answer from disk."""
    cache = ResultCache(root=tmp_path, fingerprint="f")
    unit = TrialUnit("echo", {"tag": "t"}, 0)
    run_units([unit], jobs=1, cache=cache)  # warm the cache
    assert cache.stats()["entries"] == 1
    with telemetry.enabled():
        run_units([unit], jobs=1, cache=cache)
    assert cache.hits == 0  # the warm entry was never consulted


def test_watchdog_aborts_hung_unit(echo_experiment):
    """A unit exceeding the wall-clock watchdog raises, naming the unit."""
    units = [TrialUnit("echo", {"tag": "fast"}, 0),
             TrialUnit("echo", {"tag": "slow", "delay": 30.0}, 7)]
    with pytest.raises(ParallelError, match=r"'echo' \(seed 7.*watchdog"):
        run_units(units, jobs=2, cache=None, timeout=0.5)


def test_watchdog_passes_fast_units(echo_experiment):
    units = [TrialUnit("echo", {"tag": i}, i) for i in range(3)]
    assert run_units(units, jobs=2, cache=None, timeout=30.0) \
        == [(0, 0), (1, 1), (2, 2)]


def test_watchdog_config_default_applies(echo_experiment):
    units = [TrialUnit("echo", {"tag": 0}, 0),
             TrialUnit("echo", {"tag": 1, "delay": 30.0}, 1)]
    with overrides(jobs=2, timeout=0.5):
        with pytest.raises(ParallelError, match="watchdog"):
            run_units(units, cache=None)


def test_watchdog_rejects_bad_timeout():
    from repro.parallel import resolve_timeout

    for bad in (-1.0, "soon", math.nan, math.inf, -math.inf, "nan"):
        with pytest.raises(ParallelError):
            resolve_timeout(bad)
    assert resolve_timeout(None) is None
    assert resolve_timeout(0) is None  # 0 disables, like --jobs 0 = all cores
    assert resolve_timeout(2.5) == 2.5


def test_sweep_units_are_well_formed():
    units = sweep_units(trials=2)
    assert all(isinstance(unit, TrialUnit) for unit in units)
    experiments = {unit.experiment for unit in units}
    assert {"supply", "demand", "video", "web", "speech",
            "adaptation", "turbulence"} <= experiments
    # concurrent is deliberately excluded: one 15-minute trial would
    # dominate the parallel critical path of the timed sweep.
    assert "concurrent" not in experiments
