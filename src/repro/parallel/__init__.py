"""Parallel trial execution with deterministic merge and a result cache.

Every figure in the paper is "the mean of five trials", each
independently seeded (§6.2); the full reproduction sweeps that across
waveforms, policies, and ablations.  This package makes that pipeline
scale with cores **without changing a single reported number**:

- :mod:`repro.parallel.runner` — the process-pool trial runner.  Units
  are ``(experiment, params, seed)``; results always come back in unit
  order, so any figure regenerated at ``--jobs 8`` is byte-identical to
  the serial run (the ``tests/test_sim_determinism.py`` goldens hold at
  every jobs count).
- :mod:`repro.parallel.cache` — the on-disk result cache
  (``.repro-cache/``), keyed by experiment + canonical params + seed +
  a fingerprint of every source file under ``src/repro``.  Unchanged
  experiments re-run as cache hits; touching any source file invalidates
  every entry it could have influenced.
- :mod:`repro.parallel.config` — process-wide ``jobs``/``cache``
  settings the CLI installs (scoped via :func:`~repro.parallel.config.overrides`)
  and the runner consults.
- :mod:`repro.parallel.sweep` — the representative evaluation sweep the
  ``suite_wall_seconds`` benchmark times.

See ``docs/architecture.md`` §12 for the determinism argument and the
cache key scheme.
"""

from repro.parallel.cache import (
    ResultCache,
    canonical_params,
    code_fingerprint,
    default_cache_dir,
)
from repro.parallel.config import (
    configure,
    current_cache,
    current_jobs,
    current_timeout,
    overrides,
    resolve_jobs,
    resolve_timeout,
)
from repro.parallel.runner import (
    CONFIGURED,
    TRIAL_FUNCTIONS,
    TrialUnit,
    register_trial_function,
    resolve_trial_function,
    run_grid,
    run_units,
    trial_seeds,
)
from repro.parallel.sweep import run_sweep, sweep_units

__all__ = [
    "ResultCache", "canonical_params", "code_fingerprint",
    "default_cache_dir",
    "configure", "current_cache", "current_jobs", "current_timeout",
    "overrides", "resolve_jobs", "resolve_timeout",
    "CONFIGURED", "TRIAL_FUNCTIONS", "TrialUnit",
    "register_trial_function", "resolve_trial_function",
    "run_grid", "run_units", "trial_seeds",
    "run_sweep", "sweep_units",
]
