"""The trial runner: fan independent trial units across CPU cores.

The paper's methodology (§6.2) makes every figure "the mean of five
trials", each independently seeded — an embarrassingly parallel workload
the experiment layer historically ran serially.  This module is the one
place that loop now lives:

- a :class:`TrialUnit` names one run — ``(experiment, params, seed)`` —
  where ``experiment`` keys :data:`TRIAL_FUNCTIONS` and ``seed`` is the
  trial's integer master seed (see :func:`trial_seeds`);
- :func:`run_units` executes a list of units, serially (``jobs=1``, the
  default) or across a process pool, and **always returns results in
  unit order** — completion order never leaks out, so every figure,
  table, and golden series fingerprint is byte-identical at any jobs
  count;
- an optional :class:`~repro.parallel.cache.ResultCache` short-circuits
  units whose results are already on disk.

Determinism rests on two properties the rest of the tree guarantees:
trials are hermetic (each builds its own simulator, network, and
:class:`~repro.sim.rng.RngRegistry` from the unit alone), and child
seeds derive from ``(master_seed, name)`` only — never from spawn order
(:meth:`RngRegistry.spawn_seed`), so workers can be handed bare ints.

Telemetry: with a live recorder and ``jobs > 1``, each worker runs its
unit under its own recorder and ships the event shard back; the parent
absorbs shards in unit order, labelling every event with the worker's
pid.  Cache lookups are bypassed while telemetry is enabled — an
observability run must actually execute to emit its events.
"""

import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field

from repro import telemetry
from repro.errors import ParallelError
from repro.parallel import config
from repro.sim.rng import RngRegistry

#: Registry of trial entry points, by experiment name.  Values are
#: ``"module:function"`` references so worker processes resolve the
#: callable by import instead of unpickling closures; every function
#: must accept its params as keywords plus ``seed=<int>`` and return a
#: **picklable** record (a plain dataclass or builtin, never a live
#: simulator object).
TRIAL_FUNCTIONS = {
    "supply": "repro.experiments.supply:run_supply_trial",
    "demand": "repro.experiments.demand:run_demand_trial",
    "adaptation": "repro.experiments.adaptation:run_adaptation_trial",
    "video": "repro.experiments.video:video_trial_outcome",
    "web": "repro.experiments.web:web_trial_outcome",
    "speech": "repro.experiments.speech:speech_trial_outcome",
    "concurrent": "repro.experiments.concurrent:concurrent_trial_outcome",
    "turbulence": "repro.experiments.turbulence:impulse_visibility",
    "robustness": "repro.experiments.robustness:run_robustness_trial",
    "disconnected": "repro.experiments.disconnected:run_disconnected_trial",
    "fleet": "repro.fleet.shard:run_fleet_shard",
}

#: Sentinel distinguishing "use the configured cache" from "no cache".
CONFIGURED = object()


@dataclass(frozen=True)
class TrialUnit:
    """One independent trial: everything a worker needs to reproduce it."""

    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def trial_seeds(trials, master_seed=0):
    """Per-trial master seeds, matching :func:`seeded_rngs` spawn order.

    ``RngRegistry(seed_i)`` for each returned ``seed_i`` is exactly the
    registry ``seeded_rngs(trials, master_seed)[i]`` would hand a serial
    loop, so routing a loop through the runner changes no number.
    """
    base = RngRegistry(master_seed)
    return [base.spawn_seed(f"trial-{i}") for i in range(trials)]


def register_trial_function(experiment, reference):
    """Add/replace a registry entry (``"module:function"``).  For tests
    and out-of-tree experiments; returns the previous reference."""
    previous = TRIAL_FUNCTIONS.get(experiment)
    TRIAL_FUNCTIONS[experiment] = reference
    return previous


def resolve_trial_function(experiment):
    """Import and return the registered trial callable for ``experiment``."""
    reference = TRIAL_FUNCTIONS.get(experiment)
    if reference is None:
        raise ParallelError(
            f"unknown experiment {experiment!r}; known: "
            f"{sorted(TRIAL_FUNCTIONS)}"
        )
    modname, _, fnname = reference.partition(":")
    try:
        module = importlib.import_module(modname)
        return getattr(module, fnname)
    except (ImportError, AttributeError) as exc:
        raise ParallelError(
            f"cannot resolve trial function {reference!r} for "
            f"{experiment!r}: {exc}"
        ) from exc


def _execute_payload(payload):
    """Worker entry point: run one unit, optionally capturing telemetry.

    Module-level (picklable by reference) and fed only plain data, so it
    works under both fork and spawn start methods.
    """
    experiment, params, seed, capture = payload
    fn = resolve_trial_function(experiment)
    if not capture:
        return fn(**params, seed=seed), None, os.getpid()
    with telemetry.enabled() as rec:
        value = fn(**params, seed=seed)
    return value, list(rec.trace.events()), os.getpid()


def _abort_pool(pool):
    """Tear down a pool whose worker is hung.

    ``shutdown(wait=True)`` (what the ``with`` block does) would join the
    stuck worker forever, so terminate the processes first; the joins then
    return immediately.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def run_units(units, jobs=None, cache=CONFIGURED, timeout=CONFIGURED):
    """Execute ``units``; return their results **in unit order**.

    ``jobs=None``, ``cache=CONFIGURED``, and ``timeout=CONFIGURED`` defer
    to the process-wide settings (:mod:`repro.parallel.config`); pass
    ``jobs=1`` / ``cache=None`` to force the serial, uncached path
    regardless.  Results from the pool are merged by submission index — a
    unit that finishes early never reorders anything.

    ``timeout`` is a per-unit wall-clock watchdog in seconds: a pooled
    unit whose result is not ready within ``timeout`` of the runner
    starting to wait on it gets its workers terminated and raises
    :class:`~repro.errors.ParallelError` naming the unit, so a hung
    chaos trial fails CI instead of stalling it.  The watchdog only
    applies on the pool path — a serial in-process trial cannot be
    preempted from within the same interpreter.
    """
    units = list(units)
    jobs = config.current_jobs() if jobs is None else config.resolve_jobs(jobs)
    cache = config.current_cache() if cache is CONFIGURED else cache
    timeout = config.current_timeout() if timeout is CONFIGURED \
        else config.resolve_timeout(timeout)
    rec = telemetry.RECORDER
    capture = rec.enabled
    if capture:
        # Observability runs must execute: a cache hit would silently
        # swallow the trial's event shard.
        cache = None

    results = [None] * len(units)
    if cache is not None:
        pending = []
        for index, unit in enumerate(units):
            hit, value = cache.get(unit.experiment, unit.params, unit.seed)
            if hit:
                results[index] = value
            else:
                pending.append(index)
    else:
        pending = list(range(len(units)))

    if jobs <= 1 or len(pending) <= 1:
        # Serial: run in-process, so telemetry (if any) flows straight
        # into the live recorder exactly as it always has.
        for index in pending:
            unit = units[index]
            fn = resolve_trial_function(unit.experiment)
            results[index] = fn(**unit.params, seed=unit.seed)
    else:
        payloads = [
            (units[i].experiment, dict(units[i].params), units[i].seed,
             capture)
            for i in pending
        ]
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = [pool.submit(_execute_payload, p) for p in payloads]
            # Deterministic merge: collect by submission order.  Shards
            # are absorbed in the same pass, so the merged event stream
            # is ordered by unit, then by each unit's own emission order.
            for index, future in zip(pending, futures):
                try:
                    value, events, worker = future.result(timeout=timeout)
                except _FutureTimeout:
                    _abort_pool(pool)
                    unit = units[index]
                    raise ParallelError(
                        f"trial unit {unit.experiment!r} (seed {unit.seed}, "
                        f"params {sorted(unit.params)}) exceeded the "
                        f"{timeout:g} s wall-clock watchdog"
                    ) from None
                if events:
                    rec.absorb(events, worker=worker)
                results[index] = value

    if cache is not None:
        for index in pending:
            unit = units[index]
            cache.put(unit.experiment, unit.params, unit.seed, results[index])
    return results


def run_grid(experiment, cells, trials, master_seed=0):
    """A figure's cell x trial fan-out; one result list per cell, in order.

    Each params dict in ``cells`` gets ``trials`` units seeded by
    :func:`trial_seeds`, and every unit of every cell goes to
    :func:`run_units` as **one** list, so ``--jobs`` spreads the whole
    grid over the pool rather than one cell at a time.
    """
    if trials < 1:
        raise ParallelError(f"trials must be at least 1, got {trials!r}")
    seeds = trial_seeds(trials, master_seed)
    results = run_units([TrialUnit(experiment, params, seed)
                         for params in cells for seed in seeds])
    return [results[i:i + trials] for i in range(0, len(results), trials)]
