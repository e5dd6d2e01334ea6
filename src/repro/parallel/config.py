"""Process-wide execution settings for the trial runner.

The experiment layer calls :func:`~repro.parallel.runner.run_units`
without threading ``jobs``/``cache`` arguments through every table and
figure entry point; instead the CLI (or a test) installs the settings
here and the runner consults them.  ``jobs`` is the worker-process count
(1 = serial, 0 = one per CPU core) and ``cache`` is a
:class:`~repro.parallel.cache.ResultCache` or ``None`` (caching off).

The CLI scopes its settings with :func:`overrides` so a command never
leaks configuration into the importing process — important for the test
suite, where one test drives the CLI and the next calls the experiment
layer directly.
"""

import math
import os
from contextlib import contextmanager

from repro.errors import ParallelError

_UNSET = object()

#: Serial by default: byte-identical to the historical single-core path,
#: and safe inside processes that cannot fork worker pools.
DEFAULT_JOBS = 1

_state = {"jobs": DEFAULT_JOBS, "cache": None, "timeout": None}


def resolve_jobs(jobs):
    """Normalize a jobs request: ``0`` (or negative) means one per core."""
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise ParallelError(f"jobs must be an integer, got {jobs!r}") from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def resolve_timeout(timeout):
    """Normalize a per-unit watchdog: ``None``/``0`` disable it.

    NaN and infinities are refused: a NaN deadline expires every unit at
    once, and an infinite one overflows the pool's wait.
    """
    if timeout is None:
        return None
    try:
        timeout = float(timeout)
    except (TypeError, ValueError):
        raise ParallelError(
            f"timeout must be a number of seconds, got {timeout!r}"
        ) from None
    if not 0 <= timeout < math.inf:
        raise ParallelError(
            f"timeout must be a finite number >= 0, got {timeout!r}"
        )
    return timeout or None


def configure(jobs=_UNSET, cache=_UNSET, timeout=_UNSET):
    """Install new process-wide settings (omitted fields keep their value)."""
    if jobs is not _UNSET:
        _state["jobs"] = resolve_jobs(jobs)
    if cache is not _UNSET:
        _state["cache"] = cache
    if timeout is not _UNSET:
        _state["timeout"] = resolve_timeout(timeout)


def current_jobs():
    """The configured worker-process count (always >= 1)."""
    return _state["jobs"]


def current_cache():
    """The configured result cache, or ``None`` when caching is off."""
    return _state["cache"]


def current_timeout():
    """The configured per-unit wall-clock watchdog in seconds, or ``None``."""
    return _state["timeout"]


@contextmanager
def overrides(jobs=_UNSET, cache=_UNSET, timeout=_UNSET):
    """Apply settings inside a ``with`` block, restoring the old ones after."""
    saved = dict(_state)
    try:
        configure(jobs=jobs, cache=cache, timeout=timeout)
        yield
    finally:
        _state.clear()
        _state.update(saved)
