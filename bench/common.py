"""Shared helpers: paths, the metric contract, order statistics, fingerprint."""

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
SPEC_PATH = REPO / "BENCHMARK.json"


def require_source_tree():
    """Put ``src/`` on the import path; exit 2 when the program is absent.

    The benchmark measures the repository it sits in.  Run from a
    directory that holds only the benchmark's own files it has nothing to
    measure, and says so instead of printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program to measure: {SRC}/repro is "
                         f"missing\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec():
    """The metric/workload contract, read from ``BENCHMARK.json``."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1]; 0.0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    """Median of ``values`` (0.0 if empty)."""
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


#: Share of a run's units that :func:`best` lets be better than its answer.
BEST_SHARE = 0.1


def best(values, better):
    """The value a tenth of ``values`` beat, in the ``better`` direction.

    A run is many units of work (trials, passes, pulls), each timed on
    its own.  The noise of a shared sandbox is one-sided — a busy
    neighbour only ever slows a unit down, in episodes that can outlast
    half a run — so a run's median moves with the neighbour, while its
    best decile stays with the program: the classic minimum-time estimate,
    a step in from the extreme (once a run has more than ten units) so a
    single lucky unit cannot set it.
    """
    if better == "lower":
        return percentile(values, BEST_SHARE)
    return -percentile([-value for value in values], BEST_SHARE)


def spread(values):
    """Inter-quartile distance as a share of the median (the contract's
    steadiness measure); ``None`` with fewer than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_average():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def machine_fingerprint(seed):
    """What a result file needs for its numbers to be comparable later."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "load_average_start": load_average(),
    }
