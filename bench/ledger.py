"""The layer ledger: one cProfile of a workload, folded by ``repro`` package.

Everything here looks at the program from outside: a profile of public
entry points is folded into per-package self time, and call counts of
named functions (exact for a seed in the simulator) become the work
counters.  cProfile charges every Python call and nothing inside native
code, so shares are a guide to where to look, never a timing to claim.
"""

import cProfile
import pstats
import time

from common import BENCH_DIR, SRC

#: Ledger rows.  ``python`` is the interpreter's own work (builtins,
#: stdlib, asyncio, numpy); ``other`` is the benchmark's own code plus any
#: ``repro`` package not named here (parallel, faults, chaos, ...).
LAYERS = ("sim", "trace", "net", "rpc", "estimation", "core", "apps",
          "fleet", "connectivity", "telemetry", "transport", "broker",
          "live", "experiments", "python", "other")

_REPRO = str(SRC / "repro") + "/"
_BENCH = str(BENCH_DIR) + "/"


def layer_of(filename):
    """The ledger row a profiled function's file belongs to."""
    if filename.startswith(_REPRO):
        package = filename[len(_REPRO):].split("/", 1)[0]
        return package if package in LAYERS else "other"
    if filename.startswith(_BENCH):
        return "other"
    return "python"


class Ledger:
    """A finished profile, queryable by layer and by function."""

    def __init__(self, profile, host_seconds):
        #: Wall time of the profiled section (tracing overhead included).
        self.host_seconds = host_seconds
        self._stats = pstats.Stats(profile).stats
        self.self_seconds = dict.fromkeys(LAYERS, 0.0)
        for (filename, _, _), (_, _, self_time, _, _) in self._stats.items():
            self.self_seconds[layer_of(filename)] += self_time
        self.total = sum(self.self_seconds.values())

    def share(self, layer):
        return self.self_seconds[layer] / self.total if self.total else 0.0

    def layer_metrics(self, overhead_ratio):
        """Self time per layer, and what the tracing itself cost (traced
        over untraced cost of the same work)."""
        metrics = {"tracing.overhead_ratio": overhead_ratio}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.self_seconds[layer]
            metrics[f"{layer}.self_share"] = self.share(layer)
        return metrics

    def _matching(self, module, function):
        suffix = f"/repro/{module}"
        for (filename, _, name), row in self._stats.items():
            if name == function and filename.endswith(suffix):
                yield row

    def ncalls(self, module, *functions):
        """Total calls of ``functions`` defined in ``repro/<module>``."""
        return sum(row[1] for function in functions
                   for row in self._matching(module, function))

    def cumulative(self, module, *functions):
        """Summed cumulative seconds of ``functions`` in ``repro/<module>``."""
        return sum(row[3] for function in functions
                   for row in self._matching(module, function))


def profiled(work, timer=time.perf_counter):
    """Run ``work()`` under cProfile; returns ``(result, Ledger)``.

    A timer-paced workload passes ``time.process_time``: on the wall clock
    its profile would be all selector wait, charged to no layer's work.
    """
    profile = cProfile.Profile(timer)
    started = time.perf_counter()
    profile.enable()
    try:
        result = work()
    finally:
        profile.disable()
    return result, Ledger(profile, time.perf_counter() - started)
