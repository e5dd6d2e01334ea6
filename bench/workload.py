"""The workload contract every benchmark workload implements.

A workload is driven through five steps by ``worker.py``:

``setup``    build inputs from the seed, start servers, discard a warm-up
``measure``  the timed section (tracing off): closed loop for N seconds
``trace``    instead of ``measure`` on a traced run: fixed work, once
             plain and once under cProfile, folded into per-layer metrics
             (it runs whichever of the checks its shorter work supports)
``check``    correctness of what the timed section produced
``teardown`` stop everything that was started

Failures never abort a run: every operation goes through :meth:`attempt`
(or the async twin in ``live_workloads``), so a raised trial is a counted
failure and a recorded problem, and the run still reports.
"""

import contextlib
import time
import traceback


def stopwatch():
    """Host and CPU clock readings; :func:`lap` gives seconds since."""
    return time.perf_counter(), time.process_time()


def lap(mark):
    """``(host seconds, CPU seconds)`` since ``mark = stopwatch()``."""
    return time.perf_counter() - mark[0], time.process_time() - mark[1]


class Workload:
    name = None

    def __init__(self, seed, scale):
        self.seed = seed
        #: 1.0 for a full run; ``--smoke`` shrinks inputs with 0.1.
        self.scale = scale
        self.samples = {}  # name -> list of timing samples
        self.exact = {}  # simulated statistics, exact for the seed
        self.layer = {}  # per-layer metrics (traced run)
        self.info = {}  # free-form context carried into the result file
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._timed_from = None

    # -- steps (overridden) ----------------------------------------------------

    def setup(self):
        raise NotImplementedError

    def measure(self, seconds):
        raise NotImplementedError

    def trace(self, seconds):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError

    def teardown(self):
        """Stop what :meth:`setup` started (nothing, for the simulator)."""

    def end_to_end(self):
        """The workload's own end-to-end metrics (name -> value)."""
        raise NotImplementedError

    # -- bookkeeping -----------------------------------------------------------

    def problem(self, text):
        self.problems.append(text)

    def attempt(self, function, *args):
        """Run one operation; a raise is a counted failure, not a crash."""
        self.attempted += 1
        try:
            return function(*args)
        except Exception:  # noqa: BLE001 - the benchmark must keep reporting
            self.failed += 1
            self.problem(f"{function.__name__}{args!r} raised:\n"
                         f"{traceback.format_exc(limit=4)}")
            return None

    @contextlib.contextmanager
    def timed(self):
        """The timed section: wall and CPU time land on the workload."""
        self._timed_from = time.perf_counter()
        cpu_from = time.process_time()
        try:
            yield
        finally:
            self.wall_seconds += time.perf_counter() - self._timed_from
            self.cpu_seconds += time.process_time() - cpu_from

    def elapsed(self):
        return time.perf_counter() - self._timed_from

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)
