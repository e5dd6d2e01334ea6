"""Recorders: the one object instrumented code talks to.

Hot paths follow one idiom::

    from repro import telemetry
    ...
    rec = telemetry.RECORDER
    if rec.enabled:
        rec.count("rpc.calls", connection=cid)

With telemetry disabled (the default) ``RECORDER`` is the module-level
:data:`NULL_RECORDER`, so the cost on a hot path is a module-attribute load
and one attribute check — no label formatting, no allocation, nothing.
:class:`NullRecorder` still implements the full interface (every method a
no-op) so un-guarded call sites stay correct, just a call slower.

With telemetry *enabled*, :class:`TelemetryRecorder` writes each record
straight into its :class:`~repro.telemetry.registry.MetricsRegistry` or
:class:`~repro.telemetry.trace.EventTrace` at call time, so both always
hold every record made so far, in call order.
"""

from contextlib import contextmanager

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import DEFAULT_TRACE_CAPACITY, EventTrace


class NullRecorder:
    """The disabled mode: absorbs everything, records nothing."""

    enabled = False

    def bind_clock(self, clock):
        pass

    def count(self, name, amount=1.0, **labels):
        pass

    def gauge(self, name, value, **labels):
        pass

    def observe(self, name, value, buckets=None, **labels):
        pass

    def event(self, name, **fields):
        pass

    def sample(self, name, t, value, **fields):
        pass

    def sample_series(self, name, series, **fields):
        pass

    def absorb(self, events, worker=None):
        return 0

    def begin(self, name, parent=None, **fields):
        return None

    def end(self, span_id, **fields):
        pass

    @contextmanager
    def span(self, name, parent=None, **fields):
        yield None


#: The process-wide disabled recorder (shared; it holds no state).
NULL_RECORDER = NullRecorder()


class TelemetryRecorder:
    """A live recorder: metrics registry + event trace on one clock.

    ``clock`` is a zero-arg callable returning the current sim time.  A
    recorder usually outlives the simulator it observes (the CLI enables
    telemetry, then experiments build worlds), so :meth:`bind_clock` lets
    each new world point the recorder at its own clock —
    :class:`~repro.experiments.harness.ExperimentWorld` does this
    automatically when telemetry is enabled.
    """

    enabled = True

    def __init__(self, clock=None, trace_capacity=DEFAULT_TRACE_CAPACITY):
        self._clock = clock or (lambda: 0.0)
        self.registry = MetricsRegistry()
        self.trace = EventTrace(self.now, capacity=trace_capacity)

    def now(self):
        """Current time as the bound clock tells it."""
        return self._clock()

    def bind_clock(self, clock):
        """Point this recorder at a (new) time source.

        Records already made keep their timestamps.
        """
        self._clock = clock

    # -- metrics ---------------------------------------------------------------

    def count(self, name, amount=1.0, **labels):
        self.registry.counter(name, **labels).inc(amount)

    def gauge(self, name, value, **labels):
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name, value, buckets=None, **labels):
        self.registry.histogram(name, buckets=buckets, **labels).observe(value)

    # -- trace -----------------------------------------------------------------

    def event(self, name, **fields):
        self.trace.point(name, **fields)

    def sample(self, name, t, value, **fields):
        self.trace.sample(name, t, value, **fields)

    def sample_series(self, name, series, **fields):
        """Record a whole (time, value) series through the trace."""
        for t, value in series:
            self.sample(name, t, value, **fields)

    def absorb(self, events, worker=None):
        """Merge a worker's event shard into this recorder's trace.

        ``worker`` (typically the worker process's pid) is stamped onto
        every absorbed event as a top-level ``"worker"`` key so a merged
        ``--events-out`` stream records which process ran each trial.
        Shard order is preserved; returns the number of events absorbed.
        """
        if worker is None:
            return self.trace.extend(events)
        return self.trace.extend(
            {**event, "worker": worker} for event in events
        )

    def begin(self, name, parent=None, **fields):
        return self.trace.begin(name, parent=parent, **fields)

    def end(self, span_id, **fields):
        self.trace.end(span_id, **fields)

    @contextmanager
    def span(self, name, parent=None, **fields):
        """Context-managed span (for code where sim time may advance inside)."""
        span_id = self.trace.begin(name, parent=parent, **fields)
        try:
            yield span_id
        finally:
            self.trace.end(span_id)
