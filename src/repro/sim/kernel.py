"""The simulator event loop.

A :class:`Simulator` owns virtual time and a calendar queue of triggered
events (:mod:`repro.sim.calqueue`).  ``run()`` pops events in (time,
sequence) order and processes them; processing an event resumes any
processes waiting on it.

Each hot path exists once: :meth:`CalendarQueue.push` is the only code
that files an event, :meth:`Simulator.timeout` and
:meth:`Simulator.schedule` are the only callers of it (every event passes
through exactly one of them), ``Timeout.__init__`` is the only body that
writes a timeout's slots, and ``run()`` has one drain loop that calls each
event's own ``_process``.  Scheduled calls carry their callback in slots
instead of allocating a closure per call.
"""

from repro.errors import SimulationError
from repro.sim.calqueue import CalendarQueue
from repro.sim.events import _PROCESSED, Event, Timeout
from repro.sim.process import Process

_INF = float("inf")


class _ScheduledCall(Timeout):
    """A timeout that invokes ``fn(*args)`` when it fires.

    Backing for :meth:`Simulator.call_at`: the callback rides in slots on
    the event itself, so scheduling a call allocates no closure and no
    callback-list entry — one object per call, total.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim, delay, fn, args):
        Timeout.__init__(self, sim, delay)  # no super object per call
        self._fn = fn
        self._args = args

    def _process(self):
        callbacks = self.callbacks
        self.callbacks = _PROCESSED
        self._fn(*self._args)
        if callbacks is not None:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"
    """

    __slots__ = ("_now", "_queue")

    def __init__(self):
        self._now = 0.0
        self._queue = CalendarQueue()

    @property
    def now(self):
        """Current virtual time in seconds."""
        return self._now

    # -- event construction ------------------------------------------------

    def event(self, name=None):
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that fires ``delay`` seconds from now.

        Pushes directly rather than through :meth:`schedule`: every event
        passes through exactly one of the two, so a profile's call counts
        of them count events.
        """
        if not 0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        event = Timeout(self, delay, value)
        self._queue.push(self._now + delay, event)
        return event

    def process(self, generator, name=None):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------

    def schedule(self, event, delay=0.0):
        """Queue a triggered ``event`` to be processed ``delay`` seconds on.

        The entry point for every triggered event that is not a
        :meth:`timeout`: ``succeed``, ``fail`` and scheduled calls.
        """
        if not 0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        self._queue.push(self._now + delay, event)

    def call_at(self, when, callback, *args):
        """Run ``callback(*args)`` at absolute time ``when``.

        Returns the underlying event; triggering machinery is reused so the
        call is ordered deterministically with other events at ``when``.
        """
        delay = when - self._now
        event = _ScheduledCall(self, delay, callback, args)
        self.schedule(event, delay)
        return event

    def call_in(self, delay, callback, *args):
        """Run ``callback(*args)`` after ``delay`` seconds."""
        return self.call_at(self._now + delay, callback, *args)

    # -- execution ---------------------------------------------------------

    def peek(self):
        """Time of the next event, or ``None`` if the queue is empty."""
        head = self._queue.peek()
        return None if head is None else head[0]

    def step(self):
        """Process exactly one event.

        Raises :class:`SimulationError` if the queue is empty.
        """
        self._now, event = self._queue.pop()
        event._process()

    def run(self, until=None):
        """Run until the queue drains, or until time/event ``until``.

        ``until`` may be:

        - ``None`` — run to exhaustion, leaving ``now`` at the last event;
        - a finite number ``>= now`` — advance to exactly that time (events
          at later times stay queued and ``now`` is left equal to
          ``until``);
        - an :class:`Event` — run until that event has been processed, and
          return its value.

        The loop drains the calendar queue's current bucket in place
        (``queue._enter`` hands back the bucket, sorted on negated keys so
        the earliest event is last): ``bucket.pop()`` is one O(1) C call,
        zero-delay events scheduled by callbacks insort into the live
        bucket, and — because the queue's ``_count`` excludes the cursor's
        bucket — no counter is touched per event, so a propagating
        callback exception leaves the queue exactly consistent.
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = _INF if until is None else float(until)
        if until is not None and not self._now <= deadline < _INF:
            raise SimulationError(
                f"run(until={until!r}) needs a finite time >= now ({self._now!r})")
        neg_deadline = -deadline
        enter = self._queue._enter
        while (bucket := enter()) is not None:
            pop = bucket.pop
            while bucket:
                item = pop()
                if item[0] < neg_deadline:
                    bucket.append(item)  # past the deadline: back on the tail
                    break
                self._now = item[3]
                item[2]._process()
            if bucket:
                break
        if until is not None:
            self._now = deadline
        return None

    def _run_until_event(self, event):
        done = []
        event.add_callback(done.append)
        pop = self._queue.pop
        while not done:
            try:
                self._now, popped = pop()
            except SimulationError:
                raise SimulationError(
                    f"queue drained before {event!r} was processed") from None
            popped._process()
        if not event.ok:
            event.defuse()
            raise event.value
        return event.value
