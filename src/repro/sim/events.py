"""Events: one-shot occurrences that simulated processes wait on.

An :class:`Event` has a three-stage life cycle:

1. *pending* — created, not yet triggered; callbacks may be added.
2. *triggered* — given a value (or an exception) and queued on the simulator.
3. *processed* — the simulator has popped it and run its callbacks.

Composite events (:class:`AnyOf`, :class:`AllOf`) let a process wait for the
first or for all of several events, which the RPC layer uses for timeouts.

Callback storage is tri-state to keep the per-event cost at zero
allocations for the two commonest shapes: ``None`` (no callbacks yet), a
bare callable (exactly one — every process switch), or a list (several).
:data:`_PROCESSED` replaces the stored callbacks once the simulator has
run them; a callback added after that point runs immediately.
"""

from repro.errors import SimulationError

_PENDING = object()

#: Sentinel stored in ``Event.callbacks`` once the event has been
#: processed.  Distinct from ``None`` (= pending with no callbacks yet).
_PROCESSED = object()


class Event:
    """A one-shot event owned by a :class:`~repro.sim.kernel.Simulator`.

    Parameters
    ----------
    sim:
        The owning simulator.  Triggering the event enqueues it there.
    name:
        Optional label used in ``repr`` for debugging.

    Events are the kernel's unit of allocation — every timeout, process
    switch, and queue operation creates at least one — so the class is
    slotted and its hot subclasses keep construction allocation-free
    beyond the instance itself.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim, name=None):
        self.sim = sim
        self.name = name
        self.callbacks = None
        self._value = _PENDING
        self._ok = None
        self._defused = False

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.6f}>"

    @property
    def triggered(self):
        """True once the event has been given a value or an exception."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once callbacks have run (the simulator popped the event)."""
        return self.callbacks is _PROCESSED

    @property
    def ok(self):
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self):
        """The value the event succeeded with, or the exception it failed with."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    def succeed(self, value=None, delay=0.0):
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        # Scheduling first validates ``delay``: a rejected delay leaves the
        # event pending.  Nothing is processed before the fields are set.
        self.sim.schedule(self, delay)
        self._ok = True
        self._value = value
        return self

    def fail(self, exception, delay=0.0):
        """Trigger the event with an exception.

        Waiting processes see the exception raised at their ``yield``.  If no
        process is waiting when the event is processed, the exception
        propagates out of :meth:`Simulator.run` — errors never pass silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self.sim.schedule(self, delay)  # validates first, as in succeed
        self._ok = False
        self._value = exception
        return self

    def defuse(self):
        """Mark a failed event as handled so the kernel will not re-raise it."""
        self._defused = True

    def add_callback(self, callback):
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately; this makes late waiters safe.
        """
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif callbacks is _PROCESSED:
            callback(self)
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

    def _process(self):
        """Run callbacks.  Called exactly once, by the simulator."""
        callbacks = self.callbacks
        self.callbacks = _PROCESSED
        if callbacks is not None:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        if not self._ok and not self._defused:
            raise self._value


class Timeout(Event):
    """An event that fires ``delay`` seconds after it is scheduled.

    Processes obtain these via :meth:`Simulator.timeout`, which validates
    ``delay``, builds the event through this constructor and queues it;
    yielding one suspends the process for the given duration.

    This is the hottest allocation site in the kernel, so the constructor
    writes only the slots a live timeout can be asked for: a timeout is
    born triggered (``_ok`` true), never consults ``_defused`` (its
    ``_process`` cannot raise), and derives its label lazily in ``repr``.
    It schedules nothing.
    """

    __slots__ = ("delay",)

    #: Shadows the (never-written) ``name`` slot so generic code that
    #: labels events keeps working on timeouts.
    name = property(lambda self: None)

    def __init__(self, sim, delay, value=None):
        self.sim = sim
        self.delay = delay
        self.callbacks = None
        self._value = value
        self._ok = True

    def __repr__(self):
        state = "processed" if self.callbacks is _PROCESSED else "ok"
        return f"<Timeout({self.delay:g}) {state} at t={self.sim.now:.6f}>"

    def _process(self):
        # A timeout cannot fail, so the failure re-raise check is dropped.
        callbacks = self.callbacks
        self.callbacks = _PROCESSED
        if callbacks is not None:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_unfired")

    def __init__(self, sim, events):
        super().__init__(sim, name=self.__class__.__name__)
        self.events = list(events)
        self._unfired = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _results(self):
        return {e: e.value for e in self.events if e.triggered and e.processed}

    def _on_child(self, event):
        if self.triggered:
            if not event.ok:
                # A sibling already completed the condition; swallow the
                # failure so it does not crash the run unseen.
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._unfired -= 1
        self._child_fired()

    def _child_fired(self):
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds when the first of ``events`` succeeds.

    The value is a dict mapping each already-processed event to its value
    (normally a single entry).  Fails if any child fails first.
    """

    __slots__ = ()

    def _child_fired(self):
        self.succeed(self._results())


class AllOf(_Condition):
    """Succeeds when all ``events`` have succeeded.

    The value is a dict mapping every event to its value.  Fails as soon as
    any child fails.
    """

    __slots__ = ()

    def _child_fired(self):
        if self._unfired == 0:
            self.succeed(self._results())
