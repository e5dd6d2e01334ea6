"""Processes: generator coroutines driven by the simulator.

A process wraps a generator.  The generator ``yield``\\ s events; each yield
suspends the process until the event is processed, at which point the event's
value is sent back in (or its exception thrown in).  A process is itself an
:class:`~repro.sim.events.Event` that fires when the generator returns, so
processes can wait on each other.
"""

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.events import _PENDING, Event


class Process(Event):
    """A running simulated activity.

    Do not instantiate directly; use :meth:`Simulator.process`.

    The generator may yield:

    - any :class:`Event` (including :class:`Timeout` and other processes);
    - ``None``, as shorthand for "yield to the scheduler, resume immediately".

    The process event succeeds with the generator's return value, or fails
    with any exception that escapes the generator.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim, generator, name=None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on = None
        # Kick off on the next scheduler tick so construction order does not
        # matter within a time step.  A zero-delay timeout is born triggered,
        # so this allocates one slotted object and draws one sequence number
        # — and servers spawn a process per request, so this runs per-RPC.
        start = sim.timeout(0.0)
        self._waiting_on = start
        start.add_callback(self._resume)

    @property
    def alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Raise :class:`ProcessInterrupt` inside the process.

        The interrupt is delivered asynchronously (on the next scheduler
        tick) at whatever ``yield`` the process is suspended on.  The event
        being waited on is abandoned — if it later fires, its value is
        discarded.  Interrupting a finished process is an error.
        """
        if not self.alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")
        poke = Event(self.sim, name="interrupt")

        def deliver(_):
            if not self.alive:
                return  # finished in the interim; nothing to interrupt
            self._waiting_on = None
            self._step(throw=ProcessInterrupt(cause))

        poke.add_callback(deliver)
        poke.succeed()

    # -- internal ------------------------------------------------------------

    def _resume(self, event):
        # Direct slot reads instead of the alive/ok/value properties: this
        # runs once per process switch, the kernel's commonest operation.
        if self._waiting_on is not event or self._value is not _PENDING:
            # Wake-up from an event abandoned by an interrupt, or delivered
            # after the process finished.  Swallow failures: the process was
            # nominally responsible for this event.
            if event is not self and not event._ok:
                event.defuse()
            return
        self._waiting_on = None
        if event._ok:
            self._step(send=event._value)
        else:
            event.defuse()
            self._step(throw=event._value)

    def _step(self, send=None, throw=None):
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            self.fail(exc)
            return
        if target is None:
            # "Yield to the scheduler": a zero-delay timeout, the cheapest
            # born-triggered event.
            target = self.sim.timeout(0.0)
        if not isinstance(target, Event):
            self._step(throw=SimulationError(f"process yielded non-event {target!r}"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)
