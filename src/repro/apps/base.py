"""Shared application scaffolding."""

from repro.core.adaptive import CANCEL
from repro.core.resources import Resource
from repro.errors import RequestNotFound, ToleranceError


class Application:
    """Base class for Odyssey applications.

    Subclasses implement :meth:`run` as a generator; :meth:`start` spawns
    it as a simulated process.  ``self.api`` is the application's
    :class:`~repro.core.api.OdysseyAPI`.

    An adaptive application sets ``self.core`` to an
    :class:`~repro.core.adaptive.AdaptiveClient`, ``self.path`` to the
    object it adapts for, and :attr:`handler`; :meth:`_join` registers its
    first bandwidth window and :meth:`_negotiate` carries out the core's
    later registration steps.
    """

    #: The upcall handler an adaptive application's windows name.
    handler = None

    def __init__(self, sim, api, name):
        self.sim = sim
        self.api = api
        self.name = name
        self.process = None
        self.core = None

    def start(self):
        """Spawn the application's main loop; returns the process."""
        if self.process is not None and self.process.alive:
            raise RuntimeError(f"application {self.name!r} already running")
        self.process = self.sim.process(self.run(), name=self.name)
        return self.process

    def run(self):
        """The application's main loop (generator)."""
        raise NotImplementedError

    def stop(self):
        """Interrupt the main loop, if running."""
        if self.process is not None and self.process.alive:
            self.process.interrupt("stop")

    # -- adaptation ------------------------------------------------------------

    def _join(self, level):
        """Take upcalls, then register around the rung ``level`` sustains."""
        self.api.on_upcall(self.handler, self._on_upcall)
        self.core.join(level)
        self._negotiate()

    def _on_upcall(self, upcall):
        """Follow the violation's level and re-register at once (the
        paper's §4.3 handler).  A paced streamer overrides this to defer
        the re-registration to its chunk boundary."""
        self.core.upcall(upcall.request_id, upcall.level, self.sim.now)
        self._negotiate()

    def _negotiate(self):
        """Carry out the core's registration steps (``request`` answers at
        once in the sim, so a whole negotiation takes no simulated time).

        A ``request`` outside the window fails with the current level, and
        "the application is then expected to try again, with a new window
        of tolerance corresponding to a new fidelity level" (§4.2): the
        core re-anchors on it, and raises
        :class:`~repro.errors.NegotiationError` rather than ask for the
        same window twice.
        """
        core = self.core
        while (step := core.negotiation(self.sim.now)) is not None:
            action, arg = step
            if action == CANCEL:
                try:
                    self.api.cancel(arg)
                except RequestNotFound:
                    pass  # already gone: a departure cancelled it
                core.cancelled()
                continue
            try:
                core.accepted(self.api.request(
                    self.path, Resource.NETWORK_BANDWIDTH, *arg,
                    handler=self.handler))
            except ToleranceError as err:
                core.rejected(err.available)
