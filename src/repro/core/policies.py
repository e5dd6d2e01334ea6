"""Resource-management policies: Odyssey and the §6.2.3 baselines.

A policy answers one question for the viceroy: *how much network bandwidth
is available to a given connection right now?*  Three answers are compared
in the paper's Fig. 14 experiment:

- :class:`OdysseyPolicy` — centralized estimation: every log feeds a shared
  total, split into competed-for and fair-share parts per connection.
- :class:`LaissezFairePolicy` — "each log is examined in isolation.  This
  reflects what applications would discover on their own: information is
  less accurate than that globally obtained but with similar delays."  Each
  connection believes its own measured throughput is what it can get.
- :class:`BlindOptimismPolicy` — "the networking layer ... immediately
  notifying applications when switching between networking technologies":
  the theoretical link bandwidth arrives with zero delay at every trace
  transition, but ignores the impact of other applications entirely.
"""

from array import array

from repro.errors import ReproError
from repro.estimation.bandwidth import ConnectionEstimator
from repro.estimation.share import ClientShares


class Policy:
    """Interface: availability computation fed by log observations."""

    name = "abstract"

    def attach(self, viceroy):
        """Called once when the viceroy adopts this policy."""
        self.viceroy = viceroy

    def register_connection(self, conn):
        raise NotImplementedError

    def unregister_connection(self, connection_id):
        raise NotImplementedError

    def on_round_trip(self, log, entry):
        raise NotImplementedError

    def on_throughput(self, log, entry):
        raise NotImplementedError

    def availability(self, connection_id):
        """Estimated bandwidth available to ``connection_id`` (bytes/s) or None."""
        raise NotImplementedError

    def levels(self):
        """``connection_id -> availability`` for one recheck of every
        bandwidth window; a policy whose split shares work across
        connections computes it once here."""
        return self.availability

    def total(self):
        """Estimated total client bandwidth (bytes/s) or None."""
        raise NotImplementedError

    def round_trip(self, connection_id):
        """Smoothed round-trip seconds for a connection (0.0 until known)."""
        raise NotImplementedError


class OdysseyPolicy(Policy):
    """Centralized resource management (the paper's contribution)."""

    name = "odyssey"

    def __init__(self, **share_kwargs):
        self._share_kwargs = share_kwargs
        self.shares = None
        # The total estimate after every throughput observation, unboxed:
        # a 15-minute trial makes ~14 000 of them.
        self._total_times = array("d")
        self._totals = array("d")

    def attach(self, viceroy):
        super().attach(viceroy)
        self.shares = ClientShares(viceroy.sim, **self._share_kwargs)

    def register_connection(self, conn):
        self.shares.register(conn.log)

    def unregister_connection(self, connection_id):
        self.shares.unregister(connection_id)

    def on_round_trip(self, log, entry):
        self.shares.on_round_trip(log, entry)

    def on_throughput(self, log, entry):
        total = self.shares.on_throughput(log, entry)
        self._total_times.append(self.viceroy.sim.now)
        self._totals.append(total)

    @property
    def total_history(self):
        """``[(time, total estimate), …]``, one per throughput observation:
        the series the supply and turbulence experiments plot."""
        return list(zip(self._total_times, self._totals))

    def availability(self, connection_id):
        return self.shares.availability(connection_id)

    def levels(self):
        return self.shares.split()

    def total(self):
        return self.shares.total

    def round_trip(self, connection_id):
        return self.shares.estimator(connection_id).round_trip


class LaissezFairePolicy(Policy):
    """Uncoordinated estimation: every connection sees only its own log."""

    name = "laissez-faire"

    def __init__(self):
        self._estimators = {}

    def register_connection(self, conn):
        if conn.connection_id in self._estimators:
            raise ReproError(f"connection {conn.connection_id!r} already registered")
        # The naive per-log estimate, without the centralized viceroy's
        # defenses: queueing-polluted smoothed round trips, and each window
        # measured in isolation — "information is less accurate than that
        # globally obtained but with similar delays" (§6.2.3).
        self._estimators[conn.connection_id] = ConnectionEstimator(
            self.viceroy.sim, conn.connection_id, eq2_rtt="smoothed",
            aggregate_own_log=False,
        )

    def unregister_connection(self, connection_id):
        self._estimators.pop(connection_id, None)

    def on_round_trip(self, log, entry):
        self._estimators[log.connection_id].on_round_trip(log, entry)

    def on_throughput(self, log, entry):
        self._estimators[log.connection_id].on_throughput(log, entry)

    def availability(self, connection_id):
        return self._estimators[connection_id].bandwidth

    def total(self):
        estimates = [e.bandwidth for e in self._estimators.values()
                     if e.bandwidth is not None]
        return max(estimates) if estimates else None

    def round_trip(self, connection_id):
        return self._estimators[connection_id].round_trip


class BlindOptimismPolicy(Policy):
    """Theoretical bandwidth, delivered instantly, blind to competition.

    The trace is known to the networking layer; at every transition the new
    theoretical bandwidth is pushed to the viceroy ("via an upcall"), which
    then re-checks all registered windows.  Round-trip estimation still
    runs per connection, since Eq. 2-style corrections are not the point of
    this baseline.
    """

    name = "blind-optimism"

    def __init__(self, trace):
        self.trace = trace
        self._level = trace.bandwidth_at(0.0)
        self._estimators = {}

    def attach(self, viceroy):
        super().attach(viceroy)
        for when in self.trace.transitions:
            viceroy.sim.call_at(when, self._on_transition, when)

    def _on_transition(self, when):
        self._level = self.trace.bandwidth_at(when)
        self.viceroy.recheck_bandwidth()

    def register_connection(self, conn):
        self._estimators[conn.connection_id] = ConnectionEstimator(
            self.viceroy.sim, conn.connection_id
        )

    def unregister_connection(self, connection_id):
        self._estimators.pop(connection_id, None)

    def on_round_trip(self, log, entry):
        self._estimators[log.connection_id].on_round_trip(log, entry)

    def on_throughput(self, log, entry):
        """Measurements are ignored — this baseline trusts the hardware."""

    def availability(self, connection_id):
        return self._level

    def total(self):
        return self._level

    def round_trip(self, connection_id):
        return self._estimators[connection_id].round_trip
