"""Centralized estimation: total client bandwidth and per-connection shares.

"The viceroy collects information from all logs to estimate the total
bandwidth available to the client.  It then estimates the fraction of this
bandwidth likely to be available to each connection.  A connection estimate
is composed of two parts: a competed-for part proportional to recent use,
and a fair-share part reflecting an expected lower bound."  (paper §6.2.1)

Mechanism for the total: each throughput entry observed on any connection
covers an interval during which the client's link was (at least partly)
busy.  Summing the bytes *all* connections received during that interval and
dividing by the window's effective time yields a sample of the link's
capacity regardless of how many connections shared it:

- one connection bursting alone: its own bytes over its own window — the
  full link rate;
- two saturating connections: each window interval includes the other
  connection's concurrent bytes, so the sample again reflects the full link.

The sample feeds the same Eq. 1 smoothing as per-connection estimates.
"""

from repro import telemetry
from repro.errors import ReproError
from repro.estimation.bandwidth import (
    MAX_CORRECTION_FACTOR,
    MIN_EFFECTIVE_SECONDS,
    ConnectionEstimator,
    THROUGHPUT_GAIN,
)
from repro.estimation.ewma import EwmaFilter
from repro.rpc.logs import DELIVERY_HISTORY_SECONDS, DeliveryIndex

#: Sliding window over which "recent use" is measured, seconds.  Long
#: enough to average over several transfer bursts of a lightly-loaded
#: connection (a 10 %-utilization bitstream bursts every ~2.7 s).
USAGE_HORIZON = 8.0
#: Fraction of the total reserved as equal fair shares (the lower bound).
FAIR_FRACTION = 0.25
#: Horizon over which a peer connection's recent delivery rate marks it as
#: actively competing, seconds.  Short: competition matters only if the peer
#: moved traffic during (roughly) the observed window.
COMPETING_HORIZON = 3.0
#: Recent-rate floor (bytes/s) above which a peer counts as competing.
#: Below this, traffic is keepalive-scale noise that neither kept the link
#: busy nor polluted the round-trip log.
COMPETING_RATE_FLOOR = 1024.0


class ClientShares:
    """Total-bandwidth estimate plus per-connection availability split."""

    def __init__(self, sim, gain=THROUGHPUT_GAIN, usage_horizon=USAGE_HORIZON,
                 fair_fraction=FAIR_FRACTION, competing_horizon=COMPETING_HORIZON,
                 competing_rate_floor=COMPETING_RATE_FLOOR, estimator_kwargs=None,
                 batched=False):
        if not 0 < fair_fraction <= 1:
            raise ReproError(f"fair_fraction must be in (0, 1], got {fair_fraction!r}")
        # Beyond the retention a horizon reads history already pruned, and
        # undercounts by however long ago each log last saw a packet.
        for name, horizon in (("usage_horizon", usage_horizon),
                              ("competing_horizon", competing_horizon)):
            if not 0 < horizon <= DELIVERY_HISTORY_SECONDS:
                raise ReproError(
                    f"{name} must be in (0, {DELIVERY_HISTORY_SECONDS}], "
                    f"got {horizon!r}")
        if competing_rate_floor < 0:
            raise ReproError(
                f"competing_rate_floor must be >= 0, got {competing_rate_floor!r}"
            )
        self.sim = sim
        self.usage_horizon = usage_horizon
        self.fair_fraction = fair_fraction
        self.competing_horizon = competing_horizon
        self.competing_rate_floor = competing_rate_floor
        self.total_filter = EwmaFilter(gain)
        self.total_history = []  # (time, total estimate)
        self._logs = {}  # connection_id -> RpcLog
        self._estimators = {}  # connection_id -> ConnectionEstimator
        #: Every tracked log's deliveries, merged as traffic passes: each
        #: capacity sample and usage split is one interval query here, not
        #: a walk over the logs.  A membership change marks it stale.
        self._deliveries = DeliveryIndex()
        self._stale = False
        #: Forwarded to each ConnectionEstimator (ablation studies vary
        #: gains and the rise cap here).
        self.estimator_kwargs = estimator_kwargs or {}
        #: With ``batched=True`` every connection's Eq. 1 throughput filter
        #: becomes a lane of one shared vectorized estimator (numpy-backed
        #: where available, bit-identical either way) — the fleet shards
        #: enable this; the figure experiments keep the scalar reference.
        self._batch = None
        if batched:
            from repro.estimation.batch import BatchedEstimator

            self._batch = BatchedEstimator(
                self.estimator_kwargs.get("throughput_gain", THROUGHPUT_GAIN))

    # -- registration ---------------------------------------------------------

    def register(self, log):
        """Track ``log`` (an :class:`~repro.rpc.logs.RpcLog`)."""
        if log.connection_id in self._logs:
            raise ReproError(f"connection {log.connection_id!r} already registered")
        self._logs[log.connection_id] = log
        self._estimators[log.connection_id] = ConnectionEstimator(
            self.sim, log.connection_id, batch=self._batch,
            **self.estimator_kwargs
        )
        log.shared_deliveries = self._deliveries
        if log.delivered_total:  # arrives with history to merge in
            self._stale = True

    def unregister(self, connection_id):
        """Stop tracking a connection."""
        if self._batch is not None:
            # Fold the departing connection's deferred samples while its
            # lane is still the estimator's; the lane itself is retired
            # (lanes are append-only) and simply never updated again.
            self._batch.flush()
        log = self._logs.pop(connection_id, None)
        self._estimators.pop(connection_id, None)
        if log is not None and log.shared_deliveries is self._deliveries:
            log.shared_deliveries = None
            self._stale = True

    def _delivered_between(self, start, end):
        """Bytes every tracked connection received in (start, end].

        A stale index is first re-merged from the tracked logs' retained
        entries, so a departed connection's bytes never reach a query:
        O(entries), but once per burst of membership changes (a crash drill
        re-registers everyone in one instant).
        """
        if self._stale:
            merged = self._deliveries = DeliveryIndex()
            for at, nbytes in sorted(entry for log in self._logs.values()
                                     for entry in log.deliveries.live()):
                merged.add(at, nbytes)
            for log in self._logs.values():
                log.shared_deliveries = merged
            self._stale = False
        return self._deliveries.between(start, end)

    @property
    def connection_count(self):
        return len(self._logs)

    def estimator(self, connection_id):
        """The per-connection estimator (used for R in Eq. 2)."""
        return self._estimators[connection_id]

    # -- log-entry absorption ---------------------------------------------------

    def on_round_trip(self, log, entry):
        self._estimators[log.connection_id].on_round_trip(log, entry)

    def on_throughput(self, log, entry):
        """Absorb a window observation; returns the new total estimate.

        The capacity sample combines two estimators, each exact in its own
        regime:

        - the connection's own Eq. 2 estimate (bytes over T minus the dead
          round trip) — correct when the window ran alone, where the dead
          time really was idle link;
        - the aggregate raw rate (all connections' bytes during the window
          over the full window time) — correct when concurrent traffic kept
          the link busy through the observer's dead time (subtracting R
          there would double-count and overestimate without bound).

        ``max`` selects the applicable one: competition can only raise the
        aggregate, and solo operation can only make the correction valid.
        """
        total, sample, competing = self._absorb_throughput(log, entry)
        rec = telemetry.RECORDER
        if rec.enabled:
            span = rec.begin("shares.update", connection=log.connection_id)
            rec.gauge("estimation.total_bytes_per_s", total)
            if competing:
                rec.count("estimation.competing_updates")
            rec.end(span, sample=sample, total=total, competing=competing)
        return total

    def _absorb_throughput(self, log, entry):
        """The uninstrumented total-capacity update (see :meth:`on_throughput`).

        Returns ``(total, sample, competing)``.  Separate so the telemetry
        overhead benchmark can time the pure computation as its baseline.
        """
        estimator = self._estimators[log.connection_id]
        estimator.on_throughput(log, entry)  # keep the per-connection view fresh
        aggregate = max(self._delivered_between(entry.started, entry.at), entry.nbytes)
        # No peer exceeds the floor unless all peers together do, so an idle
        # fleet settles on the sums alone and a busy one at its first busy peer.
        now = self.sim.now
        since = now - self.competing_horizon
        peers = self._delivered_between(since, now) - log.bytes_delivered_between(since, now)
        competing = peers / self.competing_horizon > self.competing_rate_floor and any(
            other is not log and other.recent_rate(self.competing_horizon)
            > self.competing_rate_floor for other in self._logs.values())
        aggregate_raw = aggregate / max(entry.seconds, MIN_EFFECTIVE_SECONDS)
        if competing:
            # Another connection has been moving real traffic: concurrent
            # transfers keep the link busy through this window's dead time
            # (so the raw aggregate is the capacity), and they pollute the
            # round-trip log (so Eq. 2's correction cannot be trusted).
            sample = aggregate_raw
        else:
            sample = max(estimator.bandwidth_sample(entry, log), aggregate_raw)
        total = self.total_filter.update(sample)
        self.total_history.append((self.sim.now, total))
        return total, sample, competing

    # -- queries -----------------------------------------------------------------

    @property
    def total(self):
        """Smoothed total client bandwidth (bytes/s), or None before data."""
        return self.total_filter.value

    def availability(self, connection_id):
        """Bandwidth likely available to ``connection_id`` (bytes/s).

        ``fair_fraction`` of the total is divided equally (the expected
        lower bound); the rest is split in proportion to recent use.  With a
        single connection this degenerates to the total.  Returns None
        before any throughput observation.
        """
        if connection_id not in self._logs:
            raise ReproError(f"unknown connection {connection_id!r}")
        total = self.total
        if total is None:
            return None
        n = len(self._logs)
        fair = self.fair_fraction * total / n
        # Recent use as a byte ratio over the usage horizon: the rates'
        # common 1/horizon cancels, leaving two index queries.
        now = self.sim.now
        start = now - self.usage_horizon
        everyone = self._delivered_between(start, now)
        if everyone <= 0:
            weight = 1.0 / n
        else:
            weight = self._logs[connection_id].bytes_delivered_between(
                start, now) / everyone
        competed = (1.0 - self.fair_fraction) * total * weight
        return fair + competed

    def snapshot(self):
        """A dict of availability per connection (diagnostics and tests)."""
        return {cid: self.availability(cid) for cid in self._logs}
