"""Per-connection bandwidth estimation (paper Eq. 2).

Each RPC endpoint gets a :class:`ConnectionEstimator` that consumes the
endpoint's log entries:

- round-trip entries update the smoothed round trip ``R`` (gain 0.75, with
  the anomaly rise cap);
- throughput entries yield a bandwidth sample ``W / (T - R/2)`` — the
  window time less the request/acknowledgement half-trip — smoothed with
  gain 0.875.

A record of every (time, estimate) pair is kept so experiments can plot the
estimate series exactly as the paper's Fig. 8 does.
"""

from collections import deque

from repro import telemetry
from repro.estimation.ewma import EwmaFilter

#: Measurement weight for round-trip smoothing (paper §6.2.1).
RTT_GAIN = 0.75
#: Measurement weight for throughput smoothing (paper §6.2.1).
THROUGHPUT_GAIN = 0.875
#: Maximum fractional rise of the round-trip estimate per update ("we cap
#: the percentage rise possible at each estimate", §6.2.1) — round trips
#: observed during self-congestion include queueing delay and would
#: otherwise blow up Eq. 2's denominator.
RTT_RISE_CAP = 0.10
#: Smallest effective transfer time, guards Eq. 2's denominator.
MIN_EFFECTIVE_SECONDS = 1e-4
#: A bandwidth sample may exceed the window's raw rate (W/T) by at most
#: this factor.  The Eq. 2 correction legitimately recovers up to ~2x on
#: latency-dominated small windows; anything above that means R has been
#: polluted by queueing and the sample is an anomaly.
MAX_CORRECTION_FACTOR = 2.0
#: Horizon for the windowed-minimum round trip used in Eq. 2, seconds.
BASE_RTT_HORIZON = 30.0


class ConnectionEstimator:
    """Smoothed round trip and bandwidth for a single endpoint."""

    def __init__(self, sim, connection_id=None,
                 rtt_gain=RTT_GAIN, throughput_gain=THROUGHPUT_GAIN,
                 rtt_rise_cap=RTT_RISE_CAP, eq2_rtt="base",
                 aggregate_own_log=True, batch=None):
        if eq2_rtt not in ("base", "smoothed"):
            raise ValueError(f"eq2_rtt must be 'base' or 'smoothed', got {eq2_rtt!r}")
        self.sim = sim
        self.connection_id = connection_id
        #: Which round trip Eq. 2 subtracts.  "base" (windowed minimum)
        #: resists queueing pollution and is what the centralized viceroy
        #: uses; "smoothed" is the naive per-log estimate — exactly the
        #: less-accurate isolation the laissez-faire baseline embodies.
        self.eq2_rtt = eq2_rtt
        #: Whether concurrent windows on the same endpoint are combined
        #: into one sample.  The naive estimator (laissez-faire) treats
        #: each window in isolation, so a pipelined endpoint undercounts.
        self.aggregate_own_log = aggregate_own_log
        self.rtt_filter = EwmaFilter(rtt_gain, rise_cap=rtt_rise_cap)
        self._history = []  # (time, bandwidth estimate)
        # (time, raw sample), samples increasing from head to tail: an
        # entry that a later one undercuts can never again be the minimum
        # and is dropped on arrival, so the head *is* the minimum.
        self._rtt_window = deque()
        # ``batch`` (a repro.estimation.batch.BatchedEstimator sharing this
        # estimator's throughput gain) moves the Eq. 1 throughput filter
        # into a vectorized lane: updates are deferred and folded across
        # the whole shard in array ops, bit-identical to the scalar filter.
        # The RTT side stays scalar — its windowed minimum is read on
        # every Eq. 2 sample, so there is nothing to defer.
        if batch is None:
            self.bandwidth_filter = EwmaFilter(throughput_gain)
            self._lane = None
        else:
            self.bandwidth_filter = batch.add_lane(history=self._history)
            self._lane = self.bandwidth_filter

    @property
    def round_trip(self):
        """Smoothed round-trip time in seconds (0.0 until primed)."""
        return self.rtt_filter.value or 0.0

    @property
    def base_round_trip(self):
        """Minimum round trip over the recent window (0.0 until primed).

        Round trips observed while the link is busy include queueing delay
        behind other transfers; using them in Eq. 2 would inflate bandwidth
        estimates without bound under sustained load.  The windowed minimum
        tracks the uncontended path latency instead — idle moments (between
        web fetches, speech pauses) refresh it with clean samples.
        """
        if not self._rtt_window:
            return self.round_trip
        return self._rtt_window[0][1]

    @property
    def bandwidth(self):
        """Smoothed bandwidth estimate in bytes/s, or None before any sample."""
        return self.bandwidth_filter.value

    @property
    def history(self):
        """(time, bandwidth estimate) pairs, one per throughput window.

        Under a batched lane the pairs materialize at flush time, so the
        lane is flushed before the list is handed out.
        """
        if self._lane is not None:
            self._lane.flush()
        return self._history

    def on_round_trip(self, log, entry):
        """Absorb a round-trip log entry."""
        capped_before = self.rtt_filter.capped_rises
        self.rtt_filter.update(entry.seconds)
        window = self._rtt_window
        while window and window[-1][1] >= entry.seconds:
            window.pop()
        window.append((self.sim.now, entry.seconds))
        horizon = self.sim.now - BASE_RTT_HORIZON
        while window[0][0] < horizon:
            window.popleft()
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("estimation.rtt_updates", connection=self.connection_id)
            if self.rtt_filter.capped_rises > capped_before:
                # An anomalously long round trip (self-congestion queueing)
                # hit the §6.2.1 rise cap — the clamp is load-bearing for
                # Eq. 2, so each engagement is worth a trace line.
                rec.count("estimation.rtt_rise_capped",
                          connection=self.connection_id)
                rec.event("estimation.rise_cap",
                          connection=self.connection_id,
                          sample=entry.seconds, estimate=self.round_trip)

    def on_throughput(self, log, entry):
        """Absorb a throughput log entry; returns the new estimate.

        Under a batched lane the estimate is deferred and ``None`` is
        returned — unless telemetry is live, which forces the fold so the
        gauge carries the post-sample value.
        """
        estimate, sample = self._absorb_throughput(log, entry)
        rec = telemetry.RECORDER
        if rec.enabled:
            if estimate is None:
                estimate = self.bandwidth_filter.value  # flushes the lane
            span = rec.begin("estimator.update", connection=self.connection_id)
            rec.gauge("estimation.bandwidth_bytes_per_s", estimate,
                      connection=self.connection_id)
            rec.end(span, sample=sample, estimate=estimate,
                    window_bytes=entry.nbytes)
        return estimate

    def _absorb_throughput(self, log, entry):
        """The uninstrumented Eq. 1/2 update; returns (estimate, sample).

        Kept separate from :meth:`on_throughput` so the telemetry overhead
        benchmark can time the pure computation as its baseline.  With a
        batched lane the Eq. 1 fold (and the history append) is deferred
        to the next vectorized flush and the estimate slot is ``None``.
        """
        sample = self.bandwidth_sample(entry, log)
        lane = self._lane
        if lane is not None:
            lane.defer(self.sim.now, sample)
            return None, sample
        estimate = self.bandwidth_filter.update(sample)
        self._history.append((self.sim.now, estimate))
        return estimate, sample

    def bandwidth_sample(self, entry, log=None):
        """Eq. 2: instantaneous bandwidth from one window observation.

        The paper subtracts R/2 for the acknowledgement; our windows are
        receiver-driven, so the dead (non-transferring) time in T is a full
        round trip — request propagation up plus first-byte propagation
        down.  Subtracting only R/2 systematically underestimates small
        windows (a 3 KB video frame at 120 KB/s by ~30 %), badly enough
        that track upgrades never fire; subtracting R reproduces the
        paper's adaptation behaviour.  See EXPERIMENTS.md.

        When the endpoint's log is available, all of the endpoint's bytes
        delivered during the window interval are counted, not just the
        window's own — a connection that pipelines two windows (the video
        warden's read-ahead does) would otherwise see each at half rate.
        """
        round_trip = (self.base_round_trip if self.eq2_rtt == "base"
                      else self.round_trip)
        effective = max(entry.seconds - round_trip, MIN_EFFECTIVE_SECONDS)
        nbytes = entry.nbytes
        if log is not None and self.aggregate_own_log:
            nbytes = max(nbytes, log.bytes_delivered_between(entry.started, entry.at))
        raw_rate = nbytes / max(entry.seconds, MIN_EFFECTIVE_SECONDS)
        return min(nbytes / effective, MAX_CORRECTION_FACTOR * raw_rate)
