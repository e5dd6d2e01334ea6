"""The §2.3 background information filter.

"An information filtering application may run in the background monitoring
data such as stock prices or enemy movements, and alert the user as
appropriate."

The filter polls a feed server for updates.  Its fidelity dimensions are
*timeliness* (poll period — the paper's telemetry dimension, §2.2) and
*detail* (full update vs. summary).  It adapts to two resources at once:
network bandwidth (upcalls shorten or stretch the period) and the
communication budget tracked by the :class:`~repro.core.monitors.MoneyMonitor`
— a metered link mustn't be drained by a background task (§2.3's point
about coordinating background applications).
"""

from dataclasses import dataclass, field

from repro.apps.base import Application, negotiate
from repro.core.ladder import NO_UPPER
from repro.core.resources import Resource
from repro.core.warden import Warden
from repro.errors import OdysseyError, ProcessInterrupt
from repro.rpc.connection import RpcService
from repro.rpc.messages import ServerReply

#: Detail levels: fidelity -> update payload bytes.
DETAIL_LEVELS = {1.0: 16 * 1024, 0.4: 3 * 1024, 0.1: 512}
#: Poll periods by urgency (seconds); faster polling = better timeliness.
POLL_PERIODS = (2.0, 5.0, 15.0)
#: Server time to assemble an update.
FEED_COMPUTE_SECONDS = 0.004


class FeedServer:
    """Publishes monotonically-numbered updates on demand."""

    def __init__(self, sim, host, port="feed"):
        self.sim = sim
        self.service = RpcService(sim, host, port)
        self.service.register("poll", self._poll)
        self.version = 0
        sim.process(self._tick(), name="feed.tick")

    def _tick(self):
        while True:
            yield self.sim.timeout(1.0)
            self.version += 1

    def _poll(self, body):
        nbytes = DETAIL_LEVELS[body["detail"]]
        return ServerReply(
            body={"version": self.version},
            body_bytes=48,
            compute_seconds=FEED_COMPUTE_SECONDS,
            bulk=self.service.make_bulk(nbytes, meta={"version": self.version}),
        )


class FeedWarden(Warden):
    """Type-specific support for feed objects."""

    TSOPS = {"poll": "tsop_poll"}
    FIDELITIES = {f"detail-{level}": level for level in DETAIL_LEVELS}

    def tsop_poll(self, app, rest, inbuf):
        """Fetch one update at the requested detail; returns its version."""
        detail = inbuf["detail"]
        if detail not in DETAIL_LEVELS:
            raise OdysseyError(
                f"detail {detail!r} not offered; levels: {sorted(DETAIL_LEVELS)}"
            )
        conn = self.primary_connection(rest)
        reply, meta, nbytes = yield from conn.fetch(
            "poll", body={"detail": detail}, body_bytes=64
        )
        return {"version": meta["version"], "nbytes": nbytes}


@dataclass
class FilterStats:
    polls: list = field(default_factory=list)  # (time, version, detail)
    alerts: int = 0

    @property
    def count(self):
        return len(self.polls)

    def staleness(self, feed_version, at):
        """Versions behind the feed at time ``at`` (coarse timeliness)."""
        seen = [v for t, v, _ in self.polls if t <= at]
        return feed_version - max(seen) if seen else feed_version


class InformationFilter(Application):
    """Background poller balancing timeliness, detail, and budget."""

    def __init__(self, sim, api, name, path, money=None,
                 alert_every=10, measure_from=0.0):
        super().__init__(sim, api, name)
        self.path = path
        self.money = money  # optional MoneyMonitor
        self.alert_every = alert_every
        self.measure_from = measure_from
        self.stats = FilterStats()
        self.detail = 1.0
        self.period = POLL_PERIODS[0]
        self._details = sorted(DETAIL_LEVELS, reverse=True)

    # -- adaptation ------------------------------------------------------------

    #: Planning horizon for budget pacing: spend no faster than the rate
    #: that would drain the remaining budget over this many seconds.
    BUDGET_HORIZON_SECONDS = 600.0

    def demand(self, detail, period):
        return DETAIL_LEVELS[detail] * 1.25 / period

    def _affordable_bytes_per_second(self):
        """Transfer rate the remaining communication budget sustains."""
        if self.money is None or self.money.cents_per_megabyte <= 0:
            return float("inf")
        cents_per_second = self.money.current() / self.BUDGET_HORIZON_SECONDS
        return cents_per_second / self.money.cents_per_megabyte * 1024 * 1024

    def _configure_for(self, bandwidth):
        """Best (detail, period) within both bandwidth and budget."""
        cap = self._affordable_bytes_per_second()
        if bandwidth is not None:
            cap = min(cap, bandwidth)
        for detail in self._details:
            for period in POLL_PERIODS:
                if self.demand(detail, period) <= cap:
                    self.detail, self.period = detail, period
                    return
        self.detail, self.period = self._details[-1], POLL_PERIODS[-1]

    def _register(self, level_hint=None):
        def on_level(bandwidth):
            self._configure_for(bandwidth)

        def window_for(bandwidth):
            lower = 0.0
            if (self.detail, self.period) != (self._details[-1], POLL_PERIODS[-1]):
                lower = self.demand(self.detail, self.period)
            return lower, NO_UPPER

        negotiate(self.api, self.path, Resource.NETWORK_BANDWIDTH,
                  window_for, on_level, level_hint=level_hint,
                  handler="filter-bw")

    # -- main loop ---------------------------------------------------------------

    def run(self):
        self.api.on_upcall("filter-bw", lambda up: self._register(up.level))
        self._register(level_hint=self.api.availability(self.path))
        last_version = -1
        try:
            while True:
                if self.money is not None:
                    self._configure_for(
                        self.api.availability(self.path)
                    )  # budget may have moved without an upcall
                result = yield from self.api.tsop(
                    self.path, "poll", {"detail": self.detail}
                )
                if self.money is not None:
                    self.money.charge_bytes(result["nbytes"])
                if self.sim.now >= self.measure_from:
                    self.stats.polls.append(
                        (self.sim.now, result["version"], self.detail)
                    )
                if (result["version"] != last_version
                        and result["version"] % self.alert_every == 0):
                    self.stats.alerts += 1
                last_version = result["version"]
                yield self.sim.timeout(self.period)
        except ProcessInterrupt:
            return self.stats


def build_filter(sim, viceroy, network, money=None,
                 mount="/odyssey/feed", **kwargs):
    """Wire feed server + warden + filter app; returns (app, warden, server)."""
    from repro.core.api import OdysseyAPI

    host = network.add_host("feed-server")
    server = FeedServer(sim, host)
    warden = FeedWarden(sim, viceroy, "feed")
    warden.open_connection(host.name, "feed")
    viceroy.mount(mount, warden)
    api = OdysseyAPI(viceroy, "info-filter")
    app = InformationFilter(sim, api, "info-filter", mount, money=money,
                            **kwargs)
    return app, warden, server
