"""Netscape behind the cellophane: the browsing loop and its adaptation.

"Our Web client's adaptation goal is to display the best quality image that
can be fetched within twice the Ethernet time, in this case 0.4 seconds."
(paper §6.2.2)

The cellophane predicts a level's fetch time as ``fixed overhead + size /
available bandwidth`` and picks the best level meeting the goal.  The fixed
overhead is its calibration against the measured request path (round trip,
web server, distillation, rendering).
"""

from dataclasses import dataclass, field

from repro.apps.base import Application
from repro.apps.web.distill import DISTILL_COMPUTE
from repro.apps.web.images import FIDELITY_LEVELS, distilled_bytes
from repro.apps.web.server import WEB_SERVER_COMPUTE
from repro.core.adaptive import AdaptiveClient
from repro.core.ladder import NO_UPPER, FidelityLadder
from repro.errors import ProcessInterrupt

#: The adaptation goal: fetch-and-display within twice the Ethernet time.
LATENCY_GOAL_SECONDS = 0.40
#: Netscape's image decode + paint time.
RENDER_SECONDS = 0.05
#: The cellophane's model of bandwidth-independent latency per fetch.
FIXED_OVERHEAD_SECONDS = (
    0.021  # protocol round trip (paper §6.1.3)
    + WEB_SERVER_COMPUTE
    + DISTILL_COMPUTE
    + RENDER_SECONDS
)
#: Hysteresis: an upgrade needs this multiple of the level's minimum bandwidth.
UPGRADE_MARGIN = 1.05


@dataclass
class BrowserStats:
    """What one browsing run measured (the Fig. 11 columns)."""

    fetches: list = field(default_factory=list)  # (time, elapsed, fidelity)

    @property
    def count(self):
        return len(self.fetches)

    @property
    def mean_seconds(self):
        if not self.fetches:
            return 0.0
        return sum(elapsed for _, elapsed, _ in self.fetches) / len(self.fetches)

    @property
    def mean_fidelity(self):
        if not self.fetches:
            return 0.0
        return sum(f for _, _, f in self.fetches) / len(self.fetches)

    def goal_met_fraction(self, goal=LATENCY_GOAL_SECONDS):
        if not self.fetches:
            return 0.0
        return sum(1 for _, e, _ in self.fetches if e <= goal) / len(self.fetches)


class CellophaneBrowser(Application):
    """Repeatedly fetches an image "as fast as possible" (paper §6.2.2).

    Parameters
    ----------
    policy:
        ``"adaptive"`` or a fixed fidelity level (1.0 / 0.5 / 0.25 / 0.05).
    image_name / image_bytes:
        What to fetch and its original size (the cellophane knows sizes
        from content-length headers, so it can predict transfer times).
    think_seconds:
        Pause between fetches; 0 reproduces the paper's benchmark.
    """

    handler = "web-bandwidth"

    def __init__(self, sim, api, name, path, image_name, image_bytes,
                 policy="adaptive", goal=LATENCY_GOAL_SECONDS,
                 think_seconds=0.0, measure_from=0.0):
        super().__init__(sim, api, name)
        self.path = path
        self.image_name = image_name
        self.image_bytes = image_bytes
        self.policy = policy
        self.goal = goal
        self.think_seconds = think_seconds
        self.measure_from = measure_from
        self.stats = BrowserStats()
        if policy == "adaptive":
            self.core = AdaptiveClient(FidelityLadder(
                sorted(FIDELITY_LEVELS), self.min_bandwidth, UPGRADE_MARGIN))

    @property
    def level(self):
        """The fidelity fetched at: the adaptive core's, or the fixed one."""
        return self.policy if self.core is None else self.core.fidelity

    # -- adaptation ---------------------------------------------------------

    def predicted_seconds(self, fidelity, bandwidth):
        """The cellophane's time model for one fetch at ``fidelity``."""
        size = distilled_bytes(self.image_bytes, fidelity)
        return FIXED_OVERHEAD_SECONDS + size / bandwidth

    def min_bandwidth(self, fidelity):
        """Lowest bandwidth at which ``fidelity`` meets the goal."""
        size = distilled_bytes(self.image_bytes, fidelity)
        budget = self.goal - FIXED_OVERHEAD_SECONDS
        if budget <= 0:
            return NO_UPPER
        return size / budget

    # -- the browsing loop -----------------------------------------------------

    def run(self):
        if self.core is not None:
            self._join(self.api.availability(self.path))
        try:
            while True:
                started = self.sim.now
                yield from self.api.tsop(
                    self.path, "set-fidelity", {"fidelity": self.level}
                )
                result = yield from self.api.tsop(
                    self.path, "get-image", {"name": self.image_name}
                )
                yield self.sim.timeout(RENDER_SECONDS)
                elapsed = self.sim.now - started
                if started >= self.measure_from:
                    self.stats.fetches.append(
                        (self.sim.now, elapsed, result["fidelity"])
                    )
                if self.think_seconds > 0:
                    yield self.sim.timeout(self.think_seconds)
        except ProcessInterrupt:
            return self.stats
