"""The field worker: moves along a path, viewing the tile at each stop."""

from dataclasses import dataclass, field

from repro.apps.base import Application
from repro.apps.prefetch.maps import TILE_FIDELITIES
from repro.core.adaptive import AdaptiveClient
from repro.core.ladder import FidelityLadder
from repro.errors import ProcessInterrupt

#: The worker wants each tile on screen within this long of arriving.
VIEW_GOAL_SECONDS = 0.5
#: Hysteresis multiple for resolution upgrades.
UPGRADE_MARGIN = 1.10


def walk_path(length, seed=0, start=(0, 0)):
    """A deterministic lawn-mower sweep over the damage-assessment grid."""
    x, y = start
    path = []
    direction = 1
    for i in range(length):
        path.append((x, y))
        x += direction
        if i % 8 == 7:  # end of a sweep row
            direction = -direction
            y += 1
    return path


@dataclass
class WorkerStats:
    """Per-view accounting."""

    views: list = field(default_factory=list)  # (time, seconds, hit, fidelity)

    @property
    def count(self):
        return len(self.views)

    @property
    def hit_rate(self):
        if not self.views:
            return 0.0
        return sum(1 for _, _, hit, _ in self.views if hit) / len(self.views)

    @property
    def mean_view_seconds(self):
        if not self.views:
            return 0.0
        return sum(s for _, s, _, _ in self.views) / len(self.views)

    @property
    def mean_fidelity(self):
        if not self.views:
            return 0.0
        return sum(f for _, _, _, f in self.views) / len(self.views)


class FieldWorker(Application):
    """Walks the grid, pausing at each tile, adapting map resolution.

    Parameters
    ----------
    dwell_seconds:
        Time spent assessing each position before moving on — the window
        the prefetcher has to stay ahead.
    policy:
        ``"adaptive"`` or a fixed fidelity level.
    """

    handler = "maps-bandwidth"

    def __init__(self, sim, api, name, path, route, dwell_seconds=2.0,
                 policy="adaptive", measure_from=0.0):
        super().__init__(sim, api, name)
        self.path = path
        self.route = list(route)
        self.dwell_seconds = dwell_seconds
        self.policy = policy
        self.measure_from = measure_from
        self.stats = WorkerStats()
        if policy == "adaptive":
            self.core = AdaptiveClient(FidelityLadder(
                sorted(TILE_FIDELITIES), self.demand, UPGRADE_MARGIN))

    @property
    def fidelity(self):
        """The map resolution: the adaptive core's, or the fixed one."""
        return self.policy if self.core is None else self.core.fidelity

    # -- adaptation: resolution from bandwidth -----------------------------

    def demand(self, fidelity):
        """Bandwidth needed to prefetch one tile per dwell at ``fidelity``."""
        mean_tile = TILE_FIDELITIES[fidelity]
        return mean_tile * 1.25 / self.dwell_seconds  # headroom for headers

    # -- the walk --------------------------------------------------------------

    def run(self):
        if self.core is not None:
            self._join(self.api.availability(self.path))
        try:
            for step, (x, y) in enumerate(self.route):
                yield from self.api.tsop(
                    self.path, "set-fidelity", {"fidelity": self.fidelity}
                )
                # Announce where we are heading so the warden can prefetch.
                yield from self.api.tsop(
                    self.path, "set-path", {"path": self.route[step:]}
                )
                started = self.sim.now
                result = yield from self.api.tsop(
                    self.path, "get-tile", {"x": x, "y": y}
                )
                elapsed = self.sim.now - started
                if started >= self.measure_from:
                    self.stats.views.append(
                        (self.sim.now, elapsed, result["hit"], self.fidelity)
                    )
                yield self.sim.timeout(self.dwell_seconds)
        except ProcessInterrupt:
            pass
        return self.stats
