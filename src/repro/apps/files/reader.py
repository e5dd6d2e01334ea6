"""A document reader that trades consistency for open latency."""

from dataclasses import dataclass, field

from repro.apps.base import Application
from repro.apps.files.warden import CONSISTENCY_LEVELS
from repro.core.adaptive import AdaptiveClient
from repro.core.ladder import FidelityLadder
from repro.errors import ProcessInterrupt

#: Bandwidth (bytes/s) above which each consistency level is affordable:
#: strong consistency costs a validation round trip (and often a refetch)
#: per open, so it wants a healthy link.
LEVEL_DEMAND = {1.0: 64 * 1024, 0.5: 16 * 1024, 0.1: 0.0}
UPGRADE_MARGIN = 1.10


@dataclass
class ReaderStats:
    """Per-open accounting, including observed staleness."""

    opens: list = field(default_factory=list)
    # each: (time, seconds, version read, version at server, level)

    @property
    def count(self):
        return len(self.opens)

    @property
    def mean_open_seconds(self):
        if not self.opens:
            return 0.0
        return sum(s for _, s, _, _, _ in self.opens) / len(self.opens)

    @property
    def stale_reads(self):
        """Opens that returned a version behind the server's."""
        return sum(1 for _, _, got, current, _ in self.opens if got < current)

    @property
    def stale_fraction(self):
        return self.stale_reads / len(self.opens) if self.opens else 0.0


class DocumentReader(Application):
    """Re-reads a working set of documents, adapting consistency.

    ``server`` is consulted (out of band, as an oracle) to measure
    staleness; the application itself never touches it.
    """

    handler = "files-bandwidth"

    def __init__(self, sim, api, name, path, documents, server,
                 period_seconds=1.0, policy="adaptive", measure_from=0.0):
        super().__init__(sim, api, name)
        self.path = path
        self.documents = list(documents)
        self.server = server
        self.period_seconds = period_seconds
        self.policy = policy
        self.measure_from = measure_from
        self.stats = ReaderStats()
        if policy == "adaptive":
            self.core = AdaptiveClient(FidelityLadder(
                sorted(CONSISTENCY_LEVELS), LEVEL_DEMAND.__getitem__,
                UPGRADE_MARGIN))

    @property
    def level(self):
        """The consistency in force: the adaptive core's, or the fixed one."""
        return self.policy if self.core is None else self.core.fidelity

    def run(self):
        if self.core is not None:
            self._join(self.api.availability(self.path))
        index = 0
        try:
            while True:
                name = self.documents[index % len(self.documents)]
                index += 1
                yield from self.api.tsop(
                    self.path, "set-consistency", {"consistency": self.level}
                )
                started = self.sim.now
                # The staleness oracle: what a perfectly consistent open
                # would have returned at this instant.  (Captured before
                # the transfer, or a slow fetch races the server's writers
                # and strong consistency looks spuriously stale.)
                version_at_open = self.server.version(name)
                fd = self.api.open(f"{self.path}/{name}")
                contents = yield from self.api.read(fd)
                self.api.close(fd)
                elapsed = self.sim.now - started
                if started >= self.measure_from:
                    self.stats.opens.append(
                        (self.sim.now, elapsed, contents["version"],
                         version_at_open, self.level)
                    )
                yield self.sim.timeout(self.period_seconds)
        except ProcessInterrupt:
            return self.stats
