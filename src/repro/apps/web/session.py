"""A realistic browsing session: pages with inline images and think time.

The paper's Fig. 11 benchmark fetches one image in a tight loop for
experimental control.  Real browsing — the workload the §2.1 tourist
generates — fetches an HTML page, then its inline images, then pauses
while the user reads.  This module models that, over the §8-extended
warden (text + image distillation), with per-kind adaptive fidelity.
"""

import hashlib
from dataclasses import dataclass, field

from repro.apps.base import Application, negotiate
from repro.apps.web.browser import (
    FIXED_OVERHEAD_SECONDS,
    LATENCY_GOAL_SECONDS,
    UPGRADE_MARGIN,
)
from repro.apps.web.images import KIND_LEVELS, distilled_bytes
from repro.core.ladder import FidelityLadder
from repro.core.resources import Resource
from repro.errors import ProcessInterrupt, ReproError


@dataclass(frozen=True)
class Page:
    """One page: an HTML object plus inline images (all must be in the store)."""

    html: str
    images: tuple

    def __post_init__(self):
        if not self.html:
            raise ReproError("a page needs an HTML object")


def synthetic_site(store, pages=6, images_per_page=3, seed=0):
    """Populate ``store`` with a deterministic site; returns the pages."""
    site = []
    for i in range(pages):
        digest = hashlib.blake2b(f"site:{seed}:{i}".encode("utf-8"),
                                 digest_size=4).digest()
        html_bytes = 12 * 1024 + int.from_bytes(digest, "big") % (30 * 1024)
        html = store.add_page(f"page{i}.html", nbytes=html_bytes).name
        images = store.add_synthetic_corpus(
            images_per_page, seed=seed * 1000 + i,
            min_bytes=8 * 1024, max_bytes=40 * 1024,
            prefix=f"p{i}-img",
        )
        site.append(Page(html=html, images=tuple(img.name for img in images)))
    return site


@dataclass
class SessionStats:
    """Per-page-load accounting."""

    loads: list = field(default_factory=list)
    # each: (time, seconds, image fidelity, text fidelity)

    @property
    def count(self):
        return len(self.loads)

    @property
    def mean_load_seconds(self):
        if not self.loads:
            return 0.0
        return sum(s for _, s, _, _ in self.loads) / len(self.loads)

    @property
    def mean_image_fidelity(self):
        if not self.loads:
            return 0.0
        return sum(f for _, _, f, _ in self.loads) / len(self.loads)

    def goal_met_fraction(self, goal_seconds):
        if not self.loads:
            return 0.0
        return sum(1 for _, s, _, _ in self.loads
                   if s <= goal_seconds) / len(self.loads)


class BrowsingSession(Application):
    """Loads pages from a site in order, adapting both object kinds.

    The page-load goal scales the single-image goal by the number of
    objects on a page: a page with one HTML object and three images gets
    4x the 0.4 s budget.
    """

    def __init__(self, sim, api, name, path, site, store,
                 think_seconds=5.0, policy="adaptive", measure_from=0.0):
        super().__init__(sim, api, name)
        self.path = path
        self.site = list(site)
        self.store = store
        self.think_seconds = think_seconds
        self.policy = policy
        self.measure_from = measure_from
        self.stats = SessionStats()
        self.image_level = policy if policy != "adaptive" else 1.0
        self.text_level = 1.0
        # Both kinds follow one estimate; only the image window is
        # registered, so the text ladder is consulted for its best rung.
        self.image_ladder = self._ladder("image")
        self.text_ladder = self._ladder("text")

    # -- adaptation (per kind, from one bandwidth estimate) ------------------

    def _ladder(self, kind):
        """``kind``'s levels, each demanding the bandwidth that fetches a
        representative object within the single-object goal."""
        representative = 22 * 1024 if kind == "image" else 24 * 1024
        budget = LATENCY_GOAL_SECONDS - FIXED_OVERHEAD_SECONDS
        return FidelityLadder(
            sorted(KIND_LEVELS[kind]),
            lambda level: distilled_bytes(representative, level,
                                          kind=kind) / budget,
            UPGRADE_MARGIN,
        )

    def _register(self, level_hint=None):
        if self.policy != "adaptive":
            return

        def on_level(bandwidth):
            self.image_level = self.image_ladder.best(bandwidth)
            self.text_level = self.text_ladder.best(bandwidth)

        negotiate(self.api, self.path, Resource.NETWORK_BANDWIDTH,
                  lambda bw: self.image_ladder.window(self.image_level),
                  on_level, level_hint=level_hint, handler="session-bw")

    # -- the session ---------------------------------------------------------------

    def _load_page(self, page):
        yield from self.api.tsop(
            self.path, "set-fidelity",
            {"fidelity": self.text_level, "kind": "text"},
        )
        yield from self.api.tsop(
            self.path, "set-fidelity",
            {"fidelity": self.image_level, "kind": "image"},
        )
        yield from self.api.tsop(
            self.path, "get-image", {"name": page.html, "kind": "text"}
        )
        for image in page.images:
            yield from self.api.tsop(
                self.path, "get-image", {"name": image, "kind": "image"}
            )

    def page_goal_seconds(self, page):
        return LATENCY_GOAL_SECONDS * (1 + len(page.images))

    def run(self):
        if self.policy == "adaptive":
            self.api.on_upcall("session-bw",
                               lambda up: self._register(up.level))
            self._register(level_hint=self.api.availability(self.path))
        try:
            for page in self.site:
                started = self.sim.now
                yield from self._load_page(page)
                elapsed = self.sim.now - started
                if started >= self.measure_from:
                    self.stats.loads.append(
                        (self.sim.now, elapsed, self.image_level,
                         self.text_level)
                    )
                yield self.sim.timeout(self.think_seconds)
        except ProcessInterrupt:
            pass
        return self.stats
