"""The xanim player: static and adaptive playback policies (paper §6.2.2).

"Xanim's adaptation goal is to play the highest quality possible without
dropping frames."  The player computes each track's bandwidth requirement
from the movie metadata, begins at the highest sustainable quality, and
registers a window of tolerance around its current track: the lower edge is
the track's own demand, the upper edge the demand of the next-better track
(crossing it means an upgrade is possible).  Frames whose data has not
arrived by their display deadline are dropped, and the playback clock never
stalls — a movie is 60 seconds long no matter what.
"""

from dataclasses import dataclass, field

from repro.apps.base import Application
from repro.core.adaptive import AdaptiveClient
from repro.core.ladder import FidelityLadder
from repro.errors import ProcessInterrupt

#: Per-frame protocol overhead (request + headers) charged when the player
#: converts track frame rates into bandwidth demands, bytes.
WIRE_OVERHEAD_BYTES = 224
#: Hysteresis: an upgrade needs this multiple of the better track's demand.
UPGRADE_MARGIN = 1.03
#: Frames buffered (via warden read-ahead) before the playback clock starts.
STARTUP_BUFFER_FRAMES = 4
#: Minimum seconds between track switches.  Every switch empties the
#: read-ahead buffer, so chasing a noisy estimate costs more frames than
#: it saves; within the dwell the player widens its tolerance window and
#: re-evaluates when the dwell expires.
SWITCH_DWELL_SECONDS = 3.0


@dataclass
class PlayerStats:
    """What one playback run measured (the Fig. 10 columns)."""

    displayed: dict = field(default_factory=dict)  # track -> frames shown
    drops: int = 0
    switches: list = field(default_factory=list)  # (time, from, to)
    frame_log: list = field(default_factory=list)  # (index, track or None)

    @property
    def frames_displayed(self):
        return sum(self.displayed.values())

    def fidelity(self, fidelity_of):
        """Mean fidelity over displayed frames (paper §6.2.2)."""
        shown = self.frames_displayed
        if shown == 0:
            return 0.0
        total = sum(fidelity_of(track) * count
                    for track, count in self.displayed.items())
        return total / shown


class VideoPlayer(Application):
    """Plays one movie through the video warden.

    Parameters
    ----------
    policy:
        ``"adaptive"`` or a fixed track name (``"jpeg99"``, ``"jpeg50"``,
        ``"bw"``) — the paper's static strategies.
    """

    handler = "video-bandwidth"

    def __init__(self, sim, api, name, path, movie_name, policy="adaptive",
                 measure_from=0.0):
        super().__init__(sim, api, name)
        self.path = path
        self.movie_name = movie_name
        self.policy = policy
        #: Frames whose deadline falls before this simulation time are
        #: played but not counted — the paper's 30-second priming period.
        self.measure_from = measure_from
        self.stats = PlayerStats()
        self.meta = None
        self.fidelities = {}
        self._rebuffer_pending = False
        self._recheck_scheduled = False

    @property
    def current_track(self):
        """The track playing: the adaptive core's rung, or the fixed one."""
        return self.policy if self.core is None else self.core.fidelity

    # -- track selection -----------------------------------------------------

    def _load_meta(self, meta):
        self.meta = meta
        tracks = meta["tracks"]
        self.fidelities = {t: tracks[t]["fidelity"] for t in tracks}
        if self.policy == "adaptive":
            ladder = FidelityLadder(
                sorted(tracks, key=lambda t: tracks[t]["fidelity"]),
                self.demand, UPGRADE_MARGIN)
            self.core = AdaptiveClient(ladder, dwell=SWITCH_DWELL_SECONDS)
            self.core.on_fidelity = self._switched

    def demand(self, track):
        """Bandwidth (bytes/s) ``track`` needs, wire overhead included."""
        return (self.meta["tracks"][track]["bandwidth"]
                + WIRE_OVERHEAD_BYTES * self.meta["fps"])

    def _switched(self, now, track):
        log = self.core.fidelity_log
        if len(log) > 1:  # the first choice is not a switch
            self.stats.switches.append((now, log[-2][1], track))
            self._rebuffer_pending = True

    def _negotiate(self):
        super()._negotiate()
        # A switch the dwell held back is revisited when the hold ends.
        hold_until = self.core.hold_until
        if hold_until is not None and not self._recheck_scheduled:
            self._recheck_scheduled = True
            self.sim.call_in(max(hold_until - self.sim.now, 1e-3),
                             self._recheck)

    def _recheck(self):
        self._recheck_scheduled = False
        if self.process is None or not self.process.alive:
            return
        self.core.recheck(self.api.availability(self.path))
        self._negotiate()

    # -- playback ------------------------------------------------------------------

    def run(self):
        meta = yield from self.api.tsop(self.path, "get-meta",
                                        {"movie": self.movie_name})
        self._load_meta(meta)
        if self.core is not None:
            self._join(self.api.availability(self.path))
        fps = meta["fps"]
        n_frames = meta["frames"]
        # Fetch the first frame, then let the warden's read-ahead build a
        # small buffer before the playback clock starts — without this, the
        # per-frame round trip keeps playback perpetually one frame late.
        yield from self.api.tsop(
            self.path, "get-frame",
            {"movie": self.movie_name, "track": self.current_track, "index": 0,
             "exact": True},
        )
        yield self.sim.timeout(STARTUP_BUFFER_FRAMES / fps)
        start = self.sim.now
        index = 0
        try:
            while index < n_frames:
                if self._rebuffer_pending:
                    # A track switch emptied the read-ahead buffer (the
                    # warden discards stale prefetches).  Sacrifice a few
                    # frames up front so the new track's pipeline starts
                    # with margin, instead of sputtering for seconds.
                    self._rebuffer_pending = False
                    for _ in range(STARTUP_BUFFER_FRAMES):
                        if index >= n_frames:
                            break
                        self._drop(index, start + index / fps)
                        index += 1
                    continue
                deadline = start + index / fps
                if self.sim.now > deadline:
                    # This frame's moment has already passed: drop it and
                    # move on without wasting bandwidth on it.
                    self._drop(index, deadline)
                    index += 1
                    continue
                track = self.current_track
                got_index, _ = yield from self.api.tsop(
                    self.path, "get-frame",
                    {"movie": self.movie_name, "track": track, "index": index},
                )
                # The warden may serve a later frame: under constrained
                # bandwidth its read-ahead strides through the movie, and
                # the frames in between were never fetched.  They are the
                # drops (paper: performance metric is frames dropped).
                for skipped in range(index, got_index):
                    self._drop(skipped, start + skipped / fps)
                deadline = start + got_index / fps
                if self.sim.now <= deadline:
                    yield self.sim.timeout(deadline - self.sim.now)
                    self._display(got_index, track, deadline)
                    index = got_index + 1
                else:
                    # Arrived late (paper: frames in flight at a downward
                    # transition are destined to be late).  Skip far enough
                    # ahead to restore the pipeline's margin: the next
                    # demand realigns the warden's read-ahead position, so
                    # lateness costs a bounded burst of drops instead of a
                    # permanent every-other-frame sputter.
                    self._drop(got_index, deadline)
                    lateness = self.sim.now - deadline
                    index = got_index + 1
                    if lateness > 2.0 / fps:
                        # Substantially behind: rebuild margin.  Minor
                        # lateness self-corrects through the skip at the
                        # loop top; resyncing for it would discard frames
                        # the pipeline already has.
                        resync = int(lateness * fps) + STARTUP_BUFFER_FRAMES
                        for _ in range(resync):
                            if index >= n_frames:
                                break
                            self._drop(index, start + index / fps)
                            index += 1
        except ProcessInterrupt:
            pass
        return self.stats

    def _display(self, index, track, deadline):
        if deadline < self.measure_from:
            return
        self.stats.displayed[track] = self.stats.displayed.get(track, 0) + 1
        self.stats.frame_log.append((index, track))

    def _drop(self, index, deadline):
        if deadline < self.measure_from:
            return
        self.stats.drops += 1
        self.stats.frame_log.append((index, None))

    @property
    def fidelity(self):
        """Mean fidelity of displayed frames."""
        return self.stats.fidelity(lambda track: self.fidelities[track])
