"""Disconnected operation: degraded service, deferral, and reintegration.

The paper's adaptation story assumes the network degrades but never dies;
this experiment stresses the extension that handles actual death.  One
trial walks the client through the canonical disconnected-operation arc:

1. **connect** — a browsing client fetches a small rotating corpus through
   the web warden (distillation path), warming the warden cache, with a
   bandwidth window of tolerance registered;
2. **blackout** — the link goes dark for a fixed window.  Fetch deadlines
   expire, the connection's :class:`~repro.connectivity.state.ConnectivityTracker`
   walks CONNECTED → DEGRADED → DISCONNECTED, and the viceroy issues
   level-0 "disconnected" upcalls;
3. **serve stale** — reads are answered from the warden cache with their
   staleness recorded; misses fail fast with
   :class:`~repro.errors.Disconnected` instead of hanging in retries;
4. **queue writes** — the client keeps submitting a form; while
   disconnected the mutating tsop lands in the deferred-op log;
5. **reconnect & reintegrate** — heartbeat probes detect the link's
   return (DISCONNECTED → RECONNECTING → CONNECTED) and the warden
   replays the queued ops in order, reporting each as applied or
   conflicted.

A viceroy checkpoint/restore (JSON round-tripped) runs mid-trial,
simulating a restart that must not lose live registrations.

``run_disconnected_comparison`` repeats the identical trial with the
warden cache effectively disabled — the measured value of degraded
service is the gap in blackout-window success rates.
"""

import json
from collections import Counter
from dataclasses import dataclass, field

from repro.apps.web.images import ImageStore
from repro.apps.web.warden import build_web
from repro.core.api import OdysseyAPI
from repro.core.resources import Resource
from repro.errors import Disconnected, RpcError, RpcTimeout, ToleranceError
from repro.experiments.harness import ExperimentWorld
from repro.faults import Blackout, FaultPlan
from repro.parallel.runner import TrialUnit, run_units
from repro.rpc.connection import RetryPolicy
from repro.trace.scenarios import generate_scenario

APP_NAME = "disconnected-client"
WINDOW_HANDLER = "bandwidth-window"
WEB_PATH = "/odyssey/web/browse"
FORM_NAME = "guestbook"

DEFAULT_DURATION = 180.0
#: The blackout window: long enough for the tracker to reach DISCONNECTED
#: with time left over for pure cache service, ending well before the
#: trace does so recovery and reintegration complete on-trace.
BLACKOUT_START = 60.0
BLACKOUT_SECONDS = 45.0
#: Pause between page fetches.
FETCH_THINK = 0.5
#: Pause between form submissions (the mutating traffic).
POST_INTERVAL = 2.0
#: Images in the rotating corpus; small, so the cache holds all of them
#: and blackout-window reads can be answered stale.
CORPUS_IMAGES = 4
#: When the mid-trial checkpoint/restore runs — before the blackout, while
#: the window registration is alive and must survive the restart.
RESTART_AT = 30.0
#: Fetch/post budget: fail into degraded service within a few seconds
#: rather than exhausting the full backoff schedule.
DEFAULT_RETRY = RetryPolicy(timeout=1.0, retries=2, backoff=0.2,
                            multiplier=2.0, cap=1.0, deadline=3.0)
PROBE_INTERVAL = 2.0
PROBE_TIMEOUT = 1.5
#: Half-width of the bandwidth window, as a fraction of the estimate.
WINDOW_SLACK = 0.6


@dataclass
class DisconnectedResult:
    """Counters from one disconnected-operation trial."""

    policy: str
    cache_enabled: bool
    #: Reads answered live from the network.
    fetched_live: int = 0
    #: Reads answered from cache while degraded/disconnected.
    served_stale: int = 0
    #: Reads that failed fast with a typed Disconnected error.
    failed_disconnected: int = 0
    #: Reads that surfaced a plain RpcTimeout (deadline on a cache miss).
    failed_timeout: int = 0
    #: Age (seconds) of every stale copy served.
    stale_ages: list = field(default_factory=list, repr=False)
    #: Form posts acknowledged live by the origin server.
    posts_live: int = 0
    #: Form posts queued to the deferred-op log.
    posts_deferred: int = 0
    #: Form posts whose retry budget expired before deferral kicked in.
    posts_timeout: int = 0
    #: Reintegration reports by status ("applied"/"conflict"/...).
    reintegrated: dict = field(default_factory=dict)
    #: Replay happened in enqueue order (sequence numbers ascending).
    replay_in_order: bool = True
    #: Level-0 upcalls the viceroy issued on DISCONNECTED.
    disconnect_upcalls: int = 0
    #: The tracker's transition history: (time, source, target, reason).
    transitions: list = field(default_factory=list, repr=False)
    #: Final connectivity state of the warden's connection.
    final_state: str = ""
    #: Fetch attempts started inside the blackout window / how many of
    #: them returned data (live or stale).
    blackout_attempts: int = 0
    blackout_successes: int = 0
    #: Mid-trial checkpoint/restore: registrations snapshotted, restored,
    #: and dropped (unknown connection) by the simulated restart.
    checkpoint_registrations: int = 0
    checkpoint_restored: int = 0
    checkpoint_dropped: int = 0
    #: Window re-registrations over the whole trial.
    registrations: int = 0

    @property
    def blackout_success_rate(self):
        """Fraction of blackout-window reads that returned data."""
        if not self.blackout_attempts:
            return 0.0
        return self.blackout_successes / self.blackout_attempts

    @property
    def mean_staleness(self):
        if not self.stale_ages:
            return 0.0
        return sum(self.stale_ages) / len(self.stale_ages)


def default_blackout_plan(start=BLACKOUT_START, duration=BLACKOUT_SECONDS):
    """A single hard blackout — the disconnection under test."""
    return FaultPlan([Blackout(start=start, duration=duration)],
                     name="disconnection")


def run_disconnected_trial(policy="odyssey", seed=0, duration=DEFAULT_DURATION,
                           faults=None, cache_enabled=True, max_staleness=None,
                           retry=DEFAULT_RETRY):
    """One disconnected-operation run; returns a :class:`DisconnectedResult`.

    ``cache_enabled=False`` shrinks the warden cache to one byte — every
    insert is refused, so degraded service has nothing to serve and every
    blackout read fails.  That is the baseline the benchmark compares
    degraded-service mode against.
    """
    faults = faults or default_blackout_plan()
    blackout = faults.blackouts[0]
    blackout_end = blackout.start + blackout.duration
    trace = faults.modulate(generate_scenario("robustness", duration, seed=seed))
    # prime=0: fault-plan times are absolute simulation seconds.
    world = ExperimentWorld(trace, policy=policy, prime=0.0, seed=seed)

    store = ImageStore()
    corpus = store.add_synthetic_corpus(CORPUS_IMAGES, seed=seed)
    warden, distiller, web_server = build_web(
        world.sim, world.viceroy, world.network, store,
        retry=retry, max_staleness=max_staleness,
        **({} if cache_enabled else {"cache_bytes": 1}),
    )
    world.jitter_service(web_server.service)
    world.jitter_service(distiller.service)
    conn = warden.primary_connection()
    warden.start_heartbeat(conn, interval=PROBE_INTERVAL,
                           timeout=PROBE_TIMEOUT)

    result = DisconnectedResult(policy=policy, cache_enabled=cache_enabled)
    api = OdysseyAPI(world.viceroy, APP_NAME)
    faults.arm(world.sim, network=world.network,
               services=[web_server.service, distiller.service],
               rng=world.rng)

    def ensure_registration():
        """(Re-)register the bandwidth window if none is live."""
        if world.viceroy.registered_requests(APP_NAME):
            return
        tracker = warden.connectivity(conn)
        if tracker is not None and tracker.offline:
            return  # pointless while dark; re-register after recovery
        level = api.availability(WEB_PATH)
        if level is None:
            return
        try:
            api.request(
                WEB_PATH, Resource.NETWORK_BANDWIDTH,
                level * (1.0 - WINDOW_SLACK), level * (1.0 + WINDOW_SLACK),
                handler=WINDOW_HANDLER,
            )
        except ToleranceError:
            return  # estimate moved underneath us; retried after next fetch
        result.registrations += 1

    def on_window(upcall):
        if upcall.level == 0.0:
            result.disconnect_upcalls += 1
        ensure_registration()

    api.on_upcall(WINDOW_HANDLER, on_window)

    def in_blackout(t):
        return blackout.start <= t < blackout_end

    def fetch_loop():
        index = 0
        while True:
            name = corpus[index % len(corpus)].name
            index += 1
            counted = in_blackout(world.sim.now)
            if counted:
                result.blackout_attempts += 1
            stale_before = warden.stale_served
            try:
                yield from api.tsop(WEB_PATH, "get-image", {"name": name})
            except Disconnected:
                result.failed_disconnected += 1
            except RpcTimeout:
                result.failed_timeout += 1
            else:
                if warden.stale_served > stale_before:
                    result.served_stale += 1
                else:
                    result.fetched_live += 1
                if counted:
                    result.blackout_successes += 1
            ensure_registration()
            yield world.sim.timeout(FETCH_THINK)

    def post_loop():
        # The version advances on a live acknowledgement or a deferral
        # (optimistic local versioning), but *not* on a timeout: a post
        # whose reply was lost may already have been applied server-side,
        # so its version is re-submitted and the origin reports it as a
        # conflict — both reintegration outcomes show up in the reports.
        version = 1
        while True:
            try:
                reply = yield from api.tsop(
                    WEB_PATH, "post-form",
                    {"form": FORM_NAME, "version": version},
                )
            except RpcTimeout:
                result.posts_timeout += 1
            except RpcError:
                pass  # connection torn down under the call
            else:
                version += 1
                if reply.get("deferred"):
                    result.posts_deferred += 1
                else:
                    result.posts_live += 1
            yield world.sim.timeout(POST_INTERVAL)

    world.sim.process(fetch_loop(), name="disc.fetch")
    world.sim.process(post_loop(), name="disc.post")

    def do_restart():
        """Simulated viceroy restart: checkpoint, JSON round-trip, restore."""
        snapshot = json.loads(json.dumps(world.viceroy.checkpoint()))
        restored, dropped = world.viceroy.restore(snapshot)
        result.checkpoint_registrations = len(snapshot["registrations"])
        result.checkpoint_restored = restored
        result.checkpoint_dropped = len(dropped)

    world.sim.call_at(RESTART_AT, do_restart)
    world.sim.run(until=duration)

    result.stale_ages = list(warden.staleness_served)
    reports = warden.reintegration_reports
    result.reintegrated = dict(Counter(report.status for report in reports))
    seqs = [report.op.seq for report in reports]
    result.replay_in_order = seqs == sorted(seqs)
    tracker = warden.connectivity(conn)
    if tracker is not None:
        result.transitions = [
            (t.time, t.source.value, t.target.value, t.reason)
            for t in tracker.transitions
        ]
        result.final_state = tracker.state.value
    return result


def run_disconnected_comparison(policy="odyssey", seed=0,
                                duration=DEFAULT_DURATION, faults=None,
                                max_staleness=None):
    """The same blackout with and without the cache: ``(cached, uncached)``.

    Both runs share the seed, trace, fault plan and traffic pattern; the
    success-rate gap inside the blackout window is the measured value of
    degraded-service mode.
    """
    base = {"policy": policy, "duration": duration, "faults": faults,
            "max_staleness": max_staleness}
    cached, uncached = run_units([
        TrialUnit("disconnected", {**base, "cache_enabled": True}, seed),
        TrialUnit("disconnected", {**base, "cache_enabled": False}, seed),
    ])
    return cached, uncached
