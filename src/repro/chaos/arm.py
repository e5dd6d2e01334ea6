"""Arming: wire a compiled :class:`ShardChaos` into a live shard world.

One call — :func:`arm_chaos` — schedules everything a shard's chaos run
needs before the simulation starts:

- the runtime fault plan (server-pool stalls) via the existing
  :class:`~repro.faults.injector.FaultInjector`;
- churn departures (cancel the client's registrations, tell the auditor,
  interrupt the app) and rejoins (restart the app, which re-registers);
- the crash–recovery drill at its scheduled instant;
- the :class:`~repro.chaos.auditor.InvariantAuditor`, attached to the
  viceroy's observer stream, every tracker, and every warden's deferred
  log, with each storm window registered for the recovery SLO.

Blackouts are *not* armed here: they were folded into the shard's trace
before the world existed (see :meth:`ShardChaos.link_plan`), which is the
only way a mid-run outage reaches the link layer deterministically.

The returned :class:`ChaosController` owns the auditor and drill outcome
and reduces the whole run to a picklable :class:`ChaosShardStats` — the
graceful-degradation scorecard one shard contributes to the fleet merge.
"""

from dataclasses import dataclass

from repro.chaos.auditor import InvariantAuditor
from repro.chaos.drill import run_crash_drill


@dataclass(frozen=True)
class ChaosShardStats:
    """One shard's chaos scorecard (picklable, fingerprint-stable)."""

    profile: str
    blackouts: int
    server_stalls: int
    churn_left: int
    churn_rejoined: int
    marks_attempted: int
    marks_deferred: int
    marks_applied: int
    ops_enqueued: int
    ops_coalesced: int
    ops_queued_at_end: int
    ops_lost: int
    fidelity_floor: float
    recovery_max_seconds: float
    violations: tuple  #: Violation.as_tuple() rows, detection order
    drill: object = None  #: DrillOutcome, or None if no drill ran


class ChaosController:
    """Holds a shard's armed chaos machinery until the run finishes."""

    def __init__(self, world, fleet, shard_chaos, profile_name):
        self.world = world
        self.fleet = fleet
        self.shard_chaos = shard_chaos
        self.profile_name = profile_name
        self.auditor = InvariantAuditor(
            clock=lambda: world.sim.now,
            recovery_slo=shard_chaos.recovery_slo,
            upcall_grace=shard_chaos.upcall_grace,
        )
        self.injector = None
        self.drill_outcome = None
        self.churn_left = 0
        self.churn_rejoined = 0

    # -- churn ----------------------------------------------------------------

    def _leave(self, client):
        if client.process is None or not client.process.alive:
            return  # already gone (or never started); nothing to tear down
        viceroy = self.world.viceroy
        for registration in viceroy.registered_requests(app=client.api.app):
            viceroy.cancel(registration.request_id)
        self.auditor.note_departure(client.api.app)
        client.stop()
        self.churn_left += 1

    def _rejoin(self, client):
        if client.process is not None and client.process.alive:
            return
        client.start()
        self.churn_rejoined += 1

    def _drill(self):
        self.drill_outcome = run_crash_drill(self.world.viceroy)

    # -- reduction ------------------------------------------------------------

    def finish(self, start, end):
        """Close the audit and reduce to :class:`ChaosShardStats`."""
        violations = self.auditor.finish(end)
        lost = sum(1 for v in violations if v.invariant == "deferred-ops")
        wardens = self.world.viceroy._distinct_wardens()
        floors = [client.core.min_fidelity(start, end)
                  for client in self.fleet]
        return ChaosShardStats(
            profile=self.profile_name,
            blackouts=len(self.shard_chaos.blackouts),
            server_stalls=len(self.shard_chaos.server_stalls),
            churn_left=self.churn_left,
            churn_rejoined=self.churn_rejoined,
            marks_attempted=sum(c.marks_attempted for c in self.fleet),
            marks_deferred=sum(c.marks_deferred for c in self.fleet),
            marks_applied=sum(getattr(w, "marks_applied", 0)
                              for w in wardens),
            ops_enqueued=sum(w.deferred.enqueued for w in wardens),
            ops_coalesced=sum(w.deferred.coalesced for w in wardens),
            ops_queued_at_end=sum(len(w.deferred) for w in wardens),
            ops_lost=lost,
            fidelity_floor=min(floors) if floors else 0.0,
            recovery_max_seconds=self.auditor.max_recovery_seconds,
            violations=self.auditor.violation_tuples(),
            drill=self.drill_outcome,
        )


def arm_chaos(world, fleet, servers, shard_chaos, profile_name="chaos"):
    """Schedule a shard's storms, churn, drill, and audit; returns the
    :class:`ChaosController`.  Call after the world is built and before
    the simulation runs."""
    controller = ChaosController(world, fleet, shard_chaos, profile_name)
    sim = world.sim

    runtime = shard_chaos.runtime_plan()
    if runtime.faults:
        controller.injector = runtime.arm(
            sim, services=[server.service for server in servers],
            rng=world.rng.stream("chaos-faults"),
        )

    for leave, rejoin, client_index in shard_chaos.churn:
        if client_index >= len(fleet):
            continue
        client = fleet[client_index]
        sim.call_at(shard_chaos.absolute(leave), controller._leave, client)
        sim.call_at(shard_chaos.absolute(rejoin), controller._rejoin, client)

    if shard_chaos.drill_at is not None:
        sim.call_at(shard_chaos.absolute(shard_chaos.drill_at),
                    controller._drill)

    auditor = controller.auditor
    auditor.attach_viceroy(world.viceroy)
    for warden in world.viceroy._distinct_wardens():
        auditor.watch_warden(warden)
    for start, end in shard_chaos.storm_windows():
        auditor.note_storm(start, end)
    return controller
