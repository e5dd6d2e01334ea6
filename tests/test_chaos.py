"""The chaos harness: storms, the auditor (including its teeth), the drill."""

from dataclasses import replace

import pytest

from repro.chaos import (
    ChaosProfile,
    ClientChurn,
    FlappingLink,
    InvariantAuditor,
    PROFILE_NAMES,
    RegionalBlackout,
    ServerPoolOutage,
    resolve_profile,
    run_chaos_fleet,
    standard_profile,
)
from repro.connectivity.deferred import DeferredOp, DeferredOpLog, ReplayReport
from repro.connectivity.state import ConnState, Transition
from repro.errors import FaultError
from repro.fleet.shard import run_fleet_shard

DURATION = 30.0


# -- storm primitives ---------------------------------------------------------


def test_storm_windows_validated():
    with pytest.raises(FaultError):
        RegionalBlackout(start=-1.0, duration=5.0)
    with pytest.raises(FaultError):
        RegionalBlackout(start=0.0, duration=0.0)
    with pytest.raises(FaultError):
        FlappingLink(start=0.0, flaps=0, down_seconds=1.0, up_seconds=1.0)
    with pytest.raises(FaultError):
        ServerPoolOutage(start=0.0, duration=5.0, fraction=0.0)
    with pytest.raises(FaultError):
        ClientChurn(start=0.0, fraction=1.5)
    with pytest.raises(FaultError):
        ChaosProfile(name="x", storms=("not a storm",))


def test_flapping_expands_to_windows():
    flap = FlappingLink(start=10.0, flaps=3, down_seconds=2.0, up_seconds=3.0)
    assert flap.windows() == ((10.0, 2.0), (15.0, 2.0), (20.0, 2.0))


def test_profile_names_resolve():
    for name in PROFILE_NAMES:
        profile = resolve_profile(name, DURATION)
        assert profile.name == name
    with pytest.raises(FaultError):
        standard_profile("no-such-profile", DURATION)
    ready = standard_profile("churn", DURATION)
    assert resolve_profile(ready, DURATION) is ready


# -- compilation (for_shard) --------------------------------------------------


PORTS = ("srv-0", "srv-1", "srv-2", "srv-3")


def test_for_shard_is_deterministic():
    profile = standard_profile("full-storm", DURATION)
    a = profile.for_shard(0, 16, PORTS, DURATION, seed=42, offset=5.0)
    b = profile.for_shard(0, 16, PORTS, DURATION, seed=42, offset=5.0)
    assert a == b
    other = profile.for_shard(0, 16, PORTS, DURATION, seed=43, offset=5.0)
    assert other.churn != a.churn or other.server_stalls != a.server_stalls


def test_for_shard_respects_storm_scoping():
    profile = ChaosProfile(
        name="scoped",
        storms=(RegionalBlackout(start=5.0, duration=5.0, shards=(0,)),),
    )
    hit = profile.for_shard(0, 8, PORTS, DURATION, seed=0)
    missed = profile.for_shard(1, 8, PORTS, DURATION, seed=0)
    assert hit.blackouts == ((5.0, 5.0),)
    assert missed.blackouts == ()


def test_for_shard_rejects_blackout_to_end_of_run():
    profile = ChaosProfile(
        name="dark-forever",
        storms=(RegionalBlackout(start=20.0, duration=10.0),),
    )
    with pytest.raises(FaultError, match="dark forever"):
        profile.for_shard(0, 8, PORTS, DURATION, seed=0)


def test_for_shard_rejects_out_of_run_drill():
    profile = ChaosProfile(name="late-drill", storms=(), drill_at=DURATION)
    with pytest.raises(FaultError, match="drill_at"):
        profile.for_shard(0, 8, PORTS, DURATION, seed=0)


def test_shard_chaos_absolute_times():
    profile = standard_profile("regional-blackout", DURATION)
    compiled = profile.for_shard(0, 8, PORTS, DURATION, seed=0, offset=30.0)
    (start, end), = compiled.storm_windows()
    assert start == 30.0 + 0.25 * DURATION
    assert end == start + 0.40 * DURATION


# -- the auditor's teeth (injected-violation negatives) -----------------------


class FakeTracker:
    """A hand-rolled tracker the auditor must police from the outside."""

    def __init__(self, state=ConnState.CONNECTED):
        self.state = state
        self._subscribers = []

    def subscribe(self, fn):
        self._subscribers.append(fn)

    def move(self, time, source, target, reason="test"):
        for fn in self._subscribers:
            fn(Transition(time, source, target, reason))
        self.state = target


class Clock:
    """A settable sim clock stub."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def make_auditor(now=0.0, **kwargs):
    return InvariantAuditor(Clock(now), **kwargs)


def test_auditor_accepts_legal_transitions():
    auditor = make_auditor()
    tracker = FakeTracker()
    auditor.watch_tracker("conn-0", tracker)
    tracker.move(1.0, ConnState.CONNECTED, ConnState.DEGRADED)
    tracker.move(2.0, ConnState.DEGRADED, ConnState.DISCONNECTED)
    tracker.move(3.0, ConnState.DISCONNECTED, ConnState.RECONNECTING)
    tracker.move(4.0, ConnState.RECONNECTING, ConnState.CONNECTED)
    assert auditor.violations == []


def test_auditor_flags_illegal_edge():
    auditor = make_auditor()
    tracker = FakeTracker()
    auditor.watch_tracker("conn-0", tracker)
    tracker.move(1.0, ConnState.CONNECTED, ConnState.RECONNECTING)
    assert [v.invariant for v in auditor.violations] == ["connectivity"]
    assert "illegal edge" in auditor.violations[0].detail


def test_auditor_flags_source_discontinuity_and_time_regression():
    auditor = make_auditor()
    tracker = FakeTracker()
    auditor.watch_tracker("conn-0", tracker)
    tracker.move(5.0, ConnState.CONNECTED, ConnState.DEGRADED)
    # Claims to come from CONNECTED although we observed DEGRADED, and
    # runs the clock backwards — two distinct breaches.
    tracker.move(4.0, ConnState.CONNECTED, ConnState.DEGRADED)
    details = [v.detail for v in auditor.violations]
    assert any("does not match observed state" in d for d in details)
    assert any("precedes previous" in d for d in details)


class FakeWarden:
    """Just enough warden for the conservation check: a log and reports."""

    def __init__(self, name="fake-warden"):
        self.name = name
        self.deferred = DeferredOpLog()
        self.reintegration_reports = []


def _op(log, opcode="save-mark", coalesce=None, at=1.0):
    return log.append(DeferredOp(app="app", rest="/p", opcode=opcode,
                                 inbuf={}, queued_at=at, coalesce=coalesce))


def test_auditor_conserves_deferred_ops():
    auditor = make_auditor()
    warden = FakeWarden()
    auditor.watch_warden(warden)
    applied = _op(warden.deferred)
    replaced = _op(warden.deferred, coalesce="k")
    _op(warden.deferred, coalesce="k")  # coalesces `replaced` away
    queued = _op(warden.deferred)  # still queued at the end
    assert warden.deferred.head() is applied
    warden.deferred.retire(applied)
    warden.reintegration_reports.append(
        ReplayReport(op=applied, status="applied", replayed_at=50.0))
    assert {op.seq for op in warden.deferred} > {queued.seq}
    assert replaced.seq not in {op.seq for op in warden.deferred}
    assert auditor.finish(100.0) == []


def test_auditor_flags_lost_op():
    auditor = make_auditor()
    warden = FakeWarden()
    auditor.watch_warden(warden)
    op = _op(warden.deferred)
    warden.deferred.retire(op)  # vanished: no report, no coalesce
    violations = auditor.finish(100.0)
    assert [v.invariant for v in violations] == ["deferred-ops"]
    assert "vanished" in violations[0].detail


def test_auditor_flags_double_apply_and_failed_replay():
    auditor = make_auditor()
    warden = FakeWarden()
    auditor.watch_warden(warden)
    op = _op(warden.deferred)
    dropped = _op(warden.deferred)
    warden.deferred.retire(op)
    warden.deferred.retire(dropped)
    warden.reintegration_reports += [
        ReplayReport(op=op, status="applied", replayed_at=50.0),
        ReplayReport(op=op, status="applied", replayed_at=60.0),
        ReplayReport(op=dropped, status="failed", replayed_at=70.0),
    ]
    details = [v.detail for v in auditor.finish(100.0)]
    assert any("double apply" in d for d in details)
    assert any("failed replay" in d for d in details)


def test_auditor_flags_unanswered_upcall():
    auditor = make_auditor(now=50.0, upcall_grace=10.0)
    auditor._on_viceroy_event("upcall", kind="violation", app="player",
                              request_id=7, time=5.0)
    violations = auditor.finish(50.0)
    assert [v.invariant for v in violations] == ["upcall"]


def test_auditor_upcall_answered_by_reregistration_or_departure():
    auditor = make_auditor(now=50.0, upcall_grace=10.0)
    auditor._on_viceroy_event("upcall", kind="violation", app="player",
                              request_id=7, time=5.0)
    auditor._on_viceroy_event("request", app="player", request_id=8)
    auditor._on_viceroy_event("upcall", kind="violation", app="walker",
                              request_id=9, time=5.0)
    auditor.note_departure("walker")
    assert auditor.finish(50.0) == []


def test_auditor_recovery_slo():
    auditor = make_auditor(recovery_slo=10.0)
    slow, fast = FakeTracker(), FakeTracker()
    auditor.watch_tracker("slow", slow)
    auditor.watch_tracker("fast", fast)
    for tracker in (slow, fast):
        tracker.move(1.0, ConnState.CONNECTED, ConnState.DEGRADED)
        tracker.move(2.0, ConnState.DEGRADED, ConnState.DISCONNECTED)
    auditor.note_storm(0.0, 20.0)
    fast.move(24.0, ConnState.DISCONNECTED, ConnState.RECONNECTING)
    fast.move(25.0, ConnState.RECONNECTING, ConnState.CONNECTED)
    violations = auditor.finish(100.0)
    assert [(v.invariant, v.subject) for v in violations] \
        == [("recovery", "slow")]
    assert auditor.recovery_seconds == [5.0]
    assert auditor.max_recovery_seconds == 5.0


def test_auditor_recovery_follows_a_tracker_restarted_after_the_storm():
    """A drill after the storm ends replaces an offline tracker with one
    that starts CONNECTED: that is recovery, at the restart instant."""
    clock = Clock()
    auditor = InvariantAuditor(clock, recovery_slo=10.0)
    old = FakeTracker()
    auditor.watch_tracker("conn-0", old)
    old.move(1.0, ConnState.CONNECTED, ConnState.DEGRADED)
    old.move(2.0, ConnState.DEGRADED, ConnState.DISCONNECTED)
    auditor.note_storm(0.0, 20.0)
    clock.now = 21.0
    new = FakeTracker(ConnState.CONNECTED)
    auditor.watch_tracker("conn-0", new)
    # A restart is not a transition: the successor's moves are judged
    # from its own initial state, and the retired tracker is ignored.
    new.move(22.0, ConnState.CONNECTED, ConnState.DEGRADED)
    old.move(23.0, ConnState.DISCONNECTED, ConnState.RECONNECTING)
    assert auditor.finish(100.0) == []
    assert auditor.recovery_seconds == [1.0]


def test_auditor_recovery_defers_to_overlapping_later_storm():
    auditor = make_auditor(recovery_slo=10.0)
    tracker = FakeTracker()
    auditor.watch_tracker("conn-0", tracker)
    tracker.move(1.0, ConnState.CONNECTED, ConnState.DEGRADED)
    tracker.move(2.0, ConnState.DEGRADED, ConnState.DISCONNECTED)
    auditor.note_storm(0.0, 20.0)
    auditor.note_storm(25.0, 90.0)  # re-covers the link before the SLO runs out
    # Never recovers from the first storm, but the second owns the deadline
    # — and the run ends before *its* SLO horizon can be judged... except
    # it can: end=90, slo=10, now=100 is exactly the horizon boundary.
    tracker.move(95.0, ConnState.DISCONNECTED, ConnState.RECONNECTING)
    tracker.move(96.0, ConnState.RECONNECTING, ConnState.CONNECTED)
    assert auditor.finish(100.0) == []


# -- one stormed shard, end to end --------------------------------------------


def run_small_shard(profile_name="regional-blackout", clients=8, seed=7,
                    **kwargs):
    profile = standard_profile(profile_name, DURATION)
    return run_fleet_shard(clients, DURATION, shard=0, seed=seed,
                           chaos=profile, **kwargs)


def test_stormed_shard_stays_clean():
    result = run_small_shard()
    stats = result.chaos
    assert stats.violations == ()
    assert stats.ops_lost == 0
    assert stats.marks_deferred > 0  # the blackout forced deferrals
    assert 0.0 < stats.fidelity_floor < 1.0
    assert stats.drill is not None
    assert stats.drill.deferred_restored > 0
    assert stats.drill.registrations_restored \
        == stats.drill.registrations_before
    assert not stats.drill.registrations_dropped


def test_churned_shard_accounts_for_departures():
    result = run_small_shard("churn")
    stats = result.chaos
    assert stats.violations == ()
    assert stats.churn_left > 0
    assert stats.churn_rejoined == stats.churn_left


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_drill_on_a_probe_deadline_runs_to_completion(seed):
    """At 0.45·d the drill fails in-flight RPCs in the same instant the
    prober's ``__ping__`` deadline fires; the shard must survive it.
    (Completion only: lost deferred writes are audited elsewhere.)"""
    profile = replace(standard_profile("full-storm", DURATION), drill_at=13.5)
    result = run_fleet_shard(8, DURATION, family="robustness", shard=0,
                             seed=seed, chaos=profile)
    assert result.chaos.drill is not None


def test_plain_shard_carries_no_chaos():
    result = run_fleet_shard(4, DURATION, shard=0, seed=7)
    assert result.chaos is None


# -- fleet determinism and the CLI --------------------------------------------


def test_chaos_fleet_fingerprint_is_jobs_invariant():
    serial = run_chaos_fleet(16, shards=2, duration=DURATION,
                             jobs=1, cache=None)
    parallel = run_chaos_fleet(16, shards=2, duration=DURATION,
                               jobs=2, cache=None)
    assert serial.total_violations == 0
    assert serial.fingerprint() == parallel.fingerprint()
    undrilled = run_chaos_fleet(16, shards=2, duration=DURATION,
                                drill=False, jobs=1, cache=None)
    assert undrilled.drills == []
    assert undrilled.fingerprint() != serial.fingerprint()


def test_chaos_cli_smoke(capsys):
    from repro.cli import main

    status = main(["--no-cache", "chaos", "--clients", "8", "--shards", "2",
                   "--duration", "30", "--profile", "regional-blackout",
                   "--timeout", "300"])
    out = capsys.readouterr().out
    assert status == 0
    assert "chaos profile 'regional-blackout'" in out
    assert "0 violations" in out
    assert "fingerprint" in out
