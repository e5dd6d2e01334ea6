"""End-to-end disconnected-operation experiment.

One module-scoped comparison run backs several assertions: the trial is
deterministic per seed, so the cost is paid once.
"""

import pytest

from repro.apps.web.server import WebServer
from repro.experiments.disconnected import (
    BLACKOUT_SECONDS,
    BLACKOUT_START,
    DisconnectedResult,
    default_blackout_plan,
    run_disconnected_comparison,
    run_disconnected_trial,
)


@pytest.fixture(scope="module")
def comparison():
    return run_disconnected_comparison(seed=3)


def test_blackout_arc_completes(comparison):
    cached, _ = comparison
    # Phase 1: live fetches warmed the cache before the lights went out.
    assert cached.fetched_live > 0
    # Phase 2/3: the blackout was survived on stale cache hits.
    assert cached.served_stale > 0
    assert cached.blackout_attempts > 0
    assert cached.blackout_success_rate > 0.5
    assert cached.stale_ages and cached.mean_staleness > 0
    # Phase 4: mutating traffic was queued...
    assert cached.posts_deferred > 0
    # Phase 5: ...and replayed, in order, once the link returned.
    assert sum(cached.reintegrated.values()) == cached.posts_deferred
    assert cached.reintegrated.get("applied", 0) > 0
    assert cached.replay_in_order
    assert cached.final_state == "connected"


def test_disconnect_upcalls_issued(comparison):
    cached, uncached = comparison
    assert cached.disconnect_upcalls > 0
    assert uncached.disconnect_upcalls > 0
    # The app re-registered its window after recovery.
    assert cached.registrations > 1


def test_tracker_walked_the_expected_states(comparison):
    cached, _ = comparison
    targets = [target for _, _, target, _ in cached.transitions]
    for state in ("degraded", "disconnected", "reconnecting", "connected"):
        assert state in targets
    # The injected blackout produced a disconnection inside its window.
    assert any(
        target == "disconnected"
        and BLACKOUT_START <= time <= BLACKOUT_START + BLACKOUT_SECONDS + 10
        for time, _, target, _ in cached.transitions
    )


def test_checkpoint_survived_the_restart(comparison):
    cached, _ = comparison
    assert cached.checkpoint_registrations > 0
    assert cached.checkpoint_restored == cached.checkpoint_registrations
    assert cached.checkpoint_dropped == 0


def test_cache_is_what_makes_the_blackout_survivable(comparison):
    cached, uncached = comparison
    assert cached.blackout_success_rate > uncached.blackout_success_rate
    assert uncached.served_stale == 0
    # Without a cache, blackout reads fail fast rather than hang.
    assert uncached.failed_disconnected + uncached.failed_timeout > 0


def test_no_post_overtakes_the_backlog(monkeypatch):
    """New writes queue behind a replay in progress, so the origin never
    receives a version older than one it has already accepted.  (The
    trials ``run_disconnected_comparison`` runs, in process.)"""
    overtaken = []
    post = WebServer._post

    def checked_post(self, body):
        if body["version"] < self.forms.get(body["form"], 0):
            overtaken.append(body["version"])
        return post(self, body)

    monkeypatch.setattr(WebServer, "_post", checked_post)
    for seed in range(5):
        for cache_enabled in (True, False):
            run_disconnected_trial(seed=seed, cache_enabled=cache_enabled)
    assert overtaken == []


def test_trials_are_deterministic():
    first = run_disconnected_trial(seed=11, duration=120.0)
    second = run_disconnected_trial(seed=11, duration=120.0)
    assert first == second


def test_bounded_staleness_trades_availability():
    """A tight staleness bound turns stale hits into typed failures."""
    plan = default_blackout_plan()
    loose = run_disconnected_trial(seed=3, faults=plan)
    tight = run_disconnected_trial(seed=3, faults=plan, max_staleness=2.0)
    assert tight.blackout_success_rate < loose.blackout_success_rate
    assert tight.failed_disconnected > loose.failed_disconnected
    assert all(age <= 2.0 for age in tight.stale_ages)


def test_result_rates_degenerate_cleanly():
    empty = DisconnectedResult(policy="odyssey", cache_enabled=True)
    assert empty.blackout_success_rate == 0.0
    assert empty.mean_staleness == 0.0
