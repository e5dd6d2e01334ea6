"""Property tests: storms over the scenario corpus keep every invariant.

Two layers of property coverage:

- **Disconnected-mode recovery, corpus-wide** — every scenario family ×
  storm profile (and a hypothesis-driven seed sweep) runs a real shard
  under the invariant auditor and must come back with zero violations and
  a conserved deferred-op ledger.  The point of a *property* here is that
  the safety argument does not hinge on one blessed trace.  The crash
  drill's instant is a test input too, on and off the profiles' grid.
- **Estimator agility through the auditor** — the EWMA bandwidth filter,
  fed samples of a storm-modulated trace, must settle back into the
  target band within the settling SLO after the storm clears; a frozen
  estimator must be *flagged*, proving the settling invariant has teeth.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import InvariantAuditor, standard_profile
from repro.estimation.ewma import EwmaFilter
from repro.faults import Blackout, FaultPlan
from repro.fleet.shard import run_fleet_shard
from repro.trace.waveforms import constant

FAMILIES = ("urban", "highway", "office", "robustness")
DURATION = 30.0


def stormed_shard(family, profile_name, seed, clients=8):
    return run_fleet_shard(clients, DURATION, family=family, shard=0,
                           seed=seed, chaos=standard_profile(profile_name,
                                                             DURATION))


def assert_invariants(stats):
    assert stats.violations == ()
    assert stats.ops_lost == 0
    assert 0.0 <= stats.fidelity_floor <= 1.0
    assert stats.marks_attempted >= stats.marks_applied
    # Conservation arithmetic: everything enqueued is coalesced, still
    # queued, or terminally replayed (the auditor flags the remainder).
    assert stats.ops_enqueued >= stats.ops_coalesced + stats.ops_queued_at_end
    assert stats.churn_rejoined == stats.churn_left


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("profile_name", ("regional-blackout", "full-storm"))
def test_corpus_times_profiles_stay_clean(family, profile_name):
    assert_invariants(stormed_shard(family, profile_name, seed=11).chaos)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_any_seed_recovers_from_the_full_storm(seed):
    stats = stormed_shard("robustness", "full-storm", seed).chaos
    assert_invariants(stats)
    # The storm must actually have forced disconnected operation, or the
    # property is vacuous.
    assert stats.marks_deferred > 0


#: The profiles' drill instants sit on a 0.05·d grid.
DRILL_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
#: Seeds whose full-storm drill (0.3·d) once lost a write: replay emptied
#: the log before any op was acknowledged.
GRID_LOSSES = (47, 390, 434, 577, 697, 1014, 1760, 1831, 1978, 1980, 2286,
               2429, 2438, 2505, 2676)
#: (profile, seed, drill fraction) crashes that once lost writes off-grid.
OFF_GRID_LOSSES = (("full-storm", 13, 0.52), ("full-storm", 10, 0.57),
                   ("regional-blackout", 14, 0.97))


def past_losses(test):
    for seed in GRID_LOSSES:
        test = example(profile_name="full-storm", seed=seed,
                       drill_frac=0.3)(test)
    for profile_name, seed, drill_frac in OFF_GRID_LOSSES:
        test = example(profile_name=profile_name, seed=seed,
                       drill_frac=drill_frac)(test)
    return test


@settings(deadline=None)
@given(profile_name=st.sampled_from(("full-storm", "regional-blackout")),
       seed=st.integers(min_value=0, max_value=2**16),
       drill_frac=st.one_of(st.sampled_from(DRILL_GRID),
                            st.floats(min_value=0.01, max_value=0.99)))
@past_losses
def test_a_crash_at_any_instant_loses_no_write(profile_name, seed,
                                               drill_frac):
    """Write-ahead replay: the log is complete at every instant, so a
    checkpoint taken whenever the drill lands loses and repeats nothing."""
    profile = replace(standard_profile(profile_name, DURATION),
                      drill_at=drill_frac * DURATION)
    stats = run_fleet_shard(8, DURATION, family="robustness", shard=0,
                            seed=seed, chaos=profile).chaos
    assert stats.drill is not None
    assert [v for v in stats.violations
            if v[1] in ("deferred-ops", "connectivity")] == []
    assert stats.ops_lost == 0


BANDWIDTH_LEVELS = st.sampled_from([64 * 1024, 256 * 1024, 1024 * 1024])


def estimate_series(trace, ewma, step=1.0, end=60.0):
    series = []
    t = 0.0
    while t <= end:
        series.append((t, ewma.update(trace.bandwidth_at(t))))
        t += step
    return series


@settings(max_examples=8, deadline=None)
@given(level=BANDWIDTH_LEVELS,
       dark=st.floats(min_value=5.0, max_value=15.0))
def test_ewma_settles_within_slo_after_storm(level, dark):
    """Post-storm, the paper's throughput filter re-enters the band fast."""
    plan = FaultPlan([Blackout(start=30.0, duration=dark)])
    trace = plan.modulate(constant(level, duration=60.0))
    auditor = InvariantAuditor(lambda: 60.0, settling_slo=10.0)
    for t, value in estimate_series(trace, EwmaFilter(gain=0.875)):
        auditor.note_estimate(t, value)
    auditor.note_storm(30.0, 30.0 + dark, target=level)
    assert auditor.finish(60.0) == []


def test_frozen_estimator_is_flagged():
    """The settling invariant has teeth: a wedged estimate violates."""
    plan = FaultPlan([Blackout(start=30.0, duration=10.0)])
    trace = plan.modulate(constant(256 * 1024, duration=60.0))
    auditor = InvariantAuditor(lambda: 60.0, settling_slo=10.0)
    ewma = EwmaFilter(gain=0.875)
    for t, value in estimate_series(trace, ewma, end=40.0):
        auditor.note_estimate(t, value)
    # The filter stops absorbing samples right at storm end: the series
    # never climbs back toward the target.
    auditor.note_storm(30.0, 40.0, target=256 * 1024)
    violations = auditor.finish(60.0)
    assert [v.invariant for v in violations] == ["settling"]
