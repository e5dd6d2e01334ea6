"""The continuous invariant auditor: safety properties checked as they run.

A chaos run is only evidence if something *checks* it.  The auditor
subscribes to the seams the core already exposes — viceroy observers
(:meth:`~repro.core.viceroy.Viceroy.add_observer`), tracker transition
listeners, and the deferred-log append observer — and audits four safety
properties continuously, with sim-time provenance on every violation:

1. **Deferred-op conservation** — every op ever accepted into a deferred
   log is, by the end of the run, either still queued, coalesced away by
   a newer op, or terminally replayed exactly once.  Lost ops (vanished
   without a terminal report) and double-applies both violate.
2. **Connectivity legality** — every observed tracker transition must be
   an edge of :data:`~repro.connectivity.state.VALID_TRANSITIONS`, with
   monotonically non-decreasing timestamps and a source matching the
   previously observed state.  (The tracker enforces its own edges; the
   auditor re-checks from the *outside*, so a future regression — or a
   hand-rolled tracker — cannot silently skip states.)
3. **Upcalls answered** — a violation/disconnect upcall tears down its
   registration; the owning application must re-register (a ``request``
   event), receive a teardown notice, or depart (churn) within the
   grace period.  An unanswered upcall means an application wedged.
4. **Recovery SLO** — a tracker that is offline when a storm window
   closes must reach CONNECTED within ``recovery_slo`` seconds, unless a
   later storm window re-covers it or the run ends first.  Optionally, a
   sampled estimate series must settle to a target within
   ``settling_slo`` after each storm (property tests use this; fleet
   shards leave it off).

The auditor never mutates the world and holds only plain data, so its
conclusions (:class:`Violation` tuples) are picklable and deterministic.
"""

import math
from dataclasses import dataclass

from repro.connectivity.state import VALID_TRANSITIONS, ConnState
from repro.errors import ReproError
from repro.estimation.agility import settling_time


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with simulation-time provenance."""

    time: float  #: sim time the breach was detected
    invariant: str  #: "deferred-ops" | "connectivity" | "upcall" | "recovery" | "settling"
    subject: str  #: warden / tracker / app the breach is about
    detail: str

    def as_tuple(self):
        return (round(self.time, 9), self.invariant, self.subject, self.detail)


class _TrackerWatch:
    """Transition history and legality state for one tracker name."""

    __slots__ = ("name", "tracker", "state", "last_time", "history")

    def __init__(self, name):
        self.name = name
        self.history = []  # (time, state after move)

    def adopt(self, tracker, now):
        """Follow ``tracker`` (a restart, not a transition) from ``now``."""
        self.tracker = tracker
        self.state = tracker.state
        self.last_time = now
        self.history.append((now, tracker.state))

    def offline_at(self, t):
        """Was the tracker offline at time ``t`` (per observed history)?"""
        state = self.history[0][1]
        for at, target in self.history:
            if at > t:
                break
            state = target
        return state in (ConnState.DISCONNECTED, ConnState.RECONNECTING)

    def first_connected_after(self, t):
        """Earliest observed entry into CONNECTED at or after ``t``."""
        for at, target in self.history:
            if at >= t and target is ConnState.CONNECTED:
                return at
        return None


class _WardenWatch:
    """Deferred-op ledger for one warden's log."""

    __slots__ = ("warden", "enqueued", "coalesced")

    def __init__(self, warden):
        self.warden = warden
        self.enqueued = {}  # seq -> queued_at
        self.coalesced = set()


class InvariantAuditor:
    """Attachable, continuous checker for the chaos safety properties."""

    def __init__(self, clock, recovery_slo=None, upcall_grace=10.0,
                 settling_slo=None, settling_tolerance=0.10):
        self.clock = clock
        self.recovery_slo = recovery_slo
        self.upcall_grace = upcall_grace
        self.settling_slo = settling_slo
        self.settling_tolerance = settling_tolerance
        self.violations = []
        self._trackers = {}  # connection_id -> _TrackerWatch
        self._wardens = {}  # warden name -> _WardenWatch
        self._pending_upcalls = {}  # (app, request_id) -> sent time
        self._storms = []  # (start, end, target) absolute windows
        self._estimates = []  # (time, value) sampled estimate series
        self.recovery_seconds = []  # per-(storm, tracker) recovery times

    # -- wiring ---------------------------------------------------------------

    def attach_viceroy(self, viceroy):
        """Watch a viceroy: its observer stream plus every known tracker."""
        viceroy.add_observer(self._on_viceroy_event)
        for connection_id in list(viceroy._connections):
            tracker = viceroy.connectivity(connection_id)
            if tracker is not None:
                self.watch_tracker(connection_id, tracker)
        return self

    def watch_tracker(self, name, tracker):
        """Audit a tracker's transitions; supersedes any prior tracker
        observed under the same name (a restart replaced it)."""
        watch = self._trackers.get(name)
        if watch is None:
            watch = self._trackers[name] = _TrackerWatch(name)
        watch.adopt(tracker, self.clock())
        tracker.subscribe(lambda transition, w=watch, t=tracker:
                          self._on_transition(w, t, transition))

    def watch_warden(self, warden):
        """Audit a warden's deferred-op log for conservation."""
        watch = _WardenWatch(warden)
        self._wardens[warden.name] = watch
        warden.deferred.observer = (
            lambda op, replaced, w=watch: self._on_append(w, op, replaced))

    def note_storm(self, start, end, target=None):
        """Register an absolute storm window (``target``: the post-storm
        estimate level the settling check aims at, if any)."""
        self._storms.append((start, end, target))

    def note_departure(self, app, time=None):
        """An application left deliberately: its pending upcalls are moot."""
        del time
        for key in [k for k in self._pending_upcalls if k[0] == app]:
            del self._pending_upcalls[key]

    def note_estimate(self, time, value):
        """Feed one sample of the estimate series the settling check audits."""
        self._estimates.append((time, value))

    # -- event sinks ----------------------------------------------------------

    def _on_viceroy_event(self, event, **info):
        if event == "connection":
            self.watch_tracker(info["connection_id"], info["tracker"])
        elif event == "request":
            # Any new registration from an app answers its pending upcalls.
            self.note_departure(info["app"])
        elif event == "upcall":
            if info["kind"] == "teardown":
                # The connection is gone; nothing to re-register against.
                self.note_departure(info["app"])
            else:
                self._pending_upcalls[(info["app"], info["request_id"])] = \
                    info["time"]

    def _on_transition(self, watch, tracker, transition):
        if tracker is not watch.tracker:
            return  # late evidence on a retired tracker; its successor rules
        now = transition.time
        if transition.target not in VALID_TRANSITIONS.get(transition.source,
                                                          ()):
            self._violate("connectivity", watch.name,
                          f"illegal edge {transition.source} -> "
                          f"{transition.target} ({transition.reason})", now)
        if transition.source is not watch.state:
            self._violate("connectivity", watch.name,
                          f"transition source {transition.source} does not "
                          f"match observed state {watch.state}", now)
        if now < watch.last_time:
            self._violate("connectivity", watch.name,
                          f"transition at t={now} precedes previous "
                          f"t={watch.last_time}", now)
        watch.state = transition.target
        watch.last_time = now
        watch.history.append((now, transition.target))

    def _on_append(self, watch, op, replaced_seq):
        watch.enqueued[op.seq] = op.queued_at
        if replaced_seq is not None:
            watch.coalesced.add(replaced_seq)

    def _violate(self, invariant, subject, detail, time=None):
        self.violations.append(Violation(
            time=self.clock() if time is None else time,
            invariant=invariant, subject=subject, detail=detail,
        ))

    # -- final sweep ----------------------------------------------------------

    def finish(self, now=None):
        """Run the end-of-run checks; returns the full violation list."""
        now = self.clock() if now is None else now
        self._finish_deferred(now)
        self._finish_upcalls(now)
        self._finish_recovery(now)
        self._finish_settling(now)
        return list(self.violations)

    def _finish_deferred(self, now):
        for name, watch in self._wardens.items():
            queued = {op.seq for op in watch.warden.deferred}
            terminal = {}
            for report in watch.warden.reintegration_reports:
                if report.status in ("applied", "conflict", "failed"):
                    terminal[report.op.seq] = terminal.get(report.op.seq, 0) + 1
                    if report.status == "failed":
                        self._violate(
                            "deferred-ops", name,
                            f"op seq {report.op.seq} ({report.op.opcode!r}) "
                            f"dropped by a failed replay at "
                            f"t={report.replayed_at}", now)
            for seq, count in terminal.items():
                if count > 1:
                    self._violate(
                        "deferred-ops", name,
                        f"op seq {seq} terminally replayed {count} times "
                        "(double apply)", now)
            lost = set(watch.enqueued) - watch.coalesced - set(terminal) \
                - queued
            for seq in sorted(lost):
                self._violate(
                    "deferred-ops", name,
                    f"op seq {seq} (queued at t={watch.enqueued[seq]}) "
                    "vanished: not queued, not coalesced, never replayed",
                    now)

    def _finish_upcalls(self, now):
        for (app, request_id), sent in sorted(self._pending_upcalls.items()):
            if now - sent > self.upcall_grace:
                self._violate(
                    "upcall", app,
                    f"upcall for request {request_id} at t={sent} never "
                    f"answered within the {self.upcall_grace:g} s grace",
                    now)

    def _finish_recovery(self, now):
        if self.recovery_slo is None:
            return
        slo = self.recovery_slo
        starts = sorted(start for start, _, _ in self._storms)
        for _, end, _ in sorted(self._storms):
            # A later storm opening before the SLO elapses re-covers the
            # link; the deadline then belongs to *that* storm's end.
            if any(end < s <= end + slo for s in starts):
                continue
            if now < end + slo:
                continue  # not enough horizon to judge
            for watch in self._trackers.values():
                if not watch.offline_at(end):
                    continue
                recovered = watch.first_connected_after(end)
                deadline_miss = recovered is None or recovered - end > slo
                if recovered is not None:
                    self.recovery_seconds.append(recovered - end)
                if deadline_miss:
                    at = now if recovered is None else recovered
                    self._violate(
                        "recovery", watch.name,
                        f"offline at storm end t={end} and not CONNECTED "
                        f"within the {slo:g} s SLO "
                        f"(recovered: {'never' if recovered is None else recovered})",
                        at)

    def _finish_settling(self, now):
        if self.settling_slo is None or not self._estimates:
            return
        for _, end, target in sorted(self._storms):
            if target is None or now < end + self.settling_slo:
                continue
            try:
                settled = settling_time(self._estimates, end, target,
                                        tolerance=self.settling_tolerance)
            except ReproError:
                settled = math.inf  # no samples after the storm: never settled
            if settled is math.inf or settled > self.settling_slo:
                self._violate(
                    "settling", "estimate",
                    f"estimate did not settle to {target:g}±"
                    f"{self.settling_tolerance:.0%} within "
                    f"{self.settling_slo:g} s of storm end t={end} "
                    f"(settling time: {settled})", now)

    # -- reductions -----------------------------------------------------------

    @property
    def max_recovery_seconds(self):
        return max(self.recovery_seconds, default=0.0)

    def violation_tuples(self):
        """Picklable, fingerprint-stable reduction of every violation."""
        return tuple(v.as_tuple() for v in self.violations)
