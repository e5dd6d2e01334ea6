"""The live demo: one broker, N adapting clients, a square-wave link.

``repro live`` runs the whole stack in one process on real sockets: a
:class:`~repro.live.viceroy.LiveBroker` whose bulk plane is paced by a
:class:`~repro.live.throttle.Throttle` replaying a high/low square wave,
and N :class:`~repro.live.warden.LiveWarden` loops (alternating video
and web fidelity profiles) fetching on cadence.  Every phase flip of the
wave forces an adaptation in some direction — estimate moves, window
violated, upcall pushed, fidelity changed, window re-registered — which
is the paper's agility loop end to end over TCP.

The run is *checked*, not just shown: :class:`LiveReport.ok` fails on

- **lost upcalls** — the broker pushed a violation some client never
  received, or a pushed upcall was never acknowledged;
- **stuck adaptation** — a client that saw no upcall, never changed
  fidelity, or never re-registered (no full adaptation cycle);
- **failed exchanges** — any client cycle lost to timeout or transport
  death on a healthy loopback link;
- **dirty shutdown** — sessions still registered with the broker after
  every client has politely closed.

The live-smoke CI job runs exactly this and hard-fails on a non-zero
exit, so the adaptation loop staying alive end to end is a gate, not a
demo-only claim.
"""

import asyncio

from repro.live.throttle import Throttle, square_wave
from repro.live.viceroy import LiveBroker
from repro.live.warden import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_PERIOD,
    LiveWarden,
    video_profile,
    web_profile,
)

#: Per-client link budget of the square wave's two phases, bytes/s.  High
#: comfortably sustains the top rung (demand = chunk/period = 64 KB/s);
#: low sits between the bottom two rungs, forcing a downshift.
HIGH_PER_CLIENT = 80_000
LOW_PER_CLIENT = 8_000

#: Phases per run: high -> low -> high, so every client sees at least one
#: forced downshift and one forced upshift opportunity.
PHASES = 3

#: Settle time after the fetch loops stop, before counters are read:
#: in-flight upcalls and their acks get to land.
GRACE_SECONDS = 0.3


class LiveReport:
    """Everything one demo run observed, plus the pass/fail judgement."""

    def __init__(self, clients, seconds, high, low):
        self.clients = clients
        self.seconds = seconds
        self.high = high
        self.low = low
        self.wardens = []  # per-client describe() dicts
        self.broker = {}  # broker describe() snapshot
        self.sessions_left = 0
        self.problems = []

    @property
    def upcalls_received(self):
        return sum(w["upcalls_received"] for w in self.wardens)

    @property
    def ok(self):
        return not self.problems

    def check(self):
        """Populate :attr:`problems` from the collected snapshots."""
        sent = self.broker.get("upcalls_sent", 0)
        acked = self.broker.get("upcalls_acked", 0)
        if self.upcalls_received != sent:
            self.problems.append(
                f"lost upcalls: broker sent {sent}, clients received "
                f"{self.upcalls_received}")
        if acked != sent:
            self.problems.append(
                f"unacked upcalls: {sent} sent, {acked} acknowledged")
        if sent == 0:
            self.problems.append("stuck adaptation: no upcalls at all")
        for warden in self.wardens:
            name = warden["client"]
            if warden["upcalls_received"] == 0:
                self.problems.append(f"{name}: no upcall received")
            if warden["fidelity_changes"] == 0:
                self.problems.append(f"{name}: fidelity never changed")
            if warden["renegotiations"] == 0:
                self.problems.append(f"{name}: never re-registered")
            if warden["failures"]:
                self.problems.append(
                    f"{name}: {warden['failures']} failed exchanges")
        if self.sessions_left:
            self.problems.append(
                f"dirty shutdown: {self.sessions_left} sessions still "
                f"registered after close")
        return self

    def to_dict(self):
        return {
            "clients": self.clients,
            "seconds": self.seconds,
            "high_per_client": self.high,
            "low_per_client": self.low,
            "ok": self.ok,
            "problems": list(self.problems),
            "wardens": list(self.wardens),
            "broker": dict(self.broker),
        }


async def run_live_demo(clients=4, seconds=3.0,
                        chunk_bytes=DEFAULT_CHUNK_BYTES,
                        period=DEFAULT_PERIOD,
                        high_per_client=HIGH_PER_CLIENT,
                        low_per_client=LOW_PER_CLIENT,
                        on_transition=None):
    """Run the demo; returns a checked :class:`LiveReport`.

    ``on_transition(name, when, level, rung)`` is called for each
    fidelity change as it happens (the CLI logs these live).
    """
    phase = max(seconds / PHASES, 0.1)
    throttle = Throttle(trace=square_wave(high=clients * high_per_client,
                                          low=clients * low_per_client,
                                          phase_seconds=phase))
    broker = await LiveBroker(throttle=throttle).start()
    host, port = broker.address
    report = LiveReport(clients, seconds,
                        high_per_client, low_per_client)
    wardens = []
    try:
        for index in range(clients):
            profile = video_profile() if index % 2 == 0 else web_profile()
            warden = LiveWarden(host, port, f"live-{index}",
                                profile=profile, chunk_bytes=chunk_bytes,
                                period=period)
            if on_transition is not None:
                _tail_fidelity(warden, on_transition)
            wardens.append(warden)
            await warden.start()
        await asyncio.gather(*(w.run(seconds) for w in wardens))
        await asyncio.sleep(GRACE_SECONDS)
        report.wardens = [w.describe() for w in wardens]
        report.broker = broker.describe()
    finally:
        for warden in wardens:
            await warden.stop()
        report.sessions_left = broker.describe()["clients"]
        await broker.close()
    return report.check()


def _tail_fidelity(warden, on_transition):
    """Chain onto the warden's fidelity-change hook to narrate live."""
    inner = warden.core.on_fidelity

    def narrate(at, level):
        inner(at, level)
        on_transition(warden.name, at, level, warden.profile.name_of(level))

    warden.core.on_fidelity = narrate


def format_live_report(report):
    """Human-readable summary for the CLI."""
    lines = [
        f"live demo: {report.clients} clients, {report.seconds:g} s, "
        f"link {report.high}/{report.low} B/s per client "
        f"({PHASES} phases)",
        "",
        f"  {'client':<10} {'app':<6} {'fidelity':<10} {'chg':>3} "
        f"{'upcalls':>7} {'reneg':>5} {'chunks':>6} {'kB':>7} "
        f"{'stalls':>6} {'fail':>4}",
    ]
    for w in report.wardens:
        lines.append(
            f"  {w['client']:<10} {w['app']:<6} {w['fidelity']:<10} "
            f"{w['fidelity_changes']:>3} {w['upcalls_received']:>7} "
            f"{w['renegotiations']:>5} {w['chunks']:>6} "
            f"{w['bytes_fetched'] / 1024:>7.1f} {w['stalls']:>6} "
            f"{w['failures']:>4}")
    broker = report.broker
    bulk = broker.get("bulk", {})
    lines.append("")
    lines.append(
        f"  broker: {broker.get('calls_served', 0)} calls, "
        f"{broker.get('upcalls_sent', 0)} upcalls sent / "
        f"{broker.get('upcalls_acked', 0)} acked, "
        f"bulk {bulk.get('bytes_streamed', 0) / 1024:.0f} kB "
        f"in {bulk.get('fragments_streamed', 0)} fragments, "
        f"{bulk.get('receipt_bytes', 0) / 1024:.0f} kB receipted "
        f"in {bulk.get('receipts_absorbed', 0)} receipts")
    estimation = broker.get("estimation", {})
    total = estimation.get("total")
    if total:
        lines.append(f"  final total estimate: {total / 1024:.1f} kB/s "
                     f"({estimation.get('reports_absorbed', 0)} reports)")
    lines.append("")
    if report.ok:
        lines.append("OK: every client completed at least one full "
                     "adaptation cycle; no upcalls lost")
    else:
        lines.append("FAILED:")
        lines.extend(f"  - {problem}" for problem in report.problems)
    return "\n".join(lines)
