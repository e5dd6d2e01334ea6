"""Crash–recovery drills: kill a viceroy mid-run, restore it, replay.

The checkpoint/restore machinery (:meth:`~repro.core.viceroy.Viceroy
.checkpoint` / ``restore``) exists so a viceroy restart loses no deferred
disconnected-mode writes and no window registrations.  A drill *proves*
that under load, inside a live storm:

1. **snapshot** — take the JSON checkpoint and round-trip it through
   ``json.dumps`` (the drill must survive exactly what a disk write
   would);
2. **crash** — stop every heartbeat prober, fail every in-flight RPC
   with :class:`~repro.errors.RpcError` (their server replies then arrive
   late, dropped and counted, not crashed on), unregister every
   connection (no goodbye upcalls — a crash does not say goodbye), wipe
   the in-memory deferred logs (the crash loses RAM; the checkpoint is
   the disk) and revoke each replayer;
3. **restore** — re-adopt every connection (fresh trackers: a restarted
   viceroy re-derives link health from evidence, per ``restore``'s
   contract), restore the snapshot, and restart the heartbeats;
4. **replay** — trigger reintegration for every warden with restored
   ops whose link is not offline; wardens still dark replay on their
   RECONNECTING→CONNECTED edge as usual.

The whole drill runs atomically inside one simulation instant (schedule
it with ``sim.call_at``), so no op can slip between the snapshot and the
wipe — which is what makes "no deferred op lost or double-applied"
checkable rather than probabilistic.
"""

import json
from dataclasses import dataclass

from repro.errors import RpcError


@dataclass(frozen=True)
class DrillOutcome:
    """Picklable record of one crash–recovery drill."""

    time: float
    connections: int
    in_flight_killed: int
    registrations_before: int
    registrations_restored: int
    registrations_dropped: tuple
    deferred_before: int
    deferred_restored: int
    replays_started: int


def reset_in_flight(conn, reason="crash drill"):
    """Fail every pending RPC on ``conn`` and abandon its reply seqs.

    Failing the events delivers :class:`RpcError` at each waiter's
    ``yield`` (callers treat it like any connection reset); draining the
    connection's exchange table makes the server's replies late (dropped
    and counted), and a window train already logged ahead of now is taken
    back.  Returns the number killed.
    """
    pending = conn.exchanges.drain()
    for seq, waiter in pending.items():
        # Plain calls wait on the Event itself; windowed fetches wait on
        # the fetch's ``.event``.
        event = getattr(waiter, "event", waiter)
        if not event.triggered:
            event.fail(RpcError(
                f"{conn.connection_id}: in-flight op {seq} lost ({reason})"))
        conn._retract(seq)
    return len(pending)


def run_crash_drill(viceroy, reason="chaos drill"):
    """Crash and restore ``viceroy`` in place; returns a :class:`DrillOutcome`.

    Must be called from scheduler context (a ``call_at`` callback or a
    process), never across a ``yield`` — atomicity within one instant is
    part of the drill's no-loss argument.
    """
    sim = viceroy.sim
    entries = list(viceroy._connections.items())  # cid -> (conn, warden)
    wardens = viceroy._distinct_wardens()
    registrations_before = len(viceroy.registered_requests())
    deferred_before = sum(len(w.deferred) for w in wardens)

    # 1. Snapshot, round-tripped through JSON text like a real disk write.
    snapshot = json.loads(json.dumps(viceroy.checkpoint()))

    # 2. Crash: probers die, in-flight ops die, connections drop, RAM clears.
    probers = []
    killed = 0
    for cid, (conn, warden) in entries:
        if warden is not None and cid in warden._probers:
            prober = warden._stop_heartbeat(conn)
            probers.append((warden, conn, prober.interval, prober.timeout))
        killed += reset_in_flight(conn, reason=reason)
        viceroy.unregister_connection(cid, notify=False)
    for warden in wardens:
        warden.deferred.clear()
        warden._replayer = None  # the old replayer dies with the process

    # 3. Restore: re-adopt connections (fresh trackers), reload the
    #    snapshot, bring the heartbeats back up.
    for cid, (conn, warden) in entries:
        viceroy.register_connection(conn, warden=warden)
    restored, dropped = viceroy.restore(snapshot)
    deferred_restored = sum(len(w.deferred) for w in wardens)
    for warden, conn, interval, timeout in probers:
        warden.start_heartbeat(conn, interval=interval, timeout=timeout)

    # 4. Replay restored ops wherever the link is already usable.  A
    #    warden shared by several connections replays once; offline links
    #    replay on their reconnect edge instead.
    replays = 0
    triggered = set()
    for cid, (conn, warden) in entries:
        if warden is None or warden.name in triggered or not warden.deferred:
            continue
        tracker = viceroy.connectivity(cid)
        if tracker is not None and tracker.offline:
            continue
        triggered.add(warden.name)
        warden.on_reconnect(conn)
        replays += 1

    return DrillOutcome(
        time=sim.now,
        connections=len(entries),
        in_flight_killed=killed,
        registrations_before=registrations_before,
        registrations_restored=restored,
        registrations_dropped=tuple(dropped),
        deferred_before=deferred_before,
        deferred_restored=deferred_restored,
        replays_started=replays,
    )
