"""The deferred-operation log: write-ahead for disconnected operation.

Mutating type-specific operations issued while a connection is disconnected
are recorded here instead of hanging in retries; on reconnection the warden
replays them **in enqueue order** (reintegration) and reports each op's
fate.  The log is deliberately small and bounded — a mobile client that has
been offline for an hour should refuse new writes loudly
(:class:`~repro.errors.DeferredLogFull`), not grow without limit.

Write-ahead: replay peeks with :meth:`DeferredOpLog.head` and removes an op
with :meth:`DeferredOpLog.retire` only on a terminal outcome, so a
checkpoint taken at any instant, mid-replay included, loses nothing.

Coalescing: operations that overwrite each other (a video player saving its
playback position every few seconds, say) carry a ``coalesce`` key; a new
append with the same key replaces the queued older op, so reintegration
replays only the final value.  The replaced op's slot is freed, which is
what makes a bounded log workable for chatty writers.  The op on the wire
is never replaced.
"""

from dataclasses import dataclass

from repro.errors import DeferredLogFull, OdysseyError

#: Default queued-op capacity per warden.
DEFAULT_CAPACITY = 64


@dataclass
class DeferredOp:
    """One queued mutating operation, replayable via ``Warden.tsop``.

    ``seq`` is assigned by the owning :class:`DeferredOpLog` on append —
    never by a process-wide counter.  A module-global counter restarts in
    every worker process and after checkpoint/restore, so seq values would
    collide across shards and a restored log could not reconstruct its
    replay order.  Per-log sequencing survives both (the log checkpoints
    its own counter).
    """

    app: str
    rest: str
    opcode: str
    inbuf: object
    queued_at: float
    #: Ops sharing a coalesce key collapse to the most recent one.
    coalesce: str = None
    seq: int = None


@dataclass(frozen=True)
class ReplayReport:
    """The fate of one deferred op during reintegration.

    Every report is terminal; an op whose replay was cut short has none and
    is still at the head of the log.  ``status`` is one of:

    - ``"applied"`` — the server accepted the operation;
    - ``"conflict"`` — the server reported a conflicting concurrent update
      (the reply body carried ``{"conflict": True}``);
    - ``"failed"`` — the warden rejected the op (an ``OdysseyError``).
    """

    op: DeferredOp
    status: str
    detail: object = None
    replayed_at: float = None


class DeferredOpLog:
    """A bounded, coalescing FIFO of :class:`DeferredOp` entries."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity <= 0:
            raise OdysseyError(f"deferred-log capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self._ops = []
        self._in_flight = None  # the op :meth:`head` handed to a replayer
        self._next_seq = 1
        self.enqueued = 0
        self.coalesced = 0
        self.replayed = 0
        #: Optional ``fn(op, replaced_seq)`` called on every successful
        #: append (``replaced_seq`` is the seq the append coalesced away,
        #: or ``None``) — the seam the chaos auditor's op accounting
        #: hangs off.
        self.observer = None

    def __len__(self):
        return len(self._ops)

    def __iter__(self):
        return iter(list(self._ops))

    def __bool__(self):
        return bool(self._ops)

    def append(self, op):
        """Queue ``op``, coalescing by key; raises :class:`DeferredLogFull`.

        Assigns ``op.seq`` from this log's own counter when unset, so seq
        values are unique and monotonic *per log* regardless of how many
        logs (or worker processes) exist.
        """
        if op.seq is None:
            op.seq = self._next_seq
            self._next_seq += 1
        else:
            self._next_seq = max(self._next_seq, op.seq + 1)
        replaced = None
        if op.coalesce is not None:
            for queued in self._ops:
                if (queued.coalesce == op.coalesce
                        and queued is not self._in_flight):
                    self._ops.remove(queued)
                    self.coalesced += 1
                    replaced = queued.seq
                    break
        if len(self._ops) >= self.capacity:
            raise DeferredLogFull(
                f"deferred-op log full ({self.capacity} ops queued); "
                f"cannot queue {op.opcode!r}"
            )
        self._ops.append(op)
        self.enqueued += 1
        if self.observer is not None:
            self.observer(op, replaced)
        return op

    def head(self):
        """The oldest op, left queued and marked so no append coalesces it."""
        self._in_flight = self._ops[0]
        return self._in_flight

    def retire(self, op):
        """Remove ``op`` after a terminal replay outcome; counts ``replayed``."""
        self._ops.remove(op)
        self._in_flight = None
        self.replayed += 1

    def clear(self):
        self._ops = []
        self._in_flight = None

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self):
        """JSON-safe snapshot: queued ops, counters, and the seq counter.

        The counter matters as much as the ops: a restored log that re-minted
        seq 1 would collide with ops already replayed (or still queued
        elsewhere), making the replay order unreconstructible.
        """
        return {
            "next_seq": self._next_seq,
            "enqueued": self.enqueued,
            "coalesced": self.coalesced,
            "replayed": self.replayed,
            "ops": [
                {"app": op.app, "rest": op.rest, "opcode": op.opcode,
                 "inbuf": op.inbuf, "queued_at": op.queued_at,
                 "coalesce": op.coalesce, "seq": op.seq}
                for op in self._ops
            ],
        }

    def restore(self, state):
        """Rebuild the queue from a :meth:`checkpoint` snapshot.

        Replaces the current queue.  The seq counter resumes past both the
        snapshot's counter and every restored op, so post-restore appends
        can never mint a duplicate seq.  Returns the number of restored ops.
        """
        self._ops = [
            DeferredOp(app=snap["app"], rest=snap["rest"],
                       opcode=snap["opcode"], inbuf=snap["inbuf"],
                       queued_at=snap["queued_at"],
                       coalesce=snap.get("coalesce"), seq=snap["seq"])
            for snap in state["ops"]
        ]
        self._in_flight = None
        highest = max((op.seq for op in self._ops), default=0)
        self._next_seq = max(state.get("next_seq", 1), highest + 1)
        self.enqueued = state.get("enqueued", self.enqueued)
        self.coalesced = state.get("coalesced", self.coalesced)
        self.replayed = state.get("replayed", self.replayed)
        return len(self._ops)
