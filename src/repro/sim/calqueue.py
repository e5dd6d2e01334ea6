"""A calendar (bucket) queue for the simulator's pending-event set.

The kernel schedules events in exactly ascending ``(time, sequence)``
order.  A binary heap does that in O(log n) per operation; this structure
does it in O(1) typical by hashing each item into a ring of fixed-width
time buckets (R. Brown, "Calendar queues: a fast O(1) priority queue
implementation", CACM 1988):

- a push computes the absolute bucket index ``int(time / width)`` and
  appends to that bucket when it lies within the ring's horizon
  (``nbuckets`` buckets ahead of the cursor); items beyond the horizon
  wait in a small overflow heap and are redistributed as the cursor
  advances;
- a pop consumes the cursor's bucket, sorting it once on entry.  The sort
  is over full ``(time, sequence)`` keys, so pop order is the exact global
  order a heap would produce — FIFO among equal times included — and every
  seeded simulation stays byte-identical.

The queue owns the sequence: a down-counting integer drawn once per push,
so ring items are stored **key-negated** as ``(-time, seq, payload,
time)`` with no per-push negation.  Sorted ascending, the *last* element
of a bucket is the earliest event, so the drain is ``bucket.pop()`` — an
O(1) C call with no index bookkeeping and no consumed-prefix state, and a
mid-drain ``peek`` is simply ``bucket[-1]``.  The fourth element repeats
the time un-negated so consumers read it without allocating a fresh float
per pop.  Items that land in the current, already-sorted bucket
(zero-delay events are common: every process tick is one) are placed by
``bisect.insort``, which stays correct mid-drain because consumed items
are physically gone.  The overflow heap keeps items in *positive*
``(time, -seq, payload)`` form — ``heapq`` is a min-heap — and they are
re-tupled into negated form when the horizon reaches them.

Population accounting is deliberately lopsided: ``_count`` tracks every
ring item **except those in the cursor's bucket**, whose population is
``len(bucket)``.  The hot operations — pushing into the current bucket
and popping from it — therefore touch no counter at all; the count is
settled once per cursor move (``_advance`` adopts the new bucket by
subtracting its length).  This also makes draining exception-safe with
no ``finally`` bookkeeping: a callback that raises leaves the structure
exactly consistent.

The ring never resizes: no simulated workload in this repo overflows it
more than a handful of times per run, so the bucket lists are created
once and a bucket handed out by ``_enter`` stays the live bucket however
many pushes land while it drains.  The bucket count is a power of two
(the constructor rounds up) so the ring index is a bit-mask, not a
modulo.

``Simulator.run`` drains the bucket ``_enter`` returns in place; every
other caller should treat this class as ``push``, ``pop``, ``peek``,
``__len__`` and ``clear``.
"""

from bisect import insort
from heapq import heappop, heappush

from repro.errors import SimulationError

#: Default bucket width in simulated seconds.  Chosen so the default ring
#: (256 buckets, 12.8 s horizon) covers the pacing loops of every workload
#: in this repo without overflow, while buckets stay shallow enough that
#: the one-time entry sort is cheap.
DEFAULT_WIDTH = 0.05

#: Default number of buckets.  Bucket counts are always powers of two so
#: the ring index is ``idx & (nbuckets - 1)``.
DEFAULT_BUCKETS = 256


class CalendarQueue:
    """Priority queue popping ``(time, payload)`` in time order, FIFO
    among equal times.

    ``width`` is the bucket granularity in simulated seconds; ``nbuckets``
    the ring size (rounded up to a power of two).  Both only affect
    speed, never pop order.  Times must be non-negative and finite.
    """

    __slots__ = ("_buckets", "_nb", "_mask", "_width", "_inv", "_cur",
                 "_count", "_over", "_sorted", "_seq")

    def __init__(self, width=DEFAULT_WIDTH, nbuckets=DEFAULT_BUCKETS):
        if width <= 0:
            raise SimulationError(f"bucket width must be positive, got {width!r}")
        if nbuckets < 1:
            raise SimulationError(f"need at least one bucket, got {nbuckets!r}")
        nb = 1
        while nb < nbuckets:
            nb *= 2
        self._buckets = [[] for _ in range(nb)]
        self._nb = nb
        self._mask = nb - 1
        self._width = width
        self._inv = 1.0 / width
        self._cur = 0         # absolute index of the cursor's bucket
        self._count = 0       # ring items NOT in the cursor's bucket
        self._over = []       # positive-form heap of items past the horizon
        self._sorted = False  # cursor's bucket sorted?
        self._seq = 0         # next FIFO sequence number, counting down

    def __len__(self):
        return (self._count + len(self._buckets[self._cur & self._mask])
                + len(self._over))

    def __repr__(self):
        return (f"<CalendarQueue {len(self)} pending, {self._nb} buckets "
                f"x {self._width:g}s, {len(self._over)} overflowed>")

    def clear(self):
        """Drop every pending item (ring geometry is kept)."""
        for bucket in self._buckets:
            bucket.clear()
        self._count = 0
        self._over.clear()
        self._sorted = False

    # -- producing ---------------------------------------------------------

    def push(self, time, payload):
        """Add ``payload`` at ``time``, after every item already at ``time``."""
        seq = self._seq
        self._seq = seq - 1
        idx = int(time * self._inv)
        cur = self._cur
        if idx > cur:
            # The common case — a future event — is the first branch taken:
            # within the horizon it is one append, past it one heappush.
            if idx - cur < self._nb:
                self._buckets[idx & self._mask].append((-time, seq, payload, time))
                self._count += 1
            else:
                heappush(self._over, (time, -seq, payload))
        elif self._sorted:
            # The cursor's bucket (or, after float truncation at a bucket
            # boundary or a ``run(until=…)`` stop, nominally before it —
            # clamp; order is carried by the key, not the index).  A sorted
            # bucket stays sorted via insort; consumed items are gone, so
            # full-range bisect is correct even mid-drain.
            insort(self._buckets[cur & self._mask], (-time, seq, payload, time))
        else:
            self._buckets[cur & self._mask].append((-time, seq, payload, time))

    # -- consuming ---------------------------------------------------------

    def pop(self):
        """Remove and return the earliest ``(time, payload)``."""
        bucket = self._enter()
        if bucket is None:
            raise SimulationError("pop from an empty CalendarQueue")
        item = bucket.pop()
        return item[3], item[2]

    def peek(self):
        """The earliest ``(time, payload)`` without removing it."""
        bucket = self._enter()
        if bucket is None:
            return None
        item = bucket[-1]
        return item[3], item[2]

    def _enter(self):
        """Advance to the next non-empty bucket, sorted; ``None`` if empty.

        On return the least item is ``bucket[-1]``.  This is the only
        place buckets are sorted, so the kernel's drain can pop from the
        bucket's tail between calls.
        """
        bucket = self._buckets[self._cur & self._mask]
        if bucket:
            if not self._sorted:
                bucket.sort()
                self._sorted = True
            return bucket
        while self._count or self._over:
            self._advance()
            bucket = self._buckets[self._cur & self._mask]
            if bucket:
                bucket.sort()
                self._sorted = True
                return bucket
        return None

    def _advance(self):
        """Move the cursor off an exhausted bucket, pulling overflow in.

        Adopts the new cursor bucket: its items leave ``_count`` here, in
        one subtraction, so pushes into and pops out of the current bucket
        never touch the counter.  Every overflowed item lies at least a
        horizon past the cursor, so what the horizon now covers lands at
        or after the cursor.
        """
        self._sorted = False
        if self._count:
            self._cur += 1
            self._count -= len(self._buckets[self._cur & self._mask])
        else:
            # The ring is idle: jump straight to the overflow's first
            # bucket instead of stepping.
            self._cur = int(self._over[0][0] * self._inv)
        over, inv, cur = self._over, self._inv, self._cur
        horizon = cur + self._nb
        while over and int(over[0][0] * inv) < horizon:
            time, seq, payload = heappop(over)
            idx = int(time * inv)
            self._buckets[idx & self._mask].append((-time, -seq, payload, time))
            if idx > cur:
                self._count += 1
