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

Ring items are stored **key-negated**, as ``(-time, -sequence, payload,
time)``: sorted ascending, the *last* element of a bucket is the earliest
event, so the drain is ``bucket.pop()`` — an O(1) C call with no index
bookkeeping and no consumed-prefix state, and a mid-drain ``peek`` is
simply ``bucket[-1]``.  The fourth element repeats the time un-negated so
consumers read it without allocating a fresh float per pop.  Items that
land in the current, already-sorted bucket (zero-delay events are common:
every process tick is one) are placed by ``bisect.insort``, which stays
correct mid-drain because consumed items are physically gone.  The
overflow heap keeps items in *positive* ``(time, sequence, payload)``
form — ``heapq`` is a min-heap — and they are re-tupled into negated form
when the horizon reaches them.

Population accounting is deliberately lopsided: ``_count`` tracks every
ring item **except those in the cursor's bucket**, whose population is
``len(bucket)``.  The hot operations — pushing into the current bucket
and popping from it — therefore touch no counter at all; the count is
settled once per cursor move (``_advance`` adopts the new bucket by
subtracting its length).  This also makes draining exception-safe with
no ``finally`` bookkeeping: a callback that raises leaves the structure
exactly consistent.

The ring resizes itself: overflow pressure (more overflowed items than
buckets) doubles the ring so the horizon grows to fit the workload, and a
nearly-empty oversized ring is halved when the cursor jumps across idle
time.  Both rebuild the ring in O(n) and are amortized over the pushes
that caused them.  The bucket count is always a power of two (the
constructor rounds up) so the ring index is a bit-mask, not a modulo.

The kernel's ``timeout``/``schedule``/``run`` inline ``push`` and the
bucket drain against ``_buckets``/``_count``/``_sorted`` directly — one
call frame per event is measurable.  Everything outside ``repro.sim``
should treat this class as: ``push``, ``pop``, ``peek``, ``__len__``,
``clear``.
"""

from bisect import insort
from heapq import heapify, heappop, heappush

from repro.errors import SimulationError

#: Default bucket width in simulated seconds.  Chosen so the default ring
#: (256 buckets, 12.8 s horizon) covers the pacing loops of every workload
#: in this repo without overflow, while buckets stay shallow enough that
#: the one-time entry sort is cheap.
DEFAULT_WIDTH = 0.05

#: Default number of buckets.  Bucket counts are always powers of two so
#: the ring index is ``idx & (nbuckets - 1)``.
DEFAULT_BUCKETS = 256

#: Resize floor and ceiling.  The floor keeps degenerate test queues legal;
#: the ceiling bounds memory for sims that schedule far into the future.
MIN_BUCKETS = 4
MAX_BUCKETS = 1 << 15

#: Shrink when the ring is this many times larger than its population.
_SHRINK_FACTOR = 8


class CalendarQueue:
    """Priority queue popping ``(time, sequence, payload)`` in key order.

    ``width`` is the bucket granularity in simulated seconds; ``nbuckets``
    the initial ring size (rounded up to a power of two).  Both only
    affect speed, never pop order.  Times must be non-negative and
    finite; sequence numbers unique and ascending in push order for FIFO
    tie-break among equal times.
    """

    __slots__ = ("_buckets", "_nb", "_mask", "_width", "_inv", "_cur",
                 "_count", "_over", "_sorted")

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

    def push(self, time, seq, payload):
        """Add an item; ``time`` orders it, ``seq`` breaks ties FIFO.

        Mirrored (with a down-counting sequence) by ``Simulator.timeout``
        and ``Simulator.schedule`` — keep the three in sync.
        """
        idx = int(time * self._inv)
        cur = self._cur
        if idx > cur:
            # The common case — a future event — is the first branch taken:
            # within the horizon it is one append, past it one heappush.
            if idx - cur < self._nb:
                self._buckets[idx & self._mask].append((-time, -seq, payload, time))
                self._count += 1
            else:
                heappush(self._over, (time, seq, payload))
                if len(self._over) > self._nb and self._nb < MAX_BUCKETS:
                    self._resize(self._nb * 2)
        elif self._sorted:
            # The cursor's bucket (or, after float truncation at a bucket
            # boundary, nominally before it — clamp; order is carried by
            # the key, not the index).  A sorted bucket stays sorted via
            # insort; consumed items are gone, so full-range bisect is
            # correct even mid-drain.
            insort(self._buckets[cur & self._mask], (-time, -seq, payload, time))
        else:
            self._buckets[cur & self._mask].append((-time, -seq, payload, time))

    # -- consuming ---------------------------------------------------------

    def pop(self):
        """Remove and return the least ``(time, seq, payload)``."""
        bucket = self._enter()
        if bucket is None:
            raise SimulationError("pop from an empty CalendarQueue")
        item = bucket.pop()
        return item[3], -item[1], item[2]

    def peek(self):
        """The least ``(time, seq, payload)`` without removing it."""
        bucket = self._enter()
        if bucket is None:
            return None
        item = bucket[-1]
        return item[3], -item[1], item[2]

    def _enter(self):
        """Advance to the next non-empty bucket, sorted; ``None`` if empty.

        On return the least item is ``bucket[-1]``.  This is the only
        place buckets are sorted, so the kernel's inlined drain can pop
        from the bucket's tail between calls.
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
        never touch the counter.
        """
        self._sorted = False
        if self._count:
            self._cur += 1
            self._count -= len(self._buckets[self._cur & self._mask])
        elif self._over:
            # The ring is idle: jump straight to the overflow's first
            # bucket instead of stepping, and shrink an oversized ring
            # while nothing is in flight.
            self._cur = int(self._over[0][0] * self._inv)
            target = self._nb
            while (target > MIN_BUCKETS
                   and len(self._over) * _SHRINK_FACTOR < target):
                target //= 2
            if target != self._nb:
                self._resize(target)
                return
        else:
            self._cur += 1
        over = self._over
        if over:
            # Redistribute every overflowed item the horizon now covers.
            inv, cur, nb = self._inv, self._cur, self._nb
            while over and int(over[0][0] * inv) - cur < nb:
                time, seq, payload = heappop(over)
                idx = int(time * inv)
                if idx < cur:
                    idx = cur
                self._buckets[idx & self._mask].append((-time, -seq, payload, time))
                if idx > cur:
                    self._count += 1

    # -- resizing ----------------------------------------------------------

    def _resize(self, nbuckets):
        """Rebuild the ring with ``nbuckets`` buckets.

        Order is carried entirely by the item keys, so items may be
        redistributed in any order — the entry sort restores the exact
        global order.  The cursor's bucket is the exception: a push from
        inside a callback can resize the ring while the kernel drains that
        bucket, so it moves over as the same list, sortedness and all —
        a copy would run its remaining items twice.
        """
        cur, inv = self._cur, self._inv
        current = self._buckets[cur & self._mask]
        ring = []
        for bucket in self._buckets:
            if bucket is not current:
                ring.extend(bucket)
        overflow = self._over
        self._buckets = [[] for _ in range(nbuckets)]
        self._nb = nbuckets
        self._mask = nbuckets - 1
        self._buckets[cur & self._mask] = current
        self._count = 0
        self._over = []
        for item in ring:
            idx = int(item[3] * inv)
            if idx < cur:
                idx = cur
            if idx - cur < nbuckets:
                self._buckets[idx & self._mask].append(item)
                if idx > cur:
                    self._count += 1
            else:
                self._over.append((item[3], -item[1], item[2]))
        for time, seq, payload in overflow:
            idx = int(time * inv)
            if idx < cur:
                idx = cur
            if idx - cur < nbuckets:
                self._buckets[idx & self._mask].append((-time, -seq, payload, time))
                if idx > cur:
                    self._count += 1
            else:
                self._over.append((time, seq, payload))
        heapify(self._over)
