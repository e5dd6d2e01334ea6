"""CalendarQueue vs a heapq reference model: identical pop order, always.

The calendar queue replaced the kernel's binary heap; every seeded run
staying byte-identical rests on the two structures agreeing on full
``(time, sequence)`` order — FIFO among duplicate timestamps included —
through bucket wraps, overflow redistribution and idle-cursor jumps on
a ring that never resizes, and zero-delay pushes into the bucket being
drained.  The queue draws its own FIFO sequence, so the reference heap
keys on push order.  The hypothesis
suite drives both with the same interleaved operation sequences and
asserts exact agreement at every step.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.calqueue import CalendarQueue

# Times mixing a continuum with a handful of magnet values so duplicate
# timestamps (the FIFO tiebreak) occur constantly, plus bucket-boundary
# multiples of the default width.
times = st.one_of(
    st.floats(min_value=0.0, max_value=50.0,
              allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.05, 0.1, 1.0, 1.0, 2.5, 12.8, 12.8]),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), times),
        st.tuples(st.just("pop"), st.just(0.0)),
        st.tuples(st.just("peek"), st.just(0.0)),
    ),
    max_size=200,
)

# Geometries spanning the regimes: the kernel default; a ring so narrow
# everything overflows and redistribution carries the load; huge buckets
# (everything lands in one, entry sort does the work); a one-bucket ring
# (every future item overflows); a microscopic width driving bucket
# indexes to ~5e7 so the horizon never covers the workload.
geometries = st.sampled_from([
    (0.05, 256),
    (0.001, 4),
    (10.0, 4),
    (0.05, 1),
    (1e-6, 2),
])


def _entry(reference):
    time, _, payload = reference
    return time, payload


@settings(max_examples=300, deadline=None)
@given(geometry=geometries, ops=operations)
def test_interleaved_ops_match_heap_reference(geometry, ops):
    width, nbuckets = geometry
    queue = CalendarQueue(width=width, nbuckets=nbuckets)
    heap = []
    seq = 0
    for op, time in ops:
        if op == "push":
            queue.push(time, f"item-{seq}")
            heapq.heappush(heap, (time, seq, f"item-{seq}"))
            seq += 1
        elif op == "pop":
            if heap:
                assert queue.pop() == _entry(heapq.heappop(heap))
            else:
                with pytest.raises(SimulationError):
                    queue.pop()
        else:
            assert queue.peek() == (_entry(heap[0]) if heap else None)
        assert len(queue) == len(heap)
    while heap:
        assert queue.pop() == _entry(heapq.heappop(heap))
    assert queue.peek() is None
    assert len(queue) == 0


@settings(max_examples=100, deadline=None)
@given(geometry=geometries,
       batch=st.lists(times, min_size=1, max_size=100))
def test_drain_order_is_global_sort(geometry, batch):
    width, nbuckets = geometry
    queue = CalendarQueue(width=width, nbuckets=nbuckets)
    for seq, time in enumerate(batch):
        queue.push(time, seq)
    drained = [queue.pop() for _ in range(len(batch))]
    assert drained == sorted(
        (time, seq) for seq, time in enumerate(batch))


@settings(max_examples=100, deadline=None)
@given(count=st.integers(min_value=1, max_value=200),
       time=st.sampled_from([0.0, 0.05, 1.0, 40.0]))
def test_duplicate_timestamps_pop_fifo(count, time):
    queue = CalendarQueue()
    for seq in range(count):
        queue.push(time, f"p{seq}")
    assert [queue.pop()[1] for _ in range(count)] \
        == [f"p{seq}" for seq in range(count)]


def test_zero_delay_push_mid_drain_lands_in_live_bucket():
    # The kernel's commonest pattern: a popped event's callback schedules
    # at the *current* time, into the bucket being drained (sorted, so
    # the insort path), and must pop before anything later.
    queue = CalendarQueue()
    for seq in range(3):
        queue.push(1.0, f"old{seq}")
    queue.push(2.0, "later")
    assert queue.pop() == (1.0, "old0")
    queue.push(1.0, "echo")     # zero-delay relative to the pop
    queue.push(0.5, "past")     # behind the cursor: clamped, key-ordered
    assert [queue.pop() for _ in range(4)] == [
        (0.5, "past"), (1.0, "old1"), (1.0, "old2"), (1.0, "echo"),
    ]
    assert queue.pop() == (2.0, "later")


def test_far_items_overflow_a_fixed_ring_and_pop_in_order():
    queue = CalendarQueue(width=0.05, nbuckets=4)
    nb = queue._nb
    # Far beyond a 4-bucket horizon, interleaved with near items and
    # duplicate far times: everything far waits in the overflow heap.
    for seq in range(64):
        queue.push(100.0 + (seq % 16), ("far", seq))
        queue.push(0.01 * seq, ("near", seq))
    assert len(queue._over) > nb and queue._nb == nb
    assert len(queue) == 128
    drained = []
    while len(queue):
        drained.append(queue.pop())
        assert queue._nb == nb
    expected = sorted(
        [(0.01 * seq, 1, seq) for seq in range(64)]
        + [(100.0 + (seq % 16), 2, seq) for seq in range(64)])
    assert drained == [(time, ("near" if kind == 1 else "far", seq))
                       for time, kind, seq in expected]
    # An idle cursor jumps straight to a lone far item.
    queue.push(1e6, "lone")
    assert queue.pop() == (1e6, "lone")
    assert queue._nb == nb and len(queue) == 0


def test_geometry_validation():
    with pytest.raises(SimulationError):
        CalendarQueue(width=0.0)
    with pytest.raises(SimulationError):
        CalendarQueue(nbuckets=0)
    assert CalendarQueue(nbuckets=3)._nb == 4  # rounded up to a power of two


def test_clear_keeps_geometry():
    queue = CalendarQueue(width=0.05, nbuckets=4)
    for seq in range(50):
        queue.push(float(seq), seq)
    nb = queue._nb
    queue.clear()
    assert len(queue) == 0 and queue.peek() is None
    assert queue._nb == nb
    queue.push(0.25, "fresh")
    assert queue.pop() == (0.25, "fresh")
