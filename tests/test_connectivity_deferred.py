"""The deferred-op log: order, capacity, coalescing, write-ahead replay."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import DeferredOp, DeferredOpLog
from repro.errors import DeferredLogFull, OdysseyError


def make_op(opcode="post", coalesce=None, **inbuf):
    return DeferredOp(app="app", rest="x", opcode=opcode, inbuf=inbuf,
                      queued_at=0.0, coalesce=coalesce)


def replay_all(log):
    """Replay the way a warden does: head, then retire; returns the order."""
    replayed = []
    while log:
        op = log.head()
        replayed.append(op)
        log.retire(op)
    return replayed


def test_capacity_validated():
    with pytest.raises(OdysseyError):
        DeferredOpLog(0)


def test_fifo_order_preserved():
    log = DeferredOpLog()
    ops = [make_op(n=i) for i in range(5)]
    for op in ops:
        log.append(op)
    assert replay_all(log) == ops
    assert len(log) == 0
    assert log.replayed == 5


def test_head_peeks_and_retire_counts_replayed():
    log = DeferredOpLog()
    first, second = log.append(make_op(n=1)), log.append(make_op(n=2))
    assert log.head() is first
    assert log.head() is first  # a peek, not a pop
    assert len(log) == 2 and log.replayed == 0
    log.retire(first)
    assert list(log) == [second]
    assert log.replayed == 1
    assert log.enqueued == 2  # retiring is not an enqueue


def test_full_log_refuses_loudly():
    log = DeferredOpLog(capacity=2)
    log.append(make_op())
    log.append(make_op())
    with pytest.raises(DeferredLogFull):
        log.append(make_op())
    assert len(log) == 2  # the refused op was not half-admitted


def test_coalescing_keeps_only_the_latest():
    log = DeferredOpLog(capacity=4)
    log.append(make_op(coalesce="pos:m1", value=1))
    log.append(make_op(coalesce=None, value=2))
    log.append(make_op(coalesce="pos:m1", value=3))
    assert [op.inbuf["value"] for op in log] == [2, 3]
    assert log.coalesced == 1


def test_coalescing_frees_the_slot():
    log = DeferredOpLog(capacity=2)
    log.append(make_op(coalesce="k", value=1))
    log.append(make_op(value=2))
    # Full — but a coalescing append replaces, so it still fits.
    log.append(make_op(coalesce="k", value=3))
    assert [op.inbuf["value"] for op in log] == [2, 3]


def test_in_flight_op_is_never_coalesced():
    """A new write must not replace the op whose replay is on the wire."""
    log = DeferredOpLog(capacity=4)
    on_wire = log.append(make_op(coalesce="k", value=1))
    assert log.head() is on_wire
    behind = log.append(make_op(coalesce="k", value=2))
    assert list(log) == [on_wire, behind]
    assert log.coalesced == 0
    # Ops queued behind the wire still coalesce with each other.
    latest = log.append(make_op(coalesce="k", value=3))
    assert list(log) == [on_wire, latest]
    assert log.coalesced == 1
    # Once retired, the key coalesces normally again.
    log.retire(on_wire)
    assert list(log) == [latest]
    assert [op.inbuf["value"] for op in replay_all(log)] == [3]


def test_in_flight_op_stays_ahead_of_later_arrivals():
    """A replay cut short leaves its op at the head, before ops queued
    while it was on the wire."""
    log = DeferredOpLog(capacity=8)
    first, second = log.append(make_op(n=1)), log.append(make_op(n=2))
    assert log.head() is first  # ...and the link dies mid-replay
    late = log.append(make_op(n=3))
    assert replay_all(log) == [first, second, late]
    assert log.enqueued == 3


def test_checkpoint_taken_mid_replay_holds_the_in_flight_op():
    log = DeferredOpLog(capacity=8)
    on_wire = log.append(make_op(n=1, coalesce="k"))
    log.append(make_op(n=2))
    log.head()
    snapshot = json.loads(json.dumps(log.checkpoint()))
    assert [snap["seq"] for snap in snapshot["ops"]] == [on_wire.seq, 2]

    clone = DeferredOpLog(capacity=8)
    clone.restore(snapshot)
    assert [op.seq for op in clone] == [on_wire.seq, 2]
    # The restored log has nothing in flight: the key coalesces again.
    clone.append(make_op(n=3, coalesce="k"))
    assert [op.inbuf["n"] for op in clone] == [2, 3]


def test_clear_resets_the_in_flight_mark():
    log = DeferredOpLog()
    log.append(make_op(coalesce="k"))
    log.head()
    log.clear()
    log.append(make_op(coalesce="k", value=1))
    log.append(make_op(coalesce="k", value=2))
    assert [op.inbuf["value"] for op in log] == [2]


def test_distinct_coalesce_keys_do_not_merge():
    log = DeferredOpLog()
    log.append(make_op(coalesce="pos:m1", value=1))
    log.append(make_op(coalesce="pos:m2", value=2))
    assert len(log) == 2


def test_sequence_numbers_are_monotonic():
    log = DeferredOpLog()
    ops = [log.append(make_op(n=i)) for i in range(4)]
    seqs = [op.seq for op in ops]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_sequences_are_per_log_not_global():
    """Two logs mint independent seq streams starting at 1.

    The old module-global counter restarted per worker process, so seq
    values collided across shards; per-log counters make each log's
    stream self-contained.
    """
    first, second = DeferredOpLog(), DeferredOpLog()
    first_seqs = [first.append(make_op(n=i)).seq for i in range(3)]
    second_seqs = [second.append(make_op(n=i)).seq for i in range(3)]
    assert first_seqs == [1, 2, 3]
    assert second_seqs == [1, 2, 3]


def test_checkpoint_restore_preserves_seq_and_order():
    log = DeferredOpLog(capacity=8)
    log.append(make_op(n=1, coalesce="k"))
    log.append(make_op(n=2))
    log.append(make_op(n=3, coalesce="k"))  # coalesces away op 1
    snapshot = json.loads(json.dumps(log.checkpoint()))  # must be JSON-safe

    clone = DeferredOpLog(capacity=8)
    assert clone.restore(snapshot) == 2
    assert [(op.seq, op.inbuf["n"]) for op in clone] \
        == [(op.seq, op.inbuf["n"]) for op in log]
    assert (clone.enqueued, clone.coalesced) == (log.enqueued, log.coalesced)
    # Post-restore appends continue past every restored seq — no duplicates.
    appended = clone.append(make_op(n=4))
    assert appended.seq > max(op.seq for op in clone if op is not appended)


def test_restore_advances_counter_past_snapshot():
    log = DeferredOpLog()
    for i in range(5):
        log.append(make_op(n=i))
    replay_all(log)  # queue empty, but counter must survive in the snapshot
    snapshot = log.checkpoint()
    clone = DeferredOpLog()
    clone.restore(snapshot)
    assert clone.replayed == 5
    assert clone.append(make_op(n=99)).seq == 6


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(
    st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
    min_size=0, max_size=40,
))
def test_at_most_one_op_per_coalesce_key(keys):
    """However appends interleave, each coalesce key occupies one slot and
    queue order matches (coalesced) arrival order."""
    log = DeferredOpLog(capacity=100)
    for i, key in enumerate(keys):
        log.append(make_op(coalesce=key, value=i))
    ops = list(log)
    seen = [op.coalesce for op in ops if op.coalesce is not None]
    assert len(seen) == len(set(seen))
    seqs = [op.seq for op in ops]
    assert seqs == sorted(seqs)
    # Every keyed op that survived is the *last* appended for its key.
    last_for_key = {}
    for i, key in enumerate(keys):
        if key is not None:
            last_for_key[key] = i
    for op in ops:
        if op.coalesce is not None:
            assert op.inbuf["value"] == last_for_key[op.coalesce]
