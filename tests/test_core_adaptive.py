"""The adaptive client core, driven directly: no simulator, no sockets."""

from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.adaptive import (
    CANCEL,
    DOWNGRADE_GUARD,
    HOLD_ABOVE,
    HOLD_BELOW,
    REGISTER,
    UPGRADE_MARGIN,
    AdaptiveClient,
    stream_ladder,
)
from repro.errors import NegotiationError
from repro.fleet import FIDELITY_LEVELS


def demand(fidelity):
    """The fleet client's demand: 32 KB chunks every 4 s."""
    return fidelity * 32 * 1024 / 4.0


def fleet_core(dwell=0.0):
    return AdaptiveClient(stream_ladder(FIDELITY_LEVELS, 32 * 1024, 4.0),
                          chunk_bytes=32 * 1024, period=4.0, dwell=dwell)


@pytest.fixture
def client():
    """The fleet client's shape: 32 KB chunks every 4 s."""
    return fleet_core()


# -- the ladder ----------------------------------------------------------------


def test_ladder_picks_highest_sustainable_level(client):
    full = demand(1.0)
    assert client.ladder.demands == tuple(map(demand, FIDELITY_LEVELS))
    assert client.ladder.best(None) == 1.0  # optimistic before data
    assert client.ladder.best(full * 2) == 1.0
    assert client.ladder.best(full * 0.6) == 0.5
    assert client.ladder.best(0.0) == FIDELITY_LEVELS[0]


def test_lowest_window_is_open_at_the_bottom(client):
    lower, _ = client.ladder.window(FIDELITY_LEVELS[0])
    assert lower == 0.0  # always registrable, however bad the link


def test_windows_carry_hysteresis(client):
    lower, upper = client.ladder.window(0.5)
    assert lower == demand(0.5) * DOWNGRADE_GUARD == \
        demand(0.5) * 0.8  # guard below own demand
    assert upper == demand(1.0) * UPGRADE_MARGIN == \
        demand(1.0) * 1.3  # guard above the next level


def test_mean_fidelity_is_time_weighted(client):
    client.fidelity_log = [(0.0, 1.0), (10.0, 0.5)]
    assert client.mean_fidelity(0.0, 20.0) == pytest.approx(0.75)
    # A change before the window start sets the initial value.
    assert client.mean_fidelity(10.0, 20.0) == pytest.approx(0.5)
    assert client.mean_fidelity(5.0, 15.0) == pytest.approx(0.75)
    assert client.min_fidelity(0.0, 20.0) == 0.5
    assert client.min_fidelity(0.0, 10.0) == 1.0


# -- negotiation ---------------------------------------------------------------


def test_fidelity_moves_before_each_ask(client):
    client.join(None)
    assert client.negotiation(0.0) == (REGISTER, client.ladder.window(1.0))
    assert client.fidelity == 1.0
    client.rejected(demand(0.5))
    assert client.negotiation(1.0) == (REGISTER, client.ladder.window(0.5))
    assert client.fidelity_log == [(0.0, 1.0), (1.0, 0.5)]  # before the reply
    client.accepted(7)
    assert client.negotiation(1.0) is None
    assert (client.request_id, client.rejections) == (7, 1)
    assert client.renegotiations == 0  # joining is not a renegotiation


def test_a_refused_rung_is_not_asked_for_twice(client):
    client.join(None)
    client.negotiation(0.0)  # top rung
    client.rejected(0.0)
    client.negotiation(0.0)  # bottom rung
    client.rejected(1e9)  # the estimate jumped back up: top again
    with pytest.raises(NegotiationError):
        client.negotiation(0.0)
    assert client.fidelity == 1.0 and client.window_due
    # The next boundary starts a new negotiation (a renegotiation).
    assert client.negotiation(4.0) == (REGISTER, client.ladder.window(1.0))
    assert client.renegotiations == 1


def test_a_lost_reply_leaves_the_registration_owed(client):
    client.join(None)
    client.negotiation(0.0)
    client.accepted(1)
    client.upcall(1, 0.0, 2.0)
    assert client.fidelity == FIDELITY_LEVELS[0]
    assert client.request_id is None  # the upcall dropped the window
    client.negotiation(4.0)  # ... and this ask's reply never arrives
    assert client.window_due
    assert client.negotiation(8.0)[0] == REGISTER
    client.accepted(2)
    assert not client.window_due and client.renegotiations == 2


def test_reconnect_cancels_the_old_window_first(client):
    client.join(None)
    client.negotiation(0.0)
    client.accepted(1)
    client.reconnected()
    assert client.negotiation(5.0) == (CANCEL, 1)
    assert client.negotiation(5.0) == (CANCEL, 1)  # until it is answered
    client.cancelled()
    assert client.negotiation(5.0)[0] == REGISTER
    client.accepted(2)
    assert client.negotiation(5.0) is None
    assert (client.request_id, client.reintegrations) == (2, 1)


def test_an_upcall_during_an_ask_keeps_the_registration_owed(client):
    """The reply and an upcall for another window cross: the window just
    registered is around a rung the client has already left."""
    client.join(None)
    client.negotiation(0.0)
    client.upcall(99, 0.0, 0.5)
    client.accepted(1)
    assert client.window_due and client.fidelity == FIDELITY_LEVELS[0]
    assert client.negotiation(1.0) == (CANCEL, 1)


def test_a_late_upcall_for_a_cancelled_window_spares_the_new_one(client):
    client.join(None)
    client.negotiation(0.0)
    client.accepted(1)
    client.reconnected()
    client.negotiation(1.0)  # cancel window 1, which an upcall also drops
    client.cancelled()
    client.negotiation(1.0)
    client.accepted(2)
    client.upcall(1, 0.0, 1.5)  # that upcall arrives now
    assert client.fidelity == FIDELITY_LEVELS[0]
    assert client.negotiation(2.0) == (CANCEL, 2)  # replaced, not leaked


def test_teardown_upcall_keeps_fidelity_and_reanchors_optimistically(client):
    client.join(demand(0.25))
    client.negotiation(0.0)
    client.accepted(1)
    client.upcall(1, None, 3.0)
    assert client.fidelity == 0.25
    client.negotiation(4.0)
    assert client.fidelity == 1.0


# -- the try-again protocol (paper §4.2) -----------------------------------------


def test_the_first_try_registers_when_the_window_fits(client):
    client.join(demand(1.0) * 2)
    assert client.negotiation(0.0) == (REGISTER, client.ladder.window(1.0))
    client.accepted(1)
    assert client.negotiation(0.0) is None
    assert client.fidelity_log == [(0.0, 1.0)] and client.rejections == 0


def test_a_refusal_retries_at_the_reported_level(client):
    client.join(None)  # no estimate yet: optimistic
    assert client.negotiation(0.0) == (REGISTER, client.ladder.window(1.0))
    client.rejected(demand(0.25) * 1.1)
    step = client.negotiation(0.0)
    assert step == (REGISTER, client.ladder.window(0.25))
    lower, upper = step[1]
    assert lower <= demand(0.25) * 1.1 <= upper  # the retry fits the report
    assert client.fidelity == 0.25


def test_a_non_converging_negotiation_is_surfaced(client):
    client.join(None)
    client.negotiation(0.0)
    client.rejected(demand(0.5))
    client.negotiation(0.0)  # the window around 0.5 ...
    client.rejected(demand(0.5))  # ... refused at the level it contains
    with pytest.raises(NegotiationError, match="available="):
        client.negotiation(0.0)


def test_the_first_ask_anchors_on_the_level_hint(client):
    client.join(demand(0.5) * 1.1)
    assert client.negotiation(0.0) == (REGISTER, client.ladder.window(0.5))
    client.accepted(1)
    client.upcall(1, demand(0.125), 1.0)  # so does an upcall's level
    assert client.negotiation(1.0) == (REGISTER, client.ladder.window(0.125))


# -- the switch dwell -----------------------------------------------------------


def test_the_dwell_holds_the_rung_and_widens_around_the_anchor():
    core = fleet_core(dwell=3.0)
    core.join(None)
    core.negotiation(0.0)  # the first choice: 1.0
    core.accepted(1)
    core.upcall(1, demand(0.25), 1.0)  # the first change is not held
    assert core.fidelity == 0.25 and core.hold_until is None
    core.negotiation(1.0)
    core.accepted(2)
    level = demand(1.0) * 2
    core.upcall(2, level, 2.0)  # one second after the change: held
    assert core.fidelity == 0.25 and core.hold_until == 4.0
    lower, upper = core.ladder.window(0.25)
    assert core.negotiation(2.0) == (
        REGISTER, (lower, max(upper, level * HOLD_ABOVE)))
    assert lower <= level * HOLD_BELOW
    core.accepted(3)
    core.recheck(level)  # the hold is over
    assert core.negotiation(4.0) == (CANCEL, 3)
    core.cancelled()
    assert core.negotiation(4.0) == (REGISTER, core.ladder.window(1.0))
    assert core.hold_until is None
    assert core.fidelity_log == [(0.0, 1.0), (1.0, 0.25), (4.0, 1.0)]


def test_a_reanchor_during_a_hold_retries_on_the_same_rung():
    core = fleet_core(dwell=3.0)
    core.join(None)
    core.negotiation(0.0)
    core.accepted(1)
    core.upcall(1, 0.0, 1.0)
    core.negotiation(1.0)
    core.accepted(2)
    core.upcall(2, demand(1.0) * 2, 1.5)
    first = core.negotiation(1.5)[1]  # held at the bottom rung
    core.rejected(demand(1.0) * 4)  # the estimate moved on meanwhile
    second = core.negotiation(1.5)[1]  # same rung, a window around the report
    assert core.fidelity == FIDELITY_LEVELS[0] and first != second
    assert second[0] <= demand(1.0) * 4 <= second[1]


def test_without_a_dwell_nothing_holds(client):
    client.join(None)
    client.negotiation(0.0)
    client.accepted(1)
    client.upcall(1, 0.0, 0.5)
    client.negotiation(0.5)
    client.accepted(2)
    client.upcall(2, demand(1.0) * 2, 0.5)  # at the instant of the change
    assert client.fidelity == 1.0 and client.hold_until is None


# -- pacing and accounting -----------------------------------------------------


def test_pacing_keeps_cadence_and_restarts_when_late(client):
    client.next_due = 10.0
    assert client.wait(11.0) == 3.0  # due at 14
    assert client.wait(14.5) == 3.5  # due at 18: a little late is absorbed
    assert client.wait(30.0) == 0.0  # due at 22: late, restart at 30
    assert client.wait(31.0) == 3.0  # due at 34


def test_fetch_size_follows_fidelity_with_a_floor():
    core = AdaptiveClient(stream_ladder((0.01, 0.5, 1.0), 16 * 1024, 0.25),
                          chunk_bytes=16 * 1024, period=0.25, min_fetch=4096)
    core.join(0.0)
    core.negotiation(0.0)
    assert core.fetch_size() == 4096  # 1% of a chunk is no bandwidth probe
    core.rejected(1e9)
    core.negotiation(0.0)
    assert core.fetch_size() == 16 * 1024
    assert AdaptiveClient(stream_ladder((0.5,), 1, 1.0), 1, 1.0).min_fetch == 1


def test_chunk_accounting(client):
    client.chunk_done(1.0, 4096)
    client.chunk_done(5.0, 0)  # lost, and past the period
    assert (client.chunks, client.bytes_fetched, client.failures,
            client.stalls) == (2, 4096, 1, 1)
    assert client.mean_latency == 3.0 and client.latency_max == 5.0


# -- the contract under any interleaving ---------------------------------------

#: Levels near every window edge of the fleet ladder (demands 1024, 2048,
#: 4096 and 8192 B/s, guards 0.8 / 1.3) as well as anywhere; ``None`` is
#: a teardown upcall, or a broker with no estimate yet.
LEVEL = st.none() | st.sampled_from([
    0.0, 1000.0, 1700.0, 2100.0, 2700.0, 3300.0, 4100.0, 5400.0, 6600.0,
    8200.0, 11000.0]) | st.floats(0.0, 20_000.0)
UNANCHORED = object()


class AdaptiveContract(RuleBasedStateMachine):
    """A shell and a broker around one core, every message a step.

    The broker holds windows and answers asks; asks, replies and upcalls
    travel separately, so any of them can cross any other.  The shell
    does what the streaming shells do: at a chunk boundary it carries out
    the core's steps until one needs a reply, and after each reply it
    carries on.  With ``INLINE`` it also carries them out as each upcall
    arrives, as the paper's sim applications do.
    """

    DWELL = 0.0
    INLINE = False

    def __init__(self):
        super().__init__()
        self.core = fleet_core(self.DWELL)
        self.held = set()  # windows the broker holds for the client
        self.next_id = 1
        self.asking = None  # the window asked for, not yet served
        self.replies = deque()  # ("accepted", id) | ("rejected", level)
        self.upcalls = deque()  # (request_id, level)
        self.last = UNANCHORED  # the level fidelity must follow
        self.now = 0.0
        self.counts = [0, 0, 0, 0]  # chunks, bytes, failures, stalls

    @property
    def idle(self):
        """The shell is not waiting on a reply."""
        return self.asking is None and not self.replies

    @property
    def quiet(self):
        return self.idle and not self.upcalls

    def carry_out(self):
        core = self.core
        while True:
            self.now += 0.25
            anchor = core.level
            try:
                step = core.negotiation(self.now)
            except NegotiationError:
                self.last = anchor  # fidelity moved before the refusal
                return
            if step is None:
                return
            action, arg = step
            if action == CANCEL:
                self.held.discard(arg)  # gone already if an upcall raced it
                core.cancelled()
                continue
            # At most one registration outstanding, and never beside a
            # window the client still holds.
            assert not self.held and self.idle, (self.held, self.asking)
            # Every window asked for, held or not, contains its anchor.
            assert anchor is None or arg[0] <= anchor <= arg[1], (anchor, arg)
            self.last = anchor
            self.asking = arg
            return

    @initialize(level=LEVEL)
    def join(self, level):
        self.core.join(level)

    @precondition(lambda self: self.idle)
    @rule()
    def boundary(self):
        self.carry_out()

    @precondition(lambda self: self.asking is not None)
    @rule(level=LEVEL)
    def serve(self, level):
        lower, upper = self.asking
        self.asking = None
        if level is None or lower <= level <= upper:
            self.held.add(self.next_id)
            self.replies.append(("accepted", self.next_id))
            self.next_id += 1
        else:
            self.replies.append(("rejected", level))

    @precondition(lambda self: self.asking is not None)
    @rule()
    def lose(self):
        self.asking = None  # the shell times out and moves on

    @precondition(lambda self: self.replies)
    @rule()
    def reply(self):
        verdict, value = self.replies.popleft()
        if verdict == "accepted":
            self.core.accepted(value)
        else:
            self.core.rejected(value)
        self.carry_out()

    @precondition(lambda self: self.held)
    @rule(level=LEVEL)
    def violate(self, level):
        request_id = min(self.held)
        self.held.remove(request_id)
        self.upcalls.append((request_id, level))

    @precondition(lambda self: self.upcalls)
    @rule()
    def deliver(self):
        request_id, level = self.upcalls.popleft()
        self.now += 0.25
        self.core.upcall(request_id, level, self.now)
        if level is not None:
            self.last = level
        if self.INLINE and self.idle:
            self.carry_out()

    @precondition(lambda self: self.idle
                  and self.core.hold_until is not None)
    @rule(level=LEVEL)
    def hold_ends(self, level):
        """The shell's recheck: cancel the held window, register afresh."""
        self.now = max(self.now, self.core.hold_until)
        self.core.recheck(level)
        self.carry_out()
        if self.asking is not None:
            assert self.core.fidelity == self.core.ladder.best(level)

    @rule()
    def reconnect(self):
        self.core.reconnected()

    @precondition(lambda self: self.idle)
    @rule(level=LEVEL)
    def rejoin(self, level):
        self.held.clear()  # a departure cancels every window it held
        self.core.join(level)

    @rule(elapsed=st.floats(0.0, 10.0), nbytes=st.integers(0, 9))
    def chunk(self, elapsed, nbytes):
        self.core.chunk_done(elapsed, nbytes)
        self.counts[0] += 1
        self.counts[1] += nbytes
        self.counts[2] += nbytes == 0
        self.counts[3] += elapsed > self.core.period

    @invariant()
    def fidelity_follows_the_last_level(self):
        core = self.core
        if self.last is UNANCHORED:
            assert core.fidelity is None
        elif core.hold_until is None:
            assert core.fidelity == core.ladder.best(self.last)

    @invariant()
    def no_rung_changes_within_the_dwell(self):
        changes = [at for at, _ in self.core.fidelity_log[1:]]
        for before, after in zip(changes, changes[1:]):
            assert after - before >= self.DWELL

    @invariant()
    def no_window_is_held_twice(self):
        assert len(self.held) <= 1

    @invariant()
    def adaptation_never_stalls_or_leaks(self):
        # Once the wire is quiet the client holds exactly the window it
        # knows of, or it owes a registration.
        if self.quiet:
            core = self.core
            assert self.held <= {core.request_id}
            assert core.window_due or self.held == {core.request_id}

    @invariant()
    def accounting_adds_up(self):
        core = self.core
        assert [core.chunks, core.bytes_fetched, core.failures,
                core.stalls] == self.counts


class DwellContract(AdaptiveContract):
    """The video player's shape: inline re-registration and a dwell."""

    DWELL = 3.0
    INLINE = True


TestAdaptiveContract = AdaptiveContract.TestCase
TestDwellContract = DwellContract.TestCase
# 300 interleavings in tier-1; the nightly profile's count when larger.
TestAdaptiveContract.settings = TestDwellContract.settings = settings(
    max_examples=max(300, settings.default.max_examples),
    stateful_step_count=40, deadline=None)
