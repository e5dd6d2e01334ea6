"""Bulk transfer over the live broker: windows, fragments, backpressure."""

import asyncio

import pytest

from repro.broker import BrokerClient
from repro.errors import BrokerError, RemoteCallError, RpcTimeout
from repro.live import BulkReceiver, LiveBroker, Throttle
from repro.live.bulk import MAX_FRAGMENTS_PER_WINDOW
from repro.rpc.clock import MonotonicClock
from repro.rpc.messages import (
    Fragment,
    FragmentTrain,
    WindowAck,
    WindowRequest,
)
from repro.transport.tcp import connect_tcp


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


async def start_live_broker(**kwargs):
    broker = LiveBroker(port=0, **kwargs)
    await broker.start()
    return broker


async def connect_receiver(broker, name):
    host, port = broker.address
    client = await BrokerClient(host, port, name).connect()
    return client, BulkReceiver(client)


async def wait_until(condition, seconds=2.0):
    for _ in range(int(seconds / 0.01)):
        if condition():
            return True
        await asyncio.sleep(0.01)
    return condition()


def receipt(transfer_id, next_offset, name="alpha"):
    return WindowAck(connection_id=name, seq=1, transfer_id=transfer_id,
                     next_offset=next_offset)


def test_open_then_fetch_delivers_every_window():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 100_000)
            result = await receiver.fetch(transfer_id, 20_000,
                                          window_bytes=8_192,
                                          fragment_bytes=1_024)
            return result, broker.describe_bulk()
        finally:
            await client.close()
            await broker.close()

    result, bulk = run(scenario())
    assert result.nbytes == 20_000
    assert result.windows == 3  # 8 KB + 8 KB + 4 KB remainder
    assert result.fragments == 20  # ceil per window: 8 + 8 + 4
    assert bulk["transfers_opened"] == 1
    assert bulk["windows_streamed"] == 3
    assert bulk["fragments_streamed"] == 20
    assert bulk["bytes_streamed"] == 20_000


def test_fetch_stops_at_the_end_of_the_content():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("short", 5_000)
            # Ask for more than exists: the stream ends at the content.
            result = await receiver.fetch(transfer_id, 50_000,
                                          window_bytes=8_192,
                                          fragment_bytes=2_048)
            return result
        finally:
            await client.close()
            await broker.close()

    result = run(scenario())
    assert result.nbytes == 5_000
    assert result.windows == 1


def test_reports_feed_the_estimator_during_a_fetch():
    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=200_000))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            result = await receiver.fetch(transfer_id, 32_768,
                                          window_bytes=8_192,
                                          fragment_bytes=2_048)
            level = broker.viceroy.availability("alpha")
            return result, level
        finally:
            await client.close()
            await broker.close()

    result, level = run(scenario())
    # One throughput sample per window, so the estimate is primed and
    # lands within sight of the throttle's rate (scheduling noise aside).
    assert len(result.levels) == result.windows
    assert result.levels[-1] is not None
    assert level == pytest.approx(200_000, rel=0.6)


def test_throttle_paces_the_stream():
    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=50_000))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            started = asyncio.get_running_loop().time()
            await receiver.fetch(transfer_id, 25_000, report=False)
            return asyncio.get_running_loop().time() - started
        finally:
            await client.close()
            await broker.close()

    elapsed = run(scenario())
    # 25 kB through a 50 kB/s serial link takes ~0.5 s of link time.
    assert elapsed >= 0.35


def test_unshaped_fetch_is_fast():
    async def scenario():
        broker = await start_live_broker()  # throttle=None
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            started = asyncio.get_running_loop().time()
            await receiver.fetch(transfer_id, 256_000, report=False)
            return asyncio.get_running_loop().time() - started
        finally:
            await client.close()
            await broker.close()

    assert run(scenario()) < 5.0


def test_concurrent_fetches_of_one_transfer_are_rejected():
    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=20_000))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            slow = asyncio.ensure_future(
                receiver.fetch(transfer_id, 10_000, report=False))
            await asyncio.sleep(0.05)
            with pytest.raises(BrokerError, match="already being fetched"):
                await receiver.fetch(transfer_id, 1_000)
            await slow
        finally:
            await client.close()
            await broker.close()

    run(scenario())


def test_window_against_unknown_transfer_tears_the_session_down():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            client.channel.send(WindowRequest(
                connection_id="alpha", seq=1, transfer_id=999,
                offset=0, window_bytes=1024, fragment_bytes=256,
                reply_port=""))
            for _ in range(100):
                if client.channel.closed:
                    break
                await asyncio.sleep(0.01)
            return client.channel.closed, broker.describe()["clients"]
        finally:
            await client.close(polite=False)
            await broker.close()

    closed, remaining = run(scenario())
    assert closed is True
    assert remaining == 0


def test_offset_past_the_end_yields_an_empty_terminal_window():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1_000)
            fragments = []
            queue = asyncio.Queue()
            receiver._queues[transfer_id] = queue
            client.channel.send(WindowRequest(
                connection_id="alpha", seq=1, transfer_id=transfer_id,
                offset=5_000, window_bytes=1024, fragment_bytes=256,
                reply_port=""))
            fragments.append(await asyncio.wait_for(queue.get(), 5.0))
            return fragments
        finally:
            await client.close()
            await broker.close()

    (train,) = run(scenario())
    assert train.nbytes == [0] and train.offsets == [1_000]
    assert train.last_in_window is True
    assert train.last_in_transfer is True


def test_open_validates_its_body():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            with pytest.raises(RemoteCallError, match="nbytes"):
                await receiver.open("blob", "not-a-size")
        finally:
            await client.close()
            await broker.close()

    run(scenario())


def test_disconnect_mid_stream_aborts_the_transfer_cleanly():
    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=10_000))
        client, receiver = await connect_receiver(broker, "beta")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            fetch = asyncio.ensure_future(
                receiver.fetch(transfer_id, 100_000, report=False))
            await asyncio.sleep(0.15)  # a few fragments in flight
            await client.close(polite=False)
            fetch.cancel()
            try:
                await fetch
            except (asyncio.CancelledError, Exception):
                pass
            for _ in range(100):
                if not broker._stream_tasks:
                    break
                await asyncio.sleep(0.01)
            return broker.describe_bulk(), broker.describe()["clients"]
        finally:
            await broker.close()

    bulk, remaining = run(scenario())
    assert remaining == 0
    assert bulk["streams_aborted"] >= 1


# -- delivery receipts ---------------------------------------------------------

@pytest.mark.parametrize("bandwidth", [None, 200_000])
def test_every_fetched_byte_is_absorbed_exactly_once(bandwidth):
    async def scenario():
        broker = await start_live_broker(
            throttle=bandwidth and Throttle(bandwidth=bandwidth))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            result = await receiver.fetch(transfer_id, 36_000,
                                          window_bytes=16_384,
                                          fragment_bytes=2_048)
            # Read at once: the last throughput reply is the barrier that
            # proves every receipt before it was absorbed.
            return (result, broker.describe_bulk(),
                    broker.viceroy._logs["alpha"].delivered_total,
                    broker.viceroy.reports_absorbed)
        finally:
            await client.close()
            await broker.close()

    result, bulk, delivered, absorbed = run(scenario())
    assert result.nbytes == 36_000
    assert delivered == bulk["receipt_bytes"] == bulk["bytes_streamed"] \
        == result.nbytes
    receipts = bulk["receipts_absorbed"]
    assert absorbed == receipts + result.windows
    assert result.fragments_stale == 0
    assert result.level is not None
    if bandwidth:
        # A fragment that arrives alone is receipted at once: the same
        # one-sample-per-fragment cadence as a report per fragment.
        assert receipts == result.fragments == 18
    else:
        # A train that lands as a backlog is receipted cumulatively.
        assert result.windows <= receipts < result.fragments


class LoopTurnThrottle:
    """A link with no capacity limit that yields one loop turn per
    fragment: every fragment reaches the receiver alone, a moment apart."""

    clock = MonotonicClock()

    def reserve(self, nbytes, queued_at):
        return queued_at  # never due at once: the streamer sleeps...

    async def sleep_until(self, when):
        await asyncio.sleep(0)  # ...for one loop turn


def test_a_train_paced_a_loop_turn_per_fragment_is_still_one_train():
    """Fragments that reach the receiver one loop turn apart are still
    one train.  What makes a train is the pause after it
    (``RECEIPT_HOLD``), not whether the receiver happened to be slow
    enough for a queue to form."""

    async def scenario():
        broker = await start_live_broker(throttle=LoopTurnThrottle())
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            result = await receiver.fetch(transfer_id, 262_144,
                                          window_bytes=65_536,
                                          fragment_bytes=4_096)
            return result, broker.describe_bulk()
        finally:
            await client.close()
            await broker.close()

    result, bulk = run(scenario())
    assert result.fragments == 64 and result.windows == 4
    assert bulk["receipt_bytes"] == bulk["bytes_streamed"] == 262_144
    # One per window unless the host stalled mid-train; never one each.
    assert result.windows <= bulk["receipts_absorbed"] <= 16


@pytest.mark.parametrize("bandwidth, sleeps_per_fragment", [
    pytest.param(1e12, 0, id="unlimited-link-never-sleeps"),
    pytest.param(2e6, 1, id="paced-link-sleeps-per-fragment"),
])
def test_throttle_sleeps_only_for_link_time_worth_a_timer(
        bandwidth, sleeps_per_fragment):
    """An 8 KiB fragment is 8 ns of link time at 1 TB/s, under the pacing
    granularity, and 4.1 ms at 2 MB/s, over it."""
    throttle = Throttle(bandwidth=bandwidth)

    async def scenario():
        broker = await start_live_broker(throttle=throttle)
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            return await receiver.fetch(transfer_id, 65_536,
                                        window_bytes=32_768,
                                        fragment_bytes=8_192)
        finally:
            await client.close()
            await broker.close()

    result = run(scenario())
    assert result.fragments == throttle.fragments_shaped == 8
    assert throttle.sleeps == sleeps_per_fragment * result.fragments


@pytest.mark.parametrize("bandwidth, trains", [
    pytest.param(None, 1, id="unshaped-window-is-one-write"),
    pytest.param(2e6, 8, id="paced-window-is-a-write-per-fragment"),
])
def test_a_window_costs_a_socket_write_per_due_train(bandwidth, trains):
    """The broker writes every fragment due within a pacing granularity
    as one train frame in one write: an unshaped 64 KiB window is one
    train of eight, and at 2 MB/s each 8 KiB fragment (4.1 ms of link
    time) is its own.  The receiver's closing receipt leads its report
    in one write."""

    async def scenario():
        broker = await start_live_broker(
            throttle=bandwidth and Throttle(bandwidth=bandwidth))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            sender = broker._named["alpha"].channel
            counts = (sender.writes, sender.frames_sent,
                      client.channel.writes, client.channel.frames_sent)
            result = await receiver.fetch(transfer_id, 65_536,
                                          window_bytes=65_536,
                                          fragment_bytes=8_192)
            return result, (sender.writes, sender.frames_sent,
                            client.channel.writes,
                            client.channel.frames_sent), counts
        finally:
            await client.close()
            await broker.close()

    result, after, before = run(scenario())
    writes, frames, rx_writes, rx_frames = (
        a - b for a, b in zip(after, before))
    assert result.fragments == 8 and result.windows == 1
    # The trains, then the report's reply.
    assert (writes, frames) == (trains + 1, trains + 1)
    # Request, mid-window receipts, then receipt + report: one write
    # carries two frames.
    assert rx_frames - rx_writes == 1
    if bandwidth is None:
        assert (rx_writes, rx_frames) == (2, 3)


def test_unreported_fetch_sends_no_samples_at_all():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            result = await receiver.fetch(transfer_id, 20_000, report=False)
            return result, broker.describe_bulk(), \
                broker.viceroy.reports_absorbed
        finally:
            await client.close()
            await broker.close()

    result, bulk, absorbed = run(scenario())
    assert result.nbytes == bulk["bytes_streamed"] == 20_000
    assert bulk["receipts_absorbed"] == absorbed == 0
    assert result.levels == []


@pytest.mark.parametrize("prefetch, receipts, good_bytes", [
    pytest.param(None, [(999, 1)], 0, id="unopened-transfer"),
    pytest.param(None, [(1, 1)], 0, id="no-window-in-flight"),
    pytest.param(False, [(1, 8_193)], 0, id="beyond-what-was-streamed"),
    pytest.param(True, [(1, 8_192)], 0, id="duplicate"),
    pytest.param(True, [(1, 4_096)], 0, id="regressing"),
    pytest.param(False, [(1, 4_096.5)], 0, id="fractional"),
    pytest.param(False, [(1, 4_096), (1, 4_096)], 4_096,
                 id="duplicate-after-a-good-one"),
])
def test_unmatched_receipt_tears_the_session_down(prefetch, receipts,
                                                  good_bytes):
    """A receipt the broker cannot match to bytes it streamed ends the
    session and feeds the estimator nothing.  ``prefetch`` pulls one 8 KiB
    window of transfer 1 first, receipted in full (True) or not at all."""
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            assert await receiver.open("blob", 1 << 20) == 1
            if prefetch is not None:
                await receiver.fetch(1, 8_192, report=prefetch)
            before = (broker.viceroy.reports_absorbed,
                      broker.describe_bulk()["receipt_bytes"])
            for transfer_id, next_offset in receipts:
                client.channel.send(receipt(transfer_id, next_offset))
            closed = await wait_until(lambda: client.channel.closed)
            after = (broker.viceroy.reports_absorbed,
                     broker.describe_bulk()["receipt_bytes"])
            return closed, before, after, broker.describe()["clients"]
        finally:
            await client.close(polite=False)
            await broker.close()

    closed, before, after, remaining = run(scenario())
    assert closed is True
    assert remaining == 0
    assert after == (before[0] + bool(good_bytes), before[1] + good_bytes)


def test_receipt_that_violates_a_window_upcalls_its_owner_once():
    async def scenario():
        broker = await start_live_broker()
        alpha, alpha_rx = await connect_receiver(broker, "alpha")
        beta, beta_rx = await connect_receiver(broker, "beta")
        try:
            # alpha primes the estimate and holds almost all recent use.
            mine = await alpha_rx.open("mine", 1 << 20)
            await alpha_rx.fetch(mine, 65_536)
            level = broker.viceroy.availability("alpha")
            await alpha.request(0.8 * level, 2.0 * level)
            # beta receipts four times alpha's bytes by hand: no
            # throughput report, so only the receipts can move the split.
            theirs = await beta_rx.open("theirs", 1 << 20)
            queue = beta_rx._queues[theirs] = asyncio.Queue()
            offset = 0
            for _ in range(2):
                beta.channel.send(WindowRequest(
                    connection_id="beta", seq=1, transfer_id=theirs,
                    offset=offset, window_bytes=131_072,
                    fragment_bytes=8_192, reply_port=""))
                while not (await asyncio.wait_for(queue.get(), 5.0)
                           ).last_in_window:
                    pass
                offset += 131_072
                beta.channel.send(receipt(theirs, offset, name="beta"))
            await wait_until(
                lambda: broker.describe_bulk()["receipt_bytes"]
                == 65_536 + offset and broker.upcalls_acked >= 1)
            return (alpha.upcalls_received, beta.upcalls_received,
                    broker.describe(),
                    broker.viceroy.availability("alpha"), level)
        finally:
            await alpha.close()
            await beta.close()
            await broker.close()

    mine, theirs, counters, now, before = run(scenario())
    assert now < 0.8 * before
    assert len(mine) == 1 and theirs == []
    assert mine[0]["resource"] == "bandwidth"
    assert mine[0]["level"] < 0.8 * before
    assert counters["upcalls_sent"] == counters["upcalls_acked"] == 1
    assert counters["registrations"] == 0


# -- stale trains --------------------------------------------------------------

def test_stale_train_is_dropped_and_counted_not_taken_as_payload():
    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=200_000))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            fetch = asyncio.ensure_future(receiver.fetch(
                transfer_id, 16_384, window_bytes=8_192,
                fragment_bytes=2_048))
            await asyncio.sleep(0)  # the first window is now requested
            # The tail of a train some earlier, abandoned fetch asked for
            # lands first — closing flag and all.
            receiver._on_frame(FragmentTrain(
                connection_id="broker", seq=1, transfer_id=transfer_id,
                offsets=[8_192 + 2_048 * index for index in range(4)],
                nbytes=[2_048] * 4, last_in_transfer=False))
            result = await fetch
            return result, broker.describe_bulk(), client.channel.closed
        finally:
            await client.close()
            await broker.close()

    result, bulk, closed = run(scenario())
    assert closed is False
    assert result.fragments_stale == 4
    assert result.fragments == 8 and result.windows == 2
    assert result.nbytes == bulk["bytes_streamed"] \
        == bulk["receipt_bytes"] == 16_384


@pytest.mark.parametrize("offsets, nbytes, stale", [
    pytest.param([0, 2_048], [2_048], 1, id="unequal-lengths"),
    pytest.param([0, 2_048.0], [2_048, 2_048], 2, id="non-int-offset"),
    pytest.param([0, 2_048], [2_048, "2048"], 2, id="non-int-size"),
    pytest.param([], [], 1, id="empty-lists"),
    pytest.param([0, 4_096], [2_048, 2_048], 2, id="gap"),
])
def test_a_malformed_train_is_dropped_and_counted_stale(offsets, nbytes,
                                                        stale):
    """Delivered through the client's read handler, a train no sender
    could cut is counted stale and taken as nothing; it never escapes
    as a ``TypeError`` that would close the channel."""

    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=200_000))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            fetch = asyncio.ensure_future(receiver.fetch(
                transfer_id, 8_192, window_bytes=8_192,
                fragment_bytes=2_048))
            await asyncio.sleep(0)  # the window is now requested
            client._on_message(FragmentTrain(
                connection_id="broker", seq=1, transfer_id=transfer_id,
                offsets=offsets, nbytes=nbytes, last_in_transfer=True))
            # Neither is this, whose transfer id cannot be looked up.
            client._on_message(FragmentTrain(
                connection_id="broker", seq=2, transfer_id=[transfer_id],
                offsets=[0], nbytes=[8_192], last_in_transfer=True))
            result = await fetch
            return result, broker.describe_bulk(), client.channel.closed
        finally:
            await client.close()
            await broker.close()

    result, bulk, closed = run(scenario())
    assert closed is False
    assert result.fragments_stale == stale
    assert result.fragments == 4 and result.windows == 1
    assert result.nbytes == bulk["bytes_streamed"] \
        == bulk["receipt_bytes"] == 8_192


def test_a_single_fragment_frame_is_not_taken():
    """The broker sends only trains, and the receiver has one take path:
    a kind-4 ``Fragment`` frame, still decodable, is not its payload."""

    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=200_000))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            fetch = asyncio.ensure_future(receiver.fetch(
                transfer_id, 4_096, fragment_bytes=2_048))
            await asyncio.sleep(0)
            client._on_message(Fragment(
                connection_id="broker", seq=1, transfer_id=transfer_id,
                offset=0, nbytes=4_096, last_in_window=True,
                last_in_transfer=True))
            return await fetch
        finally:
            await client.close()
            await broker.close()

    result = run(scenario())
    assert (result.fragments, result.fragments_stale) == (2, 0)
    assert result.nbytes == 4_096


def test_retried_fetch_supersedes_the_train_still_in_flight():
    async def scenario():
        broker = await start_live_broker(
            throttle=Throttle(bandwidth=20_000))
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            # ~100 ms a fragment: the first try gives up before any lands.
            with pytest.raises(RpcTimeout):
                await receiver.fetch(transfer_id, 8_192,
                                     fragment_bytes=2_048, timeout=0.03)
            result = await receiver.fetch(transfer_id, 4_096,
                                          fragment_bytes=2_048)
            return result, broker.describe_bulk(), client.channel.closed
        finally:
            await client.close()
            await broker.close()

    result, bulk, closed = run(scenario())
    assert closed is False
    assert bulk["streams_aborted"] == 1 and bulk["windows_streamed"] == 1
    assert result.fragments_stale == 0
    assert result.nbytes == bulk["bytes_streamed"] \
        == bulk["receipt_bytes"] == 4_096


def test_non_integer_window_fields_are_a_violation_not_a_crash():
    """So is a fragment size below one byte: unchecked, it would cut a
    window into one-byte fragments (a million for 1 MiB) in one train
    and hold the broker's loop.  So is a legal size that cuts a window
    into more than ``MAX_FRAGMENTS_PER_WINDOW`` fragments."""

    async def scenario(offset, window_bytes, fragment_bytes):
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            client.channel.send(WindowRequest(
                connection_id="alpha", seq=1, transfer_id=transfer_id,
                offset=offset, window_bytes=window_bytes,
                fragment_bytes=fragment_bytes, reply_port=""))
            closed = await wait_until(lambda: client.channel.closed)
            return closed, broker.describe_bulk()["fragments_streamed"]
        finally:
            await client.close(polite=False)
            await broker.close()

    for case in (("0", 1 << 20, 256), (0, 1 << 20, 0), (0, 1 << 20, -7),
                 (0, 256 * 1024, 1)):
        assert run(scenario(*case)) == (True, 0), case


def test_a_window_or_fragment_below_one_byte_is_refused_before_sending():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 100_000)
            frames = client.channel.frames_sent
            refused = []
            for shape in ({"window_bytes": 0}, {"fragment_bytes": 0},
                          {"window_bytes": -1}, {"fragment_bytes": -7}):
                with pytest.raises(BrokerError, match=">= 1"):
                    await receiver.fetch(transfer_id, 100_000, **shape)
                refused.append(shape)
            return (refused, client.channel.frames_sent - frames,
                    broker.describe_bulk()["windows_streamed"])
        finally:
            await client.close()
            await broker.close()

    refused, frames, windows = run(scenario())
    assert len(refused) == 4
    assert frames == windows == 0


def test_a_window_of_too_many_fragments_is_refused_before_sending():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            frames = client.channel.frames_sent
            with pytest.raises(BrokerError,
                               match=f"more than {MAX_FRAGMENTS_PER_WINDOW} "):
                await receiver.fetch(transfer_id, 1 << 20,
                                     window_bytes=256 * 1024,
                                     fragment_bytes=1)
            sent = client.channel.frames_sent - frames
            # A short fetch cuts short windows: the most fragments pass.
            result = await receiver.fetch(
                transfer_id, MAX_FRAGMENTS_PER_WINDOW, fragment_bytes=1)
            return sent, result.fragments
        finally:
            await client.close()
            await broker.close()

    assert run(scenario()) == (0, MAX_FRAGMENTS_PER_WINDOW)


def test_bulk_plane_is_closed_to_a_session_that_never_said_hello():
    async def scenario():
        broker = await start_live_broker()
        client, receiver = await connect_receiver(broker, "alpha")
        stranger = await connect_tcp(*broker.address, lambda message: None)
        try:
            transfer_id = await receiver.open("blob", 1 << 20)
            stranger.send(WindowRequest(
                connection_id="?", seq=1, transfer_id=transfer_id,
                offset=0, window_bytes=1024, fragment_bytes=256,
                reply_port=""))
            closed = await wait_until(lambda: stranger.closed)
            return closed, broker.describe_bulk()["fragments_streamed"]
        finally:
            stranger.close()
            await client.close()
            await broker.close()

    assert run(scenario()) == (True, 0)
