"""The three wall-clock workloads: broker_rpc, live_bulk, live_adapt.

All traffic crosses the host's loopback interface between one broker and
at most two client connections in this one process, on one thread, closed
loop: a caller sends its next request only when the previous one
completed.  Nothing here measures a real link.
"""

import asyncio
import random
import time

from common import best, mean, median, percentile
from ledger import profiled
from workload import Workload, lap, stopwatch

from repro.broker import REPORT_OP, REQUEST_OP, Broker, BrokerClient
from repro.live import (
    BulkReceiver,
    LiveBroker,
    LiveReport,
    LiveWarden,
    Throttle,
    square_wave,
    video_profile,
    web_profile,
)
from repro.rpc.messages import (
    CallRequest,
    CallResponse,
    Fragment,
    WindowRequest,
)
from repro.transport import READ_CHUNK_BYTES, FrameDecoder, encode_frame

#: Per-call patience; only a hung broker ever reaches it.
CALL_TIMEOUT = 10.0
#: How long a pushed upcall may take to reach its owner before it is lost.
UPCALL_WAIT = 5.0
#: In-flight upcalls and their acks get this long to land before counters
#: are compared (the live demo's own grace).
GRACE_SECONDS = 0.3
#: Length of the discarded first pass.  The first broker a process creates
#: serves markedly fewer calls per second than any later one; a throw-away
#: broker of this length absorbs that (``broker.first_pass_ratio``).
WARM_UP_SECONDS = 0.3


class LiveWorkload(Workload):
    """Owns one event loop; every step runs a coroutine to completion."""

    #: Share of a traced run spent on the plain timed section that feeds
    #: the latency distributions; the rest is the fixed work, run twice.
    TRACE_MEASURE_SHARE = 1 / 3
    #: Clock the ledger's profile reads (see :func:`ledger.profiled`).
    PROFILE_TIMER = time.perf_counter

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.loop = asyncio.new_event_loop()
        self.tracing = False
        self.timer_late = []  # seconds the loop woke a ticker late

    def run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def setup(self):
        self.run(self.asetup())

    def measure(self, seconds):
        self.run(self.measure_with_ticker(seconds))

    async def measure_with_ticker(self, seconds):
        # The ticker costs CPU of its own, so only a traced run has one.
        ticker = asyncio.ensure_future(self.ticker()) if self.tracing else None
        try:
            await self.ameasure(seconds)
        finally:
            if ticker is not None:
                ticker.cancel()

    def check(self):
        self.run(self.acheck())

    def teardown(self):
        try:
            self.run(self.ateardown())
        finally:
            self.loop.close()

    async def acall(self, awaitable):
        """Await one operation; a raise is a counted failure."""
        self.attempted += 1
        try:
            return await awaitable
        except Exception as exc:  # noqa: BLE001 - counted, reported, survived
            self.failed += 1
            self.problem(f"{type(exc).__name__}: {exc}")
            return None

    async def ticker(self, interval=0.02):
        """Record how late the loop runs a timer (the generator's own
        lateness: a busy loop delays the paced clients it hosts)."""
        while True:
            due = time.perf_counter() + interval
            await asyncio.sleep(interval)
            self.timer_late.append(max(0.0, time.perf_counter() - due))

    # -- traced run ------------------------------------------------------------

    async def fixed_work(self):
        """The work the ledger profiles; returns ``(units, cost_seconds)``
        where cost is host time, or CPU time for a timer-paced workload."""
        raise NotImplementedError

    def message_mix(self):
        """Representative frames of this workload, for the codec timing."""
        raise NotImplementedError

    def per_layer(self):
        """Workload-specific per-layer metrics from the plain section."""
        raise NotImplementedError

    def trace(self, seconds):
        self.tracing = True
        self.measure(seconds * self.TRACE_MEASURE_SHARE)
        self.layer["harness.idle_share"] = max(
            0.0, 1.0 - self.cpu_seconds / self.wall_seconds)
        self.layer["harness.timer_late_ms_p99"] = 1e3 * percentile(
            self.timer_late, 0.99)
        self.layer.update(self.per_layer())
        units, cost = self.run(self.fixed_work())
        (traced_units, traced_cost), ledger = profiled(
            lambda: self.run(self.fixed_work()), self.PROFILE_TIMER)
        overhead = (traced_cost / traced_units) / (cost / units)
        self.layer.update(ledger.layer_metrics(overhead))
        self.layer.update(transport_metrics(self.message_mix()))
        self.check()


def transport_metrics(messages, frames=20_000):
    """Direct calls into the codec on a workload's own message mix."""
    rounds = max(1, frames // len(messages))
    started = time.perf_counter()
    for _ in range(rounds):
        encoded = [encode_frame(message) for message in messages]
    encode_seconds = time.perf_counter() - started
    blob = b"".join(encoded) * rounds
    count = rounds * len(messages)
    decoder = FrameDecoder()
    decoded = 0
    started = time.perf_counter()
    for offset in range(0, len(blob), READ_CHUNK_BYTES):
        decoded += len(decoder.feed(blob[offset:offset + READ_CHUNK_BYTES]))
    decode_seconds = time.perf_counter() - started
    if decoded != count:
        raise AssertionError(f"codec lost frames: {decoded} of {count}")
    return {
        "transport.encode_us_per_frame": 1e6 * encode_seconds / count,
        "transport.decode_us_per_frame": 1e6 * decode_seconds / count,
        "transport.encode_mb_s": len(blob) / encode_seconds / 1e6,
        "transport.decode_mb_s": len(blob) / decode_seconds / 1e6,
    }


async def discard_first_broker(broker_class=Broker):
    """Start, exercise and close a throw-away broker (see
    :data:`WARM_UP_SECONDS`); returns its echo calls per second."""
    broker = await broker_class().start()
    client = BrokerClient(*broker.address, "warm-up")
    try:
        await client.connect()
        calls = 0
        started = time.perf_counter()
        while time.perf_counter() - started < WARM_UP_SECONDS:
            await client.call("echo", {"n": calls})
            calls += 1
        return calls / (time.perf_counter() - started)
    finally:
        await client.close()
        await broker.close()


# ---------------------------------------------------------------------------
# broker_rpc
# ---------------------------------------------------------------------------

BODY_SIZES = (8, 256, 4096)
#: Every n-th call is relayed through the broker to the peer's operation.
RELAY_EVERY = 8
#: Every n-th call is a report that violates the peer's window.
UPCALL_EVERY = 32
#: The two windows a client alternates between, and a level inside each:
#: a report of the *other* window's level violates the registered one, and
#: the owner re-registers around what it was told (the paper's protocol).
WINDOWS = ((0.0, 1.0e6), (1.5e6, 3.0e6))
LEVELS = (0.5e6, 2.0e6)


class _Peer:
    """One client connection of the call mix, and what it is waiting on."""

    def __init__(self, client, rng):
        self.client = client
        self.rng = rng
        self.resource = f"bandwidth/{client.name}"
        self.echo_op = None
        self.window = 0  # index into WINDOWS of the registered window
        self.sent = 0
        self.upcall_at = None
        self.upcall_seen = asyncio.Event()
        self.renegotiation = None  # task re-registering after an upcall


class BrokerRpc(LiveWorkload):
    """Small calls through the base broker: echo, relay, violate, upcall."""

    name = "broker_rpc"

    async def start_rig(self):
        broker = await Broker().start()
        peers = []
        for name in ("a", "b"):
            client = BrokerClient(*broker.address, name)
            await client.connect()
            peer = _Peer(client, random.Random(f"{self.seed}:{name}"))
            peer.echo_op = await client.register_op("echo", lambda body: body)
            await client.request(*WINDOWS[0], resource=peer.resource)
            client.on_upcall(lambda body, peer=peer: self.on_upcall(peer))
            peers.append(peer)
        return broker, peers

    async def stop_rig(self, broker, peers):
        for peer in peers:
            if peer.renegotiation is not None:
                await peer.renegotiation
            await peer.client.close()
        left = broker.describe()["clients"]
        await broker.close()
        return left

    async def asetup(self):
        self.pads = {size: "x" * size for size in BODY_SIZES}
        self.calls = []  # (kind, body size, seconds) per call of this pass
        self.upcalls = []  # report -> owner's handler, seconds, this pass
        # A traced run keeps every pass for the per-layer distributions; a
        # timed run keeps none, so its memory is the program's, not ours.
        self.all_calls, self.all_upcalls = [], []
        self.upcalls_expected = self.calls_made = 0
        # The discarded pass runs the real mix on a broker of its own.
        broker, peers = await self.start_rig()
        rate = await self.one_pass(peers, WARM_UP_SECONDS)
        await self.stop_rig(broker, peers)
        self.first_pass_rate = rate
        self.samples.clear()
        self.upcalls_expected = self.attempted = self.calls_made = 0
        self.broker, self.peers = await self.start_rig()

    def on_upcall(self, peer):
        peer.upcall_at = time.perf_counter()
        peer.window = 1 - peer.window
        peer.renegotiation = asyncio.ensure_future(self.timed_call(
            peer, "request", 0, REQUEST_OP,
            {"resource": peer.resource, "lower": WINDOWS[peer.window][0],
             "upper": WINDOWS[peer.window][1]}))
        peer.upcall_seen.set()

    async def timed_call(self, peer, kind, size, op, body):
        started = time.perf_counter()
        reply = await self.acall(peer.client.call(op, body,
                                                  timeout=CALL_TIMEOUT))
        if reply is not None:
            self.calls.append((kind, size, time.perf_counter() - started))
        return reply

    async def violate(self, me, peer):
        if peer.renegotiation is not None:
            await peer.renegotiation  # its window must be registered again
        peer.upcall_seen.clear()
        self.upcalls_expected += 1
        started = time.perf_counter()
        reply = await self.timed_call(
            me, "report", 0, REPORT_OP,
            {"resource": peer.resource, "level": LEVELS[1 - peer.window]})
        try:
            await asyncio.wait_for(peer.upcall_seen.wait(), UPCALL_WAIT)
        except asyncio.TimeoutError:
            self.failed += 1
            self.problem(f"upcall to {peer.client.name} lost "
                         f"(report reply: {reply!r})")
            return
        self.upcalls.append(peer.upcall_at - started)

    async def caller(self, me, peer, keep_going):
        while keep_going(me):
            me.sent += 1
            if me.sent % UPCALL_EVERY == 0:
                await self.violate(me, peer)
                continue
            size = BODY_SIZES[me.rng.randrange(len(BODY_SIZES))]
            relayed = me.sent % RELAY_EVERY == 0
            await self.timed_call(
                me, "relay" if relayed else "echo", size,
                peer.echo_op if relayed else "echo",
                {"n": me.sent, "pad": self.pads[size]})

    async def both_callers(self, peers, keep_going):
        a, b = peers
        await asyncio.gather(self.caller(a, b, keep_going),
                             self.caller(b, a, keep_going))

    async def one_pass(self, peers, seconds):
        """One closed-loop pass; returns its calls per second."""
        self.calls.clear()
        self.upcalls.clear()
        mark = stopwatch()
        deadline = mark[0] + seconds
        await self.both_callers(
            peers, lambda me: time.perf_counter() < deadline)
        host, cpu = lap(mark)
        calls = len(self.calls)
        self.calls_made += calls
        self.sample("pass_calls_per_s", calls / host)
        self.sample("pass_cpu_s_per_call", cpu / calls)
        self.sample("pass_call_s_p50", median([c[2] for c in self.calls]))
        self.sample("pass_upcall_s_p50", median(self.upcalls))
        if self.tracing:
            self.all_calls += self.calls
            self.all_upcalls += self.upcalls
        return calls / host

    async def ameasure(self, seconds):
        pass_seconds = min(0.5, seconds / 3)
        frames = self.frame_counters()
        with self.timed():
            while self.elapsed() < seconds:
                await self.one_pass(self.peers, pass_seconds)
        sent, received, nbytes = (
            after - before
            for after, before in zip(self.frame_counters(), frames))
        self.frames_per_call = (sent + received) / self.calls_made
        self.bytes_per_call = nbytes / self.calls_made

    def frame_counters(self):
        channels = [peer.client.channel for peer in self.peers]
        return (sum(c.frames_sent for c in channels),
                sum(c.frames_received for c in channels),
                sum(c.bytes_sent + c.bytes_received for c in channels))

    def end_to_end(self):
        return {
            "throughput": self.calls_per_s(),
            "latency_ms": 1e3 * best(self.samples["pass_call_s_p50"],
                                     "lower"),
        }

    def calls_per_s(self):
        return best(self.samples["pass_calls_per_s"], "higher")

    async def acheck(self):
        await asyncio.sleep(GRACE_SECONDS)
        counters = self.broker.describe()
        received = sum(len(p.client.upcalls_received) for p in self.peers)
        sent, acked = counters["upcalls_sent"], counters["upcalls_acked"]
        if not sent == acked == received == self.upcalls_expected:
            self.problem(f"upcalls: {self.upcalls_expected} provoked, {sent} "
                         f"sent, {received} received, {acked} acknowledged")
        if counters["errors_returned"]:
            self.problem(f"broker returned {counters['errors_returned']} "
                         f"errors")
        timeouts = sum(p.client.timeouts for p in self.peers)
        if timeouts:
            self.problem(f"{timeouts} calls timed out")

    async def ateardown(self):
        left = await self.stop_rig(self.broker, self.peers)
        if left or not all(p.client.closed for p in self.peers):
            self.problem(f"dirty shutdown: {left} sessions left at the broker")

    # -- traced run ------------------------------------------------------------

    async def fixed_work(self):
        calls = max(200, int(2000 * self.scale))
        budget = {id(peer): peer.sent + calls for peer in self.peers}
        started = time.perf_counter()
        await self.both_callers(self.peers,
                                lambda me: me.sent < budget[id(me)])
        return 2 * calls, time.perf_counter() - started

    def message_mix(self):
        mix = []
        for size in BODY_SIZES:
            body = {"n": 1, "pad": self.pads[size]}
            mix.append(CallRequest("a", 1, "echo", body, 256, ""))
            mix.append(CallResponse("a", 1, body, 64, 0.0))
        return mix

    def per_layer(self):
        seconds = [c[2] for c in self.all_calls]

        def p50(kind=None, size=None):
            return 1e3 * median([s for k, b, s in self.all_calls
                                 if kind in (None, k) and size in (None, b)])

        counters = self.broker.describe()
        return {
            "broker.calls_per_s": self.calls_per_s(),
            "broker.call_ms_p50": 1e3 * median(seconds),
            "broker.call_ms_p99": 1e3 * percentile(seconds, 0.99),
            "broker.call_ms_p999": 1e3 * percentile(seconds, 0.999),
            "broker.echo_ms_p50": p50(kind="echo"),
            "broker.relay_ms_p50": p50(kind="relay"),
            "broker.call_ms_p50.b8": p50(size=8),
            "broker.call_ms_p50.b256": p50(size=256),
            "broker.call_ms_p50.b4096": p50(size=4096),
            "broker.upcall_ms_p50": 1e3 * median(self.all_upcalls),
            "broker.upcall_ms_p99": 1e3 * percentile(self.all_upcalls, 0.99),
            "broker.cpu_us_per_call":
                1e6 * best(self.samples["pass_cpu_s_per_call"], "lower"),
            "broker.calls_served": counters["calls_served"],
            "broker.calls_relayed": counters["calls_relayed"],
            "broker.upcalls_sent": counters["upcalls_sent"],
            "broker.upcalls_acked": counters["upcalls_acked"],
            "broker.errors_returned": counters["errors_returned"],
            "broker.first_pass_ratio":
                self.first_pass_rate / self.calls_per_s(),
            "transport.frames_per_call": self.frames_per_call,
            "transport.bytes_per_call": self.bytes_per_call,
        }


# ---------------------------------------------------------------------------
# live_bulk
# ---------------------------------------------------------------------------

#: Transfer A's link: slow enough that the timer, not the CPU, sets the pace.
PACED_BANDWIDTH = 2.0e6
#: Transfer B's link: "effectively unlimited", so the CPU sets the pace.
UNPACED_BANDWIDTH = 1.0e12
WINDOW_BYTES = 64 * 1024
FRAGMENT_BYTES = 8 * 1024
#: One pull of transfer B: 512 fragments, about an eighth of a second.
PULL_BYTES = 4 * 1024 * 1024
#: Share of the timed section given to transfer A.
PACED_SHARE = 0.4


class _BulkRig:
    """One live broker with one receiving client on an endless blob."""

    async def start(self, bandwidth, name):
        self.throttle = Throttle(bandwidth=bandwidth)
        self.broker = await LiveBroker(throttle=self.throttle).start()
        self.client = BrokerClient(*self.broker.address, name)
        await self.client.connect()
        self.receiver = BulkReceiver(self.client)
        self.transfer = await self.receiver.open(name, 1 << 40)
        return self

    async def stop(self):
        await self.client.close()
        left = self.broker.describe()["clients"]
        await self.broker.close()
        return left


class LiveBulk(LiveWorkload):
    """Fragment trains with backpressure and per-fragment estimator folds."""

    name = "live_bulk"

    async def asetup(self):
        self.info["first_broker_calls_per_s"] = await discard_first_broker(
            LiveBroker)
        self.paced = await _BulkRig().start(PACED_BANDWIDTH, "paced")
        self.unpaced = await _BulkRig().start(UNPACED_BANDWIDTH, "unpaced")
        await self.pull(self.unpaced, PULL_BYTES // 8)

    async def pull(self, rig, nbytes, report=True):
        """One fetch; returns its TransferResult (None if it failed)."""
        result = await self.acall(rig.receiver.fetch(
            rig.transfer, nbytes, window_bytes=WINDOW_BYTES,
            fragment_bytes=FRAGMENT_BYTES, report=report))
        if result is not None and result.nbytes != nbytes:
            self.failed += 1
            self.problem(f"short transfer: {result.nbytes} of {nbytes} bytes")
        return result

    async def ameasure(self, seconds):
        with self.timed():
            # Transfer A: one window per fetch, so each op is one
            # request / fragment-train / report exchange on the paced link.
            delivered = 0
            started = time.perf_counter()
            while time.perf_counter() - started < seconds * PACED_SHARE:
                sent = time.perf_counter()
                result = await self.pull(self.paced, WINDOW_BYTES)
                self.sample("window_s", time.perf_counter() - sent)
                delivered += result.nbytes if result else 0
            self.utilization = delivered / (
                PACED_BANDWIDTH * (time.perf_counter() - started))
            # Transfer B: many short pulls, each a unit of its own.
            while self.elapsed() < seconds:
                mark = stopwatch()
                result = await self.pull(self.unpaced, PULL_BYTES)
                if result is not None:
                    host, cpu = lap(mark)
                    self.sample("pull_frags_per_s", result.fragments / host)
                    self.sample("pull_cpu_s_per_frag", cpu / result.fragments)

    def end_to_end(self):
        return {
            "throughput": best(self.samples["pull_frags_per_s"], "higher"),
            "latency_ms": 1e3 * best(self.samples["window_s"], "lower"),
        }

    async def acheck(self):
        for rig in (self.paced, self.unpaced):
            counters = rig.broker.describe()
            if counters["errors_returned"] or rig.client.timeouts:
                self.problem(f"{rig.client.name}: "
                             f"{counters['errors_returned']} errors, "
                             f"{rig.client.timeouts} timeouts")
            if counters["bulk"]["streams_aborted"]:
                self.problem(f"{rig.client.name}: "
                             f"{counters['bulk']['streams_aborted']} streams "
                             f"aborted")

    async def ateardown(self):
        for rig in (self.paced, self.unpaced):
            left = await rig.stop()
            if left or not rig.client.closed:
                self.problem(f"dirty shutdown: {left} sessions left")

    # -- traced run ------------------------------------------------------------

    async def fixed_work(self):
        fragments = 0
        started = time.perf_counter()
        for _ in range(max(1, int(4 * self.scale))):
            result = await self.pull(self.unpaced, PULL_BYTES)
            fragments += result.fragments
        return fragments, time.perf_counter() - started

    async def unreported_rate(self):
        rates = []
        for _ in range(max(1, int(4 * self.scale))):
            sent = time.perf_counter()
            result = await self.pull(self.unpaced, PULL_BYTES, report=False)
            rates.append(result.fragments / (time.perf_counter() - sent))
        return best(rates, "higher")

    def message_mix(self):
        report = {"kind": "delivery", "nbytes": FRAGMENT_BYTES}
        return [
            WindowRequest("rx", 1, 1, 0, WINDOW_BYTES, FRAGMENT_BYTES, ""),
            *(Fragment("broker", i, 1, i * FRAGMENT_BYTES, FRAGMENT_BYTES,
                       i == 7, False) for i in range(8)),
            *(CallRequest("rx", i, REPORT_OP, report, 256, "")
              for i in range(8)),
            *(CallResponse("rx", i, {"resource": "bandwidth", "level": 1.9e6,
                                     "upcalls": 0}, 64, 0.0)
              for i in range(8)),
        ]

    def per_layer(self):
        reported = best(self.samples["pull_frags_per_s"], "higher")
        rigs = (self.paced, self.unpaced)
        return {
            "live.frags_per_s": reported,
            "live.link_utilization": self.utilization,
            "live.window_ms_p50": 1e3 * median(self.samples["window_s"]),
            "live.cpu_us_per_frag":
                1e6 * best(self.samples["pull_cpu_s_per_frag"], "lower"),
            "live.fragments_shaped": sum(r.throttle.fragments_shaped
                                         for r in rigs),
            "live.reports_absorbed": sum(r.broker.viceroy.reports_absorbed
                                         for r in rigs),
            # Share of a fragment's cost that is the report -> absorb ->
            # recheck path: the same pull with and without reporting.
            "live.report_share":
                1.0 - reported / self.run(self.unreported_rate()),
        }


# ---------------------------------------------------------------------------
# live_adapt
# ---------------------------------------------------------------------------

#: The live demo's per-client link budget, bytes/s.
HIGH_PER_CLIENT = 80_000
LOW_PER_CLIENT = 8_000
WARDENS = 2


class LiveAdapt(LiveWorkload):
    """Two adapting wardens on a square-wave link: live agility."""

    name = "live_adapt"
    TRACE_MEASURE_SHARE = 1 / 2
    PROFILE_TIMER = time.process_time

    async def asetup(self):
        self.info["first_broker_calls_per_s"] = await discard_first_broker(
            LiveBroker)
        self.phase = 2.0 if self.scale >= 1 else 1.0
        self.throttle = Throttle(trace=square_wave(
            high=WARDENS * HIGH_PER_CLIENT, low=WARDENS * LOW_PER_CLIENT,
            phase_seconds=self.phase))
        self.broker = await LiveBroker(throttle=self.throttle).start()
        self.wardens = []
        for index in range(WARDENS):
            profile = video_profile() if index % 2 == 0 else web_profile()
            warden = LiveWarden(*self.broker.address, f"live-{index}",
                                profile=profile)
            self.wardens.append(warden)
            await warden.start()

    async def run_wardens(self, seconds):
        """One paced section; returns ``(start, end, chunks, bytes)``."""
        chunks = sum(w.chunks for w in self.wardens)
        nbytes = sum(w.bytes_fetched for w in self.wardens)
        started = time.monotonic()
        await asyncio.gather(*(self.acall(w.run(seconds))
                               for w in self.wardens))
        ended = time.monotonic()
        chunks = sum(w.chunks for w in self.wardens) - chunks
        self.attempted += chunks  # each chunk fetch is one operation
        return (started, ended, chunks,
                sum(w.bytes_fetched for w in self.wardens) - nbytes)

    async def ameasure(self, seconds):
        # Every warden must see a full high -> low -> high cycle, and the
        # rising edge's whole phase must lie inside the section.
        seconds = max(seconds, 3.2 * self.phase)
        served = self.broker.calls_served
        with self.timed():
            started, ended, chunks, nbytes = await self.run_wardens(seconds)
        # CPU is charged per message the broker served (every ping, report
        # and request is one): chunks differ in size with the fidelity they
        # were fetched at, messages do not.
        self.cpu_s_per_call = self.cpu_seconds / (
            self.broker.calls_served - served)
        await asyncio.sleep(GRACE_SECONDS)
        self.chunks_per_s = chunks / (ended - started)
        self.utilization = nbytes / self.capacity(started, ended)
        self.mean_fidelity = mean([self.fidelity_of(w, started, ended)
                                   for w in self.wardens])
        self.samples["step_up_s"], self.samples["step_down_s"] = \
            self.steps(started, ended)

    def capacity(self, start, end):
        """Bytes the throttle could have carried between two instants."""
        total, t = 0.0, start
        origin = self.throttle.started
        while t < end:
            edge = origin + (int((t - origin) / self.phase) + 1) * self.phase
            upto = min(end, edge)
            total += self.throttle.rate_at((t + upto) / 2 - origin) * (upto - t)
            t = upto
        return total

    @staticmethod
    def fidelity_of(warden, start, end):
        """Time-weighted mean fidelity of one warden over [start, end]."""
        log = warden.fidelity_log
        total = 0.0
        for (at, level, _), following in zip(log, log[1:] + [(end, 0, "")]):
            lo, hi = max(at, start), min(following[0], end)
            if hi > lo:
                total += level * (hi - lo)
        return total / (end - start)

    def steps(self, start, end):
        """Seconds from each throttle edge inside [start, end] to the first
        fidelity change in the edge's direction, per warden; an edge no
        warden followed within its phase is not a sample."""
        ups, downs = [], []
        origin = self.throttle.started
        k = int((start - origin) / self.phase) + 1
        while origin + (k + 1) * self.phase <= end:
            edge = origin + k * self.phase
            rising = k % 2 == 0  # the wave starts high
            for warden in self.wardens:
                log = warden.fidelity_log
                before = [level for at, level, _ in log if at <= edge][-1]
                for at, level, _ in log:
                    if edge < at <= edge + self.phase and (
                            level > before if rising else level < before):
                        (ups if rising else downs).append(at - edge)
                        break
            k += 1
        return ups, downs

    def end_to_end(self):
        return {
            "throughput": self.chunks_per_s,
            "latency_ms": 1e3 * best(self.samples["step_up_s"], "lower"),
        }

    async def acheck(self):
        # The live demo's own judgement: lost or unacknowledged upcalls, a
        # warden without a full adaptation cycle, failed exchanges.
        report = LiveReport(WARDENS, self.wall_seconds, HIGH_PER_CLIENT,
                            LOW_PER_CLIENT)
        report.wardens = [warden.describe() for warden in self.wardens]
        report.broker = self.broker.describe()
        self.problems += report.check().problems
        self.failed += sum(state["failures"] for state in report.wardens)
        if not self.samples["step_up_s"]:
            self.problem("no warden followed a rising edge of the link")

    async def ateardown(self):
        for warden in self.wardens:
            await warden.stop()
        left = self.broker.describe()["clients"]
        await self.broker.close()
        if left:
            self.problem(f"dirty shutdown: {left} sessions left")

    # -- traced run ------------------------------------------------------------

    async def fixed_work(self):
        # Timer-paced: the wall time is fixed, so tracing shows as CPU.
        cpu, served = time.process_time(), self.broker.calls_served
        await self.run_wardens(2 * self.phase)
        return (self.broker.calls_served - served,
                time.process_time() - cpu)

    def message_mix(self):
        report = {"kind": "delivery", "nbytes": 2048}
        return [
            CallRequest("live-0", 1, "__ping__", None, 256, ""),
            CallResponse("live-0", 1, {"pong": True}, 64, 0.0),
            CallRequest("live-0", 2, REPORT_OP,
                        {"kind": "round_trip", "seconds": 0.0004}, 256, ""),
            WindowRequest("live-0", 1, 1, 0, 4096, 2048, ""),
            *(Fragment("broker", i, 1, i * 2048, 2048, i == 1, False)
              for i in range(2)),
            *(CallRequest("live-0", i, REPORT_OP, report, 256, "")
              for i in range(2)),
            *(CallResponse("live-0", i, {"resource": "bandwidth",
                                         "level": 61000.5, "upcalls": 0},
                           64, 0.0) for i in range(4)),
        ]

    def per_layer(self):
        downs = self.samples["step_down_s"]
        stalls = sum(w.stalls for w in self.wardens)
        chunks = sum(w.chunks for w in self.wardens)
        return {
            "live.chunks_per_s": self.chunks_per_s,
            "live.cpu_us_per_call": 1e6 * self.cpu_s_per_call,
            "live.link_utilization": self.utilization,
            "live.mean_fidelity": self.mean_fidelity,
            "live.step_up_ms_p50": 1e3 * median(self.samples["step_up_s"]),
            "live.step_down_ms_mean": 1e3 * mean(downs),
            "live.step_down_ms_p50": 1e3 * median(downs),
            "live.stall_share": stalls / chunks if chunks else 0.0,
            "live.fidelity_changes": sum(w.fidelity_changes
                                         for w in self.wardens),
            "live.renegotiations": sum(w.renegotiations
                                       for w in self.wardens),
            "live.upcalls": sum(w.upcalls_received for w in self.wardens),
            "live.fragments_shaped": self.throttle.fragments_shaped,
            "live.reports_absorbed": self.broker.viceroy.reports_absorbed,
        }
