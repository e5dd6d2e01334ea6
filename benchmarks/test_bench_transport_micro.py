"""Microbenchmarks of the live message path: codec and loopback echo.

Every live call is two frames encoded, two decoded and two socket
round trips through the event loop; these keep that cost per message
honest.  The codec pair runs the request + response mix of the repository
benchmark's ``broker_rpc`` workload (8 B / 256 B / 4 KiB bodies); the echo
runs the whole path — ``BrokerClient.call`` to an in-process ``Broker``
over a real loopback socket — closed loop, one call in flight.
"""

import asyncio
import time

from repro.broker import Broker, BrokerClient
from repro.rpc.messages import CallRequest, CallResponse
from repro.transport import READ_CHUNK_BYTES, FrameDecoder, encode_frame

BODY_SIZES = (8, 256, 4096)
#: Times the six-message mix is repeated per timed round.
MIX_REPEATS = 200
ECHO_CALLS = 2000


def message_mix():
    mix = []
    for size in BODY_SIZES:
        body = {"n": 1, "pad": "x" * size}
        mix.append(CallRequest("a", 1, "echo", body, 256, ""))
        mix.append(CallResponse("a", 1, body, 64, 0.0))
    return mix * MIX_REPEATS


def record_per_frame(benchmark, key, frames):
    """The round's best time as microseconds per frame (no stats exist
    when the run is not timed: ``--benchmark-disable``, profiling)."""
    if benchmark.stats is not None:
        benchmark.extra_info[key] = 1e6 * benchmark.stats.stats.min / frames


def test_wire_encode_mix(benchmark):
    messages = message_mix()

    def encode_all():
        return sum(len(encode_frame(message)) for message in messages)

    nbytes = benchmark(encode_all)
    assert nbytes > len(messages) * min(BODY_SIZES)
    record_per_frame(benchmark, "encode_us_per_frame", len(messages))


def test_wire_decode_mix(benchmark):
    messages = message_mix()
    stream = b"".join(encode_frame(message) for message in messages)

    def decode_all():
        # The way a channel sees a busy stream: read-sized chunks, frames
        # straddling them.
        decoder = FrameDecoder()
        decoded = 0
        for offset in range(0, len(stream), READ_CHUNK_BYTES):
            decoded += len(decoder.feed(
                stream[offset:offset + READ_CHUNK_BYTES]))
        return decoded

    assert benchmark(decode_all) == len(messages)
    record_per_frame(benchmark, "decode_us_per_frame", len(messages))


def test_loopback_echo(benchmark):
    async def echo_loop():
        broker = await Broker().start()
        client = await BrokerClient(*broker.address, "bench").connect()
        try:
            body = {"n": 1, "pad": "x" * 256}
            for _ in range(100):  # first reads, lazy imports
                await client.call("echo", body)
            started = time.perf_counter()
            for _ in range(ECHO_CALLS):
                await client.call("echo", body)
            return ECHO_CALLS / (time.perf_counter() - started)
        finally:
            await client.close()
            await broker.close()

    rates = []
    benchmark.pedantic(lambda: rates.append(asyncio.run(echo_loop())),
                       rounds=5, iterations=1)
    # Host noise only ever slows a round down, so the best one is the
    # estimate (bench/README.md makes the same choice).
    benchmark.extra_info["echo_calls_per_second"] = max(rates)
