"""Microbenchmarks of the substrate: event loop, link, RPC throughput.

Not a paper artifact — these guard the simulator's own performance so the
figure benchmarks stay fast, and demonstrate its capacity.
"""

from repro.net.link import SimplexLink
from repro.net.network import Network
from repro.net.packet import HEADER_BYTES, Packet
from repro.rpc.connection import RpcConnection, RpcService
from repro.rpc.messages import ServerReply
from repro.sim.kernel import Simulator
from repro.trace.waveforms import HIGH_BANDWIDTH, constant, step_down


def test_event_loop_throughput(benchmark):
    def run_events():
        sim = Simulator()
        count = [0]

        def tick(_):
            count[0] += 1

        for i in range(20_000):
            sim.timeout((i % 97) / 10.0).add_callback(tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 20_000


def test_process_switch_throughput(benchmark):
    def run_processes():
        sim = Simulator()

        def worker():
            for _ in range(500):
                yield sim.timeout(0.001)

        for _ in range(20):
            sim.process(worker())
        sim.run()
        return sim.now

    benchmark(run_processes)


def test_link_waveform_throughput(benchmark):
    """Fragment trains through one link over the step-down waveform.

    A 16-fragment train every 0.3 s fits the high half and backs up in the
    low half, so the run covers idle and busy sends, the cursor's moves
    into the low segment and past the trace's end, and the fallback
    integral for fragments straddling either boundary.
    """
    trace = step_down()

    def run_trains():
        sim = Simulator()
        delivered = [0]

        def deliver(packet):
            delivered[0] += 1

        link = SimplexLink(sim, trace, "bench", deliver=deliver)

        def train():
            for _ in range(16):
                link.send(Packet("server", "client", "p", HEADER_BYTES + 2048))

        for i in range(200):
            sim.call_at(i * 0.3, train)
        sim.run()
        return delivered[0]

    assert benchmark(run_trains) == 3200


def test_rpc_fetch_throughput(benchmark):
    def run_fetches():
        sim = Simulator()
        network = Network(sim, constant(HIGH_BANDWIDTH, duration=10_000))
        server = network.add_host("server")
        service = RpcService(sim, server, "svc")
        service.register(
            "get", lambda body: ServerReply(bulk=service.make_bulk(32 * 1024))
        )
        connection = RpcConnection(sim, network, "server", "svc", "bench")

        def client():
            for _ in range(100):
                yield from connection.fetch("get", body_bytes=64)

        sim.process(client())
        sim.run()
        return len(connection.log.throughputs)

    assert benchmark(run_fetches) == 100
