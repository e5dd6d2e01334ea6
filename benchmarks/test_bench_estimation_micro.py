"""Microbenchmarks of the estimation hot path.

The viceroy processes a log entry on every window of every connection; in
the concurrent scenario that is tens of entries per simulated second.
These benchmarks keep that path honest.
"""

from repro.estimation.agility import settling_time
from repro.estimation.share import ClientShares
from repro.rpc.logs import RpcLog
from repro.sim.kernel import Simulator


def _share_update_batch(connections, rechecked=0):
    """A 200-step batch over ``connections`` live logs: each step is one
    delivery plus its throughput entry, then — like the viceroy's recheck —
    an ``availability`` query for each of ``rechecked`` connections."""
    sim = Simulator()
    shares = ClientShares(sim)
    logs = []
    for i in range(connections):
        log = RpcLog(sim, f"c{i}")
        shares.register(log)
        logs.append(log)

    # Pre-populate delivery history.
    sim.run(until=1.0)
    for log in logs:
        log.add_delivery(32 * 1024)
    swept = [log.connection_id for log in logs[:rechecked]]

    def absorb_batch():
        for i in range(200):
            log = logs[i % len(logs)]
            sim.run(until=sim.now + 0.01)
            log.add_delivery(8 * 1024)
            entry = log.add_throughput(sim.now - 0.01, 8 * 1024)
            shares.on_throughput(log, entry)
            for connection_id in swept:
                shares.availability(connection_id)
        return shares.total

    return absorb_batch


def test_share_update_throughput(benchmark):
    """Cost of absorbing one throughput entry with eight live connections."""
    total = benchmark(_share_update_batch(8))
    assert total and total > 0


def test_share_update_throughput_128(benchmark):
    """One shard of ``fleet_512``: 128 live connections, each entry
    followed by a 12-registration recheck.  The cost per step must not
    depend on the 128 (tests/test_estimation_share.py gates the query
    count; this gates the time, so a return of the per-connection scan
    fails CI)."""
    total = benchmark(_share_update_batch(128, rechecked=12))
    assert total and total > 0


def test_settling_time_on_long_series(benchmark):
    """Agility metrics over a 10k-sample series (post-processing cost)."""
    series = [(t * 0.01, 40960.0 if t < 5000 else 122880.0)
              for t in range(10_000)]

    def measure():
        return settling_time(series, 50.0, 122880.0, tolerance=0.1)

    assert benchmark(measure) == 0.0
