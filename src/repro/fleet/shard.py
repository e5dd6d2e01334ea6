"""One fleet shard: a region's viceroy, servers, and clients, run whole.

A shard is a hermetic trial unit — its own :class:`Simulator`, scenario
trace, viceroy/warden/estimation stack, server pool, and client
population — so the trial runner can fan shards across cores exactly like
any other experiment.  Everything a shard returns is a plain picklable
reduction (:class:`ShardResult`): per-client QoE records plus shard-level
upcall statistics, and deliberately **no wall-clock measurements** (a
cached shard must be indistinguishable from a fresh one).

Scaling conventions:

- the scenario trace is a per-shard :func:`generate_scenario` draw from
  the shard's spawned seed, so regions see independent coverage;
- link capacity scales with population (one unscaled trace feeds
  :data:`CLIENTS_PER_LINK` clients), keeping contention — and therefore
  adaptation — meaningful at any shard size;
- servers pool at :data:`CLIENTS_PER_SERVER` clients each, round-robin.
"""

from dataclasses import dataclass

from repro.apps.bitstream import BitstreamServer, StreamWarden
from repro.core.api import OdysseyAPI
from repro.experiments.harness import PRIME_SECONDS, ExperimentWorld
from repro.fleet.client import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_PERIOD,
    FleetClient,
)
from repro.trace.algebra import scale_bandwidth
from repro.trace.scenarios import generate_scenario

#: Clients an unscaled scenario trace is sized for; the shard multiplies
#: its link bandwidth by ``clients / CLIENTS_PER_LINK`` past this point.
CLIENTS_PER_LINK = 16
#: Clients per pooled server (round-robin assignment).
CLIENTS_PER_SERVER = 32


@dataclass(frozen=True)
class ClientRecord:
    """One client's QoE reduction (picklable, deterministic)."""

    name: str
    bytes: int
    chunks: int
    stalls: int
    failures: int
    mean_latency: float
    max_latency: float
    mean_fidelity: float
    upcalls: int
    renegotiations: int


@dataclass(frozen=True)
class ShardResult:
    """Everything one shard reports back to the cross-shard merge."""

    shard: int
    seed: int
    n_clients: int
    n_servers: int
    policy: str
    family: str
    duration: float
    trace_name: str
    records: tuple  # ClientRecord per client, in client order
    upcall_count: int
    upcall_latency_mean: float
    upcall_latency_p95: float
    upcall_latency_max: float
    #: ChaosShardStats when the shard ran under a chaos profile, else None.
    chaos: object = None


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list (0.0 on empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(fraction * len(sorted_values))))
    return sorted_values[rank]


#: Tracker hysteresis for chaos shards: storms are short relative to the
#: default thresholds, so chaos worlds detect a dead link on the second
#: failed fetch and reconnect on the second healthy probe.
CHAOS_CONNECTIVITY = {"degrade_after": 1, "disconnect_after": 2,
                      "recover_after": 2}


def build_shard_world(clients, duration, policy="odyssey", family="urban",
                      prime=PRIME_SECONDS, chunk_bytes=DEFAULT_CHUNK_BYTES,
                      period=DEFAULT_PERIOD, seed=0, shard=0, chaos=None):
    """Construct (but do not run) a shard: world, servers, clients.

    Returns ``(world, fleet, servers)`` where ``fleet`` is the client list
    in creation order.  Split from :func:`run_fleet_shard` so tests and
    benchmarks can inspect the wiring.

    ``chaos`` (a :class:`~repro.chaos.storms.ChaosProfile`) compiles to
    this shard's storm schedule: blackouts are folded into the scenario
    trace, wardens become evidence-bearing
    :class:`~repro.chaos.warden.ChaosStreamWarden` instances with
    heartbeats, trackers get the tightened :data:`CHAOS_CONNECTIVITY`
    hysteresis, servers learn the ``save-mark`` op, and clients mark
    their position every cycle.  The compiled schedule is left on
    ``world.shard_chaos`` for :func:`repro.chaos.arm.arm_chaos`.  With
    ``chaos=None`` the built world is bit-identical to the pre-chaos
    fleet.
    """
    trace = generate_scenario(family, duration_seconds=duration, seed=seed)
    factor = max(1.0, clients / CLIENTS_PER_LINK)
    if factor > 1.0:
        trace = scale_bandwidth(trace, factor,
                                name=f"{trace.name}x{clients}c")
    n_servers = max(1, -(-clients // CLIENTS_PER_SERVER))
    shard_chaos = None
    if chaos is not None:
        from repro.chaos.warden import ChaosStreamWarden, install_mark_op

        ports = [f"fleet-{i}" for i in range(n_servers)]
        shard_chaos = chaos.for_shard(
            shard, clients=clients, server_ports=ports, duration=duration,
            seed=seed, offset=prime,
        )
        trace = shard_chaos.link_plan().modulate(trace)
    world = ExperimentWorld(
        trace, policy=policy, prime=prime, seed=seed, upcall_batch=True,
        connectivity=CHAOS_CONNECTIVITY if chaos is not None else None,
    )
    world.shard_chaos = shard_chaos
    servers = []
    for index in range(n_servers):
        host = world.network.add_host(f"fleet-server-{index}")
        server = BitstreamServer(world.sim, host, port=f"fleet-{index}")
        world.jitter_service(server.service)
        if chaos is not None:
            install_mark_op(server.service)
        servers.append(server)

    fleet = []
    for index in range(clients):
        server = servers[index % n_servers]
        if chaos is not None:
            warden = ChaosStreamWarden(world.sim, world.viceroy,
                                       f"fleet-{index}")
        else:
            warden = StreamWarden(world.sim, world.viceroy, f"fleet-{index}")
        conn = warden.open_connection(server.service.host.name,
                                      server.service.port)
        if chaos is not None:
            warden.start_heartbeat(conn)
        path = f"/odyssey/fleet/{index}"
        world.viceroy.mount(path, warden)
        api = OdysseyAPI(world.viceroy, f"fleet-client-{index}")
        client = FleetClient(
            world.sim, api, f"fleet-client-{index}", path,
            chunk_bytes=chunk_bytes, period=period,
            measure_from=world.prime,
            mark_every=1 if chaos is not None else 0,
        )
        fleet.append(client)
    return world, fleet, servers


def run_fleet_shard(clients, duration, policy="odyssey", family="urban",
                    prime=PRIME_SECONDS, chunk_bytes=DEFAULT_CHUNK_BYTES,
                    period=DEFAULT_PERIOD, shard=0, seed=0, chaos=None):
    """Run one shard to completion and reduce it to a :class:`ShardResult`.

    Registered as the ``"fleet"`` trial function: hermetic, keyword-driven,
    picklable result, deterministic for a given argument tuple.  With a
    ``chaos`` profile the shard runs its compiled storm schedule under the
    invariant auditor and the result carries the chaos scorecard.
    """
    world, fleet, servers = build_shard_world(
        clients, duration, policy=policy, family=family, prime=prime,
        chunk_bytes=chunk_bytes, period=period, seed=seed, shard=shard,
        chaos=chaos,
    )
    controller = None
    if chaos is not None:
        from repro.chaos.arm import arm_chaos

        controller = arm_chaos(world, fleet, servers, world.shard_chaos,
                               profile_name=chaos.name)
    for client in fleet:
        # Stagger starts across one pacing period so a shard's first
        # deadline does not arrive as a thundering herd.
        world.sim.call_in(world.start_offset(bound=period), client.start)
    world.run_for(duration)

    start, end = world.prime, world.sim.now
    records = tuple(
        ClientRecord(
            name=client.name,
            bytes=client.core.bytes_fetched,
            chunks=client.core.chunks,
            stalls=client.core.stalls,
            failures=client.core.failures,
            mean_latency=client.core.mean_latency,
            max_latency=client.core.latency_max,
            mean_fidelity=client.core.mean_fidelity(start, end),
            upcalls=client.core.upcalls_received,
            renegotiations=client.core.renegotiations,
        )
        for client in fleet
    )
    latencies = sorted(world.viceroy.upcalls.delivery_latencies())
    count = len(latencies)
    return ShardResult(
        shard=shard,
        seed=seed,
        n_clients=clients,
        n_servers=len(servers),
        policy=policy,
        family=family,
        duration=duration,
        trace_name=world.base_trace.name,
        records=records,
        upcall_count=count,
        upcall_latency_mean=sum(latencies) / count if count else 0.0,
        upcall_latency_p95=percentile(latencies, 0.95),
        upcall_latency_max=latencies[-1] if latencies else 0.0,
        chaos=(controller.finish(start, end)
               if controller is not None else None),
    )
