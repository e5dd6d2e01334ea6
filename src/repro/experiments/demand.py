"""Fig. 9 — agility of bandwidth estimation under varying demand.

"We began these experiments with a single bitstream application running on
a client. ... After thirty seconds of observation, we introduced a second,
identical bitstream client.  To study sensitivity of the results to offered
load, we repeated the experiments with each application attempting to
consume 10%, 45%, and 100% of the nominal throughput.  All experiments were
conducted at the higher of our two modulated bandwidths."
"""

from dataclasses import dataclass, field

from repro import telemetry
from repro.apps.bitstream import build_bitstream
from repro.errors import ReproError
from repro.estimation.agility import settling_time
from repro.experiments.harness import DEFAULT_TRIALS, ExperimentWorld
from repro.experiments.stats import Cell
from repro.parallel.runner import run_grid
from repro.trace.waveforms import HIGH_BANDWIDTH, constant

#: The paper's three offered loads.
UTILIZATIONS = (0.10, 0.45, 1.00)
#: Seconds of single-stream observation before the second stream starts.
SECOND_STREAM_AT = 30.0
#: Seconds of observation after the second stream starts.
TAIL_SECONDS = 30.0
#: How often the sampler records availability estimates.
SAMPLE_PERIOD = 0.25


def moving_average(series, window):
    """Centered-ish trailing moving average of a (time, value) series."""
    smoothed = []
    values = []
    for t, v in series:
        values.append(v)
        if len(values) > window:
            values.pop(0)
        smoothed.append((t, sum(values) / len(values)))
    return smoothed


@dataclass
class DemandTrial:
    """One trial: total estimate plus per-stream availability series."""

    utilization: float
    total_series: list  # (t, bytes/s) — upper curve of Fig. 9
    second_series: list  # (t, bytes/s) — lower curve of Fig. 9
    first_series: list
    second_settling: float  # time for stream 2 to settle at its nominal share


@dataclass
class DemandResult:
    """Fig. 9 for one utilization level."""

    utilization: float
    trials: list = field(default_factory=list)

    @property
    def settling_cell(self):
        return Cell([t.second_settling for t in self.trials])


def run_demand_trial(utilization, seed=0, chunk_bytes=32 * 1024):
    """One two-stream run; returns a :class:`DemandTrial`."""
    if not 0 < utilization <= 1:
        raise ReproError(f"utilization must lie in (0, 1], got {utilization!r}")
    world = ExperimentWorld(
        constant(HIGH_BANDWIDTH, duration=SECOND_STREAM_AT + TAIL_SECONDS + 5),
        seed=seed,
    )
    target = utilization * HIGH_BANDWIDTH if utilization < 1.0 else None
    app1, _, server1 = build_bitstream(
        world.sim, world.viceroy, world.network, index=0,
        chunk_bytes=chunk_bytes, target_rate=target,
    )
    world.jitter_service(server1.service)
    app1.start()

    samples = {"total": [], "first": [], "second": []}
    second_conn = []

    def sampler():
        shares = world.viceroy.policy.shares
        while True:
            yield world.sim.timeout(SAMPLE_PERIOD)
            total = shares.total
            if total is None:
                continue
            now = world.sim.now
            samples["total"].append((now, total))
            samples["first"].append((now, shares.availability("bitstream-0:0")))
            if second_conn:
                samples["second"].append(
                    (now, shares.availability(second_conn[0]))
                )

    def launch_second():
        yield world.sim.timeout(world.prime + SECOND_STREAM_AT)
        app2, warden2, server2 = build_bitstream(
            world.sim, world.viceroy, world.network, index=1,
            chunk_bytes=chunk_bytes, target_rate=target,
        )
        world.jitter_service(server2.service)
        second_conn.append(warden2.primary_connection().connection_id)
        app2.start()

    world.sim.process(sampler(), name="sampler")
    world.sim.process(launch_second(), name="launch-second")
    world.run_for(SECOND_STREAM_AT + TAIL_SECONDS)

    rec = telemetry.RECORDER
    if rec.enabled:
        rec.sample_series("fig9.total", samples["total"],
                          utilization=utilization, prime=world.prime)
        rec.sample_series("fig9.second", samples["second"],
                          utilization=utilization, prime=world.prime)

    def rel(series):
        return [(t - world.prime, v) for (t, v) in series]

    second_series = rel(samples["second"])
    # Stream 2's nominal value: the fair half of the link.  (The usage
    # weights equalize at every offered load, since both streams attempt
    # the same rate.)  Settling is judged on a short moving average, as one
    # would read it off the paper's plotted curves — instantaneous
    # availability estimates jitter with each burst at light loads.
    nominal = HIGH_BANDWIDTH / 2.0
    settling = settling_time(
        moving_average(second_series, window=8), SECOND_STREAM_AT, nominal,
        tolerance=0.25, horizon=SECOND_STREAM_AT + TAIL_SECONDS - 1.0,
    )
    return DemandTrial(
        utilization,
        rel(samples["total"]),
        second_series,
        rel(samples["first"]),
        settling,
    )


def run_all_demand(trials=DEFAULT_TRIALS, master_seed=0,
                   utilizations=UTILIZATIONS):
    """Fig. 9, one panel per offered load: ``{utilization: DemandResult}``."""
    cells = run_grid("demand", [{"utilization": u} for u in utilizations],
                     trials, master_seed)
    return {u: DemandResult(u, chunk) for u, chunk in zip(utilizations, cells)}
