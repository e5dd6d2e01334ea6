"""The three simulated-clock workloads: fig14_urban, fleet_512, fig8_agility.

Each drives public experiment runners only.  Simulated statistics are
exact for a seed, so they are reported as ``exact`` values (compared
bit-for-bit between result files) and enforced as correctness checks —
never as bounded timings.
"""

import time

from common import best, mean, percentile
from ledger import profiled
from workload import Workload

from repro.experiments.concurrent import run_concurrent_trial
from repro.experiments.harness import PRIME_SECONDS
from repro.experiments.supply import REFERENCE_WAVEFORMS, run_supply_trial
from repro.fleet.harness import run_fleet
from repro.sim.rng import RngRegistry
from repro.trace.algebra import scale_time
from repro.trace.waveforms import WAVEFORM_DURATION, urban_walk

BASELINE_POLICIES = ("laissez-faire", "blind-optimism")


def sim_counters(ledger, sim_seconds, host_seconds):
    """Per-layer work counters of one profiled simulator section.

    Counts come from non-generator functions that run once per unit (a
    generator's ncalls counts resumptions, not operations): the server
    issues one bulk ticket per fetch, the log appends one entry per round
    trip and per window, the link finishes one transmission per packet.
    ``host_seconds`` is the untraced time of the same work.
    """
    events = ledger.ncalls("sim/kernel.py", "schedule", "timeout")
    packets = ledger.ncalls("net/link.py", "_finish_transmission")
    fetches = ledger.ncalls("rpc/connection.py", "make_bulk")
    return {
        "sim.schedule_calls": events,
        "sim.events_per_sim_s": events / sim_seconds,
        "sim.host_us_per_event": 1e6 * host_seconds / events if events else 0,
        "net.packets": packets,
        "net.packets_per_fetch": packets / fetches if fetches else 0,
        "rpc.fetches": fetches,
        "rpc.round_trips": ledger.ncalls("rpc/logs.py", "add_round_trip"),
        "rpc.throughput_entries": ledger.ncalls("rpc/logs.py",
                                                "add_throughput"),
        "rpc.events_per_fetch": events / fetches if fetches else 0,
        "rpc.host_us_per_fetch":
            1e6 * host_seconds / fetches if fetches else 0,
        "estimation.folds": ledger.ncalls("estimation/ewma.py", "update")
        + ledger.ncalls("estimation/batch.py", "update"),
        "estimation.share_updates": ledger.ncalls("estimation/share.py",
                                                  "_absorb_throughput"),
        "core.requests": ledger.ncalls("core/viceroy.py", "request"),
        "core.rechecks": ledger.ncalls("core/viceroy.py", "_recheck"),
        "core.upcalls_sent": ledger.ncalls("core/viceroy.py", "_send_upcall"),
    }


class SimWorkload(Workload):
    """Closed loop of whole trials; one trial is the unit of work."""

    def record(self, sim_seconds, started, trials=1):
        """One timed unit, begun at ``started``: ``trials`` trials that
        simulated ``sim_seconds`` between them."""
        host = time.perf_counter() - started
        self.sample("speed", sim_seconds / host)
        self.sample("trial_s", host / trials)

    def end_to_end(self):
        return {
            "throughput": best(self.samples["speed"], "higher"),
            "latency_ms": 1e3 * best(self.samples["trial_s"], "lower"),
        }

    def build_and_reduce(self, ledger):
        """Cumulative seconds the profiled trials spent building worlds
        and reducing records; the simulator's run loop is the third span."""
        raise NotImplementedError

    def trace_fixed_work(self, work, sim_seconds):
        """Run ``work`` plain, then profiled; fold into per-layer metrics."""
        started = time.perf_counter()
        work()
        plain = time.perf_counter() - started
        result, ledger = profiled(work)
        self.layer.update(ledger.layer_metrics(ledger.host_seconds / plain))
        self.layer.update(sim_counters(ledger, sim_seconds, plain))
        build, reduce = self.build_and_reduce(ledger)
        self.layer.update({
            "experiments.build_s": build,
            "experiments.run_s": ledger.cumulative("sim/kernel.py", "run"),
            "experiments.reduce_s": reduce,
        })
        return result


class Fig14Urban(SimWorkload):
    """Odyssey-policy trials of the Fig. 13/14 concurrent experiment.

    Every trial of a run uses the run's one trial seed: identical units
    make the best-of-units estimate a pure noise filter, and their rows
    must come back identical.
    """

    name = "fig14_urban"

    def setup(self):
        walk = urban_walk()
        # Smoke runs compress the 15-minute walk in time; its shape (and
        # so every ordering the checks rely on) is preserved.
        self.walk = walk if self.scale >= 1 else scale_time(walk, self.scale)
        self.sim_seconds = PRIME_SECONDS + self.walk.duration
        self.trial_seed = RngRegistry(self.seed).spawn_seed("trial-0")
        self.rows = []  # one per timed odyssey trial
        # Warm-up: a short walk pulls every lazily built table in.
        self.trial("odyssey", scale_time(walk, 0.02))

    def trial(self, policy, walk=None):
        result = run_concurrent_trial(policy, seed=self.trial_seed,
                                      trace=walk or self.walk)
        return {
            "video_drops": result.video.stats.drops,
            "web_fetch_s": result.web.stats.mean_seconds,
            "speech_s": result.speech.stats.mean_seconds,
            "video_frames": result.video.stats.frames_displayed,
            "web_fetches": result.web.stats.count,
            "speech_utterances": result.speech.stats.count,
            "upcall_latencies":
                result.video.api.viceroy.upcalls.delivery_latencies(),
        }

    def measure(self, seconds):
        with self.timed():
            while not self.rows or self.elapsed() < seconds:
                started = time.perf_counter()
                self.rows.append(self.attempt(self.trial, "odyssey"))
                self.record(self.sim_seconds, started)

    def check(self):
        # The paper's ordering needs the two baselines on the same seed;
        # they are run once, outside the timed section.
        baselines = [self.attempt(self.trial, policy)
                     for policy in BASELINE_POLICIES]
        if None in self.rows or None in baselines:
            return  # the raised trial is already a counted failure
        if any(row != self.rows[0] for row in self.rows):
            self.problem("odyssey trials of one seed differ between "
                         "repetitions")
        drops = [row["video_drops"] for row in [self.rows[0]] + baselines]
        if not drops[0] < drops[1] < drops[2]:
            self.problem(f"Fig. 14 ordering broken: video drops "
                         f"odyssey/laissez-faire/blind-optimism = {drops}")
        self.record_exact(self.rows[0])

    def record_exact(self, row):
        for key in ("video_drops", "web_fetch_s", "speech_s"):
            self.exact[f"apps.{key}"] = row[key]

    def build_and_reduce(self, ledger):
        # The row is reduced by this file's ``trial``, outside the runner.
        return (ledger.cumulative("experiments/harness.py", "__init__")
                + ledger.cumulative("apps/video/warden.py", "build_video")
                + ledger.cumulative("apps/web/warden.py", "build_web")
                + ledger.cumulative("apps/speech/warden.py", "build_speech"),
                0.0)

    def trace(self, seconds):
        # One odyssey trial is the fixed work; the baselines' ordering is
        # the untraced run's check.
        row = self.trace_fixed_work(lambda: self.trial("odyssey"),
                                    self.sim_seconds)
        self.attempted += 1
        self.record_exact(row)
        self.layer.update({
            "apps.video_frames": row["video_frames"],
            "apps.web_fetches": row["web_fetches"],
            "apps.speech_utterances": row["speech_utterances"],
            "core.upcall_sim_ms_p95":
                1e3 * percentile(row["upcall_latencies"], 0.95),
        })


class Fleet512(SimWorkload):
    """A sharded fleet population on the numpy-batched estimator, run
    again and again on the run's one fleet seed (see Fig14Urban)."""

    name = "fleet_512"
    SHARDS = 4
    DURATION = 30.0

    def setup(self):
        self.clients = 512 if self.scale >= 1 else 64
        self.duration = self.DURATION if self.scale >= 1 else 10.0
        self.sim_seconds = self.SHARDS * (PRIME_SECONDS + self.duration)
        self.fleet_seed = RngRegistry(self.seed).spawn_seed("fleet-0")
        self.reports = []
        self.fleet(clients=2 * self.SHARDS, duration=2.0)

    def fleet(self, clients=None, duration=None):
        return run_fleet(clients or self.clients, shards=self.SHARDS,
                         duration=duration or self.duration, jobs=1,
                         cache=None, master_seed=self.fleet_seed)

    def measure(self, seconds):
        # At least two populations: the repeat must reproduce the first.
        with self.timed():
            while len(self.reports) < 2 or self.elapsed() < seconds:
                started = time.perf_counter()
                report = self.attempt(self.fleet)
                if report is not None:
                    report.fingerprint()  # consume the result while timed
                self.record(self.sim_seconds, started)
                self.reports.append(report)

    def check(self):
        reports = [r for r in self.reports if r is not None]
        if not reports:
            return
        first = reports[0]
        if len(first.records) != self.clients:
            self.problem(f"fleet returned {len(first.records)} records "
                         f"for {self.clients} clients")
        lost = sum(record.failures for record in first.records)
        if lost:
            self.failed += lost
            self.problem(f"{lost} client fetches failed")
        if any(r.fingerprint() != first.fingerprint() for r in reports):
            self.problem("a repeated fleet seed did not reproduce its "
                         "fingerprint")
        self.exact["fleet.mean_fidelity"] = first.mean_fidelity
        self.exact["fleet.fairness"] = first.fairness

    def build_and_reduce(self, ledger):
        # The shard builder wraps the world's constructor, so it is the
        # whole build span; what the shard runner did besides building and
        # running is the reduction to records.
        build = ledger.cumulative("fleet/shard.py", "build_shard_world")
        shard = ledger.cumulative("fleet/shard.py", "run_fleet_shard")
        return build, shard - build - ledger.cumulative("sim/kernel.py", "run")

    def trace(self, seconds):
        report = self.trace_fixed_work(self.fleet, self.sim_seconds)
        self.attempted += 1
        self.reports = [report]
        records = report.records
        self.layer.update({
            "fleet.chunks": sum(r.chunks for r in records),
            "fleet.upcalls": sum(r.upcalls for r in records),
            "fleet.renegotiations": sum(r.renegotiations for r in records),
            "core.upcall_sim_ms_p95": 1e3 * report.upcall_latency()[2],
        })
        self.check()
        self.layer.update(self.exact)


class Fig8Agility(SimWorkload):
    """Many short single-connection worlds over the reference waveforms."""

    name = "fig8_agility"

    def setup(self):
        self.sim_seconds = len(REFERENCE_WAVEFORMS) * (
            PRIME_SECONDS + WAVEFORM_DURATION)
        self.settling = []  # per round: {waveform: settling time}
        self.round()

    def round(self):
        return {name: run_supply_trial(name, seed=self.seed).settling
                for name in REFERENCE_WAVEFORMS}

    def measure(self, seconds):
        with self.timed():
            while not self.settling or self.elapsed() < seconds:
                started = time.perf_counter()
                self.settling.append(self.attempt(self.round))
                self.record(self.sim_seconds, started,
                            trials=len(REFERENCE_WAVEFORMS))

    def check(self):
        rounds = [r for r in self.settling if r is not None]
        if not rounds:
            return
        steps = {name: value for name, value in rounds[0].items()
                 if name.startswith("step")}
        if any(value is None for value in steps.values()):
            self.problem(f"the estimate never settled: {steps}")
            return
        if any(r != rounds[0] for r in rounds):
            self.problem("settling times differ between repetitions of "
                         "one seed")
        self.exact["estimation.settle_s"] = mean(list(steps.values()))

    def build_and_reduce(self, ledger):
        return (ledger.cumulative("experiments/harness.py", "__init__")
                + ledger.cumulative("apps/bitstream.py", "build_bitstream"),
                ledger.cumulative("estimation/agility.py", "settling_time",
                                  "detection_delay"))

    def trace(self, seconds):
        rounds = max(1, int(seconds / 3))

        def work():
            return [self.round() for _ in range(rounds)]

        self.settling = self.trace_fixed_work(work,
                                              rounds * self.sim_seconds)
        self.attempted += rounds
        self.check()
        self.layer.update(self.exact)
