#!/usr/bin/env python3
"""The paper's §2.3 emergency-response scenario: a map prefetcher and a monitor.

An emergency-response worker sweeps a damage-assessment grid.  Two things
run at once on the wearable:

- the **map prefetcher** fetches tiles ahead along the planned route, at a
  resolution adapted to bandwidth;
- the **battery monitor** watches power through the same request/upcall
  machinery.

Coverage follows a generated urban mobility scenario.  This is the
"centralized monitoring and coordinated resource management" argument of
§2.3 in one program.

Run:  python examples/emergency_response.py
"""

from repro.apps.prefetch import FieldWorker, build_maps, walk_path
from repro.core import OdysseyAPI, Viceroy
from repro.core.monitors import BatteryMonitor
from repro.net import Network
from repro.sim import Simulator
from repro.trace.scenarios import generate_scenario

KB = 1024
WALK_STEPS = 120
DWELL_SECONDS = 2.0


def main():
    sim = Simulator()
    trace = generate_scenario("urban", duration_seconds=400, seed=11)
    network = Network(sim, trace)
    viceroy = Viceroy(sim, network)

    battery = BatteryMonitor(sim, capacity_minutes=45)
    viceroy.attach_monitor(battery)

    maps_warden, _ = build_maps(sim, viceroy, network)
    worker_api = OdysseyAPI(viceroy, "field-worker")
    worker = FieldWorker(
        sim, worker_api, "field-worker", "/odyssey/maps",
        walk_path(WALK_STEPS), dwell_seconds=DWELL_SECONDS,
    )
    worker.start()

    def narrator():
        while True:
            yield sim.timeout(40.0)
            bandwidth = viceroy.total_bandwidth()
            print(f"t={sim.now:5.0f}s  bandwidth~{(bandwidth or 0) / KB:6.1f} KB/s"
                  f"  map fidelity={worker.fidelity:<4}"
                  f"  battery={battery.current():5.1f}min")

    sim.process(narrator())
    sim.run(until=WALK_STEPS * DWELL_SECONDS + 20)

    print("\n--- after the sweep ---")
    print(f"tiles viewed: {worker.stats.count}, "
          f"prefetch hit rate: {worker.stats.hit_rate:.0%}, "
          f"mean view latency: {worker.stats.mean_view_seconds * 1000:.0f} ms")
    print(f"mean map fidelity: {worker.stats.mean_fidelity:.2f}")
    print(f"battery left: {battery.current():.1f} of 45.0 minutes")


if __name__ == "__main__":
    main()
