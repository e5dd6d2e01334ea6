#!/usr/bin/env python3
"""Multi-resource adaptation: bandwidth *and* battery (paper §8).

The paper's prototype managed only network bandwidth, listing the rest of
Fig. 3(c) as medium-term work.  This example exercises that extension: a
video player that registers windows of tolerance on *two* resources.  When
the battery falls below a threshold, the player caps its track at JPEG(50)
— halving radio traffic — even though bandwidth alone would permit
JPEG(99).

Run:  python examples/battery_aware.py
"""

from repro.apps.video import Movie, MovieStore, VideoPlayer, build_video
from repro.apps.video.player import UPGRADE_MARGIN
from repro.core import FidelityLadder, OdysseyAPI, Resource, Viceroy
from repro.core.monitors import BatteryMonitor
from repro.net import Network
from repro.sim import Simulator
from repro.trace import HIGH_BANDWIDTH, constant

#: Below this many minutes of battery, cap fidelity to save the radio.
LOW_BATTERY_MINUTES = 2.0


class BatteryAwareVideoPlayer(VideoPlayer):
    """Adds a battery ceiling on top of the bandwidth-adaptive player."""

    def watch_battery(self):
        self.api.on_upcall("battery-low", self._on_battery)
        self.api.viceroy.request(
            self.api.app, self.path,
            _battery_descriptor(LOW_BATTERY_MINUTES),
        )

    def _on_battery(self, upcall):
        print(f"  t={self.sim.now:5.1f}s  battery upcall: "
              f"{upcall.level:.2f} minutes left -> capping fidelity")
        # The core consults a ladder without jpeg99 from now on: move to
        # the best track left and re-register around it.
        self.core.ladder = FidelityLadder(("bw", "jpeg50"), self.demand,
                                          UPGRADE_MARGIN)
        self.core.recheck(self.api.availability(self.path))
        self._negotiate()


def _battery_descriptor(threshold):
    from repro.core.resources import ResourceDescriptor, Window

    return ResourceDescriptor(
        Resource.BATTERY_POWER, Window(threshold, 1e9), "battery-low"
    )


def main():
    sim = Simulator()
    network = Network(sim, constant(HIGH_BANDWIDTH, duration=600))
    viceroy = Viceroy(sim, network)
    battery = BatteryMonitor(sim, capacity_minutes=2.5, tick=1.0)
    viceroy.attach_monitor(battery)

    store = MovieStore()
    store.add(Movie("documentary", n_frames=700))
    build_video(sim, viceroy, network, store)
    api = OdysseyAPI(viceroy, "xanim")
    player = BatteryAwareVideoPlayer(
        sim, api, "xanim", "/odyssey/video", "documentary", policy="adaptive"
    )
    player.watch_battery()
    player.start()

    def narrator():
        while True:
            yield sim.timeout(10.0)
            print(f"  t={sim.now:5.1f}s  battery={battery.current():.2f} min"
                  f"  track={player.current_track}")

    sim.process(narrator())
    sim.run(until=70.0)
    print(f"\ndisplayed per track: {player.stats.displayed}")
    print("Bandwidth never changed — the downgrade was driven entirely by")
    print("the battery monitor, through the same request/upcall machinery.")


if __name__ == "__main__":
    main()
