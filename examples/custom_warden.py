#!/usr/bin/env python3
"""Extending Odyssey with a new data type: a telemetry warden.

The paper's framework claim is that "diverse notions of fidelity can easily
be incorporated": write a warden, define the type's fidelity dimensions,
mount it.  This example builds one from scratch for telemetry data, whose
natural fidelity dimension is *sampling rate* (paper §2.2) — and an
adaptive monitoring application that raises or lowers the rate with
bandwidth.

Run:  python examples/custom_warden.py
"""

from repro.apps.base import Application
from repro.core import FidelityLadder, OdysseyAPI, Viceroy, Warden
from repro.core.adaptive import AdaptiveClient
from repro.errors import ProcessInterrupt
from repro.net import Network
from repro.rpc import RpcService, ServerReply
from repro.sim import Simulator
from repro.trace import step_down

KB = 1024
#: Fidelity levels: samples per second -> fidelity value (strictly
#: increasing with quality, as §6.1.2 requires).
SAMPLING_RATES = {100: 1.0, 20: 0.4, 2: 0.05}
BYTES_PER_SAMPLE = 640


class TelemetryServer:
    """A field sensor array streaming samples on request."""

    def __init__(self, sim, host):
        self.service = RpcService(sim, host, "telemetry")
        self.service.register("read-window", self._read_window)

    def _read_window(self, body):
        nbytes = body["samples"] * BYTES_PER_SAMPLE
        return ServerReply(
            body={"samples": body["samples"]},
            body_bytes=48,
            compute_seconds=0.001,
            bulk=self.service.make_bulk(nbytes),
        )


class TelemetryWarden(Warden):
    """Type-specific support for telemetry: sampling-rate fidelity."""

    TSOPS = {
        "set-rate": "tsop_set_rate",
        "read-window": "tsop_read_window",
    }
    FIDELITIES = {f"{rate}Hz": fid for rate, fid in SAMPLING_RATES.items()}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rate_hz = max(SAMPLING_RATES)

    def tsop_set_rate(self, app, rest, inbuf):
        rate = inbuf["rate_hz"]
        if rate not in SAMPLING_RATES:
            raise ValueError(f"offered rates: {sorted(SAMPLING_RATES)}")
        self.rate_hz = rate
        return rate
        yield  # pragma: no cover

    def tsop_read_window(self, app, rest, inbuf):
        """Fetch one second's worth of samples at the current rate."""
        conn = self.primary_connection(rest)
        _, _, nbytes = yield from conn.fetch(
            "read-window", body={"samples": self.rate_hz}, body_bytes=64
        )
        return {"samples": self.rate_hz, "nbytes": nbytes}


class MonitoringApp(Application):
    """Background monitoring (the paper's §2.3 information filter)."""

    handler = "telemetry-bw"

    def __init__(self, sim, api, path):
        super().__init__(sim, api, "monitor")
        self.path = path
        self.windows = []
        # Slowest rate first; each demands its bytes plus protocol
        # headroom, and an upgrade needs 10 % over the faster rate's.
        self.core = AdaptiveClient(FidelityLadder(
            sorted(SAMPLING_RATES),
            lambda rate_hz: rate_hz * BYTES_PER_SAMPLE * 1.3,
            upper_margin=1.1,
        ))
        # Each rate the core picks is pushed to the warden.
        self.core.on_fidelity = (
            lambda now, rate: self.sim.process(self._apply_rate(rate)))

    def _apply_rate(self, rate):
        current = yield from self.api.tsop(self.path, "set-rate",
                                           {"rate_hz": rate})
        print(f"  t={self.sim.now:5.1f}s  sampling rate -> {current} Hz")

    def run(self):
        self._join(None)  # no estimate yet: start at the fastest rate
        try:
            while True:
                window = yield from self.api.tsop(self.path, "read-window", {})
                self.windows.append((self.sim.now, window))
                yield self.sim.timeout(1.0)
        except ProcessInterrupt:
            return self.windows


def main():
    sim = Simulator()
    network = Network(sim, step_down().shifted(5.0))
    viceroy = Viceroy(sim, network)
    sensors = network.add_host("sensor-array")
    TelemetryServer(sim, sensors)

    warden = TelemetryWarden(sim, viceroy, "telemetry")
    warden.open_connection("sensor-array", "telemetry")
    viceroy.mount("/odyssey/telemetry", warden)

    api = OdysseyAPI(viceroy, "monitor")
    app = MonitoringApp(sim, api, "/odyssey/telemetry/field-7")
    print("Monitoring telemetry while bandwidth steps 120 -> 40 KB/s at t=35:")
    app.start()
    sim.run(until=65.0)

    rates = {}
    for _, window in app.windows:
        rates[window["samples"]] = rates.get(window["samples"], 0) + 1
    print(f"\nwindows read per sampling rate: {rates}")
    print("The new data type adapted with ~30 lines of warden code —")
    print("the paper's framework claim, demonstrated.")


if __name__ == "__main__":
    main()
