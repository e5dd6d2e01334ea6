"""Shared experiment machinery: worlds, priming, seeding, jitter.

Every experiment builds an :class:`ExperimentWorld` — simulator, modulated
network, viceroy with the requested policy — from a waveform name and a
trial seed, then attaches servers and applications.  Conventions match the
paper's §6.1.3/§6.2 methodology:

- traces are prefixed with :data:`PRIME_SECONDS` of the waveform's initial
  bandwidth so the system reaches steady state before observation;
- each trial has its own master seed; server compute times carry a few
  percent of seeded jitter, which is where the paper's (small) standard
  deviations come from;
- measurements are filtered to ``t >= PRIME_SECONDS``.
"""

from repro import telemetry
from repro.core.policies import (
    BlindOptimismPolicy,
    LaissezFairePolicy,
    OdysseyPolicy,
)
from repro.core.upcalls import UpcallDispatcher
from repro.core.viceroy import Viceroy
from repro.errors import ReproError
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.trace.replay import ReplayTrace
from repro.trace.waveforms import waveform as make_waveform

#: The paper's priming period (§6.2.1): "we primed it for thirty seconds".
PRIME_SECONDS = 30.0
#: Trials per observation (§6.2.2: "the mean of five trials").
DEFAULT_TRIALS = 5
#: Fractional jitter applied to server compute times per trial.
COMPUTE_JITTER = 0.05

POLICIES = ("odyssey", "laissez-faire", "blind-optimism")


def seeded_rngs(trials, master_seed=0):
    """One :class:`RngRegistry` per trial, independently seeded."""
    base = RngRegistry(master_seed)
    return [base.spawn(f"trial-{i}") for i in range(trials)]


class ExperimentWorld:
    """Simulator + modulated network + viceroy, ready for apps and servers."""

    def __init__(self, waveform, policy="odyssey", prime=PRIME_SECONDS, seed=0,
                 upcall_batch=False, connectivity=None):
        if isinstance(waveform, ReplayTrace):
            trace = waveform
        else:
            trace = make_waveform(waveform)
        self.base_trace = trace
        self.prime = prime
        self.trace = trace.shifted(prime)
        self.rng = seed if isinstance(seed, RngRegistry) else RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(self.sim, self.trace)
        self.policy_name = policy
        # ``upcall_batch`` trades per-upcall timing granularity for one
        # event per burst (see UpcallDispatcher); the fleet worlds turn it
        # on, the single-application figures keep the golden fine-grained
        # schedule.
        upcalls = UpcallDispatcher(self.sim, batch=True) if upcall_batch \
            else None
        # ``connectivity`` forwards hysteresis overrides (degrade_after /
        # disconnect_after / recover_after) to every tracker this world's
        # viceroy creates; chaos worlds tighten them so a storm shorter
        # than the default thresholds still drives the state machine.
        self.viceroy = Viceroy(
            self.sim, self.network, policy=self._make_policy(policy),
            upcalls=upcalls, connectivity=connectivity,
        )
        rec = telemetry.RECORDER
        if rec.enabled:
            # Each trial builds a fresh simulator; the recorder outlives
            # them, so point its clock at this world's.
            rec.bind_clock(lambda: self.sim.now)
            rec.event("experiment.world", policy=policy,
                      waveform=getattr(trace, "name", None), prime=prime)

    def _make_policy(self, name):
        if name == "odyssey":
            return OdysseyPolicy()
        if name == "laissez-faire":
            return LaissezFairePolicy()
        if name == "blind-optimism":
            return BlindOptimismPolicy(self.trace)
        raise ReproError(f"unknown policy {name!r}; known: {POLICIES}")

    def jitter_service(self, service, fraction=COMPUTE_JITTER):
        """Give a server's compute times this trial's seeded jitter."""
        service.set_jitter(self.rng.stream("server-jitter"), fraction)

    def start_offset(self, bound=0.25):
        """A small seeded delay for staggering application start times."""
        return self.rng.stream("start-offsets").uniform(0.0, bound)

    def run_for(self, seconds):
        """Advance the simulation to ``prime + seconds``."""
        self.sim.run(until=self.prime + seconds)

    def relative(self, series):
        """Shift a (time, value) series so the waveform starts at t = 0."""
        return [(t - self.prime, v) for (t, v) in series]
