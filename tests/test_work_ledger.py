"""Work counters of the simulator, pinned exactly.

Wall-clock timings move with the host; the number of events a trial
schedules and the number of packets its link carries do not.  They are
pinned here at zero tolerance: a change that moves one must re-pin it and
say why.

Counts come from test-local wrappers around ``Simulator.schedule`` /
``Simulator.timeout`` (every kernel event passes through one of the two)
and around ``SimplexLink.send`` / ``SimplexLink._finish_transmission``
(one call per accepted and per delivered packet).  Nothing under ``src/``
knows it is being counted.

Before the link scheduled one event per packet it scheduled two, one to
finish the transmission and one to deliver it.  Its counts were:

=================================  ======  ================
trial                              events  packets finished
=================================  ======  ================
fig8 ``step-up``, seed 0            6 439             3 008
fig14 odyssey, 2 % walk, seed 0    17 280             3 672
=================================  ======  ================
"""

import pytest

from repro.experiments.concurrent import run_concurrent_trial
from repro.experiments.supply import run_supply_trial
from repro.net.link import SimplexLink
from repro.sim.kernel import Simulator
from repro.trace.algebra import scale_time
from repro.trace.waveforms import urban_walk


class WorkCounter:
    """Kernel events and link packets of everything run while installed."""

    def __init__(self, monkeypatch):
        self.events = 0
        self.delivered = 0
        self.accepted = []  # (start, finish) of every packet a link took
        self.sim = None
        counter = self

        def counted(original):
            def wrapper(sim, *args, **kwargs):
                counter.events += 1
                counter.sim = sim
                return original(sim, *args, **kwargs)
            return wrapper

        send = SimplexLink.send
        finish = SimplexLink._finish_transmission

        def counted_send(link, packet):
            start = max(link.sim.now, link._free_at)
            send(link, packet)
            counter.accepted.append((start, link._free_at))

        def counted_finish(link, packet, when):
            counter.delivered += 1
            return finish(link, packet, when)

        monkeypatch.setattr(Simulator, "schedule", counted(Simulator.schedule))
        monkeypatch.setattr(Simulator, "timeout", counted(Simulator.timeout))
        monkeypatch.setattr(SimplexLink, "send", counted_send)
        monkeypatch.setattr(SimplexLink, "_finish_transmission",
                            counted_finish)

    def two_event_link_saving(self):
        """Events the two-event link would have scheduled beyond ours.

        It paid a finish event for every packet that began serializing
        before the trial stopped and a delivery event for every packet
        that finished by then (none is dropped here); this link pays one
        event per accepted packet.  With nothing in flight at the stop,
        the saving is one event per packet delivered.
        """
        stop = self.sim.now
        began = sum(1 for start, _ in self.accepted if start <= stop)
        finished = sum(1 for _, finish in self.accepted if finish <= stop)
        return began + finished - len(self.accepted)


@pytest.fixture
def work(monkeypatch):
    return WorkCounter(monkeypatch)


def test_fig8_step_up_trial_work(work):
    run_supply_trial("step-up", seed=0)
    assert (work.events, len(work.accepted), work.delivered) == (3446, 3024, 3008)
    # 16 packets were in flight at the stop: 15 still queued behind the
    # serializer, which the two-event link never began, and 1 in service.
    assert 6439 - work.events == work.two_event_link_saving() == 3008 - 15


def test_fig14_short_odyssey_trial_work(work):
    run_concurrent_trial("odyssey", seed=0, trace=scale_time(urban_walk(), 0.02))
    assert (work.events, len(work.accepted), work.delivered) == (13608, 3672, 3671)
    # 1 packet had finished serializing but was not yet delivered.
    assert 17280 - work.events == work.two_event_link_saving() == 3671 + 1
