"""Work counters of the simulator, pinned exactly.

Wall-clock timings move with the host; the number of events a trial
schedules and the number of packets its link carries do not.  They are
pinned here at zero tolerance: a change that moves one must re-pin it and
say why.

Counts come from test-local wrappers around ``Simulator.schedule`` /
``Simulator.timeout`` (every kernel event passes through one of the two),
around ``SimplexLink._finish_transmission`` (one call per delivery event)
and around ``SimplexLink.__init__`` (to read each link's ``LinkStats``,
which count packets as the link accepts them).  Nothing under ``src/``
knows it is being counted.

A bulk window's fragments cross the link as one train, delivered in two
events: every fragment but the last at the first's arrival, and the last
at its own.  Before, every packet was its own delivery event, and before
that the link scheduled two events per packet, one to finish the
transmission and one to deliver it.  Their counts were:

=================================  ==========  ==========  =========
trial                              two events  one event   packets
                                   per packet  per packet  delivered
=================================  ==========  ==========  =========
fig8 ``step-up``, seed 0                6 439       3 446      3 008
fig14 odyssey, 2 % walk, seed 0        17 280      13 608      3 671
=================================  ==========  ==========  =========
"""

import pytest

from repro.experiments.concurrent import run_concurrent_trial
from repro.experiments.supply import run_supply_trial
from repro.net.link import SimplexLink
from repro.sim.kernel import Simulator
from repro.trace.algebra import scale_time
from repro.trace.waveforms import urban_walk


class WorkCounter:
    """Kernel events, link delivery events and link packets of everything
    run while installed."""

    def __init__(self, monkeypatch):
        self.events = 0
        self.deliveries = 0
        self.links = []
        counter = self

        def counted(original):
            def wrapper(sim, *args, **kwargs):
                counter.events += 1
                return original(sim, *args, **kwargs)
            return wrapper

        init = SimplexLink.__init__
        finish = SimplexLink._finish_transmission

        def registered(link, *args, **kwargs):
            init(link, *args, **kwargs)
            counter.links.append(link)

        def counted_finish(link, *args):
            counter.deliveries += 1
            return finish(link, *args)

        monkeypatch.setattr(Simulator, "schedule", counted(Simulator.schedule))
        monkeypatch.setattr(Simulator, "timeout", counted(Simulator.timeout))
        monkeypatch.setattr(SimplexLink, "__init__", registered)
        monkeypatch.setattr(SimplexLink, "_finish_transmission",
                            counted_finish)

    @property
    def packets(self):
        """Packets the links accepted."""
        return sum(link.stats.packets_sent for link in self.links)


@pytest.fixture
def work(monkeypatch):
    return WorkCounter(monkeypatch)


def test_fig8_step_up_trial_work(work):
    run_supply_trial("step-up", seed=0)
    # 3 024 packets in 672 delivery events, 670 of them before the stop:
    # 3 446 - 3 024 + 672 = 1 094 events.
    assert (work.events, work.packets, work.deliveries) == (1094, 3024, 670)


def test_fig14_short_odyssey_trial_work(work):
    run_concurrent_trial("odyssey", seed=0, trace=scale_time(urban_walk(), 0.02))
    assert (work.events, work.packets, work.deliveries) == (11879, 3672, 3535)
