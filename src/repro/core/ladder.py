"""The fidelity ladder: the paper's adaptation rule, with no clock and no I/O.

Every adaptive application runs at the best fidelity the bandwidth estimate
sustains and registers a window of tolerance around it (paper §4.2,
§6.2.2).  Applications differ only in each fidelity's demand and in the
window's hysteresis; *when* to re-register stays with the caller.
"""

#: Upper window bound standing in for "no better rung to upgrade to".
NO_UPPER = 1e12


class FidelityLadder:
    """Rungs worst first (the application's preference order, not
    necessarily ascending demand), each with a fixed demand in bytes/s.

    ``demand(rung)`` is evaluated once per rung, here.  A window's upper
    edge is the next rung's demand times ``upper_margin``; its lower edge
    is the rung's own demand times ``lower_guard`` (below 1.0 digs under
    it, so a wobbling estimate does not upcall per wobble).
    """

    __slots__ = ("rungs", "demands", "upper_margin", "lower_guard")

    def __init__(self, rungs, demand, upper_margin, lower_guard=1.0):
        self.rungs = tuple(rungs)
        if not self.rungs or len(set(self.rungs)) != len(self.rungs):
            raise ValueError(f"a ladder needs distinct rungs, got {rungs!r}")
        self.demands = tuple(demand(rung) for rung in self.rungs)
        self.upper_margin = upper_margin
        self.lower_guard = lower_guard

    def best(self, bandwidth):
        """Highest rung whose demand fits ``bandwidth``, else the bottom
        rung; the top rung when there is no estimate yet (``None``) —
        optimism is the paper's choice."""
        rungs = self.rungs
        if bandwidth is None:
            return rungs[-1]
        demands = self.demands
        for index in range(len(rungs) - 1, 0, -1):
            if demands[index] <= bandwidth:
                return rungs[index]
        return rungs[0]

    def window(self, rung):
        """``(lower, upper)`` while at ``rung``: the bottom rung is open
        below (always registrable) and the top never violates upward."""
        index = self.rungs.index(rung)
        demands = self.demands
        lower = 0.0 if index == 0 else demands[index] * self.lower_guard
        if index + 1 == len(demands):
            return lower, NO_UPPER
        return lower, demands[index + 1] * self.upper_margin
