"""Reproduction of "Agile Application-Aware Adaptation for Mobility".

This package reimplements Odyssey (Noble et al., SOSP 1997) — a platform for
application-aware adaptation in mobile information access — on top of a
deterministic discrete-event simulator.  Every subsystem the paper builds or
depends on has a counterpart here:

- :mod:`repro.sim` — discrete-event simulation kernel (processes, events).
- :mod:`repro.trace` — reference waveforms and replay traces (paper Figs. 7, 13).
- :mod:`repro.net` — trace-modulated network links and hosts (paper §6.1.2).
- :mod:`repro.rpc` — user-level RPC with passive round-trip/throughput logging.
- :mod:`repro.estimation` — bandwidth estimation and agility metrics (Eqs. 1-2).
- :mod:`repro.core` — viceroy, wardens, upcalls, tsops, the Odyssey API.
- :mod:`repro.apps` — video player, web browser, speech recognizer, bitstream.
- :mod:`repro.experiments` — harnesses regenerating every table and figure.

Quick start::

    from repro.experiments.report import format_video_table
    from repro.experiments.video import run_video_table
    print(format_video_table(run_video_table(trials=5)))

See README.md for a tour and DESIGN.md for the full system inventory.
"""

from repro.version import __version__

__all__ = ["__version__"]
