"""Experiment harnesses regenerating every table and figure (paper §6).

One module per artifact:

- :mod:`repro.experiments.supply` — Fig. 8, supply-estimation agility.
- :mod:`repro.experiments.demand` — Fig. 9, demand-estimation agility.
- :mod:`repro.experiments.video` — Fig. 10, video player table.
- :mod:`repro.experiments.web` — Fig. 11, web browser table.
- :mod:`repro.experiments.speech` — Fig. 12, speech recognizer table.
- :mod:`repro.experiments.concurrent` — Figs. 13-14, concurrent applications
  on the urban-walk trace under three resource-management policies.
- :mod:`repro.experiments.adaptation`, :mod:`repro.experiments.turbulence`
  — extensions: step-to-fidelity latency; the narrowest visible impulse.
- :mod:`repro.experiments.summary` — ``SECTIONS``, the text of each figure
  command, which ``repro all`` prints in report order.

Shared machinery lives in :mod:`repro.experiments.harness` (trial seeding,
priming, jitter), :mod:`repro.experiments.stats` (mean/σ cells) and
:func:`repro.parallel.run_grid` (each figure's cell × trial fan-out).  Every
experiment follows the paper's methodology: a 30-second priming period at
the waveform's initial bandwidth, five seeded trials, and mean (standard
deviation) reporting.
"""

from repro.experiments.harness import ExperimentWorld, seeded_rngs
from repro.experiments.stats import Cell, summarize

__all__ = ["Cell", "ExperimentWorld", "seeded_rngs", "summarize"]
