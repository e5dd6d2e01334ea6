"""Adaptive applications (paper §5 and the §2.2/§2.3 agenda).

The paper's four applications:

- :mod:`repro.apps.video` — a video player (the paper's modified *xanim*):
  movies stored in one track per fidelity level, adaptive track switching.
- :mod:`repro.apps.web` — a web browser (*Netscape* behind a *cellophane*
  proxy) fetching images through a distillation server.
- :mod:`repro.apps.speech` — a speech recognizer (*Janus* split
  client/server): hybrid vs. remote placement, vocabulary fidelity levels,
  and disconnected operation.
- :mod:`repro.apps.bitstream` — the synthetic streaming consumer used to
  measure estimation agility (§6.2.1).

Plus the applications the paper motivates but never built:

- :mod:`repro.apps.prefetch` — the §2.3 emergency-response map prefetcher.
- :mod:`repro.apps.files` — cached files with §2.2's consistency dimension.

Each application has static (fixed-fidelity) policies and an adaptive
policy, because the paper's evaluation compares exactly those.  Every
adaptive policy is an :class:`~repro.core.adaptive.AdaptiveClient` over
the application's own fidelity ladder.
"""

from repro.apps.base import Application

__all__ = ["Application"]
