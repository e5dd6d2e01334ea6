"""Replay traces: piecewise-constant (bandwidth, latency) schedules.

A replay trace is the input to the trace-modulation layer (paper §6.1.2): a
list of model parameters fed to the delay layer by a user-level daemon.  Each
:class:`Segment` holds for a duration; after the last segment the trace
*holds its final values forever*, which models the daemon keeping the last
parameters in effect.

The text format, one segment per line::

    # duration_s  bandwidth_bytes_per_s  latency_s
    30.0  122880  0.0105
    30.0   40960  0.0105

Bandwidth is bytes/second; latency is the one-way propagation delay in
seconds.
"""

import bisect
import math
from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class Segment:
    """One constant-parameter stretch of a replay trace."""

    duration: float
    bandwidth: float
    latency: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ReproError(f"segment duration must be > 0, got {self.duration!r}")
        if self.bandwidth < 0:
            raise ReproError(f"segment bandwidth must be >= 0, got {self.bandwidth!r}")
        if self.latency < 0:
            raise ReproError(f"segment latency must be >= 0, got {self.latency!r}")


class ReplayTrace:
    """An immutable piecewise-constant schedule of network parameters.

    Query with :meth:`bandwidth_at` / :meth:`latency_at`; enumerate
    breakpoints with :attr:`transitions`.  Times before zero clamp to the
    first segment and times past the end clamp to the last.
    """

    def __init__(self, segments, name=None):
        segments = tuple(segments)
        if not segments:
            raise ReproError("a replay trace needs at least one segment")
        self.segments = segments
        self.name = name or "trace"
        self._starts = []
        t = 0.0
        for seg in segments:
            self._starts.append(t)
            t += seg.duration
        self.duration = t

    def __repr__(self):
        return f"<ReplayTrace {self.name!r} {len(self.segments)} segments, {self.duration:g}s>"

    def __eq__(self, other):
        if not isinstance(other, ReplayTrace):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def _segment_index(self, t):
        if t <= 0:
            return 0
        # rightmost start <= t
        return min(bisect.bisect_right(self._starts, t) - 1, len(self.segments) - 1)

    def segment_at(self, t):
        """The :class:`Segment` in effect at time ``t``."""
        return self.segments[self._segment_index(t)]

    def bandwidth_at(self, t):
        """Bandwidth (bytes/s) in effect at time ``t``."""
        return self.segment_at(t).bandwidth

    def latency_at(self, t):
        """One-way latency (s) in effect at time ``t``."""
        return self.segment_at(t).latency

    def span_at(self, t):
        """``(start, end, segment)``: the stretch ``[start, end)`` holding ``t``.

        ``segment`` is :meth:`segment_at`'s answer for every time in the
        stretch, and ``end`` is the same float
        :func:`~repro.trace.integrate.transmission_finish_time` uses as the
        segment's end.  From the trace's end on, the final segment holds
        forever: the stretch is ``(duration, inf, last)``.  For ``t < 0``
        the stretch is the first segment's, which does not contain ``t``.
        """
        if t >= self.duration:
            return self.duration, math.inf, self.segments[-1]
        i = self._segment_index(t)
        start = self._starts[i]
        return start, start + self.segments[i].duration, self.segments[i]

    @property
    def transitions(self):
        """Times at which any parameter changes, in increasing order."""
        times = []
        for i in range(1, len(self.segments)):
            prev, cur = self.segments[i - 1], self.segments[i]
            if prev.bandwidth != cur.bandwidth or prev.latency != cur.latency:
                times.append(self._starts[i])
        return times

    def segment_boundaries_after(self, t):
        """Yield (start_time, segment) pairs covering time ``t`` onward.

        The first yielded pair covers ``t``; the final segment is yielded
        last and should be treated as holding forever.
        """
        idx = self._segment_index(t)
        for i in range(idx, len(self.segments)):
            yield self._starts[i], self.segments[i]

    def mean_bandwidth(self, start=0.0, end=None):
        """Time-averaged bandwidth over [start, end] (end defaults to trace end)."""
        if end is None:
            end = self.duration
        if end < start:
            raise ReproError(f"mean_bandwidth: end {end!r} < start {start!r}")
        if end == start:
            return self.bandwidth_at(start)
        total = 0.0
        t = start
        for seg_start, seg in self.segment_boundaries_after(start):
            seg_end = seg_start + seg.duration
            lo = max(t, seg_start)
            hi = min(end, seg_end)
            if hi > lo:
                total += seg.bandwidth * (hi - lo)
                t = hi
            if seg_end >= end:
                break
        if t < end:  # past trace end: final values hold
            total += self.segments[-1].bandwidth * (end - t)
        return total / (end - start)

    def shifted(self, delay, name=None):
        """A copy with an initial segment prepended (used for priming).

        The prepended segment copies the first segment's parameters, so the
        system sees ``delay`` extra seconds of steady state before the
        waveform proper begins.
        """
        if delay <= 0:
            return self
        first = self.segments[0]
        prefix = Segment(delay, first.bandwidth, first.latency)
        return ReplayTrace(
            (prefix, *self.segments), name=name or f"{self.name}+prime{delay:g}"
        )


def serialize_trace(trace):
    """Render a trace in the text format understood by :func:`parse_trace`."""
    lines = ["# duration_s  bandwidth_bytes_per_s  latency_s"]
    for seg in trace.segments:
        lines.append(f"{seg.duration:g}  {seg.bandwidth:g}  {seg.latency:g}")
    return "\n".join(lines) + "\n"


def parse_trace(text, name=None):
    """Parse the text format produced by :func:`serialize_trace`.

    Blank lines and ``#`` comments are ignored.  Raises
    :class:`~repro.errors.ReproError` on malformed lines.
    """
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ReproError(f"trace line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            duration, bandwidth, latency = (float(f) for f in fields)
        except ValueError as exc:
            raise ReproError(f"trace line {lineno}: {exc}") from exc
        segments.append(Segment(duration, bandwidth, latency))
    return ReplayTrace(segments, name=name)
