"""The structured event trace: spans and point events in a ring buffer.

Events are plain dicts so the JSONL exporter is a ``json.dumps`` per line:

- point events — ``{"t", "kind": "point", "name", "fields"}``;
- spans — a ``begin``/``end`` pair sharing a ``span`` id, the ``end``
  carrying the sim-time ``duration``; ``parent`` links nested spans;
- samples — ``{"t", "kind": "sample", "name", "value"}``, the bridge for
  experiment series whose timestamps were recorded by the experiment
  itself (not the trace clock).

The buffer is bounded (a deque with ``maxlen``): a long scenario keeps the
newest events and counts what it shed in :attr:`EventTrace.dropped` instead
of growing without bound.
"""

import itertools
from collections import deque

from repro.errors import TelemetryError

#: Default ring-buffer capacity (events).  A full fig8 trial emits a few
#: tens of thousands of events; this keeps one trial intact.
DEFAULT_TRACE_CAPACITY = 131072


class EventTrace:
    """A bounded, clock-stamped buffer of trace events."""

    def __init__(self, clock, capacity=DEFAULT_TRACE_CAPACITY):
        if capacity <= 0:
            raise TelemetryError(f"trace capacity must be positive, got {capacity!r}")
        self.clock = clock
        self.capacity = capacity
        self._events = deque(maxlen=capacity)
        self._span_ids = itertools.count(1)
        self._open = {}  # span id -> (name, begin time)
        self.dropped = 0

    def __len__(self):
        return len(self._events)

    def _append(self, event):
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return event

    # -- recording -----------------------------------------------------------

    def point(self, name, **fields):
        """Record an instantaneous event at the current clock time."""
        return self._append({"t": self.clock(), "kind": "point", "name": name,
                             "fields": fields})

    def sample(self, name, t, value, **fields):
        """Record one (time, value) sample of a named series.

        ``t`` is the *sample's* timestamp, supplied by the caller —
        experiments replay series they collected at other moments.
        """
        return self._append({"t": t, "kind": "sample", "name": name,
                             "value": value, "fields": fields})

    def begin(self, name, parent=None, **fields):
        """Open a span; returns its id (pass to :meth:`end`)."""
        span_id = next(self._span_ids)
        now = self.clock()
        self._open[span_id] = (name, now)
        self._append({"t": now, "kind": "begin", "name": name,
                      "span": span_id, "parent": parent, "fields": fields})
        return span_id

    def end(self, span_id, **fields):
        """Close an open span, recording its sim-time duration."""
        try:
            name, began = self._open.pop(span_id)
        except KeyError:
            raise TelemetryError(f"no open span with id {span_id!r}") from None
        now = self.clock()
        return self._append({"t": now, "kind": "end", "name": name,
                             "span": span_id, "duration": now - began,
                             "fields": fields})

    def extend(self, events):
        """Append pre-stamped event dicts; returns how many were added.

        This is the shard-merge path: a worker process records a trial
        under its own trace, ships ``trace.events()`` back, and the
        parent splices the shard in here.  Events keep their recorded
        timestamps and order; the ring buffer's capacity accounting
        (:attr:`dropped`) applies as usual.  Every shard numbers its
        spans from 1, so ids are renumbered from this trace's counter:
        the merged stream gets the ids an in-process run would have.
        """
        ids = {}
        count = 0
        for event in events:
            if "span" in event:
                if event["span"] not in ids:
                    ids[event["span"]] = next(self._span_ids)
                event = {**event, "span": ids[event["span"]]}
                if event.get("parent") is not None:
                    event["parent"] = ids.get(event["parent"], event["parent"])
            self._append(event)
            count += 1
        return count

    # -- inspection ----------------------------------------------------------

    @property
    def open_spans(self):
        """Ids of spans begun but not yet ended."""
        return tuple(self._open)

    def events(self, name=None, kind=None):
        """Buffered events, oldest first, optionally filtered."""
        return [e for e in self._events
                if (name is None or e["name"] == name)
                and (kind is None or e["kind"] == kind)]

    def series(self, name):
        """Reassemble a recorded sample series as [(t, value), ...]."""
        return [(e["t"], e["value"]) for e in self._events
                if e["kind"] == "sample" and e["name"] == name]

    def clear(self):
        self._events.clear()
        self._open.clear()
        self.dropped = 0
