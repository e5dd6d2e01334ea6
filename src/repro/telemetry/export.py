"""Exporters: JSONL event logs, metrics summary tables, series bridges.

Everything here consumes the plain-data forms (``EventTrace.events()``
dicts, ``MetricsRegistry.snapshot()`` dicts, ``(time, value)`` series), so
it works on data recorded in this process or loaded back from disk.
"""

import json

from repro.telemetry.registry import format_series


# -- event logs ---------------------------------------------------------------

def events_to_jsonl(events):
    """One JSON object per line, in event order."""
    return "".join(json.dumps(event, default=str) + "\n" for event in events)


def write_events_jsonl(events, path):
    """Write an event log to ``path``; returns the number of events."""
    events = list(events)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(events_to_jsonl(events))
    return len(events)


def write_recorder_jsonl(recorder, path):
    """Drain a live recorder's trace to a JSONL file at ``path``.

    Returns ``(count, dropped)``: events written, and events the bounded
    trace shed.
    """
    trace = recorder.trace
    return write_events_jsonl(trace.events(), path), trace.dropped


# -- series bridges -----------------------------------------------------------

def series_to_csv(series, header="time,value"):
    """A (time, value) series as CSV text (for external plotting)."""
    lines = [header]
    lines.extend(f"{t:.4f},{v:.1f}" for t, v in series)
    return "\n".join(lines) + "\n"


def series_to_jsonl(series, name="series", **fields):
    """A (time, value) series as JSONL sample events.

    The emitted records match :meth:`EventTrace.sample`'s shape, so a
    series exported here and an in-trace series round-trip identically.
    """
    return events_to_jsonl(
        {"t": t, "kind": "sample", "name": name, "value": v, "fields": fields}
        for t, v in series
    )


def events_to_series(events, name):
    """Inverse bridge: pull sample events for ``name`` out of an event log."""
    return [(e["t"], e["value"]) for e in events
            if e.get("kind") == "sample" and e.get("name") == name]


# -- metrics summaries --------------------------------------------------------

def _table(headers, rows):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                 for row in rows)
    return "\n".join(lines)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def metrics_summary(snapshot):
    """Render a :meth:`MetricsRegistry.snapshot` as a text report."""
    sections = []
    counters = snapshot.get("counters", [])
    if counters:
        rows = [[format_series(c["name"], c["labels"]), _fmt(c["value"])]
                for c in counters]
        sections.append("counters\n" + _table(["name", "value"], rows))
    gauges = snapshot.get("gauges", [])
    if gauges:
        rows = [[format_series(g["name"], g["labels"]), _fmt(g["value"]),
                 _fmt(g["min"]), _fmt(g["max"]), g["updates"]]
                for g in gauges]
        sections.append("gauges\n" + _table(
            ["name", "value", "min", "max", "updates"], rows))
    histograms = snapshot.get("histograms", [])
    if histograms:
        rows = [[format_series(h["name"], h["labels"]), h["count"],
                 _fmt(h["mean"]), _fmt(h["min"]), _fmt(h["max"])]
                for h in histograms]
        sections.append("histograms\n" + _table(
            ["name", "count", "mean", "min", "max"], rows))
    if not sections:
        return "no metrics recorded\n"
    return "\n\n".join(sections) + "\n"
