"""Render experiment results as text tables, paper-vs-measured."""

from repro.experiments.concurrent import PAPER_FIG14
from repro.experiments.speech import PAPER_FIG12, SPEECH_STRATEGIES
from repro.experiments.supply import REFERENCE_WAVEFORMS
from repro.experiments.video import PAPER_FIG10, VIDEO_STRATEGIES
from repro.experiments.web import PAPER_FIG11, WEB_STRATEGIES


def _table(headers, rows, title=None):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_video_table(table):
    """Fig. 10, with the paper's numbers alongside."""
    headers = ["waveform", "strategy", "drops", "paper", "fidelity", "paper"]
    rows = []
    for waveform in REFERENCE_WAVEFORMS:
        for strategy in VIDEO_STRATEGIES:
            cell = table.cell(waveform, strategy)
            paper_drops, paper_fid = PAPER_FIG10[waveform][strategy]
            rows.append([
                waveform, strategy,
                cell.drops, paper_drops,
                cell.fidelity, paper_fid,
            ])
    return _table(headers, rows,
                  title="Fig. 10 — Video Player Performance and Fidelity")


def format_web_table(table):
    """Fig. 11, with the paper's numbers alongside."""
    headers = ["waveform", "strategy", "seconds", "paper", "fidelity", "paper"]
    rows = []
    eth = table.cell("ethernet", "baseline")
    paper_eth = PAPER_FIG11["ethernet"]["baseline"]
    rows.append(["ethernet", "baseline", eth.seconds, paper_eth[0],
                 eth.fidelity, paper_eth[1]])
    for waveform in REFERENCE_WAVEFORMS:
        for strategy in WEB_STRATEGIES:
            cell = table.cell(waveform, strategy)
            paper_sec, paper_fid = PAPER_FIG11[waveform][strategy]
            rows.append([waveform, strategy, cell.seconds, paper_sec,
                         cell.fidelity, paper_fid])
    return _table(headers, rows,
                  title="Fig. 11 — Web Browser Performance and Fidelity")


def format_speech_table(table):
    """Fig. 12, with the paper's numbers alongside."""
    headers = ["waveform", "strategy", "seconds", "paper"]
    rows = []
    for waveform in REFERENCE_WAVEFORMS:
        for strategy in SPEECH_STRATEGIES:
            cell = table.cell(waveform, strategy)
            rows.append([waveform, strategy, cell,
                         PAPER_FIG12[waveform][strategy]])
    return _table(headers, rows, title="Fig. 12 — Speech Recognizer Performance")


def format_concurrent_table(table):
    """Fig. 14, with the paper's numbers alongside."""
    headers = ["policy", "drops", "paper", "v-fid", "paper",
               "web-s", "paper", "w-fid", "paper", "speech-s", "paper"]
    rows = []
    for policy, row in table.rows.items():
        paper = PAPER_FIG14[policy]
        rows.append([
            policy,
            row.video_drops, paper[0],
            row.video_fidelity, paper[1],
            row.web_seconds, paper[2],
            row.web_fidelity, paper[3],
            row.speech_seconds, paper[4],
        ])
    return _table(headers, rows,
                  title="Fig. 14 — Performance and Fidelity of Concurrent Applications")


def format_supply_result(result):
    """Fig. 8 summary: settling/detection metrics for one waveform."""
    lines = [f"Fig. 8 ({result.waveform}) — supply estimation agility"]
    if result.settling_cell is not None:
        lines.append(f"  settling time: {result.settling_cell} s "
                     "(paper: ~0 s step-up, 2.0 s step-down)")
    if result.detection_cell is not None:
        lines.append(f"  50% detection delay: {result.detection_cell} s")
    samples = result.merged_series()
    lines.append(f"  {len(samples)} samples over {len(result.trials)} trials")
    return "\n".join(lines)


def format_demand_result(result):
    """Fig. 9 summary for one utilization level."""
    pct = int(result.utilization * 100)
    return (
        f"Fig. 9 ({pct}% utilization/stream) — demand estimation agility\n"
        f"  second stream settling to nominal share: {result.settling_cell} s "
        "(paper: almost immediate at 10%, ~5 s at 100%)"
    )
