"""One-shot reproduction: run every table and figure, emit one report.

``python -m repro all --trials 5 --out report.txt`` regenerates the
complete evaluation — the artifact a referee would ask for.  Each entry
of :data:`SECTIONS` is also the body of the figure command of the same
name (``repro fig10`` prints ``SECTIONS["fig10"]``), so a figure reads
the same alone as in the report.
"""

import io

from repro.experiments import adaptation, concurrent, demand, report, speech
from repro.experiments import supply, turbulence, video, web
from repro.experiments.calibration import calibration_lines


def _section(run, render):
    """A section's ``text(trials, master_seed)``: run the table, render it."""
    return lambda trials, master_seed: render(
        run(trials=trials, master_seed=master_seed))


def _panels(render):
    """Render a ``{cell: result}`` figure one panel after another."""
    return lambda results: "\n".join(map(render, results.values()))


#: Every section of the report, in report order: command name ->
#: ``text(trials, master_seed)``.
SECTIONS = {
    "fig8": _section(supply.run_all_supply,
                     _panels(report.format_supply_result)),
    "fig9": _section(demand.run_all_demand,
                     _panels(report.format_demand_result)),
    "fig10": _section(video.run_video_table, report.format_video_table),
    "fig11": _section(web.run_web_table, report.format_web_table),
    "fig12": _section(speech.run_speech_table, report.format_speech_table),
    "fig14": _section(concurrent.run_concurrent_table,
                      report.format_concurrent_table),
    "adaptation": _section(adaptation.run_adaptation,
                           adaptation.format_adaptation),
    "turbulence": _section(turbulence.run_turbulence_sweep,
                           turbulence.format_turbulence),
}

#: The sections that go beyond the paper's own figures.
EXTENSIONS = ("adaptation", "turbulence")


def run_everything(trials=3, master_seed=0, include_extensions=True):
    """Run all experiments; returns the report text."""
    out = io.StringIO()

    def emit(*lines):
        for line in lines:
            out.write(str(line) + "\n")

    emit("=" * 72)
    emit("Reproduction report — 'Agile Application-Aware Adaptation for "
         "Mobility'")
    emit(f"trials per observation: {trials}   master seed: {master_seed}")
    emit("=" * 72, "")
    emit(*calibration_lines())
    emit("")

    for name, text in SECTIONS.items():
        if include_extensions or name not in EXTENSIONS:
            emit("-" * 72, text(trials, master_seed), "")

    emit("=" * 72)
    emit("end of report")
    return out.getvalue()
