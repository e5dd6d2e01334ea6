#!/usr/bin/env python
"""Capture or enforce the benchmark baseline from the command line.

Capture a fresh baseline from a pytest-benchmark run report::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel.py \
        --benchmark-only --benchmark-json run.json
    python benchmarks/baseline.py capture --json run.json

Compare a run against the committed baseline (exit 1 on regression or a
baseline metric missing from the run; exit 2 on malformed inputs)::

    python benchmarks/baseline.py compare --json run.json

CI's ``perf-gate`` job runs exactly the compare form.  ``repro bench``
wraps the whole loop (run + capture + compare) for local use.
"""

import argparse
import datetime
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.baseline import (  # noqa: E402 - path bootstrap above
    DEFAULT_TOLERANCE,
    capture_run,
    compare_metrics,
    format_report,
    headline_metrics,
    load_baseline,
    load_report,
    write_baseline,
)
from repro.errors import BenchmarkError  # noqa: E402

DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "baseline.json"


def _cmd_capture(args):
    metrics = headline_metrics(load_report(args.json))
    if not metrics:
        raise BenchmarkError(f"no metrics found in {args.json!r}")
    doc = capture_run(
        metrics,
        tolerance=args.tolerance,
        captured_at=datetime.date.today().isoformat(),
        notes=args.notes,
    )
    write_baseline(doc, args.out)
    print(f"captured {len(metrics)} metrics to {args.out}")
    return 0


def _cmd_speedup(args):
    """Gate the parallel sweep's measured speedup (CI's --jobs check)."""
    current = headline_metrics(load_report(args.json))
    observed = current.get(args.metric)
    if observed is None:
        raise BenchmarkError(
            f"metric {args.metric!r} absent from {args.json!r} — was the "
            "benchmark run with --repro-jobs > 1?"
        )
    verdict = "PASS" if observed >= args.min else "FAIL"
    print(f"{verdict}: {args.metric} = {observed:.2f}x "
          f"(required >= {args.min:.2f}x)")
    return 0 if observed >= args.min else 1


def _cmd_compare(args):
    current = headline_metrics(load_report(args.json))
    baseline = load_baseline(args.baseline)
    only = None
    if args.metrics:
        only = [name for name in
                (part.strip() for part in args.metrics.split(",")) if name]
    report = compare_metrics(current, baseline,
                             tolerance_scale=args.tolerance_scale,
                             only=only)
    print(format_report(report))
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        description="capture/compare benchmark baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", help="freeze a run report into a baseline")
    p.add_argument("--json", required=True,
                   help="pytest-benchmark JSON run report")
    p.add_argument("--out", default=str(DEFAULT_BASELINE),
                   help=f"baseline to write (default {DEFAULT_BASELINE})")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="per-metric multiplicative tolerance band")
    p.add_argument("--notes", help="free-form provenance note")
    p.set_defaults(fn=_cmd_capture)

    p = sub.add_parser("compare", help="judge a run report against a baseline")
    p.add_argument("--json", required=True,
                   help="pytest-benchmark JSON run report")
    p.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                   help=f"baseline to compare against (default {DEFAULT_BASELINE})")
    p.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="multiply every tolerance band")
    p.add_argument("--metrics",
                   help="comma-separated metric names: compare only these "
                        "(each must exist in the baseline)")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("speedup",
                       help="require a minimum parallel speedup from a run")
    p.add_argument("--json", required=True,
                   help="pytest-benchmark JSON run report")
    p.add_argument("--metric", default="test_suite_sweep.suite_speedup",
                   help="speedup metric to check")
    p.add_argument("--min", type=float, default=2.0,
                   help="minimum acceptable speedup (default 2.0)")
    p.set_defaults(fn=_cmd_speedup)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
