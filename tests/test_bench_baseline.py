"""The benchmark baseline comparator: the logic behind CI's perf-gate.

The gate's contract: a run within the committed tolerance bands passes, a
genuine slowdown (the canonical synthetic case is 3x against a 2x band)
fails, a baseline metric absent from the run fails (renames must be
re-baselined deliberately), and malformed inputs error out loudly rather
than passing vacuously.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench import (
    DEFAULT_TOLERANCE,
    MIN_SECONDS_TOLERANCE,
    capture_baseline,
    compare_metrics,
    format_report,
    headline_metrics,
    load_baseline,
    write_baseline,
)
from repro.bench.baseline import HIGHER_IS_BETTER_SUFFIXES, load_report
from repro.errors import BenchmarkError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SLOWDOWN = 3.0  # the synthetic regression the gate must catch


def run_report(scale=1.0):
    """A minimal pytest-benchmark JSON report, optionally slowed down."""
    return {
        "benchmarks": [
            {
                "name": "test_event_loop_throughput",
                "stats": {"min": 0.010 * scale, "mean": 0.012 * scale},
                "extra_info": {"events_per_second": 1e6 / scale},
            },
            {
                "name": "test_rpc_fetch_throughput",
                "stats": {"min": 0.020 * scale, "mean": 0.022 * scale},
                "extra_info": {},
            },
        ]
    }


@pytest.fixture
def baseline_doc():
    return capture_baseline(
        headline_metrics(run_report()),
        tolerance=2.0,
        captured_at="2026-08-05",
        directions={"test_event_loop_throughput.events_per_second": "higher"},
    )


def test_headline_metrics_flattens_stats_and_extra_info():
    metrics = headline_metrics(run_report())
    assert metrics["test_event_loop_throughput.min_seconds"] == 0.010
    assert metrics["test_event_loop_throughput.mean_seconds"] == 0.012
    assert metrics["test_event_loop_throughput.events_per_second"] == 1e6
    assert metrics["test_rpc_fetch_throughput.min_seconds"] == 0.020


def test_headline_metrics_rejects_malformed_report():
    with pytest.raises(BenchmarkError):
        headline_metrics({"no_benchmarks_key": []})
    with pytest.raises(BenchmarkError):
        headline_metrics({"benchmarks": ["not a dict"]})


def test_identical_run_passes(baseline_doc):
    report = compare_metrics(headline_metrics(run_report()), baseline_doc)
    assert report.ok
    assert not report.regressions and not report.missing
    assert "PASS" in format_report(report)


def test_within_tolerance_passes(baseline_doc):
    # 1.5x slower sits inside the 2x band on every "lower" metric, and
    # the matching 1/1.5 rate drop sits inside the "higher" band.
    report = compare_metrics(headline_metrics(run_report(1.5)), baseline_doc)
    assert report.ok


def test_synthetic_slowdown_fails(baseline_doc):
    # The acceptance case: 3x slower must blow through the 2x band.
    report = compare_metrics(
        headline_metrics(run_report(SLOWDOWN)), baseline_doc
    )
    assert not report.ok
    bad = {c.metric for c in report.regressions}
    assert "test_event_loop_throughput.min_seconds" in bad
    assert "test_rpc_fetch_throughput.min_seconds" in bad
    # The rate metric regresses in the "higher" direction.
    assert "test_event_loop_throughput.events_per_second" in bad
    assert "FAIL" in format_report(report)


def test_missing_baseline_metric_fails(baseline_doc):
    current = headline_metrics(run_report())
    del current["test_rpc_fetch_throughput.min_seconds"]
    report = compare_metrics(current, baseline_doc)
    assert not report.ok
    assert [c.metric for c in report.missing] == [
        "test_rpc_fetch_throughput.min_seconds"
    ]


def test_new_run_metric_is_reported_not_gated(baseline_doc):
    current = headline_metrics(run_report())
    current["test_brand_new_bench.min_seconds"] = 1e9  # huge but ungated
    report = compare_metrics(current, baseline_doc)
    assert report.ok
    assert report.new_metrics == ["test_brand_new_bench.min_seconds"]


def test_tolerance_scale_widens_every_band(baseline_doc):
    slowed = headline_metrics(run_report(SLOWDOWN))
    assert not compare_metrics(slowed, baseline_doc).ok
    assert compare_metrics(slowed, baseline_doc, tolerance_scale=2.0).ok
    with pytest.raises(BenchmarkError):
        compare_metrics(slowed, baseline_doc, tolerance_scale=0.5)


def test_only_filter_judges_named_metrics(baseline_doc):
    # Regress only the RPC benchmark; a filter naming the event-loop
    # metric alone must still pass, and one naming RPC must fail.
    current = headline_metrics(run_report())
    current["test_rpc_fetch_throughput.min_seconds"] *= SLOWDOWN
    assert compare_metrics(
        current, baseline_doc,
        only=["test_event_loop_throughput.min_seconds"],
    ).ok
    report = compare_metrics(
        current, baseline_doc,
        only=["test_rpc_fetch_throughput.min_seconds"],
    )
    assert not report.ok
    assert [c.metric for c in report.regressions] == [
        "test_rpc_fetch_throughput.min_seconds"
    ]


def test_only_filter_rejects_unknown_names(baseline_doc):
    # A typo in the CI gate's metric list must fail the gate loudly,
    # never shrink it to a vacuous pass.
    with pytest.raises(BenchmarkError):
        compare_metrics(
            headline_metrics(run_report()), baseline_doc,
            only=["test_event_loop_throughput.min_seconds",
                  "test_nonexistent.min_seconds"],
        )


def test_capture_rejects_sub_unity_tolerance():
    with pytest.raises(BenchmarkError):
        capture_baseline({"m": 1.0}, tolerance=0.9)


def test_baseline_roundtrip_and_validation(tmp_path, baseline_doc):
    path = tmp_path / "baseline.json"
    write_baseline(baseline_doc, path)
    assert load_baseline(path) == baseline_doc

    path.write_text("{not json")
    with pytest.raises(BenchmarkError):
        load_baseline(path)

    path.write_text(json.dumps({"metrics": {"m": {"value": "fast"}}}))
    with pytest.raises(BenchmarkError):
        load_baseline(path)

    path.write_text(json.dumps(
        {"metrics": {"m": {"value": 1.0, "direction": "sideways"}}}
    ))
    with pytest.raises(BenchmarkError):
        load_baseline(path)

    with pytest.raises(BenchmarkError):
        load_baseline(tmp_path / "does_not_exist.json")

    with pytest.raises(BenchmarkError):
        load_report(tmp_path / "does_not_exist.json")


def test_committed_baseline_is_valid():
    doc = load_baseline(os.path.join(REPO_ROOT, "benchmarks", "baseline.json"))
    assert doc["schema"] == "repro-bench-baseline/1"
    assert doc["metrics"], "committed baseline must gate at least one metric"
    for name, entry in doc["metrics"].items():
        if name.endswith(".min_seconds"):
            # min-of-N is the low-noise statistic: two independent captures
            # agreed within a few percent, so it earns the tighter band.
            assert entry["tolerance"] >= MIN_SECONDS_TOLERANCE
        else:
            assert entry["tolerance"] >= DEFAULT_TOLERANCE
        assert entry["direction"] == (
            "higher" if name.endswith(HIGHER_IS_BETTER_SUFFIXES)
            else "lower"), name


def _run_script(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "benchmarks", "baseline.py"),
         *args],
        cwd=cwd, capture_output=True, text=True,
    )


def test_script_exit_codes_match_gate_semantics(tmp_path):
    """The exact command perf-gate runs: exit 0/1/2 for pass/fail/error."""
    run_json = tmp_path / "run.json"
    run_json.write_text(json.dumps(run_report()))
    baseline_json = tmp_path / "baseline.json"

    captured = _run_script(
        ["capture", "--json", str(run_json), "--out", str(baseline_json)],
        cwd=tmp_path,
    )
    assert captured.returncode == 0, captured.stderr

    ok = _run_script(
        ["compare", "--json", str(run_json), "--baseline", str(baseline_json)],
        cwd=tmp_path,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "PASS" in ok.stdout

    run_json.write_text(json.dumps(run_report(SLOWDOWN)))
    slow = _run_script(
        ["compare", "--json", str(run_json), "--baseline", str(baseline_json)],
        cwd=tmp_path,
    )
    assert slow.returncode == 1
    assert "REGRESSION" in slow.stdout

    run_json.write_text("{not json")
    broken = _run_script(
        ["compare", "--json", str(run_json), "--baseline", str(baseline_json)],
        cwd=tmp_path,
    )
    assert broken.returncode == 2
    assert "error:" in broken.stderr


def test_script_capture_keeps_higher_is_better_directions(tmp_path):
    """A baseline frozen by ``benchmarks/baseline.py capture`` and read
    back gates rates and quality metrics against *drops*: the script once
    skipped the default directions, so a 2x fleet slowdown passed."""
    extra = {f"fleet{suffix}": 10.0 for suffix in HIGHER_IS_BETTER_SUFFIXES}
    extra["fleet_wall_seconds"] = 2.0
    report = run_report()
    report["benchmarks"][0]["extra_info"] = extra
    run_json = tmp_path / "run.json"
    run_json.write_text(json.dumps(report))
    baseline_json = tmp_path / "baseline.json"
    captured = _run_script(
        ["capture", "--json", str(run_json), "--out", str(baseline_json)],
        cwd=tmp_path,
    )
    assert captured.returncode == 0, captured.stderr

    doc = load_baseline(baseline_json)
    rewritten = tmp_path / "rewritten.json"
    write_baseline(doc, rewritten)
    assert load_baseline(rewritten) == doc
    higher = {name for name, entry in doc["metrics"].items()
              if entry["direction"] == "higher"}
    assert higher == {f"test_event_loop_throughput.fleet{suffix}"
                      for suffix in HIGHER_IS_BETTER_SUFFIXES}
    assert doc["metrics"]["test_event_loop_throughput.min_seconds"][
        "tolerance"] == MIN_SECONDS_TOLERANCE

    # Half the rate is a regression; twice is not.
    name = "test_event_loop_throughput.fleet_per_second"
    current = {metric: entry["value"]
               for metric, entry in doc["metrics"].items()}
    slow = compare_metrics({**current, name: 4.0}, doc)
    assert [c.metric for c in slow.regressions] == [name]
    assert compare_metrics({**current, name: 25.0}, doc).ok


def test_capture_per_metric_tolerances():
    from repro.bench.baseline import (
        MIN_SECONDS_TOLERANCE,
        capture_baseline,
        default_tolerances,
    )

    metrics = {"bench_a.min_seconds": 0.1, "bench_a.mean_seconds": 0.12,
               "bench_a.custom": 5.0}
    tolerances = default_tolerances(metrics)
    assert tolerances == {"bench_a.min_seconds": MIN_SECONDS_TOLERANCE}
    doc = capture_baseline(metrics, tolerances=tolerances)
    assert doc["metrics"]["bench_a.min_seconds"]["tolerance"] \
        == MIN_SECONDS_TOLERANCE
    assert doc["metrics"]["bench_a.mean_seconds"]["tolerance"] == 2.0
    assert doc["metrics"]["bench_a.custom"]["tolerance"] == 2.0
    with pytest.raises(BenchmarkError):
        capture_baseline(metrics, tolerances={"bench_a.custom": 0.5})


def test_capture_default_directions_flip_quality_metrics():
    """QoE-style metrics gate drops, not rises: a ``"lower"`` band on
    clients/s would fail a faster runner and never catch a fidelity
    regression."""
    from repro.bench.baseline import capture_baseline, default_directions

    metrics = {"fleet.fleet_clients_per_second": 100.0,
               "fleet.fleet_mean_fidelity": 0.5,
               "fleet.fleet_fairness": 0.8,
               "suite.suite_speedup": 2.5,
               "fleet.fleet_wall_seconds": 2.0,
               "fleet.fleet_upcalls": 400.0}
    directions = default_directions(metrics)
    assert directions == {"fleet.fleet_clients_per_second": "higher",
                          "fleet.fleet_mean_fidelity": "higher",
                          "fleet.fleet_fairness": "higher",
                          "suite.suite_speedup": "higher"}
    doc = capture_baseline(metrics, directions=directions)
    assert doc["metrics"]["fleet.fleet_wall_seconds"]["direction"] == "lower"
    assert doc["metrics"]["fleet.fleet_upcalls"]["direction"] == "lower"
    report = compare_metrics(
        current={**metrics, "fleet.fleet_mean_fidelity": 0.2},
        baseline_doc=doc,
    )
    assert [c.metric for c in report.regressions] \
        == ["fleet.fleet_mean_fidelity"]
    # Being faster than baseline is never a regression.
    assert compare_metrics(
        current={**metrics, "fleet.fleet_clients_per_second": 500.0},
        baseline_doc=doc,
    ).ok
