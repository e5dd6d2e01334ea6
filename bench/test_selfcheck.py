"""Self-check of the benchmark against its own contract.

Not under ``testpaths``; run it explicitly (about two minutes):

    python3 -m pytest bench/test_selfcheck.py -q
"""

import io
import json
import re
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, REPO, SPEC_PATH, load_spec
from compare import compare

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def run_py(*args, cwd=REPO, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def smoke_files(tmp_path_factory):
    """Two traced smoke suites of one seed, as result files."""
    folder = tmp_path_factory.mktemp("bench")
    paths = []
    for label in ("a", "b"):
        path = folder / f"{label}.json"
        done = run_py("--smoke", "--traced", "--seed", "7", "--out", str(path))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def smoke_runs(smoke_files):
    return [json.loads(path.read_text())["runs"] for path in smoke_files]


def test_spec_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    assert all(PATH.match(path) for path in spec["paths"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [item["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for item in spec[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    # Every run of the driver, set-up included, has to fit its time cap.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420


def test_every_name_is_emitted_and_correct(spec, smoke_runs):
    workloads = {w["name"] for w in spec["workloads"]}
    for runs in smoke_runs:
        assert {r["workload"] for r in runs} == workloads
        for run in runs:
            kind = "per_layer" if run["trace"] else "end_to_end"
            assert set(run["metrics"]) == {m["name"] for m in spec[kind]}
            assert run["correct"], run["problems"]
            assert run["failed"] == 0 and run["attempted"] >= 1
            assert run["samples"] or run["trace"]
            if not run["trace"]:
                assert all(value > 0 for value in run["metrics"].values())


def test_layer_shares_sum_to_one(smoke_runs):
    for run in smoke_runs[0]:
        if run["trace"]:
            shares = [value for name, value in run["metrics"].items()
                      if name.endswith(".self_share")]
            assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_exact_metrics_repeat_between_runs(spec, smoke_runs):
    out = io.StringIO()
    compare(spec, *smoke_runs, out=out)
    assert "differs" not in out.getvalue(), out.getvalue()
    exact = [run["exact"] for run in smoke_runs[0] if run["exact"]]
    assert len(exact) >= 6  # the three simulated workloads, both kinds


def test_driver_form_prints_the_contract_object(spec):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = run_py("--workload", "fig8_agility", "--seed", "3",
                      "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in spec[kind]}


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_py("--workload", "fig8_agility", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert "{" not in done.stdout
