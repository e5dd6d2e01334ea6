"""Smoke-run every example script: examples are part of the product.

Each example runs as a script in a fresh interpreter with ``PYTHONPATH=src``,
exactly as its docstring tells a reader to run it, and must exit 0; these
tests pin the examples to the public API so refactors cannot silently break
them.  ``urban_walk.py`` sweeps every policy by default (about 10 s), so it
alone is imported and run for one policy in-process.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"

#: The examples run as subprocesses (each well under a second).
SCRIPTS = ("adaptive_video", "agility_waveforms", "battery_aware",
           "custom_warden", "emergency_response", "quickstart")


def run_script(name):
    """Run ``examples/<name>.py`` as a script; assert exit 0; return stdout."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")], env=env,
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_example_is_run():
    assert {path.stem for path in EXAMPLES_DIR.glob("*.py")} == {
        *SCRIPTS, "urban_walk"}


@pytest.mark.slow
def test_quickstart():
    out = run_script("quickstart")
    assert "fidelity change" in out
    assert "frames displayed" in out
    assert "upcall" in out


@pytest.mark.slow
def test_adaptive_video():
    out = run_script("adaptive_video")
    assert "adaptive" in out
    assert "jpeg99" in out


@pytest.mark.slow
def test_agility_waveforms():
    out = run_script("agility_waveforms")
    assert "step-up" in out
    assert "settling time" in out
    assert "*" in out  # the dot plot rendered something


@pytest.mark.slow
def test_custom_warden():
    out = run_script("custom_warden")
    assert "sampling rate -> 100 Hz" in out
    assert "sampling rate -> 20 Hz" in out  # it adapted


@pytest.mark.slow
def test_battery_aware():
    out = run_script("battery_aware")
    assert "battery upcall" in out
    assert "jpeg50" in out


@pytest.mark.slow
def test_emergency_response():
    out = run_script("emergency_response")
    assert "prefetch hit rate" in out
    assert "battery left" in out


@pytest.mark.slow
def test_urban_walk_single_policy(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv",
                        ["urban_walk.py", "--policy", "odyssey"])
    load_example("urban_walk").main()
    out = capsys.readouterr().out
    assert "odyssey" in out
    assert "frames dropped" in out
