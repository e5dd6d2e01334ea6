"""What a simulator process loads at start-up and while it runs.

Every fig8 / fig14 / fleet / chaos worker imports the experiment modules
below and nothing from the live stack, so none of them may pull in
``asyncio`` (10–30 ms per fresh interpreter).  Nor may running a fleet
shard pull in ``numpy``: every path folds Eq. 1 through the scalar
``EwmaFilter``, and numpy would cost 13 MB of resident memory per worker.
Each probe runs in a fresh interpreter because this test process has long
since loaded both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SIM_MODULES = (
    "repro.core.adaptive",
    "repro.experiments.supply",
    "repro.experiments.concurrent",
    "repro.fleet.shard",
    "repro.chaos",
)


def probe(code):
    """Run ``code`` in a fresh interpreter over ``src``; return its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return result.stdout.strip()


def test_simulator_modules_do_not_import_asyncio():
    out = probe(f"import sys; import {', '.join(SIM_MODULES)}; "
                "print('asyncio' in sys.modules)")
    assert out == "False"


def test_fleet_shard_run_loads_neither_asyncio_nor_numpy():
    out = probe(
        "import sys\n"
        "from repro.fleet.shard import run_fleet_shard\n"
        "result = run_fleet_shard(clients=8, duration=5.0, seed=3)\n"
        "assert sum(r.chunks for r in result.records) > 0\n"
        "print(sorted(m for m in ('asyncio', 'numpy') if m in sys.modules))\n")
    assert out == "[]"


def test_the_live_warden_and_the_fleet_share_only_the_core():
    """Both adaptive shells import their contract from ``repro.core``;
    neither reaches into the other."""
    out = probe("import sys\n"
                "import repro.live.warden\n"
                "print(sorted(m for m in sys.modules"
                " if m.startswith('repro.fleet')))\n")
    assert out == "[]"
