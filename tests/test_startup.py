"""What a simulator process loads at start-up.

Every fig8 / fig14 / fleet / chaos worker imports the experiment modules
below and nothing from the live stack, so none of them may pull in
``asyncio`` (10–30 ms per fresh interpreter).  The import runs in a fresh
interpreter because this test process has long since loaded it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SIM_MODULES = (
    "repro.experiments.supply",
    "repro.experiments.concurrent",
    "repro.fleet.shard",
    "repro.chaos",
)


def test_simulator_modules_do_not_import_asyncio():
    probe = (f"import sys; import {', '.join(SIM_MODULES)}; "
             "print('asyncio' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert result.stdout.strip() == "False"
