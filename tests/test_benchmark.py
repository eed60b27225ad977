"""The benchmark under `perfbench/` calls levelseg's public functions by
name, wraps them to time them and reads the `LevelSetField` that `step`
returns.  One traced round of each workload pins that contract."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, steps", [
    ("first-order", 2000),
    ("second-order", 1200),
    ("cleanup", 0),
])
def test_perfbench_traced_round_is_correct(workload, steps):
    # one round (--seconds 0) with every traced function wrapped; it writes
    # only under perfbench/_work/
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    assert result["metrics"]["solver.steps"]["value"] == steps
