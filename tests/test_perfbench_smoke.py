"""The benchmark harness still runs against the package.

perfbench/tracer.py wraps QSeries methods and module functions by name, so a
rename or move in src/ can break the harness without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "smoke: ok" in run.stdout.splitlines(), run.stdout + run.stderr
