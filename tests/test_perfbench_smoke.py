"""The benchmark harness still runs against the package.

perfbench/tracer.py wraps QSeries methods and module functions by name, so a
rename or move in src/ can break the harness without failing any other test.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_names_resolve():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, (module, attr) in tracer.FUNCTIONS.items():
        value = getattr(importlib.import_module(module), attr, None)
        assert callable(value), f"{name}: {module}.{attr} is missing"
    for name, (module, cls_name, methods) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, f"{name}: {module}.{cls_name} is missing"
        for method in methods:
            assert method in vars(cls), f"{name}: {module}.{cls_name}.{method} is missing"
    for name in tracer.CACHED:
        module, attr = tracer.FUNCTIONS[name]
        value = getattr(importlib.import_module(module), attr)
        assert hasattr(value, "cache_info"), f"{name}: {module}.{attr} has no cache_info"


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
