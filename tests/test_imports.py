"""Every ``repro`` module imports on its own, in a fresh interpreter.

An import cycle only bites when a particular module is the *first* one
imported (``python -c "from repro.faults import FaultPlan"`` used to
fail while ``import repro.simulation`` first hid it), so each module
gets its own interpreter.
"""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _import_alone(module: str) -> tuple[str, int, str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return module, done.returncode, done.stderr


def test_every_module_imports_in_a_fresh_interpreter():
    modules = ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )
    assert "repro.faults.errors" in modules
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_import_alone, modules))
    failures = [
        f"{module}: {stderr.strip().splitlines()[-1] if stderr.strip() else code}"
        for module, code, stderr in results
        if code != 0
    ]
    assert not failures, "\n".join(failures)
