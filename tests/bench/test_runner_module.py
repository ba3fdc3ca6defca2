"""``python -m repro.bench.runner`` runs its module once: the package
does not import ``runner`` first, so runpy has nothing to warn about."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_runner_module_runs_under_runtime_warnings_as_errors():
    src = str(Path(repro.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.bench.runner", "--help"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_package_still_exports_run_experiment():
    from repro.bench import run_experiment
    from repro.bench.runner import run_experiment as defined

    assert run_experiment is defined
