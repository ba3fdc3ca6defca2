"""Smoke tests: every shipped example runs green in a subprocess.

Examples are a deliverable; this keeps them from silently rotting when
the library's API evolves.  Each example is self-checking (internal
asserts on bit-exactness etc.), so a zero exit status is a real signal.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_all_examples_are_covered():
    assert EXAMPLES == [
        "approach_comparison.py",
        "archive_operations.py",
        "battery_fleet.py",
        "image_classification.py",
        "pack_digital_twin.py",
        "quickstart.py",
    ]


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_clean(example):
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            "-W",
            "error::RuntimeWarning",
            str(EXAMPLES_DIR / example),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{example} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{example} produced no output"
