"""Entry point: ``python -m benchmarks.wallclock`` or this file as a script.

The program under test is imported from ``src/`` of the same checkout,
so neither an install nor ``PYTHONPATH`` is needed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# As a script, sys.path[0] is this directory; the package is imported by
# its full name instead, so siblings cannot shadow stdlib modules.
HERE = Path(__file__).resolve().parent
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.wallclock.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
