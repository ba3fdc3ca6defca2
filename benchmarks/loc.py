"""Code lines per ``src/repro/<package>``: ROADMAP item 3's "least code" ledger.

``python benchmarks/loc.py LABEL [CHECKOUT]`` counts this checkout (or another
one, e.g. a clone of the parent commit) into ``results/loc.json`` under LABEL.
A code line is neither blank nor a comment, so deleting comments cannot move it.
The ``tests`` and ``benchmarks`` rows count those trees by the same rule and
stay out of ``total``, which is the package alone.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USAGE = "usage: python benchmarks/loc.py LABEL [CHECKOUT]"


def code_lines(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and line[0] != "#")


def count(checkout: Path) -> dict:
    rows: dict = {}
    package_root = checkout / "src" / "repro"
    for path in sorted(package_root.rglob("*.py")):
        parts = path.relative_to(package_root).parts
        package = parts[0] if len(parts) > 1 else "(modules)"
        rows[package] = rows.get(package, 0) + code_lines(path)
    trees = {
        tree: sum(map(code_lines, (checkout / tree).rglob("*.py"))) for tree in ("tests", "benchmarks")
    }
    return {**rows, "total": sum(rows.values()), **trees}


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3 or sys.argv[1].startswith("-"):
        sys.exit(USAGE)
    ledger_path = ROOT / "results" / "loc.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    ledger[sys.argv[1]] = count(Path(sys.argv[2]) if len(sys.argv) > 2 else ROOT)
    ledger_path.write_text(json.dumps(ledger, indent=2) + "\n")
