"""Compare two ledger result sets: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) with both medians, the ratio
B ÷ A (A is the base), the run-to-run spread, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``regressed`` / ``improved`` — B is worse / better than A by more
  than the bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — the spread between either side's own runs is wider
  than the bound, so the difference cannot be told from noise — unless
  every run of B reads better (or worse) than every run of A.

Exit status 1 on any ``regressed`` row or a higher failed-ops ratio.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CONTRACT_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(runs: "list[float]") -> float:
    """Quartile distance over the median (range over median below 4 runs)."""
    middle = statistics.median(runs)
    if len(runs) < 2 or not middle:
        return 0.0
    if len(runs) < 4:
        return (max(runs) - min(runs)) / abs(middle)
    low, _mid, high = statistics.quantiles(runs, n=4)
    return (high - low) / abs(middle)


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float):
    """``(verdict, worsening)``; worsening is signed so positive is worse."""
    base, other = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (other - base) / abs(base) if base else 0.0
    if max(spread(a), spread(b)) > bound:
        # Too noisy for the medians to decide: only a clean separation
        # of the two sides' runs (in "higher is worse" terms) counts.
        bad_a, bad_b = [sign * v for v in a], [sign * v for v in b]
        if min(bad_b) > max(bad_a) and worsening > bound:
            return "regressed", worsening
        if max(bad_b) < min(bad_a):
            return "improved", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "regressed", worsening
    if worsening < -bound:
        return "improved", worsening
    return "unchanged", worsening


def compare(a: dict, b: dict, contract: dict) -> "tuple[list[dict], bool]":
    rows, failed = [], False
    for workload in (entry["name"] for entry in contract["workloads"]):
        side_a, side_b = a["workloads"].get(workload), b["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        for entry in contract["end_to_end"]:
            runs_a = side_a["end_to_end"][entry["name"]]["runs"]
            runs_b = side_b["end_to_end"][entry["name"]]["runs"]
            outcome, worsening = verdict(runs_a, runs_b, entry["better"], entry["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": entry["name"],
                    "unit": entry["unit"],
                    "a": statistics.median(runs_a),
                    "b": statistics.median(runs_b),
                    "spread": max(spread(runs_a), spread(runs_b)),
                    "bound": entry["bound"],
                    "worsening": worsening,
                    "verdict": outcome,
                }
            )
            failed = failed or outcome == "regressed"
        ratio_a = side_a["failed"] / max(1, side_a["attempted"])
        ratio_b = side_b["failed"] / max(1, side_b["attempted"])
        rows.append(
            {
                "workload": workload, "metric": "failed_ops_ratio", "unit": "ratio",
                "a": ratio_a, "b": ratio_b, "spread": 0.0, "bound": 0.0,
                "worsening": ratio_b - ratio_a,
                "verdict": "regressed" if ratio_b > ratio_a else "unchanged",
            }
        )
        failed = failed or ratio_b > ratio_a
    return rows, failed


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    rows, failed = compare(a, b, json.loads(CONTRACT_PATH.read_text()))
    print(f"A = {args[0]} ({a['meta']['commit'][:12]}, seed {a['meta']['seed']})")
    print(f"B = {args[1]} ({b['meta']['commit'][:12]}, seed {b['meta']['seed']})")
    print(
        f"{'workload':<17} {'metric':<30} {'A':>12} {'B':>12} {'B/A':>7} "
        f"{'spread':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        ratio = row["b"] / row["a"] if row["a"] else (1.0 if not row["b"] else float("inf"))
        print(
            f"{row['workload']:<17} {row['metric']:<30} {row['a']:>12.6g} "
            f"{row['b']:>12.6g} {ratio:>7.3f} {row['spread']:>7.1%} "
            f"{row['bound']:>6.1%}  {row['verdict']}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
