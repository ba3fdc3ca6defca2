"""Command line of the wall-clock ledger.

Two modes share one code path:

* ``--workload NAME`` runs that workload in this process — one untraced
  pass (``--trace 0``, the end-to-end metrics) or an untraced pass plus
  a traced pass (``--trace 1``, the per-layer metrics) — and prints the
  result object as the last line of standard output.
* without ``--workload`` the ledger runs every workload, each in its own
  process and strictly one after another (two cores, shared box: an
  overlapping job distorts every timing), untraced then traced, prints
  every metric by name and writes the result set to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: Archives and hand-over files live here, inside the checkout.
SCRATCH = ROOT / ".bench_scratch"

FLUSH_POLICY = (
    "flush policy: temp file + os.replace, never fsync; reads come from "
    "the OS page cache, so latencies are this sandbox's, not a device's; "
    "wall times are scaled to the reference host speed (see README.md)"
)


def run_workload(name: str, seed: int, seconds: float, scale: str, trace: bool) -> dict:
    """Run one workload in this process; returns its detail record."""
    from benchmarks.wallclock import harness, metrics, tracer as tracing, workloads

    contract = metrics.contract()
    sizes = workloads.sizes_for(name, scale, seconds, contract["run_seconds"])
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    started = time.perf_counter()
    try:
        plain = harness.run_pass(
            workloads.build(name, sizes, seed),
            scratch,
            setup_repeats=1 if trace else harness.SETUP_REPEATS,
        )
        passes = [plain]
        if not trace:
            values = metrics.end_to_end(plain)
            declared = contract["end_to_end"]
        else:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                traced = harness.run_pass(
                    workloads.build(name, sizes, seed), scratch, tracer=tracer,
                    memory_probe=True,
                )
            finally:
                tracing.uninstall(undo)
            passes.append(traced)
            program = None
            if name == "paper_cycle":
                # ROADMAP 5d's "disabled path stays free" row: the same
                # workload with the program's own tracing switched on.
                program = harness.run_pass(
                    workloads.build(name, sizes, seed, program_tracing=True), scratch
                )
                passes.append(program)
            layered = metrics.per_layer(plain, traced, tracer, program)
            values = {key: {"value": value} for key, value in layered.items()}
            declared = contract["per_layer"]
            tracer.write(
                RESULTS / f"trace-{name}.json",
                name,
                [(op.kind, op.wall_s) for op in traced.recorder.ops],
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(values):
        raise SystemExit(
            f"metric names drifted from BENCHMARK.json: {sorted(set(units) ^ set(values))}"
        )
    attempted = sum(len(result.recorder.ops) for result in passes)
    failed = sum(result.recorder.failed for result in passes)
    correct = failed == 0
    if trace and values["shape.attribution_error"]["value"] > metrics.ATTRIBUTION_TOLERANCE:
        print("attribution check failed: layer self times do not sum to the op wall",
              file=sys.stderr)
        correct = False
    for key, entry in values.items():
        entry["unit"] = units[key]
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "wall_s": time.perf_counter() - started,
        "timed_wall_s": sum(op.wall_s for op in plain.recorder.ops),
        "raw_timed_wall_s": sum(op.raw_s for op in plain.recorder.ops),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }


def describe(detail: dict, contract: dict) -> None:
    """Print every metric of one run by name, with unit, n, direction, bound."""
    section = contract["per_layer" if detail["trace"] else "end_to_end"]
    print(
        f"== {detail['workload']} (seed {detail['seed']}, scale {detail['scale']}, "
        f"{'traced' if detail['trace'] else 'untraced'}): "
        f"{detail['attempted']} ops, {detail['failed']} failed, "
        f"timed {detail['timed_wall_s']:.2f} s at reference speed "
        f"({detail['raw_timed_wall_s']:.2f} s raw), process {detail['wall_s']:.2f} s"
    )
    for entry in section:
        metric = detail["metrics"][entry["name"]]
        bound = f"  bound={entry['bound']:.1%}" if "bound" in entry else ""
        count = f"  n={metric['n']}" if "n" in metric else ""
        print(
            f"{detail['workload']:<17} {entry['name']:<48} {metric['value']:>16.6g} "
            f"{entry['unit']:<10}{count}  {entry['better']}-is-better{bound}"
        )


def result_line(detail: dict) -> str:
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                key: {"value": entry["value"], "unit": entry["unit"]}
                for key, entry in detail["metrics"].items()
            },
        }
    )


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_ledger(args, contract: dict) -> int:
    """Every workload, one process each, serially; returns the exit code."""
    import numpy

    SCRATCH.mkdir(exist_ok=True)
    handover = Path(tempfile.mkdtemp(prefix="ledger-", dir=SCRATCH))
    names = [entry["name"] for entry in contract["workloads"]]
    ledger = {
        "meta": {
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "repeat": args.repeat,
            "commit": _commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "flush_policy": FLUSH_POLICY,
        },
        "workloads": {},
    }
    ok = True
    print(FLUSH_POLICY)
    try:
        for name in names:
            runs = []
            for trace, repeats in ((0, args.repeat), (1, 1)):
                for _attempt in range(repeats):
                    detail_path = handover / f"{name}-{trace}.json"
                    command = [
                        sys.executable, str(HERE / "__main__.py"),
                        "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(trace),
                        "--scale", args.scale, "--detail", str(detail_path),
                    ]
                    completed = subprocess.run(command, stdout=subprocess.DEVNULL)
                    if not detail_path.exists():
                        print(f"{name}: run exited {completed.returncode} without a result")
                        return 1
                    detail = json.loads(detail_path.read_text())
                    detail_path.unlink()
                    describe(detail, contract)
                    ok = ok and detail["correct"] and completed.returncode == 0
                    runs.append(detail)
            plain = [run for run in runs if not run["trace"]]
            traced = runs[-1]
            ledger["workloads"][name] = {
                "sizes": plain[0]["sizes"],
                "wall_s": [run["wall_s"] for run in runs],
                "timed_wall_s": [run["timed_wall_s"] for run in plain],
                "attempted": sum(run["attempted"] for run in plain),
                "failed": sum(run["failed"] for run in plain),
                "end_to_end": {
                    key: {
                        "value": statistics.median(
                            run["metrics"][key]["value"] for run in plain
                        ),
                        "unit": entry["unit"],
                        "n": entry["n"],
                        "runs": [run["metrics"][key]["value"] for run in plain],
                    }
                    for key, entry in plain[0]["metrics"].items()
                },
                "per_layer": traced["metrics"],
            }
    finally:
        shutil.rmtree(handover, ignore_errors=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv: "list[str] | None" = None) -> int:
    from benchmarks.wallclock import metrics

    contract = metrics.contract()
    parser = argparse.ArgumentParser(prog="benchmarks.wallclock", description=__doc__)
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="run length the op counts are sized for (counts are fixed, never time-boxed)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1,
                        help="ledger mode: untraced runs per workload")
    parser.add_argument("--out", default=str(RESULTS / "latest.json"),
                        help="ledger mode: where the result set is written")
    parser.add_argument("--detail", help="also write this run's detail record here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_ledger(args, contract)
    detail = run_workload(
        args.workload, args.seed, args.seconds, args.scale, bool(args.trace)
    )
    print(FLUSH_POLICY)
    describe(detail, contract)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(result_line(detail))
    return 0 if detail["correct"] else 1
