"""Timing, correctness accounting and the pass runner shared by all workloads.

A *pass* is one full execution of a workload: set-up (repeated, median
reported), then the timed operations.  Every timed operation goes
through :meth:`Recorder.timed`, which takes the wall clock and the
simulated-seconds delta around the public call and counts the operation
as failed when it raises or when the caller's byte-identity check on its
result fails.

**Host calibration.**  The sandbox is a two-vCPU guest on a shared
host: consecutive identical runs differ by 25–50 % in raw wall time for
minutes at a stretch (steal, a busy sibling thread).  A fixed reference
kernel — JSON, SHA-256, numpy copies, dict churn, the program's own diet —
is therefore timed beside the operations, and every wall time is divided
by the host slowdown the kernel saw around it (local kernel time ÷
:data:`REFERENCE_KERNEL_S`).  Timings thus read as wall-clock "at the
reference host speed"; the raw figure is wall × ``host_slowdown``.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.storage.journal import innermost
from repro.storage.replication import replicated_stores

#: Set-ups run per untraced pass; ``setup_s`` is their median and the
#: last one is the archive the timed operations use.
SETUP_REPEATS = 5

#: What the calibration kernel takes at the reference host speed (this
#: sandbox when nothing else runs).  A constant, so that two runs — or
#: two commits — are always scaled to the same speed.
REFERENCE_KERNEL_S = 100e-6
#: Kernel samples are at least this far apart ...
CALIBRATION_GAP_S = 0.004
#: ... and an operation is scaled by the median of the samples from this
#: long before its start to this long after its end.
CALIBRATION_WINDOW_S = 0.25

_KERNEL_DOC = {
    "hashes": [[f"{value:064x}" for value in range(8)] for _ in range(16)],
    "diff": [[index, [0, 2, 4]] for index in range(32)],
}
_KERNEL_BYTES = bytes(range(256)) * 64


def _kernel() -> bytes:
    json.loads(json.dumps(_KERNEL_DOC, separators=(",", ":")))
    hashlib.sha256(_KERNEL_BYTES).hexdigest()
    array = np.frombuffer(_KERNEL_BYTES, dtype=np.float32)
    state = OrderedDict(
        (str(index), array[index * 512 : (index + 1) * 512].copy()) for index in range(8)
    )
    return b"".join(layer.tobytes() for layer in state.values())


def kernel_s() -> float:
    """One calibration sample: the fastest of three kernel executions."""
    best = math.inf
    for _attempt in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Op:
    kind: str  # "<group>" or "<group>:<class>", e.g. "recover_set:hit"
    start: float
    raw_s: float  # wall as measured
    sim_s: float
    units: int  # models (or updates) the op covers, for per-unit metrics
    ok: bool = True
    blocks: int = 0  # live allocator blocks retained across the op
    slowdown: float = 1.0  # host slowdown around the op (see calibrate)

    @property
    def group(self) -> str:
        return self.kind.partition(":")[0]

    @property
    def wall_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.raw_s / self.slowdown


def _document_backends(context):
    """The on-disk document stores under a context (one per replica)."""
    _file_rep, doc_rep = replicated_stores(context)
    if doc_rep is None:
        return [innermost(context.document_store)]
    return [innermost(state.store) for state in doc_rep.replicas]


def replication_facts(context) -> dict:
    """Failovers and queued repairs of a context's replicated stores."""
    file_rep, doc_rep = replicated_stores(context)
    layers = [layer for layer in (file_rep, doc_rep) if layer is not None]
    return {
        "failovers": sum(layer.stats.read_failovers for layer in layers),
        "repairs_queued": sum(
            len(pending)
            for layer in layers
            for pending in layer.pending_repairs().values()
        ),
    }


class Recorder:
    """Collects the timed operations of one pass."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[Op] = []
        #: Probe counts of the traced pass, keyed ``(name, op kind)``.
        self.counts: dict[tuple, float] = defaultdict(float)
        #: Charged document bytes the on-disk backends served, summed
        #: over every context watched since set-up ended (the one byte
        #: count no wrapper can take without re-encoding the document).
        self.doc_bytes_read = 0
        self._contexts: list = []
        self._baselines: list = []
        #: Calibration samples: times and kernel durations.
        self._sample_at: list[float] = []
        self._sample_s: list[float] = []

    # -- contexts ----------------------------------------------------------
    def watch(self, contexts: list) -> None:
        """Account store counters of ``contexts`` from now on.

        Called after set-up and again after a reopen (a fresh context
        starts its counters at zero, so the old ones are folded first).
        """
        self.fold()
        self._contexts = list(contexts)
        self._baselines = [
            (store.stats, store.stats.bytes_read)
            for context in contexts
            for store in _document_backends(context)
        ]

    def fold(self) -> None:
        for stats, bytes_read in self._baselines:
            self.doc_bytes_read += stats.bytes_read - bytes_read
        self._baselines = []

    def _sim_s(self) -> float:
        total = 0.0
        for context in self._contexts:
            for stats in (context.file_store.stats, context.document_store.stats):
                total += stats.simulated_write_s + stats.simulated_read_s
        return total

    # -- timed operations --------------------------------------------------
    def _sample_kernel(self) -> None:
        now = time.perf_counter()
        if not self._sample_at or now - self._sample_at[-1] >= CALIBRATION_GAP_S:
            self._sample_s.append(kernel_s())
            self._sample_at.append(now)

    def timed(
        self,
        kind: str,
        fn: Callable,
        *args,
        units: int = 1,
        check: "Callable | None" = None,
        classify: "Callable | None" = None,
        **kwargs,
    ):
        """Run ``fn(*args, **kwargs)`` as one timed operation.

        ``check(result)`` is the byte-identity verdict on the result;
        ``classify()`` names the outcome class once the call is over
        (a cache hit or miss, read off a public counter).  An op that
        raises, or whose check fails, counts as failed.
        """
        tracer = self.tracer
        sim = self._sim_s()
        # The collector's pauses scale with the whole heap, which here is
        # mostly the benchmark's own oracle: pause it while the clock
        # runs (as timeit does); it catches up between operations.
        gc.disable()
        self._sample_kernel()
        if tracer is not None:
            tracer.op = len(self.ops)
            blocks = sys.getallocatedblocks()
        op = Op(kind, time.perf_counter(), 0.0, 0.0, units)
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - a failed op is a datum
            result = None
            op.ok = False
            print(f"FAILED {kind}: {type(error).__name__}: {error}", file=sys.stderr)
        op.raw_s = time.perf_counter() - op.start
        if tracer is not None:
            tracer.op = -1
            op.blocks = sys.getallocatedblocks() - blocks
        self._sample_kernel()
        gc.enable()
        op.sim_s = self._sim_s() - sim
        if classify is not None:
            op.kind += ":" + classify()
        if op.ok and check is not None and not check(result):
            op.ok = False
            print(f"MISMATCH after {op.kind}", file=sys.stderr)
        if tracer is not None:
            for name, value in tracer.op_counts.items():
                self.counts[(name, op.kind)] += value
            tracer.op_counts = {}
        self.ops.append(op)
        return result

    def calibrate(self) -> None:
        """Give every op the host slowdown its surrounding samples saw."""
        at, seconds = self._sample_at, self._sample_s
        for op in self.ops:
            low = bisect.bisect_left(at, op.start - CALIBRATION_WINDOW_S)
            high = bisect.bisect_right(at, op.start + op.raw_s + CALIBRATION_WINDOW_S)
            op.slowdown = statistics.median(seconds[low:high]) / REFERENCE_KERNEL_S

    # -- summaries ---------------------------------------------------------
    def walls(self, *names: str, per_unit: bool = False) -> "list[float]":
        """Walls of the ops whose group (``"save"``) or full kind
        (``"submit:flush"``) is among ``names``."""
        return [
            op.wall_s / op.units if per_unit else op.wall_s
            for op in self.ops
            if op.group in names or op.kind in names
        ]

    def sim_s(self, *groups: str) -> float:
        return sum(op.sim_s for op in self.ops if op.group in groups)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


def states_equal(state, oracle) -> bool:
    """Bytewise comparison of one recovered model against the oracle."""
    return (
        state is not None
        and list(state) == list(oracle)
        and all(
            state[name].dtype == oracle[name].dtype
            and state[name].shape == oracle[name].shape
            and state[name].tobytes() == oracle[name].tobytes()
            for name in oracle
        )
    )


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class PassResult:
    recorder: Recorder
    facts: dict
    setup_s: "list[float]"  # at the reference host speed, like every wall
    tracemalloc_peak_mb: float = 0.0


def run_pass(
    workload,
    scratch: Path,
    tracer=None,
    setup_repeats: int = 1,
    memory_probe: bool = False,
) -> PassResult:
    """Set up ``workload`` (``setup_repeats`` times), then run it once."""
    setup_s: list[float] = []
    for _attempt in range(setup_repeats):
        directory = Path(tempfile.mkdtemp(dir=scratch))
        gc.disable()
        before = kernel_s()
        start = time.perf_counter()
        workload.setup(directory)
        raw_s = time.perf_counter() - start
        slowdown = (before + kernel_s()) / 2 / REFERENCE_KERNEL_S
        gc.enable()
        setup_s.append(raw_s / slowdown)
        if len(setup_s) < setup_repeats:
            workload.teardown()
            shutil.rmtree(directory)
    recorder = Recorder(tracer)
    facts = workload.run(recorder)
    recorder.fold()
    recorder.calibrate()
    result = PassResult(recorder, facts, setup_s)
    if memory_probe:
        # One read of the newest set under tracemalloc, after every
        # counter has been taken: it is slow and must distort nothing.
        tracemalloc.start()
        workload.recover_newest()
        result.tracemalloc_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    workload.teardown()
    shutil.rmtree(directory)
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def zipf_cdf(count: int, exponent: float) -> np.ndarray:
    """CDF over recency ranks ``0..count-1`` with ``p(r) ∝ (r+1)^-s``."""
    weights = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    return np.cumsum(weights / weights.sum())
