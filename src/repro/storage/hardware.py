"""Hardware latency profiles for the simulated store connections.

The paper evaluates two setups — a Threadripper *server* and an Apple
*M1* laptop — and attributes most of the TTS/TTR difference to the speed
of the connection to the document store (§4.3, §4.4).  We reproduce that
effect with per-operation latency and throughput charges on the stores:
every document insert/fetch pays a fixed round-trip cost, and every byte
moved pays a bandwidth cost.

The simulated time is accounted separately from real compute time (see
:class:`repro.bench.metrics.Timer`), so results are deterministic and
host-independent while preserving the paper's trends: MMlib-base performs
one document write and one file write *per model* and therefore suffers
~n× the round-trip cost of the set-oriented approaches.

Latency constants are calibrated so the fixed-cost ratios between the
profiles match the paper's reported TTS numbers (server MMlib-base ≈ 4-6 s
vs. Baseline ≈ 0.45 s for 5000 models; M1 correspondingly slower).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareProfile:
    """Per-operation simulated costs of a storage backend.

    Attributes
    ----------
    name:
        Human-readable profile name ("server", "M1", "local").
    doc_write_latency_s / doc_read_latency_s:
        Fixed round-trip cost of one document-store operation.
    file_write_latency_s / file_read_latency_s:
        Fixed cost of opening/creating one file artifact.
    write_bandwidth_bps / read_bandwidth_bps:
        Sustained byte throughput of the backing storage.
    """

    name: str
    doc_write_latency_s: float
    doc_read_latency_s: float
    file_write_latency_s: float
    file_read_latency_s: float
    write_bandwidth_bps: float
    read_bandwidth_bps: float

    def doc_write_cost(self, num_bytes: int) -> float:
        """Simulated seconds to write one document of ``num_bytes``."""
        return self.doc_write_latency_s + num_bytes / self.write_bandwidth_bps

    def doc_read_cost(self, num_bytes: int) -> float:
        """Simulated seconds to read one document of ``num_bytes``."""
        return self.doc_read_latency_s + num_bytes / self.read_bandwidth_bps

    def file_write_cost(self, num_bytes: int) -> float:
        """Simulated seconds to write one file artifact of ``num_bytes``."""
        return self.file_write_latency_s + num_bytes / self.write_bandwidth_bps

    def file_read_cost(self, num_bytes: int) -> float:
        """Simulated seconds to read one file artifact of ``num_bytes``."""
        return self.file_read_latency_s + num_bytes / self.read_bandwidth_bps


#: Fast server with a co-located document store (paper's default setup).
SERVER_PROFILE = HardwareProfile(
    name="server",
    doc_write_latency_s=0.4e-3,
    doc_read_latency_s=0.3e-3,
    file_write_latency_s=0.15e-3,
    file_read_latency_s=0.1e-3,
    write_bandwidth_bps=2.0e9,
    read_bandwidth_bps=2.5e9,
)

#: Laptop setup with slower store connections (paper's M1 Pro machine).
M1_PROFILE = HardwareProfile(
    name="M1",
    doc_write_latency_s=1.0e-3,
    doc_read_latency_s=0.8e-3,
    file_write_latency_s=0.4e-3,
    file_read_latency_s=0.3e-3,
    write_bandwidth_bps=1.2e9,
    read_bandwidth_bps=1.5e9,
)

#: Archival tier: object-store-like per-operation latency and modest
#: per-stream bandwidth.  Single-stream throughput is the bottleneck in
#: this regime, which is exactly where the parallel save/recover engine
#: (striped writes, vectored range reads across ``workers`` lanes) pays
#: off; ``tests/core/test_parallel_determinism.py::TestLaneScaling`` uses it.
ARCHIVE_PROFILE = HardwareProfile(
    name="archive",
    doc_write_latency_s=2.0e-3,
    doc_read_latency_s=1.5e-3,
    file_write_latency_s=4.0e-3,
    file_read_latency_s=3.0e-3,
    write_bandwidth_bps=8.0e7,
    read_bandwidth_bps=1.0e8,
)

#: Zero-latency profile for unit tests and functional use.
LOCAL_PROFILE = HardwareProfile(
    name="local",
    doc_write_latency_s=0.0,
    doc_read_latency_s=0.0,
    file_write_latency_s=0.0,
    file_read_latency_s=0.0,
    write_bandwidth_bps=float("inf"),
    read_bandwidth_bps=float("inf"),
)


# ---------------------------------------------------------------------------
# concurrency-aware cost aggregation
# ---------------------------------------------------------------------------

def makespan(costs: "list[float]", workers: int = 1) -> float:
    """Simulated wall-clock seconds of running ``costs`` on parallel lanes.

    A parallel engine overlaps independent store operations, so the
    honest simulated charge for a batch is not the *sum* of per-operation
    costs but the completion time of ``workers`` concurrent lanes.  Jobs
    are assigned greedily (each to the least-loaded lane, in order),
    which is deterministic and within 4/3 of the optimal makespan.

    ``workers <= 1`` degenerates to the serial sum, keeping existing
    single-lane accounting bit-for-bit unchanged.
    """
    if workers <= 1 or len(costs) <= 1:
        return sum(costs)
    lanes = [0.0] * min(int(workers), len(costs))
    for cost in costs:
        index = lanes.index(min(lanes))
        lanes[index] += cost
    return max(lanes)


def stripe_sizes(num_bytes: int, lanes: int) -> "list[int]":
    """Split ``num_bytes`` into up to ``lanes`` near-equal stripes.

    Models a striped (multipart) artifact transfer: each stripe pays the
    per-operation latency, but the stripes move concurrently.  Always
    returns at least one stripe so zero-byte artifacts still charge one
    operation's latency.
    """
    lanes = max(1, int(lanes))
    if num_bytes <= 0 or lanes == 1:
        return [max(0, num_bytes)]
    lanes = min(lanes, num_bytes)
    base, remainder = divmod(num_bytes, lanes)
    return [base + (1 if index < remainder else 0) for index in range(lanes)]
