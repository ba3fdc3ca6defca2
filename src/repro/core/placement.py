"""Optimal snapshot placement: the storage/recreation trade-off.

The paper cites Bhattacherjee et al.'s dataset-versioning principles
(§2.2) for the recursive-recovery problem: storing every version as a
delta minimizes storage but recreation time grows with the chain, and
"saving intermediate model snapshots" bounds it.  The Update approach's
``snapshot_interval`` is the fixed-interval heuristic; this module
solves the underlying optimization exactly for a version chain:

    minimize   total stored bytes
    subject to recreation time of EVERY version <= max_recovery_s

by dynamic programming over the position of each version's nearest
snapshot (O(n^2) for a chain of n versions).  Heterogeneous delta sizes
are handled, which is where the optimum beats any fixed interval: cheap
deltas are chained deeply, expensive ones get a snapshot sooner.

``optimize_archive`` builds the problem from a real Update archive
(actual artifact sizes, the context's hardware profile) and can apply
the result by compacting the chosen versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.lineage import LineageGraph
from repro.errors import ReproError

#: Bytes-per-second constant for the in-memory apply work during
#: recovery (copying/patching parameters); matches the recommender's.
_APPLY_THROUGHPUT_BPS = 3.0e9


@dataclass(frozen=True)
class PlacementProblem:
    """A version chain with per-version storage and recovery costs.

    Version 0 is the initial save and is always a full snapshot.
    ``delta_bytes[i]`` / ``delta_apply_s[i]`` describe version ``i + 1``
    stored as a delta against its predecessor.
    """

    full_bytes: float
    full_read_s: float
    delta_bytes: tuple[float, ...]
    delta_apply_s: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.full_bytes <= 0 or self.full_read_s < 0:
            raise ValueError("full snapshot costs must be positive")
        if len(self.delta_bytes) != len(self.delta_apply_s):
            raise ValueError("delta size and time vectors must align")
        if any(b < 0 for b in self.delta_bytes) or any(
            t < 0 for t in self.delta_apply_s
        ):
            raise ValueError("delta costs must be non-negative")

    @property
    def num_versions(self) -> int:
        """Total versions including the initial one."""
        return len(self.delta_bytes) + 1

    @classmethod
    def uniform(
        cls,
        num_deltas: int,
        full_bytes: float,
        delta_bytes: float,
        full_read_s: float,
        delta_apply_s: float,
    ) -> "PlacementProblem":
        """Chain with identical per-delta costs (textbook case)."""
        return cls(
            full_bytes=full_bytes,
            full_read_s=full_read_s,
            delta_bytes=(delta_bytes,) * num_deltas,
            delta_apply_s=(delta_apply_s,) * num_deltas,
        )


@dataclass(frozen=True)
class Placement:
    """A chosen set of snapshot positions and its cost profile."""

    snapshot_versions: tuple[int, ...]
    total_bytes: float
    recovery_s: tuple[float, ...] = field(repr=False)

    @property
    def max_recovery_s(self) -> float:
        return max(self.recovery_s)

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshot_versions)


def evaluate_placement(
    problem: PlacementProblem, snapshots: set[int]
) -> Placement:
    """Cost profile of an arbitrary snapshot choice (0 always included)."""
    snapshots = set(snapshots) | {0}
    if any(not 0 <= v < problem.num_versions for v in snapshots):
        raise ValueError("snapshot version out of range")
    total = 0.0
    recovery: list[float] = []
    chain_time = 0.0
    for version in range(problem.num_versions):
        if version in snapshots:
            total += problem.full_bytes
            chain_time = 0.0
        else:
            total += problem.delta_bytes[version - 1]
            chain_time += problem.delta_apply_s[version - 1]
        recovery.append(problem.full_read_s + chain_time)
    return Placement(
        snapshot_versions=tuple(sorted(snapshots)),
        total_bytes=total,
        recovery_s=tuple(recovery),
    )


def optimal_placement(
    problem: PlacementProblem, max_recovery_s: float
) -> Placement:
    """Storage-minimal snapshot placement meeting the recovery bound.

    Raises :class:`ReproError` when the bound is below the unavoidable
    ``full_read_s`` (recovering a snapshot itself would already violate
    it).
    """
    if max_recovery_s < problem.full_read_s:
        raise ReproError(
            f"recovery bound {max_recovery_s}s is below the snapshot read "
            f"time {problem.full_read_s}s; no placement can satisfy it"
        )
    n = problem.num_versions
    budget = max_recovery_s - problem.full_read_s

    # segment_ok[s][e]: versions s+1..e stored as deltas onto snapshot s
    # all meet the bound.  Computed incrementally per s.
    INF = float("inf")
    best = [INF] * n  # best[i]: min bytes for versions 0..i, i a snapshot
    parent: list[int | None] = [None] * n
    best[0] = problem.full_bytes

    for start in range(n):
        if best[start] == INF:
            continue
        # Walk the segment after snapshot `start`: before *extending* the
        # delta chain to a version, first offer that version the option
        # of being the next snapshot (which needs only the versions in
        # between to be feasible deltas).
        chain_time = 0.0
        seg_bytes = 0.0
        for end in range(start + 1, n):
            candidate = best[start] + seg_bytes + problem.full_bytes
            if candidate < best[end]:
                best[end] = candidate
                parent[end] = start
            chain_time += problem.delta_apply_s[end - 1]
            if chain_time > budget:
                break
            seg_bytes += problem.delta_bytes[end - 1]

    # Close the chain: choose the last snapshot s; versions s+1..n-1 are
    # deltas and must all be feasible.
    best_total = INF
    best_last: int | None = None
    for start in range(n):
        if best[start] == INF:
            continue
        chain_time = 0.0
        seg_bytes = 0.0
        feasible = True
        for end in range(start + 1, n):
            chain_time += problem.delta_apply_s[end - 1]
            if chain_time > budget:
                feasible = False
                break
            seg_bytes += problem.delta_bytes[end - 1]
        if feasible:
            candidate = best[start] + seg_bytes
            if candidate < best_total:
                best_total = candidate
                best_last = start
    if best_last is None:
        raise ReproError("no feasible snapshot placement found")

    snapshots = []
    cursor: int | None = best_last
    while cursor is not None:
        snapshots.append(cursor)
        cursor = parent[cursor]
    return evaluate_placement(problem, set(snapshots))


# ---------------------------------------------------------------------------
# integration with a real Update archive
# ---------------------------------------------------------------------------

def problem_from_chain(context: SaveContext, leaf_set_id: str) -> tuple[
    PlacementProblem, list[str]
]:
    """Build a placement problem from a real archive's recovery chain.

    Sizes come from the actual artifacts; times from the context's
    hardware profile plus an in-memory apply-throughput constant.
    Returns the problem and the chain's set ids (version order).
    """
    lineage = LineageGraph.from_context(context)
    chain = lineage.recovery_chain(leaf_set_id)
    root_doc = context.document_store.peek(SETS_COLLECTION, chain[0])
    if root_doc.get("kind", "full") != "full":
        raise ReproError("chain does not start at a full snapshot")
    profile = context.file_store.profile
    full_bytes = context.file_store.size(root_doc["params_artifact"])
    full_read_s = (
        profile.file_read_cost(full_bytes) + full_bytes / _APPLY_THROUGHPUT_BPS
    )
    delta_bytes = []
    delta_apply = []
    for set_id in chain[1:]:
        document = context.document_store.peek(SETS_COLLECTION, set_id)
        size = context.file_store.size(document["params_artifact"])
        delta_bytes.append(float(size))
        delta_apply.append(
            profile.file_read_cost(size) + size / _APPLY_THROUGHPUT_BPS
        )
    problem = PlacementProblem(
        full_bytes=float(full_bytes),
        full_read_s=full_read_s,
        delta_bytes=tuple(delta_bytes),
        delta_apply_s=tuple(delta_apply),
    )
    return problem, chain


def optimize_archive(
    context: SaveContext,
    leaf_set_id: str,
    max_recovery_s: float,
    apply: bool = False,
) -> tuple[Placement, list[str]]:
    """Optimal snapshot positions for one archive chain.

    With ``apply=True`` the chosen delta versions are compacted in place
    (via :class:`~repro.core.retention.RetentionManager`), after which
    every version's recovery meets the bound.  Returns the placement and
    the set ids that were (or would be) compacted.
    """
    problem, chain = problem_from_chain(context, leaf_set_id)
    placement = optimal_placement(problem, max_recovery_s)
    to_compact = [
        chain[version] for version in placement.snapshot_versions if version != 0
    ]
    if apply:
        from repro.core.retention import RetentionManager

        retention = RetentionManager(context)
        for set_id in to_compact:
            retention.compact(set_id)
    return placement, to_compact
