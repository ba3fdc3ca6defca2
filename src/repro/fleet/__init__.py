"""Sharded fleets: the engine's fleet name and a coalescing ingest front door.

:class:`~repro.fleet.manager.FleetManager` is the archive engine
(:class:`~repro.core.manager.MultiModelManager`) under the name whose
fresh archives are fleets: it partitions model sets across N
independent archive shards (routing by a stable hash of the set id,
chains kept shard-local).  Beside it live per-shard health, the
dead-letter store, and an :class:`~repro.fleet.ingest.IngestQueue`
that coalesces concurrent per-model updates into set-level saves
drained by a bounded, shard-affine worker pool.

Quickstart::

    from repro import ArchiveConfig
    from repro.fleet import FleetManager, IngestQueue

    fleet = FleetManager.open("archive/", "update", ArchiveConfig(shards=4))
    set_id = fleet.save_set(models)            # routed by hash
    with IngestQueue(fleet, flush_max_updates=8) as queue:
        queue.submit(set_id, model_index=3, state=new_state)
    recovered = fleet.recover_set(fleet.list_sets()[-1])

See ``docs/operations.md`` ("Scaling out") for the on-disk layout and
how to choose shard counts and flush deadlines.
"""

from repro.fleet.deadletter import DeadLetterStore
from repro.fleet.health import DEGRADED, DOWN, HEALTHY, FleetHealthTracker
from repro.fleet.ingest import IngestQueue
from repro.fleet.manager import SHARD_PREFIX, FleetManager, shard_for

__all__ = [
    "DEGRADED",
    "DOWN",
    "HEALTHY",
    "SHARD_PREFIX",
    "DeadLetterStore",
    "FleetHealthTracker",
    "FleetManager",
    "IngestQueue",
    "shard_for",
]
