"""repro — reproduction of "Efficient Multi-Model Management" (EDBT 2023).

The library manages *sets* of related deep-learning models that share one
architecture but differ in parameters — e.g. one model per battery cell.
Three set-oriented approaches are provided, plus the MMlib-base
comparator the paper evaluates against:

* ``Baseline`` — full parameter snapshots, metadata/architecture saved
  once per set, all parameters concatenated into one binary artifact.
* ``Update`` — per-layer hashing; derived sets save only changed layers.
* ``Provenance`` — derived sets save training provenance (pipeline,
  environment, dataset references) and recover by deterministic replay.

Quickstart::

    from repro import MultiModelManager, ModelSet

    manager = MultiModelManager.with_approach("update")
    models = ModelSet.build("FFNN-48", num_models=100, seed=0)
    set_id = manager.save_set(models)
    recovered = manager.recover_set(set_id)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

__version__ = "1.0.0"

from repro import errors
from repro.config import (
    ArchiveConfig,
    FleetHealthConfig,
    MaintenanceConfig,
    ObservabilityConfig,
    ServingConfig,
)
from repro.core.approach import SaveApproach, SaveContext
from repro.core.baseline import BaselineApproach
from repro.core.fsck import ArchiveFsck
from repro.core.lineage import LineageGraph, diff_sets, model_history
from repro.core.manager import MultiModelManager
from repro.core.mmlib_base import MMlibBaseApproach
from repro.core.model_set import ModelSet
from repro.core.provenance import ProvenanceApproach
from repro.core.recommender import ApproachRecommender, ScenarioProfile
from repro.core.retention import RetentionManager
from repro.core.save_info import ModelUpdate, SetMetadata, UpdateInfo
from repro.core.update import UpdateApproach
from repro.fleet import FleetManager, IngestQueue
from repro.maintenance import MaintenanceScheduler
from repro.observability import MetricsRegistry, TraceRecorder, global_registry
from repro.registry import Registry, RegistryDiff, VersionRecord
from repro.serving import ServingCache
from repro.simtime import SimClock

__all__ = [
    "ApproachRecommender",
    "ArchiveConfig",
    "ArchiveFsck",
    "BaselineApproach",
    "FleetHealthConfig",
    "FleetManager",
    "IngestQueue",
    "LineageGraph",
    "MMlibBaseApproach",
    "MaintenanceConfig",
    "MaintenanceScheduler",
    "MetricsRegistry",
    "ModelSet",
    "ModelUpdate",
    "MultiModelManager",
    "ObservabilityConfig",
    "ProvenanceApproach",
    "Registry",
    "RegistryDiff",
    "RetentionManager",
    "SaveApproach",
    "SaveContext",
    "ScenarioProfile",
    "ServingCache",
    "ServingConfig",
    "SetMetadata",
    "SimClock",
    "TraceRecorder",
    "UpdateApproach",
    "UpdateInfo",
    "VersionRecord",
    "__version__",
    "diff_sets",
    "errors",
    "global_registry",
    "model_history",
]
