"""The paper's contribution: set-oriented model management approaches.

Module map (see DESIGN.md §3 for the full inventory):

* :mod:`~repro.core.model_set` — the :class:`ModelSet` abstraction.
* :mod:`~repro.core.save_info` — metadata and update descriptors.
* :mod:`~repro.core.approach` — the pluggable :class:`SaveApproach` API
  and the :class:`SaveContext` bundling the storage substrates.
* :mod:`~repro.core.baseline` / :mod:`~repro.core.update` /
  :mod:`~repro.core.provenance` — the three optimized approaches (§3).
* :mod:`~repro.core.mmlib_base` — the MMlib-base comparator (§2.2).
* :mod:`~repro.core.manager` — :class:`MultiModelManager`, the archive
  engine over one shard (a plain archive) or many (a fleet).
* :mod:`~repro.core.recommender` — heuristic approach selection
  (paper's future work, §4.5).
* :mod:`~repro.core.compression` — optional blob compression
  (paper's future work, §4.5).
"""

from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.approach import SaveApproach, SaveContext
from repro.core.baseline import BaselineApproach
from repro.core.compression import CODECS, CompressionCodec
from repro.core.export import export_models, import_models
from repro.core.fsck import ArchiveFsck
from repro.core.lineage import LineageGraph, diff_sets, model_history
from repro.core.manager import MultiModelManager
from repro.core.mmlib_base import MMlibBaseApproach
from repro.core.model_set import ModelSet
from repro.core.pas import PasDeltaApproach
from repro.core.placement import (
    Placement,
    PlacementProblem,
    evaluate_placement,
    optimal_placement,
    optimize_archive,
)
from repro.core.provenance import ProvenanceApproach
from repro.core.recommender import ApproachRecommender, ScenarioProfile
from repro.core.retention import RetentionManager
from repro.core.save_info import ModelUpdate, SetMetadata, UpdateInfo
from repro.core.update import UpdateApproach

__all__ = [
    "ApproachRecommender",
    "ArchiveConfig",
    "ArchiveFsck",
    "BaselineApproach",
    "CODECS",
    "CompressionCodec",
    "LineageGraph",
    "MMlibBaseApproach",
    "ModelSet",
    "ModelUpdate",
    "MultiModelManager",
    "ObservabilityConfig",
    "PasDeltaApproach",
    "Placement",
    "PlacementProblem",
    "ProvenanceApproach",
    "RetentionManager",
    "SaveApproach",
    "SaveContext",
    "ScenarioProfile",
    "SetMetadata",
    "UpdateApproach",
    "UpdateInfo",
    "diff_sets",
    "evaluate_placement",
    "export_models",
    "import_models",
    "model_history",
    "optimal_placement",
    "optimize_archive",
]
