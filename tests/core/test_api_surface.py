"""Pins the public import surface.

Two guarantees: every name in ``__all__`` actually imports (no stale
re-exports), and the curated lists only change deliberately — adding or
removing a public name must update this test in the same commit.
"""

import repro
import repro.api
import repro.errors

EXPECTED_TOP_LEVEL = [
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

EXPECTED_API = [
    "ArchiveConfig",
    "FleetManager",
    "IngestQueue",
    "ModelSet",
    "MultiModelManager",
    "Registry",
    "ServingCache",
    "SetMetadata",
    "errors",
]


class TestTopLevelSurface:
    def test_all_is_exactly_the_documented_surface(self):
        assert repro.__all__ == EXPECTED_TOP_LEVEL

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_all_is_sorted_for_review_diffs(self):
        assert list(repro.__all__) == sorted(repro.__all__)


class TestApiModule:
    def test_all_is_exactly_the_documented_surface(self):
        assert repro.api.__all__ == EXPECTED_API

    def test_every_name_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_api_names_alias_the_top_level_objects(self):
        # repro.api is a facade, not a fork: same objects, fewer names.
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is getattr(repro, name)


class TestErrorTaxonomy:
    def test_registry_error_is_public(self):
        assert issubclass(repro.errors.RegistryError, repro.errors.ReproError)
        assert "RegistryError" in repro.errors.__all__

    def test_every_listed_error_resolves(self):
        for name in repro.errors.__all__:
            assert getattr(repro.errors, name) is not None
