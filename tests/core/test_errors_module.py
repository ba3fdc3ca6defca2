"""Tests pinning the exception hierarchy contract.

Callers are promised that every library failure derives from
``ReproError`` and that the documented subtype relationships hold —
refactorings must not silently break ``except`` clauses downstream.
"""

import pytest

from repro import errors


HIERARCHY = {
    errors.ConfigError: errors.ReproError,
    errors.SerializationError: errors.ReproError,
    errors.ArchitectureMismatchError: errors.ReproError,
    errors.UnknownArchitectureError: errors.ReproError,
    errors.StorageError: errors.ReproError,
    errors.ArtifactNotFoundError: errors.StorageError,
    errors.DocumentNotFoundError: errors.StorageError,
    errors.DuplicateArtifactError: errors.StorageError,
    errors.RecoveryError: errors.ReproError,
    errors.ProvenanceReplayError: errors.RecoveryError,
    errors.DatasetNotFoundError: errors.ReproError,
    errors.InvalidUpdatePlanError: errors.ReproError,
}


class TestHierarchy:
    @pytest.mark.parametrize("child,parent", sorted(
        HIERARCHY.items(), key=lambda kv: kv[0].__name__
    ))
    def test_parentage(self, child, parent):
        assert issubclass(child, parent)
        assert issubclass(child, errors.ReproError)

    def test_root_is_exception(self):
        assert issubclass(errors.ReproError, Exception)

    def test_catching_root_catches_library_failures(self):
        from repro.core.manager import MultiModelManager

        manager = MultiModelManager.with_approach("baseline")
        with pytest.raises(errors.ReproError):
            manager.recover_set("set-ghost-000000")

    def test_storage_failures_catchable_as_storage_error(self):
        from repro.storage.file_store import FileStore

        store = FileStore()
        with pytest.raises(errors.StorageError):
            store.get("missing")

    def test_provenance_failures_catchable_as_recovery_error(self):
        # ProvenanceReplayError is a RecoveryError: "recovery failed" is
        # one except-clause regardless of approach.
        assert issubclass(errors.ProvenanceReplayError, errors.RecoveryError)

