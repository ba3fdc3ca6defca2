"""The stable convenience surface: ``from repro.api import ...``.

``repro``'s top-level namespace re-exports everything a power user may
touch (approach classes, verifiers, schedulers, observability).  This
module is the deliberately *small* counterpart — the handful of names a
deployment needs to save, recover, query, and serve model sets, with
the same compatibility promise as the ``repro-archive`` CLI:

* :class:`ArchiveConfig` — every archive knob, one frozen dataclass.
* :class:`MultiModelManager` / :class:`FleetManager` — one archive
  engine under two names: save/recover on a plain archive (one shard
  rooted at its directory) or a sharded fleet, whichever the directory
  holds.  They differ only in what a fresh directory or an in-memory
  archive becomes: the directory itself, or ``shard-0/``.  Neither
  refuses the other's topology any more: ``shards=N`` builds a fleet
  under either name, and either name opens an existing plain archive.
* :class:`IngestQueue` — the coalescing async front door.
* :class:`Registry` — the catalog: families, versions, tags, lineage,
  and layer-level diffs (``manager.registry``; on a plain archive also
  ``manager.context.registry``).
* :class:`ModelSet` / :class:`SetMetadata` — the payload and its
  user-supplied metadata (``extra={"family": ...}`` names a family).
* :class:`ServingCache` — the tiered read cache.
* :mod:`errors <repro.errors>` — the exception taxonomy, re-exported as
  a namespace so ``except api.errors.RegistryError`` reads naturally.

Anything not importable from here may change between minor versions;
the import-surface test pins this list.
"""

from repro import errors
from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata
from repro.fleet import FleetManager, IngestQueue
from repro.registry import Registry
from repro.serving import ServingCache

__all__ = [
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
