"""The fleet name of the archive engine.

A fleet keeps ``config.shards`` full archives (each with its own
journal, chunk store, replicas, and stats) under ``root/shard-<i>/`` and
routes every save/recover/delete to exactly one of them:

* **initial saves** hash their engine-allocated set id with
  :func:`shard_for` — a stable ``sha256(set_id) % num_shards``, so the
  same id lands on the same shard across processes and reopens;
* **derived saves** follow their base set's shard, keeping every
  recovery chain shard-local (recovering a set never crosses shards).

The engine is :class:`~repro.core.manager.MultiModelManager`;
:class:`FleetManager` is the same class under the name that makes a
fresh directory or an in-memory archive a one-shard fleet under
``shard-0/`` instead of a plain archive.  A one-shard fleet allocates
the id sequence a plain archive would and produces a byte-identical
archive under ``shard-0/``.
"""

from __future__ import annotations

from repro.core.manager import MultiModelManager, shard_for
from repro.storage.persistent import SHARD_PREFIX

__all__ = ["SHARD_PREFIX", "FleetManager", "shard_for"]


class FleetManager(MultiModelManager):
    """The archive engine, making fresh and in-memory archives fleets.

    Build one with :meth:`with_approach` (in-memory shards, default one)
    or :meth:`open` (durable shards under ``root/shard-<i>/``).  Opening
    an existing plain archive opens it plain: the directory's topology
    decides, and only a fresh directory takes this name's default.
    """

    fresh_shards = 1
