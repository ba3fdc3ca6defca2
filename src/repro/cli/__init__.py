"""``repro-archive`` — operate a durable model archive from the shell.

Subcommands cover the operator loop demonstrated in
``examples/archive_operations.py``:

.. code-block:: text

    repro-archive <dir> info                 # sets, sizes, lineage summary
    repro-archive <dir> lineage              # the derivation chains
    repro-archive <dir> verify [--deep]      # the audit; --deep recovers every set
    repro-archive <dir> fsck [--deep]        # the audit; --deep re-hashes every byte
    repro-archive <dir> scrub [--shallow]    # converge replicas (anti-entropy)
    repro-archive <dir> history SET_ID IDX   # one model's drift
    repro-archive <dir> compact SET_ID       # delta -> full snapshot
    repro-archive <dir> gc --keep-last K     # retention policy
    repro-archive <dir> maintain --cycles N  # background-maintenance passes
    repro-archive <dir> migrate TARGET_DIR --approach update
    repro-archive <dir> stats --live         # metrics registry export
    repro-archive <dir> warm SET_ID [...]    # pre-materialize into the cache
    repro-archive <dir> evict [--chunks]     # drop serving-cache entries
    repro-archive <dir> trace --workers 4    # traced demo update cycle
    repro-archive <dir> query families       # the registered model families
    repro-archive <dir> query versions FAM   # one family's version history
    repro-archive <dir> query diff A B       # layer-level change sets
    repro-archive <dir> query resolve FAM    # what "latest" points at
    repro-archive <dir> register --rebuild   # re-derive the catalog

The archive's approach is auto-detected from the stored set descriptors;
mixed-approach archives are supported for read-only commands.  A
replicated layout (``replica-<i>/`` subtrees) is likewise auto-detected;
``--replicas``/``--write-quorum``/``--read-quorum`` create or override
the topology.  ``fsck`` and ``scrub`` exit 0 when clean, 1 when issues
were found that are repairable (or were repaired), and 2 on
unrecoverable data loss; ``verify`` prints the same report as ``fsck``
and exits 0 when clean, 1 otherwise.

A sharded fleet layout (``shard-<i>/`` subtrees) is auto-detected the
same way;
``--shards N`` asks for a fleet of exactly N shards and is refused on a
plain archive or a fleet of another size.  There is one dispatcher and
one archive view (:func:`~repro.cli.common.open_view`, the archive
engine opened for management): a plain archive is the engine's one shard
rooted at its own directory, so every verb is written once.  ``info``/``fsck``/``scrub``/``verify``/``lineage``/
``stats`` run per shard (exit code = worst shard, keeping the 0/1/2
contract; a fleet adds ``== shard-<i> ==`` banners and ``fleet …``
totals), ``gc --keep-last`` applies the retention policy across every
shard, ``maintain`` runs scheduler passes (one atomic journal txn per
shard), set-addressed verbs (``history``, ``compact``, ``export``,
``warm SET_ID``) run on the shard owning the set, and the catalog verbs
(``query``, ``register``) use the archive's one catalog — the plain
archive's own registry, or the fleet-level registry at the root.

Every global flag maps 1:1 onto an :class:`~repro.config.ArchiveConfig`
field (see :func:`~repro.cli.common.config_from_args`);
``--trace``/``--trace-json`` turn on span recording for whichever
command runs, and ``trace`` runs a synthetic U3 update cycle on an
in-memory archive and prints the span tree with its per-phase
simulated-time breakdown.

The package splits one module per verb group: :mod:`repro.cli.archive`
(inspection and transformation), :mod:`repro.cli.maintenance`
(retention and caches), :mod:`repro.cli.fleet` (dead letters, the one
fleet-only verb), :mod:`repro.cli.query` (registry), with the archive
view and shared plumbing in :mod:`repro.cli.common` and the argparse
wiring and dispatcher in :mod:`repro.cli.main`.
"""

from repro.cli.common import PROFILES, config_from_args
from repro.cli.main import main

__all__ = ["PROFILES", "config_from_args", "main"]
