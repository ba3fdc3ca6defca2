"""Recovery in three steps: resolve → fetch → assemble.

Every artifact- or chunk-stored set is recovered the same way:

1. **resolve** (metadata only) turns a set id and a selector (the whole
   set or one model) into a columnar :class:`RecoveryPlan`.  For an
   Update chain that is the paper's idea made explicit — walk the diff
   lists newest first and let the *newest writer win* every
   (model, layer) slot — so the plan names, per contributing artifact,
   exactly the byte segments that are final.  One model's plan does
   not rerun that pass: it gathers its row from the pass's outcome, the
   chain's :class:`ChainTable`, built once and kept on the chain head.
   A pas-delta chain stores
   whole-set XOR deltas with no diff list: every delta is an *XOR*
   source over every selected slot, applied to the snapshot's bytes.
   For a chunked set the plan is its digest matrix, as an id column
   (:data:`~repro.storage.hashing.DIGESTS`).
2. **fetch** is the one place a plan becomes store calls: coalesced
   vectored range reads for uncompressed artifacts, one whole-blob read
   plus decode for compressed ones, one striped ``get`` for a snapshot
   read whole, one :meth:`ChunkStore.fetch` of the unique digest ids.
3. **assemble** is the one place bytes become parameters: one join of
   the selected slots' bytes, gathered by key, one vectorized XOR of the
   XOR sources' rows, read as one float32 row per model.

Callers differ only in which slots they hand to *fetch*: the uncached
read path hands all of them, the serving cache withholds the slots whose
digest id its tier 2 holds, and salvage swaps in a verifying fetch and
assembles the models whose slots all arrived.  Total parameter bytes
fetched equal one set's worth at any chain depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import is_, itemgetter, ne
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.compression import get_codec
from repro.core.mmlib_base import MODELS_COLLECTION
from repro.core.model_set import ModelSet, read_only
from repro.errors import DocumentNotFoundError, RecoveryError
from repro.nn.serialization import StateSchema
from repro.observability import trace as _trace
from repro.storage.document_store import FrozenDict
from repro.storage.hashing import DIGESTS, distinct

if TYPE_CHECKING:
    from repro.core.approach import SaveApproach

#: Collection holding one hash-info document per saved Update set.
HASH_COLLECTION = "hash_info"


@dataclass
class Source:
    """One artifact's contribution to a plan: its final segments.

    ``offsets`` / ``nbytes`` / ``slots`` are parallel columns sorted by
    offset; ``total`` is the (decoded) size the descriptor implies for
    the whole artifact.

    A *replace* source gives its slots their final bytes.  An *XOR*
    source (``xor``) covers every selected slot, and its bytes are XORed
    onto what the replace sources and the snapshot give the slot.  One
    approach writes one chain, so a chain's deltas are all replace or
    all XOR, and the two never interleave.
    """

    artifact: str
    codec: str
    #: Chain depth of a delta (0 = newest); ``None`` for the snapshot.
    depth: "int | None"
    total: int
    offsets: np.ndarray
    nbytes: np.ndarray
    slots: np.ndarray
    #: The segments are the entire artifact (a full set read whole).
    whole: bool = False
    #: Combine by XOR onto the older value instead of replacing it.
    xor: bool = False


#: Where :func:`fetch` leaves the XOR of every XOR source's selected rows.
XOR_ROWS = ("xor",)


@dataclass
class RecoveryPlan:
    """Where the final bytes of every selected (model, layer) slot live.

    Slots are numbered row-major over ``models`` × schema layers.
    Artifact-stored sets carry ``sources`` (deltas newest first, then
    the base snapshot); chunked sets carry none and are served by
    ``digests`` alone.
    """

    architecture: str
    schema: StateSchema
    dtype: str
    models: "list[int]"
    sources: "list[Source]"
    #: Content digest id of each slot, when one is stored: a read-only
    #: ``int64`` column (:data:`~repro.storage.hashing.DIGESTS`).
    digests: "np.ndarray | None" = None
    #: ``digests`` without repeats, in order of first occurrence.
    unique: "np.ndarray | None" = None

    @property
    def chunked(self) -> bool:
        return not self.sources

    @property
    def keys(self) -> Sequence:
        """What fetched bytes are keyed by: digest id if known, else slot."""
        if self.digests is not None:
            return self.digests.tolist()
        return range(len(self.models) * len(self.schema.entries))


def layer_nbytes(schema: StateSchema, itemsize: int = 4) -> "list[int]":
    """Raw byte size of every schema layer, in order (float32 by default)."""
    return [math.prod(shape) * itemsize for _name, shape in schema.entries]


def _holder(context: SaveContext, document: dict, set_id: str, read=None) -> "dict | None":
    """The document holding a set's digest matrix (see :func:`stored_digests`)."""
    if "chunk_digests" in document and read is None:
        return document
    hash_doc = (read or context.document_store.get)(HASH_COLLECTION, set_id)
    return document if hash_doc is None and "chunk_digests" in document else hash_doc


def _matrix_of(source: dict) -> list:
    return source["chunk_digests"] if "chunk_digests" in source else source["hashes"]


class StoredDigests(NamedTuple):
    """A set's stored digest matrix (see :func:`stored_digests`)."""

    #: One layer name per column.
    layers: Sequence
    #: One row of hex digests per model.
    rows: Sequence
    #: Where it is stored: ``"hash-info"`` or ``"chunk-digests"`` (the
    #: registry labels a matrix it hashed from a recovered set ``"recovered"``).
    source: str

    def malformed(self, num_models: int, width: "int | None" = None) -> "str | None":
        """Why ``rows`` is not ``num_models`` rows of ``width`` digests
        (default: one per layer), else ``None``."""
        width = len(self.layers) if width is None else width
        widths = set(map(len, self.rows))
        if len(self.rows) != num_models or widths - {width}:
            return (
                f"its {self.source} matrix has {len(self.rows)} rows of widths "
                f"{sorted(widths)}, expected {num_models} rows of {width} layers"
            )
        return None


def stored_digests(
    context: SaveContext, document: dict, set_id: str, read=None
) -> "StoredDigests | None":
    """The one reader of a set's stored digest matrix: its hash-info
    document (Update's, chunked or not), else its descriptor's own
    ``chunk_digests``; ``None`` when it has neither (plain Baseline).
    ``read`` fetches hash info: the charged ``get`` by default (a missing
    document raises), or an uncharged ``peek``.  A set carrying both
    matrices is read from hash info, except that a charged read takes the
    descriptor's rather than pay for one it does not need."""
    held = _holder(context, document, set_id, read)
    if held is None:
        return None
    if "chunk_digests" in held:
        layers = schema_of(document).layer_names()
        return StoredDigests(layers, held["chunk_digests"], "chunk-digests")
    return StoredDigests(held["layers"], held["hashes"], "hash-info")


def changed_rows(
    old: Sequence, new: Sequence, labels: "Iterable | None" = None, layers: Sequence = ()
) -> "Iterator[tuple[Any, tuple]]":
    """The one digest comparison: each row of ``new`` that differs from
    ``old``'s at the same position, as ``(label, the changed layers)``;
    ``labels`` name the rows (default: positions), ``layers`` the columns
    (default: none, for callers that only ask which rows).  Whole rows
    are compared first, one C-level ``!=`` each; both sides must be of
    one shape (``StoredDigests.malformed``)."""
    rows = zip(count() if labels is None else labels, old, new)
    return (
        (label, tuple(compress(layers, map(ne, a, b))))
        for label, a, b in compress(rows, map(ne, old, new))
    )


class DigestColumns(NamedTuple):
    """A digest matrix interned (:data:`~repro.storage.hashing.DIGESTS`)."""

    #: Read-only ``(models, layers)`` ids.
    matrix: np.ndarray
    #: Every id of ``matrix`` once, in order of first occurrence.
    unique: np.ndarray


def _interned(source: dict) -> "DigestColumns | None":
    """``source``'s digest matrix as :class:`DigestColumns`, or ``None``
    when its rows differ in length."""
    matrix = _matrix_of(source)
    width = len(matrix[0]) if len(matrix) else 0
    if any(len(row) != width for row in matrix):
        return None
    ids = DIGESTS.intern_many(chain.from_iterable(matrix)).reshape(len(matrix), width)
    ids.flags.writeable = False
    return DigestColumns(ids, distinct(ids.ravel()))


def digest_ids(
    source: dict, models: "list[int]", num_models: int, num_layers: int
) -> "DigestColumns | None":
    """The selected models' digests: ``matrix`` one slot-ordered id
    column, and its ``unique`` ids; ``None`` unless the matrix is
    ``num_models`` × ``num_layers``.

    The whole matrix is interned once per held document and kept on it
    (:meth:`FrozenDict.derive`, like the diff columns); one model read
    while that memo is cold interns only its own row.
    """
    matrix = _matrix_of(source)
    if len(matrix) != num_models:
        return None
    if isinstance(source, FrozenDict) and (
        len(models) > 1 or source.derived(_interned) is not None
    ):
        columns = source.derive(_interned)
        if columns is None or columns.matrix.shape[1] != num_layers:
            return None
        if len(models) == num_models:
            return DigestColumns(columns.matrix.ravel(), columns.unique)
        ids = columns.matrix[models].ravel()
    else:
        rows = [matrix[model] for model in models]
        if any(len(row) != num_layers for row in rows):
            return None
        ids = DIGESTS.intern_many(chain.from_iterable(rows))
    return DigestColumns(ids, distinct(ids))


class SetOwns(NamedTuple):
    """What one set owns besides its descriptor (see :func:`set_owns`)."""

    #: The set's ``params_artifact`` and every model document's artifacts.
    artifacts: "list[str]"
    #: A chunked set's stored digests (``None``: not chunked, or none stored).
    digests: "StoredDigests | None"
    #: ``(collection, id)`` of its side documents: model documents, hash info.
    documents: "list[tuple[str, str]]"

    @property
    def matrix(self) -> "Sequence | None":
        """The rows of :attr:`digests`, or ``None``."""
        return None if self.digests is None else self.digests.rows


def set_owns(context: SaveContext, set_id: str, document: dict) -> SetOwns:
    """Everything set ``set_id`` owns, read uncharged from its descriptor.

    The one answer retention (what to delete and release), verification
    (what to re-hash, which chunks to audit) and fsck (which references
    the chunk ledger should count) share.
    """
    store = context.document_store
    artifacts = [document["params_artifact"]] if document.get("params_artifact") else []
    documents: list[tuple[str, str]] = []
    for model_id in document.get("model_ids", []):
        model_doc = store.peek(MODELS_COLLECTION, model_id)
        if model_doc is None:
            continue
        documents.append((MODELS_COLLECTION, model_id))
        artifacts.extend(
            model_doc[key]
            for key in ("params_artifact", "code_artifact")
            if model_doc.get(key)
        )
    hash_doc = store.peek(HASH_COLLECTION, set_id)
    if hash_doc is not None:
        documents.append((HASH_COLLECTION, set_id))
    digests = None
    if document.get("storage") == "chunked":
        # One peek serves both answers (on a replicated store it is a vote).
        digests = stored_digests(context, document, set_id, lambda *_key: hash_doc)
    return SetOwns(artifacts, digests, documents)


def ends_chain(document: dict) -> bool:
    """The one rule that ends every chain walk: a full snapshot, or a
    chunked set, whose digest matrix is its whole recipe (refcounts, not
    ancestry, keep its shared bytes alive).  A plain delta never derives
    from a chunked base (Update refuses it), so only a walk that starts
    at a chunked set stops at one."""
    return document.get("kind", "full") == "full" or document.get("storage") == "chunked"


def walk_chain(read: "Callable[[str], dict]", set_id: str) -> "list[tuple[str, dict]]":
    """``(set id, descriptor)`` from ``set_id`` back to the set that ends
    its chain (:func:`ends_chain`), newest first.  ``read`` fetches one
    descriptor: a charged read for recovery, a peek for the lineage."""
    chain = [(set_id, read(set_id))]
    while not ends_chain(chain[-1][1]):
        base = chain[-1][1].get("base_set")
        chain.append((base, read(base)))
    return chain


def chain_documents(
    approach: "SaveApproach", set_id: str
) -> "tuple[dict, str, list[dict]]":
    """Walk the chain metadata-only back to the set that ends it.

    Returns ``(base_document, base_set_id, deltas)`` with the delta
    documents ordered newest first.
    """

    def read(current_id: str) -> dict:
        document = approach.context.set_document(current_id)
        approach._require_type(document, approach.name, current_id)
        return document

    with _trace.span("chain-walk", kind="metadata"):
        *deltas, (base_id, base_doc) = walk_chain(read, set_id)
        _trace.add_event("chain-resolved", base=base_id, depth=len(deltas))
    return base_doc, base_id, [document for _id, document in deltas]


# -- resolve ----------------------------------------------------------------
class DiffColumns(NamedTuple):
    """A delta descriptor's diff list as read-only columns."""

    #: The model each diff entry writes.
    writers: np.ndarray
    #: How many layers each entry writes.
    counts: np.ndarray
    #: Every entry's layers, flat, in diff order.
    layers: np.ndarray


def _columns_of(document: dict) -> DiffColumns:
    entries = document["diff"]
    changed = [entry[1] for entry in entries]
    counts = np.fromiter(map(len, changed), np.int64, len(entries))
    columns = DiffColumns(
        np.fromiter(map(itemgetter(0), entries), np.int64, len(entries)),
        counts,
        np.fromiter(chain.from_iterable(changed), np.int64, int(counts.sum())),
    )
    for column in columns:
        column.flags.writeable = False
    return columns


#: Empty columns, so a chain with no delta concatenates like any other.
_NO_DIFF = _columns_of({"diff": []})


def diff_columns(document: dict) -> DiffColumns:
    """The diff columns of a delta descriptor.

    Built once per held document: a store read returns the same
    read-only object until a write replaces it (DESIGN.md §13), so the
    columns live on it (:meth:`FrozenDict.derive`) and need no
    invalidation.  A plain dict is converted on every call.
    """
    if isinstance(document, FrozenDict):
        return document.derive(_columns_of)
    return _columns_of(document)


def _parse_schema(document: dict) -> StateSchema:
    return StateSchema.from_json(document["schema"])


def schema_of(document: dict) -> StateSchema:
    """A descriptor's schema, parsed once per held document (like the
    diff columns) so its layer extents are computed once too."""
    if isinstance(document, FrozenDict):
        return document.derive(_parse_schema)
    return _parse_schema(document)


def _select(num_models: int, model_index: "int | None", set_id: str) -> "list[int]":
    if model_index is None:
        return list(range(num_models))
    if not 0 <= model_index < num_models:
        raise IndexError(
            f"model index {model_index} out of range for set {set_id!r} "
            f"({num_models} models)"
        )
    return [model_index]


def resolve_chunked(
    context: SaveContext, document: dict, set_id: str, model_index: "int | None" = None
) -> RecoveryPlan:
    """Plan a chunked set from its (already fetched) descriptor."""
    num_models = int(document["num_models"])
    models = _select(num_models, model_index, set_id)
    schema = schema_of(document)
    source = _holder(context, document, set_id)
    columns = digest_ids(source, models, num_models, len(schema.entries))
    if columns is None:
        raise RecoveryError(
            f"set {set_id!r}: digest matrix is not {num_models} rows of "
            f"{len(schema.entries)} layers"
        )
    return RecoveryPlan(
        str(document["architecture"]),
        schema,
        str(document.get("param_dtype", "float32")),
        models,
        [],
        *columns,
    )


def _chain_sources(
    base_doc: dict, replacing: "list[dict]", xoring: "list[dict]",
    sizes: np.ndarray, num_models: int,
) -> "list[Source]":
    """Every model's sources: the chain's one newest-writer-wins pass.

    ``replacing`` / ``xoring`` are the chain's replace or XOR deltas,
    newest first (one of the two is empty); ``sizes`` are the layers'
    byte sizes.  Slots are numbered row-major over every model.
    """
    num_layers, model_nbytes = len(sizes), int(sizes.sum())
    # One flat pass over every diff entry of the chain, newest delta
    # first; a segment is one (entry, layer) extent of its delta's blob.
    columns = [diff_columns(document) for document in replacing]
    writers, counts, layers = map(np.concatenate, zip(_NO_DIFF, *columns))
    if len(writers) and int(writers.max()) >= num_models:
        raise RecoveryError(
            f"diff references model {int(writers.max())} beyond set size"
        )
    nbytes = sizes[layers]
    starts = np.concatenate(([0], np.cumsum(nbytes)))
    # Segment index and byte position at which each delta begins (+ end).
    first_entry = np.cumsum([0] + [len(column.writers) for column in columns])
    first_segment = np.concatenate(([0], np.cumsum(counts)))[first_entry]
    first_byte = starts[first_segment]
    # Newest writer wins: the first (newest) segment to name a slot is final.
    claimed, first = np.unique(
        np.repeat(writers, counts) * num_layers + layers, return_index=True
    )
    order = np.argsort(first)
    final, final_slots = first[order], claimed[order]
    final_starts, final_nbytes = starts[final], nbytes[final]
    # Each delta's final segments are one contiguous run of ``final``,
    # addressed from the start of that delta's blob.
    cuts = np.searchsorted(final, first_segment)
    final_offsets = final_starts - np.repeat(first_byte[:-1], np.diff(cuts))
    cuts, totals = cuts.tolist(), np.diff(first_byte).tolist()
    sources = [
        Source(
            document["params_artifact"],
            str(document.get("codec", "none")),
            depth,
            totals[depth],
            final_offsets[cuts[depth] : cuts[depth + 1]],
            final_nbytes[cuts[depth] : cuts[depth + 1]],
            final_slots[cuts[depth] : cuts[depth + 1]],
        )
        for depth, document in enumerate(replacing)
    ]

    # Base snapshot: everything no delta finalized (every slot of an XOR
    # chain, whose deltas then XOR onto the same whole-set offsets).
    unclaimed = np.ones(num_models * num_layers, dtype=bool)
    unclaimed[claimed] = False
    rest = np.flatnonzero(unclaimed)
    layer = rest % num_layers
    offsets = rest // num_layers * model_nbytes + (np.cumsum(sizes) - sizes)[layer]
    whole = not replacing
    total = num_models * model_nbytes
    sources.extend(
        Source(
            document["params_artifact"],
            str(document.get("codec", "none")),
            depth,
            total,
            offsets,
            sizes[layer],
            rest,
            whole=whole,
            xor=True,
        )
        for depth, document in enumerate(xoring)
    )
    sources.append(
        Source(
            base_doc["params_artifact"], "none", None, total, offsets, sizes[layer],
            rest, whole=whole,
        )
    )
    return sources


#: The columns of a source holding none of a selection's slots.
_NO_SLOTS = (np.empty(0, dtype=np.int64),) * 3


class ChainTable(NamedTuple):
    """A chain's newest-writer-wins outcome, slot by slot.

    Slots are numbered row-major over every model × layer.  A model's
    plan is a gather from its row (:meth:`row`), so newest-writer-wins
    runs once per chain, not once per selection.
    """

    #: The chain's descriptors, newest first, base last: the table holds
    #: only while a walk returns these very objects.
    documents: tuple
    #: ``(artifact, codec, depth, total, xor)`` of each of the whole
    #: set's sources (:func:`_chain_sources`), in plan order.
    heads: "list[tuple]"
    #: Per slot, the index in ``heads`` of the replace delta or snapshot
    #: holding its final bytes ...
    holder: np.ndarray
    #: ... and the slot's byte offset in that source's artifact.
    offset: np.ndarray

    @classmethod
    def of(cls, documents: tuple, sources: "list[Source]") -> "ChainTable":
        """Scatter the whole set's sources into per-slot columns."""
        num_slots = sum(len(source.slots) for source in sources if not source.xor)
        holder = np.empty(num_slots, dtype=np.int32)
        offset = np.empty(num_slots, dtype=np.int64)
        for index, source in enumerate(sources):
            if not source.xor:
                holder[source.slots] = index
                offset[source.slots] = source.offsets
        heads = [
            (source.artifact, source.codec, source.depth, source.total, source.xor)
            for source in sources
        ]
        return cls(documents, heads, holder, offset)

    def row(self, model: int, sizes: np.ndarray) -> "list[Source]":
        """Model ``model``'s sources, its slots numbered by layer: each
        source's slots grouped, then sorted by offset.  Every source of
        the chain is kept, empty or not, and an XOR source covers the
        model's whole row, as the snapshot holds it."""
        num_layers = len(sizes)
        span = slice(model * num_layers, (model + 1) * num_layers)
        holder, offset = self.holder[span], self.offset[span]
        layers = np.lexsort((offset, holder))
        cuts = np.searchsorted(holder[layers], np.arange(len(self.heads) + 1)).tolist()
        offsets, nbytes = offset[layers], sizes[layers]
        base = len(self.heads) - 1
        gathered = []
        for index, (artifact, codec, depth, total, xor) in enumerate(self.heads):
            start, stop = cuts[base : base + 2] if xor else cuts[index : index + 2]
            # Most of a deep chain's deltas hold none of one model's slots.
            columns = (
                (offsets[start:stop], nbytes[start:stop], layers[start:stop])
                if start < stop else _NO_SLOTS
            )
            gathered.append(Source(artifact, codec, depth, total, *columns, xor=xor))
        return gathered


class ChainMemo:
    """Where a chain head's held descriptor keeps its :class:`ChainTable`
    (:meth:`FrozenDict.derive`); ``table`` is ``None`` until the first
    single-model resolve."""

    __slots__ = ("table",)

    def __init__(self, _head: dict) -> None:
        self.table: "ChainTable | None" = None


def chain_table(documents: tuple, build: "Callable[[], list[Source]]") -> ChainTable:
    """The table of the chain ``documents`` (newest first, base last).

    Built from ``build()`` — the whole set's sources — once per chain
    head, and kept on the head's held descriptor.  It is rebuilt when
    the walk returns any other object for any set of the chain (a
    compaction, migration or replace made a new one), and on every call
    over plain (thawed) descriptors.
    """
    if not all(isinstance(document, FrozenDict) for document in documents):
        return ChainTable.of(documents, build())
    memo = documents[0].derive(ChainMemo)
    table = memo.table
    if (
        table is None
        or len(table.documents) != len(documents)
        or not all(map(is_, table.documents, documents))
    ):
        table = memo.table = ChainTable.of(documents, build())
    return table


def resolve_chain(
    base_doc: dict,
    deltas: "list[dict]",
    set_id: str,
    model_index: "int | None" = None,
    hash_doc: "dict | None" = None,
) -> RecoveryPlan:
    """Plan an artifact-stored set: newest writer wins every slot.

    ``deltas`` are the chain's delta descriptors newest first (empty for
    a full set); ``hash_doc`` is the set's hash-info document when the
    caller wants slots keyed by content.  The whole set is planned by one
    newest-writer-wins pass; one model is a gather from that pass's
    :class:`ChainTable`, kept per chain, so a single-model plan stays one
    row wide.  A delta with no diff list (pas-delta) claims no slot: it
    becomes an XOR source over every selected slot, at the slot's offset
    in the whole set.
    """
    top = deltas[0] if deltas else base_doc
    schema = schema_of(top)
    num_models = int(top["num_models"])
    if deltas and schema_of(base_doc) != schema:
        raise RecoveryError("delta schema does not match the base set's schema")
    if int(base_doc["num_models"]) != num_models:
        raise RecoveryError(
            f"chain base has {base_doc['num_models']} models, "
            f"set {set_id!r} has {num_models}"
        )
    xor = bool(deltas) and "diff" not in deltas[0]
    if any(("diff" in document) == xor for document in deltas):
        raise RecoveryError(f"set {set_id!r}: chain mixes XOR and replace deltas")
    replacing, xoring = ([], deltas) if xor else (deltas, [])
    models = _select(num_models, model_index, set_id)
    dtype = str(base_doc.get("param_dtype", "float32"))
    sizes = np.asarray(layer_nbytes(schema, np.dtype(dtype).itemsize), dtype=np.int64)

    def whole_set() -> "list[Source]":
        return _chain_sources(base_doc, replacing, xoring, sizes, num_models)

    if model_index is None:
        sources = whole_set()
    else:
        sources = chain_table((*deltas, base_doc), whole_set).row(model_index, sizes)
    columns = None
    if hash_doc is not None:
        columns = digest_ids(hash_doc, models, num_models, len(sizes))
    return RecoveryPlan(
        str(base_doc["architecture"]),
        schema,
        dtype,
        models,
        sources,
        *(columns or ()),
    )


def is_chunked(context: SaveContext, set_id: str) -> bool:
    """Uncharged descriptor peek, for storage-format dispatch only."""
    peek = context.document_store.peek(SETS_COLLECTION, set_id)
    return peek is not None and peek.get("storage") == "chunked"


def resolve(
    approach: "SaveApproach",
    set_id: str,
    model_index: "int | None" = None,
    hash_info: bool = False,
    chunked: "bool | None" = None,
) -> RecoveryPlan:
    """Plan the recovery of ``set_id`` (or one model of it).

    Reads metadata only: the descriptor (chunked sets recover without
    walking the chain at all) or the chain's descriptors, plus — for a
    chunked set, or when ``hash_info`` asks for content keys — the
    hash-info document.  A missing or mis-shaped hash-info document
    leaves the plan keyed by slot.  ``chunked`` is the set's storage
    kind when the caller has already peeked it (:func:`is_chunked`).
    """
    context = approach.context
    if chunked is None:
        chunked = is_chunked(context, set_id)
    if chunked:
        document = context.set_document(set_id)
        approach._require_type(document, approach.name, set_id)
        return resolve_chunked(context, document, set_id, model_index)
    hash_doc = None
    if hash_info:
        try:
            hash_doc = context.document_store.get(HASH_COLLECTION, set_id)
        except DocumentNotFoundError:
            pass
    base_doc, _base_id, deltas = chain_documents(approach, set_id)
    return resolve_chain(base_doc, deltas, set_id, model_index, hash_doc)


# -- fetch ------------------------------------------------------------------
def _check_length(artifact: str, actual: int, expected: int) -> None:
    if actual != expected:
        raise RecoveryError(
            f"artifact {artifact!r} has {actual} bytes, "
            f"its descriptor implies {expected}"
        )


def _fetch_source(
    file_store, source: Source, wanted: "np.ndarray | None", workers: int,
    keys: Sequence, values: dict,
) -> None:
    """Read one source's wanted segments into ``values``.

    Only exactly adjacent segments are merged into one range — no gap is
    ever bridged, so the bytes charged equal the bytes needed.  A replace
    source's segments land under their slots' keys; an XOR source's
    selected rows, in slot order, are XORed into ``values[XOR_ROWS]``.
    """
    offsets, nbytes, slots = source.offsets, source.nbytes, source.slots
    if wanted is not None:
        keep = wanted[slots]
        offsets, nbytes, slots = offsets[keep], nbytes[keep], slots[keep]
    artifact = source.artifact
    ranged = source.codec == "none" and not (
        source.whole and len(slots) == len(source.slots)
    )
    # A delta's length is checked on every read; a snapshot's only when
    # it is read whole — a torn snapshot still serves the ranges it
    # holds, which is what salvage recovers models from.
    if ranged and source.depth is not None:
        _check_length(artifact, file_store.size(artifact), source.total)
    if not len(slots):
        return  # every byte superseded, or every wanted slot already held
    breaks = np.flatnonzero(offsets[1:] != offsets[:-1] + nbytes[:-1]) + 1
    starts = [0, *breaks.tolist(), len(offsets)]
    lengths = np.add.reduceat(nbytes, starts[:-1])
    ranges = list(zip(offsets[starts[:-1]].tolist(), lengths.tolist()))
    with _trace.span(
        "store-fetch" if source.depth is None else "delta-fetch",
        key=source.depth,
        kind="store-read",
        artifact=artifact,
    ):
        if ranged:
            blobs = file_store.get_ranges(artifact, ranges, workers=workers)
        else:
            # Range addressing into a compressed blob is impossible, and
            # a whole snapshot is one striped download.
            blob = get_codec(source.codec).decode(
                file_store.get(artifact, workers=workers)
            )
            _check_length(artifact, len(blob), source.total)
            view = memoryview(blob)
            blobs = [view[start : start + length] for start, length in ranges]
    if source.xor:
        # One running XOR, so a deep chain holds one set of delta rows,
        # not one per delta.
        rows = np.concatenate([np.frombuffer(blob, dtype=np.uint8) for blob in blobs])
        if XOR_ROWS in values:
            values[XOR_ROWS] ^= rows
        else:
            values[XOR_ROWS] = rows
        return
    offsets, nbytes, slots = offsets.tolist(), nbytes.tolist(), slots.tolist()
    for index, (blob, (start, _length)) in enumerate(zip(blobs, ranges)):
        view = memoryview(blob)
        for segment in range(starts[index], starts[index + 1]):
            relative = offsets[segment] - start
            values[keys[slots[segment]]] = view[relative : relative + nbytes[segment]]


def fetch(
    context: SaveContext, plan: RecoveryPlan, have: "np.ndarray | None" = None
) -> dict:
    """Read from the store every slot the caller does not hold.

    ``have`` masks :attr:`RecoveryPlan.unique`: the digest ids whose
    bytes the caller holds.  Returns ``key -> bytes`` for what was read.
    One ``get`` / ``get_ranges`` per contributing artifact, or one
    :meth:`ChunkStore.fetch` of the unique missing digest ids.
    """
    if plan.chunked:
        missing = plan.unique if have is None else plan.unique[~have]
        if not len(missing):
            return {}
        with _trace.span("chunk-fetch", kind="store-read", chunks=len(missing)):
            return context.chunk_store().fetch(missing, workers=context.workers)
    keys = plan.keys
    wanted = None
    if have is not None and have.any():
        wanted = ~np.isin(plan.digests, plan.unique[have])
    values: dict = {}
    for source in plan.sources:
        _fetch_source(context.file_store, source, wanted, context.workers, keys, values)
    return values


# -- assemble ---------------------------------------------------------------
def assemble(
    plan: RecoveryPlan, values: dict, rows: "Sequence[int] | None" = None
) -> np.ndarray:
    """Every plan row's (or only ``rows``') parameters, one float32 row each.

    The selected slots' bytes are joined once, in row-major slot order,
    the XOR sources' rows (already XORed together by :func:`fetch`) are
    XORed onto them in one vectorized pass, and the result is read as one
    ``(rows, parameters)`` matrix ordered like ``plan.models`` (or
    ``rows``).
    """
    keys = plan.keys
    num_layers = len(plan.schema.entries)
    if rows is not None:
        keys = [
            keys[slot]
            for row in rows
            for slot in range(row * num_layers, (row + 1) * num_layers)
        ]
    item = np.float16 if plan.dtype == "float16" else np.float32
    shape = (len(keys) // num_layers, plan.schema.num_parameters)
    with _trace.span("decode", kind="decode"):
        joined = bytearray().join(map(values.__getitem__, keys))
        if len(joined) != shape[0] * shape[1] * np.dtype(item).itemsize:
            raise RecoveryError(
                f"fetched {len(joined)} parameter bytes for {shape[0]} models "
                f"of {shape[1]} parameters"
            )
        if XOR_ROWS in values:
            delta = values[XOR_ROWS]
            if rows is not None:
                delta = delta.reshape(len(plan.models), -1)[list(rows)].ravel()
            bits = np.frombuffer(joined, dtype=np.uint8)
            bits ^= delta
        # float32 rows stay views of the joined buffer; half precision widens.
        return np.frombuffer(joined, dtype=item).reshape(shape).astype(
            np.float32, copy=False
        )


def execute(context: SaveContext, plan: RecoveryPlan) -> ModelSet:
    """The uncached read: fetch every slot, assemble every row (read-only,
    like every recovered row: :mod:`repro.core.model_set`)."""
    return ModelSet.from_rows(
        plan.architecture, plan.schema, read_only(assemble(plan, fetch(context, plan)))
    )
