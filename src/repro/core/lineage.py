"""Lineage and analytics over an archive of model sets.

The paper's scenario archives "every model ever generated for analytical
and archival purposes" (§1).  This module provides the analytical side:

* :class:`LineageGraph` — the derivation DAG of all saved sets (one
  pass over the descriptor documents, no parameter I/O), with
  ancestor/descendant queries, chain statistics and chain heads,
* :func:`diff_sets` — which models and layers differ between two
  recovered sets, with change magnitudes, and
* :func:`model_history` — one model's parameter trajectory across a
  sequence of sets (drift analysis, e.g. tracking a battery cell's model
  across update cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.approach import SETS_COLLECTION, SaveContext, id_order
from repro.core.model_set import ModelSet
from repro.core.recovery import walk_chain
from repro.errors import DocumentNotFoundError, ReproError


class LineageGraph:
    """Derivation DAG over the sets stored in one context.

    One pass over the descriptor documents, peeked through the
    management plane (uncharged, no parameter I/O), into plain dicts: an
    edge ``base -> derived`` for every derived save whose base is held.
    A recorded base whose document is gone (a GC'd ancestor of a chunked
    set) is provenance only, so no query lists a deleted set.
    """

    def __init__(self, documents: "dict[str, dict]") -> None:
        # A snapshot: later saves do not change this graph.
        self._documents = dict(documents)
        self._base: dict[str, str] = {}
        self._derived: dict[str, list[str]] = {set_id: [] for set_id in self._documents}
        for set_id, document in self._documents.items():
            base = document.get("base_set")
            if base in self._documents:
                self._base[set_id] = base
                self._derived[base].append(set_id)

    @classmethod
    def from_context(cls, context: SaveContext) -> "LineageGraph":
        return cls(context.document_store.peek_collection(SETS_COLLECTION))

    # -- structure ------------------------------------------------------------
    def __contains__(self, set_id: str) -> bool:
        return set_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def _require(self, set_id: str) -> None:
        if set_id not in self._documents:
            raise DocumentNotFoundError(f"unknown set {set_id!r}")

    def roots(self) -> list[str]:
        """Sets with no base (initial saves and compacted snapshots)."""
        return sorted(set_id for set_id in self._documents if set_id not in self._base)

    def leaves(self) -> list[str]:
        """Sets nothing derives from (typically the latest generation)."""
        return sorted(set_id for set_id, derived in self._derived.items() if not derived)

    def base_of(self, set_id: str) -> str | None:
        """Immediate base set, or None for initial saves."""
        self._require(set_id)
        return self._base.get(set_id)

    def ancestors(self, set_id: str) -> list[str]:
        """All transitive bases, nearest first."""
        self._require(set_id)
        chain = []
        current = self._base.get(set_id)
        while current is not None:
            chain.append(current)
            current = self._base.get(current)
        return chain

    def descendants(self, set_id: str) -> list[str]:
        """All sets transitively derived from ``set_id``, sorted."""
        self._require(set_id)
        return sorted(reachable(self._derived, set_id))

    def recovery_chain(self, set_id: str) -> list[str]:
        """Sets a recursive recovery of ``set_id`` must touch, in the
        order they are applied (full snapshot first): the ids of the walk
        recovery itself reads (:func:`~repro.core.recovery.walk_chain`),
        which a full snapshot or a chunked set ends."""
        self._require(set_id)
        return [current for current, _document in reversed(walk_chain(self._held, set_id))]

    def _held(self, set_id: "str | None") -> dict:
        if set_id not in self._documents:
            raise ReproError(f"set {set_id!r} is a recorded base but is not held")
        return self._documents[set_id]

    def chain_depth(self, set_id: str) -> int:
        """Number of derived hops a recovery replays (0 for full sets)."""
        return len(self.recovery_chain(set_id)) - 1

    def node_info(self, set_id: str) -> dict:
        """One set's descriptor summary: approach, kind, storage, models."""
        self._require(set_id)
        document = self._documents[set_id]
        return {
            "approach": document.get("type"),
            "kind": document.get("kind", "full"),
            "storage": document.get("storage", "plain"),
            "num_models": document.get("num_models"),
        }

    @cached_property
    def _links(self) -> "dict[str, list[str]]":
        """Derived-from links, by the id each set names (held or not): its
        ``base_set``, or a compacted snapshot's ``compacted_from``."""
        links: dict[str, list[str]] = {}
        for set_id, document in self._documents.items():
            origin = document.get("base_set") or document.get("compacted_from")
            if origin is not None:
                links.setdefault(origin, []).append(set_id)
        return links

    def head_of(self, set_id: str) -> "str | None":
        """The newest set, by id counter, reachable from ``set_id`` along
        derived-from links (``set_id`` itself when held): the head a save
        that meant to extend ``set_id`` extends now.  ``None`` when
        neither ``set_id`` nor anything derived from it is held."""
        reached = reachable(self._links, set_id) | ({set_id} & self._documents.keys())
        return max(reached, key=id_order, default=None)


def reachable(edges: "dict[str, list[str]]", start: str) -> "set[str]":
    """Every id reachable from ``start`` along ``edges``, a map from an id
    to the ids derived from it (``start`` itself excluded)."""
    reached: set[str] = set()
    frontier = list(edges.get(start, ()))
    while frontier:
        current = frontier.pop()
        if current not in reached:
            reached.add(current)
            frontier.extend(edges.get(current, ()))
    return reached


@dataclass(frozen=True)
class ModelDiff:
    """Difference of one model between two sets."""

    model_index: int
    changed_layers: tuple[str, ...]
    max_abs_change: float
    l2_change: float


@dataclass(frozen=True)
class SetDiff:
    """Difference report between two same-schema model sets."""

    num_models: int
    changed_models: tuple[ModelDiff, ...] = field(default=())

    @property
    def num_changed(self) -> int:
        return len(self.changed_models)

    @property
    def changed_indices(self) -> list[int]:
        return [diff.model_index for diff in self.changed_models]


def diff_sets(before: ModelSet, after: ModelSet) -> SetDiff:
    """Compare two sets model-by-model and layer-by-layer."""
    if before.schema != after.schema or len(before) != len(after):
        raise ReproError("sets differ in schema or size; cannot diff")
    changed: list[ModelDiff] = []
    for index in range(len(before)):
        state_a, state_b = before.state(index), after.state(index)
        layers = []
        max_abs = 0.0
        l2_sq = 0.0
        for name in state_a:
            if np.array_equal(state_a[name], state_b[name]):
                continue
            layers.append(name)
            delta = state_b[name].astype(np.float64) - state_a[name]
            max_abs = max(max_abs, float(np.abs(delta).max()))
            l2_sq += float(np.sum(delta**2))
        if layers:
            changed.append(
                ModelDiff(
                    model_index=index,
                    changed_layers=tuple(layers),
                    max_abs_change=max_abs,
                    l2_change=l2_sq**0.5,
                )
            )
    return SetDiff(num_models=len(before), changed_models=tuple(changed))


@dataclass(frozen=True)
class ModelHistory:
    """One model's trajectory across a sequence of sets."""

    model_index: int
    set_ids: tuple[str, ...]
    #: L2 distance of the model's parameters between consecutive sets.
    step_l2: tuple[float, ...]
    #: Cumulative L2 distance from the first set.
    drift_from_start: tuple[float, ...]

    @property
    def total_drift(self) -> float:
        return self.drift_from_start[-1] if self.drift_from_start else 0.0


def model_history(manager, set_ids: list[str], model_index: int) -> ModelHistory:
    """Track one model across ``set_ids`` using single-model recovery.

    ``manager`` is a :class:`~repro.core.manager.MultiModelManager`; only
    the target model is recovered from each set, so the cost is
    independent of the set size for range-read approaches.  The per-set
    recoveries are independent and run on the shards' worker lanes.
    """
    from repro.core.parallel import parallel_map

    if not set_ids:
        raise ValueError("set_ids must be non-empty")
    states = parallel_map(
        lambda set_id: manager.recover_model(set_id, model_index),
        set_ids,
        manager.shards[0].context.workers,
    )
    return ModelHistory(
        model_index=model_index,
        set_ids=tuple(set_ids),
        step_l2=tuple(map(_state_l2, states, states[1:])),
        drift_from_start=tuple(_state_l2(states[0], state) for state in states),
    )


def _state_l2(state_a, state_b) -> float:
    total = 0.0
    for name in state_a:
        delta = state_b[name].astype(np.float64) - state_a[name]
        total += float(np.sum(delta**2))
    return total**0.5
