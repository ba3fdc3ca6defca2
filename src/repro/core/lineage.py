"""Lineage and analytics over an archive of model sets.

The paper's scenario archives "every model ever generated for analytical
and archival purposes" (§1).  This module provides the analytical side:

* :class:`LineageGraph` — the derivation DAG of all saved sets (built
  from descriptor documents, no parameter I/O), with ancestor/descendant
  queries and chain statistics,
* :func:`diff_sets` — which models and layers differ between two
  recovered sets, with change magnitudes, and
* :func:`model_history` — one model's parameter trajectory across a
  sequence of sets (drift analysis, e.g. tracking a battery cell's model
  across update cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.model_set import ModelSet
from repro.errors import DocumentNotFoundError, ReproError


class LineageGraph:
    """Derivation DAG over the sets stored in one context.

    Nodes are set ids annotated with their descriptor's type/kind; an
    edge ``base -> derived`` exists for every derived save.  Construction
    reads only descriptor documents via the management plane (uncharged),
    so building the graph over thousands of sets is cheap.
    """

    def __init__(self, graph: nx.DiGraph) -> None:
        self._graph = graph

    @classmethod
    def from_context(cls, context: SaveContext) -> "LineageGraph":
        graph = nx.DiGraph()
        documents = context.document_store.peek_collection(SETS_COLLECTION)
        for set_id, document in sorted(documents.items()):
            graph.add_node(
                set_id,
                approach=document.get("type"),
                kind=document.get("kind", "full"),
                storage=document.get("storage", "plain"),
                num_models=document.get("num_models"),
            )
            base = document.get("base_set")
            if base is not None and base in documents:
                # A recorded base whose document is gone (a GC'd ancestor
                # of a chunked set) is provenance only — materialising it
                # as a node would list deleted sets in roots()/ancestors().
                graph.add_edge(base, set_id)
        return cls(graph)

    # -- structure ------------------------------------------------------------
    def __contains__(self, set_id: str) -> bool:
        return set_id in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def _require(self, set_id: str) -> None:
        if set_id not in self._graph:
            raise DocumentNotFoundError(f"unknown set {set_id!r}")

    def roots(self) -> list[str]:
        """Sets with no base (initial saves and compacted snapshots)."""
        return sorted(n for n in self._graph if self._graph.in_degree(n) == 0)

    def leaves(self) -> list[str]:
        """Sets nothing derives from (typically the latest generation)."""
        return sorted(n for n in self._graph if self._graph.out_degree(n) == 0)

    def base_of(self, set_id: str) -> str | None:
        """Immediate base set, or None for initial saves."""
        self._require(set_id)
        predecessors = list(self._graph.predecessors(set_id))
        return predecessors[0] if predecessors else None

    def ancestors(self, set_id: str) -> list[str]:
        """All transitive bases, nearest first."""
        self._require(set_id)
        chain = []
        current = self.base_of(set_id)
        while current is not None:
            chain.append(current)
            current = self.base_of(current)
        return chain

    def descendants(self, set_id: str) -> list[str]:
        """All sets transitively derived from ``set_id``, sorted."""
        self._require(set_id)
        return sorted(nx.descendants(self._graph, set_id))

    def recovery_chain(self, set_id: str) -> list[str]:
        """Sets a recursive recovery of ``set_id`` must touch, in the
        order they are applied (full snapshot first).

        Full snapshots cut the chain: Baseline/MMlib-base sets are their
        own chain, and an Update set saved with a snapshot interval stops
        at the nearest ``kind == "full"`` ancestor.  Chunked sets cut it
        too — their digest matrix recovers in one hop, with the chunk
        layer's refcounts (not chain ancestry) keeping shared bytes alive.
        """
        self._require(set_id)
        chain = [set_id]
        current = set_id

        def _chained(node: dict) -> bool:
            return (
                node.get("kind", "full") != "full"
                and node.get("storage", "plain") != "chunked"
            )

        while _chained(self._graph.nodes[current]):
            base = self.base_of(current)
            if base is None:
                raise ReproError(
                    f"set {current!r} is derived but has no base recorded"
                )
            chain.append(base)
            current = base
        return list(reversed(chain))

    def chain_depth(self, set_id: str) -> int:
        """Number of derived hops a recovery replays (0 for full sets)."""
        return len(self.recovery_chain(set_id)) - 1

    def node_info(self, set_id: str) -> dict:
        """The graph's annotation for one set."""
        self._require(set_id)
        return dict(self._graph.nodes[set_id])

    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying graph for custom analyses."""
        return self._graph.copy()


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
    recoveries are independent and run on the context's worker lanes.
    """
    from repro.core.parallel import parallel_map

    if not set_ids:
        raise ValueError("set_ids must be non-empty")
    states = parallel_map(
        lambda set_id: manager.recover_model(set_id, model_index),
        set_ids,
        manager.context.workers,
    )
    first = states[0]
    step_l2 = []
    drift = []
    for previous, current in zip(states, states[1:]):
        step_l2.append(_state_l2(previous, current))
    for current in states:
        drift.append(_state_l2(first, current))
    return ModelHistory(
        model_index=model_index,
        set_ids=tuple(set_ids),
        step_l2=tuple(step_l2),
        drift_from_start=tuple(drift),
    )


def _state_l2(state_a, state_b) -> float:
    total = 0.0
    for name in state_a:
        delta = state_b[name].astype(np.float64) - state_a[name]
        total += float(np.sum(delta**2))
    return total**0.5
