"""The :class:`ModelSet` abstraction.

A model set is the unit of multi-model management: *n* models sharing one
architecture (and therefore one parameter schema) but holding different
parameter values.  The set stores parameter dictionaries, not live
modules — materializing executable models is an explicit, separate step
(:meth:`ModelSet.build_model`), mirroring how recovery works in MMlib.

Each model is one of two things: a contiguous float32 *row* laid out by
the schema — what recovery, :meth:`ModelSet.copy` and the serving cache
produce — or the caller's own state dict, kept as handed in.
:meth:`ModelSet.state` returns a row as a
:class:`~repro.nn.serialization.ModelState` of views into it, built on
first access and kept.

A committed ``MultiModelManager.save_set`` freezes the set's rows: each
row-backed model becomes a private read-only copy (``writeable=False``),
so writing into a saved set raises ``ValueError``, a state or view taken
before the save is detached from the set, and :meth:`ModelSet.copy` is
the writable copy.  ``states[i] = ...`` still replaces a model, and a
caller's own dict is never frozen.  The engine remembers the frozen rows
(:class:`SavedRows`) while the set holds them, which lets a later derived
save prove a model unchanged by identity (DESIGN.md §9).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from typing import Iterator

import numpy as np

from repro.architectures.registry import get_architecture
from repro.errors import ArchitectureMismatchError
from repro.nn import Module
from repro.nn.serialization import ModelState, StateSchema, state_row
from repro.training.seeds import derive_seed


#: What :class:`SavedRows` holds for a caller's dict: no row is it.
_NO_ROW = object()


class SavedRows:
    """The rows one committed save froze, one per model; a caller's dict
    is a marker that no row is.  The saved set owns it, so an engine that
    maps a set id to it weakly forgets the save when the set is collected
    or saved again."""

    __slots__ = ("rows", "__weakref__")

    def __init__(self, rows: tuple) -> None:
        self.rows = rows


class ModelSet:
    """An ordered collection of same-architecture parameter dictionaries.

    Parameters
    ----------
    architecture:
        Registered architecture name (e.g. ``"FFNN-48"``).
    states:
        One parameter dictionary per model; all must share the same
        layer names and shapes.  Each dictionary is kept itself, not
        copied — except a :class:`ModelState` of a row-backed set, whose
        row is shared.
    """

    #: The rows the newest committed save froze (see :meth:`freeze`).
    _saved: "SavedRows | None" = None

    def __init__(
        self,
        architecture: str,
        states: "list[OrderedDict[str, np.ndarray]]",
    ) -> None:
        if not states:
            raise ValueError("a model set must contain at least one model")
        self.architecture = architecture
        first = states[0]
        self.schema = (
            first.schema
            if isinstance(first, ModelState)
            else StateSchema.from_state_dict(first)
        )
        self._models = [self._adopt(state) for state in states]
        for index, model in enumerate(self._models):
            if _row(model) is None:
                self._check(model, index)

    @classmethod
    def from_rows(
        cls, architecture: str, schema: StateSchema, rows
    ) -> "ModelSet":
        """A set over float32 rows laid out by ``schema`` (not validated:
        the rows' producer owns the layout)."""
        model_set = cls.__new__(cls)
        model_set.architecture, model_set.schema = architecture, schema
        model_set._models = list(rows)
        return model_set

    def _adopt(self, state) -> "OrderedDict[str, np.ndarray]":
        """What the set stores for a handed-in state: the state itself (a
        same-schema :class:`ModelState` shares its row), except that a
        :class:`ModelState` of another schema is kept as a plain dict of
        its views, for the schema check to refuse."""
        if isinstance(state, ModelState) and state.schema != self.schema:
            return OrderedDict(state)
        return state

    def _check(self, state, index: int) -> None:
        entries = tuple((name, tuple(arr.shape)) for name, arr in state.items())
        if entries != self.schema.entries:
            raise ArchitectureMismatchError(
                f"model {index} does not match the set schema"
            )

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls, architecture: str, num_models: int, seed: int = 0
    ) -> "ModelSet":
        """Build a fresh set of ``num_models`` independently initialized models.

        Each model gets its own derived seed, so models are distinct but
        the whole set is reproducible from (architecture, num_models, seed).
        """
        if num_models <= 0:
            raise ValueError(f"num_models must be positive, got {num_models}")
        spec = get_architecture(architecture)
        states = []
        for index in range(num_models):
            rng = np.random.default_rng(derive_seed("model-init", seed, index))
            states.append(spec.build(rng=rng).state_dict())
        return cls(architecture, states)

    @classmethod
    def from_modules(cls, architecture: str, modules: "list[Module]") -> "ModelSet":
        """Snapshot live modules into a set."""
        return cls(architecture, [module.state_dict() for module in modules])

    # -- access ------------------------------------------------------------
    @property
    def states(self) -> "_States":
        """The models as a sequence of state dicts; ``states[i] = state``
        replaces model ``i`` (kept as handed in, like the constructor)."""
        return _States(self)

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator["OrderedDict[str, np.ndarray]"]:
        return map(self.state, range(len(self._models)))

    def state(self, index: int) -> "OrderedDict[str, np.ndarray]":
        """Model ``index``'s state dict: the one handed in, or a
        :class:`ModelState` whose views write through to the row."""
        model = self._models[index]
        if isinstance(model, np.ndarray):
            model = self._models[index] = ModelState(self.schema, model)
        return model

    def build_model(self, index: int) -> Module:
        """Materialize model ``index`` as an executable module."""
        spec = get_architecture(self.architecture)
        model = spec.build(rng=np.random.default_rng(0))
        model.load_state_dict(self.state(index))
        model.eval()
        return model

    @property
    def num_parameters_per_model(self) -> int:
        return self.schema.num_parameters

    @property
    def parameter_bytes(self) -> int:
        """Raw float32 payload of the whole set."""
        return len(self) * self.schema.num_bytes

    # -- comparison ----------------------------------------------------------
    def equals(self, other: "ModelSet", atol: float = 0.0) -> bool:
        """Whether two sets hold identical parameters (bit-exact by default).

        Per layer, values compare like ``np.array_equal`` (NaN never
        equals) or, with ``atol``, ``np.allclose``; two rows compare in
        one call, with the same outcome.
        """
        if (
            self.architecture != other.architecture
            or len(self) != len(other)
            or self.schema != other.schema
        ):
            return False

        def same(mine, theirs) -> bool:
            if atol == 0.0:
                return np.array_equal(mine, theirs)
            return np.allclose(mine, theirs, atol=atol)

        for index, (mine, theirs) in enumerate(zip(self._models, other._models)):
            mine, theirs = _row(mine), _row(theirs)
            if mine is not None and theirs is not None:
                if not same(mine, theirs):
                    return False
                continue
            mine, theirs = self.state(index), other.state(index)
            if not all(same(mine[name], theirs[name]) for name in mine):
                return False
        return True

    def copy(self) -> "ModelSet":
        """Deep copy: every model gets a private row of its own."""
        return ModelSet.from_rows(
            self.architecture, self.schema, map(self._private_row, range(len(self)))
        )

    def copy_state(self, index: int) -> ModelState:
        """Model ``index`` as a :class:`ModelState` over a private row."""
        return ModelState(self.schema, self._private_row(index))

    def rows(self) -> "tuple[np.ndarray | None, ...]":
        """Each model's row itself (``None`` for a caller's dict)."""
        return tuple(map(_row, self._models))

    def freeze(self, copied: "Iterable[int] | None" = None) -> SavedRows:
        """Make each row-backed model of ``copied`` (default: every model)
        a read-only private copy of its row, and return the rows the set
        then holds.  A committed save calls it with the models whose row
        is not one an earlier save froze; a view handed out before stays
        writable but no longer reaches the set."""
        models = self._models
        for index in range(len(models)) if copied is None else copied:
            row = _row(models[index])
            if row is not None:
                frozen = row.copy()
                frozen.flags.writeable = False
                models[index] = frozen
        self._saved = SavedRows(tuple(_NO_ROW if row is None else row for row in self.rows()))
        return self._saved

    def _private_row(self, index: int) -> np.ndarray:
        model = self._models[index]
        row = _row(model)
        if row is not None:
            return row.copy()
        self._check(model, index)
        return state_row(model)


def _row(model) -> "np.ndarray | None":
    """A stored model's row (``None`` for a caller's dict)."""
    if isinstance(model, np.ndarray):
        return model
    if isinstance(model, ModelState):
        return model.row
    return None


class _States(Sequence):
    """:attr:`ModelSet.states`: the set's models as state dicts."""

    __slots__ = ("_owner",)

    def __init__(self, owner: ModelSet) -> None:
        self._owner = owner

    def __len__(self) -> int:
        return len(self._owner)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._owner.state(i) for i in range(len(self))[index]]
        return self._owner.state(index)

    def __setitem__(self, index: int, state) -> None:
        owner = self._owner
        owner._models[index] = owner._adopt(state)

    def __iter__(self):
        return iter(self._owner)
