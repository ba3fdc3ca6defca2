"""Span recorder that wraps the program's public functions from outside.

:func:`install` replaces each function named in :data:`layers.WRAPS` by a
wrapper that records one span (name, start, end, parent, op id) on an
in-memory stack while a timed operation is running; :func:`uninstall`
puts the originals back.  The program is single-threaded in every
workload (``workers=1``, inline ingest flush), so one stack suffices —
a span opened on another thread would break the parent links, and
:meth:`Tracer.aggregate` reports that as attribution error.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from benchmarks.wallclock.layers import WRAPS, Wrap

#: Spans written to a trace file before it is truncated (parents always
#: precede their children, so any prefix keeps its parent links).
TRACE_FILE_SPAN_CAP = 200_000


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        #: ``[wrap index, start, end, parent span index, op id]`` per span.
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: Id of the timed operation in flight; ``-1`` between operations,
        #: where the wrappers record nothing.
        self.op = -1
        #: Probe counts of the operation in flight (the recorder folds
        #: them under the operation's kind once it is known).
        self.op_counts: dict[str, float] = {}

    def aggregate(self, op_kinds: "list[str]", op_slowdowns: "list[float]"):
        """Per ``(layer, role, op kind)`` self seconds, inclusive seconds
        and call counts, plus the span-covered seconds of every op — all
        at the reference host speed, like the op walls they must sum to."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        covered_s = [0.0] * len(op_kinds)
        for _key, start, end, parent, op in spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                covered_s[op] += (end - start) / op_slowdowns[op]
        self_s: dict[tuple, float] = defaultdict(float)
        total_s: dict[tuple, float] = defaultdict(float)
        calls: dict[tuple, int] = defaultdict(int)
        for index, (key, start, end, _parent, op) in enumerate(spans):
            wrap = WRAPS[key]
            bucket = (wrap.layer, wrap.role, op_kinds[op])
            self_s[bucket] += ((end - start) - child_s[index]) / op_slowdowns[op]
            total_s[bucket] += (end - start) / op_slowdowns[op]
            calls[bucket] += 1
        return self_s, total_s, calls, covered_s

    def write(self, path: Path, workload: str, ops: "list[tuple]") -> None:
        """Dump the spans (column form, times from the first span's start)
        next to the ``(kind, wall)`` list of the ops they belong to."""
        spans = self.spans[:TRACE_FILE_SPAN_CAP]
        origin = spans[0][1] if spans else 0.0
        document = {
            "workload": workload,
            "names": [f"{wrap.layer}:{wrap.role}:{wrap.target}" for wrap in WRAPS],
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [key, round(start - origin, 7), round(end - origin, 7), parent, op]
                for key, start, end, parent, op in spans
            ],
            "spans_total": len(self.spans),
            "truncated": len(self.spans) > len(spans),
            "ops": [[kind, round(wall, 7)] for kind, wall in ops],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")))


def _span_wrapper(tracer: Tracer, fn, key: int, probe):
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter

    def wrapper(*args, **kwargs):
        if tracer.op < 0:
            return fn(*args, **kwargs)
        record = [key, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
        stack.append(len(spans))
        spans.append(record)
        record[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = clock()
            stack.pop()
        if probe is not None:
            probe(tracer.op_counts, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(tracer: Tracer, fn, probe):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.op >= 0:
            probe(tracer.op_counts, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrapper_for(tracer: Tracer, wrap: Wrap, key: int, fn):
    if wrap.span:
        return _span_wrapper(tracer, fn, key, wrap.probe)
    return _count_wrapper(tracer, fn, wrap.probe)


def install(tracer: Tracer) -> "list[tuple]":
    """Wrap every :data:`WRAPS` target; returns the undo list.

    Class attributes are replaced on the named class (an inherited
    method gets an override there; a property gets its getter wrapped).
    A module-level function is imported by name all over ``repro``, so
    every ``repro.*`` module global that *is* the original is rebound —
    except, for ``rebind_home=False`` rows, the defining module itself,
    which keeps hot inner loops (``hash_states`` → ``hash_array``) at
    one span per outer call.
    """
    import repro  # noqa: F401 - populates sys.modules with every layer

    undo: list[tuple] = []
    for key, wrap in enumerate(WRAPS):
        module_name, _, qualname = wrap.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            if isinstance(original, property):
                wrapped = property(
                    _wrapper_for(tracer, wrap, key, original.fget),
                    original.fset,
                    original.fdel,
                )
            else:
                wrapped = _wrapper_for(tracer, wrap, key, original)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original if own else None))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper_for(tracer, wrap, key, original)
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not name.startswith("repro"):
                continue
            if candidate is module and not wrap.rebind_home:
                continue
            for global_name, value in list(vars(candidate).items()):
                if value is original:
                    setattr(candidate, global_name, wrapped)
                    undo.append((candidate, global_name, original))
    return undo


def uninstall(undo: "list[tuple]") -> None:
    for owner, attr, original in reversed(undo):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
