"""Trace-export JSON schema and a dependency-free validator.

``tests/observability/test_exporters.py`` asserts that a traced run's
exported document validates against the checked-in copy of
:data:`TRACE_SCHEMA` (``benchmarks/trace_schema.json``).  The validator implements the subset
of JSON Schema the trace schema uses — ``type``, ``properties``,
``required``, ``items``, ``enum``, ``minimum``, ``additionalProperties``
and ``$ref`` into ``$defs`` — so checking a trace needs no JSON Schema
package: the repo depends on numpy only (``pyproject.toml``).

Run as a module to validate a file::

    python -m repro.observability.schema trace.json benchmarks/trace_schema.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_SPAN_SCHEMA = {
    "type": "object",
    "required": [
        "id",
        "name",
        "identity",
        "kind",
        "wall_s",
        "simulated_s",
        "simulated_total_s",
        "children",
    ],
    "properties": {
        "id": {"type": "string"},
        "name": {"type": "string"},
        "identity": {"type": "string"},
        "kind": {"type": ["string", "null"]},
        "key": {"type": ["integer", "string"]},
        "wall_s": {"type": "number", "minimum": 0},
        "simulated_s": {"type": "number", "minimum": 0},
        "simulated_total_s": {"type": "number", "minimum": 0},
        "attrs": {"type": "object"},
        "simulated_by_kind": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "op_counts": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name"],
                "properties": {"name": {"type": "string"}},
            },
        },
        "children": {"type": "array", "items": {"$ref": "#/$defs/span"}},
    },
    "additionalProperties": False,
}

#: Schema of the documents produced by
#: :func:`repro.observability.export.trace_document`.
TRACE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro trace export",
    "type": "object",
    "required": ["version", "traces"],
    "properties": {
        "version": {"type": "integer", "enum": [1]},
        "meta": {"type": "object"},
        "traces": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["root", "phases", "total_simulated_s"],
                "properties": {
                    "root": {"$ref": "#/$defs/span"},
                    "phases": {
                        "type": "object",
                        "additionalProperties": {"type": "number"},
                    },
                    "total_simulated_s": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
    "$defs": {"span": _SPAN_SCHEMA},
}

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def _resolve_ref(ref: str, root_schema: dict) -> dict:
    node: dict = root_schema
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def validate(instance, schema: dict, root_schema: dict | None = None, path: str = "$") -> list[str]:
    """Validate ``instance`` against ``schema``; returns error strings."""
    root_schema = root_schema if root_schema is not None else schema
    if "$ref" in schema:
        schema = _resolve_ref(schema["$ref"], root_schema)
    errors: list[str] = []

    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[name](instance) for name in allowed):
            return [f"{path}: expected type {expected}, got {type(instance).__name__}"]

    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errors.append(f"{path}: {instance} < minimum {schema['minimum']}")

    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for name, value in instance.items():
            if name in properties:
                errors.extend(
                    validate(value, properties[name], root_schema, f"{path}.{name}")
                )
            elif isinstance(additional, dict):
                errors.extend(
                    validate(value, additional, root_schema, f"{path}.{name}")
                )
            elif additional is False:
                errors.append(f"{path}: unexpected property {name!r}")

    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(
                validate(item, schema["items"], root_schema, f"{path}[{index}]")
            )

    return errors


def validate_trace_document(document: dict, schema: dict | None = None) -> list[str]:
    """Errors of a trace export against the (given or built-in) schema."""
    return validate(document, schema or TRACE_SCHEMA)


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or len(argv) > 2:
        print(
            "usage: python -m repro.observability.schema TRACE_JSON [SCHEMA_JSON]",
            file=sys.stderr,
        )
        return 2
    document = json.loads(Path(argv[0]).read_text())
    schema = json.loads(Path(argv[1]).read_text()) if len(argv) == 2 else None
    errors = validate_trace_document(document, schema)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    print(f"{argv[0]}: valid ({len(document.get('traces', []))} trace(s))")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    raise SystemExit(main())
