#!/usr/bin/env python3
"""Validate a JSON document against a JSON Schema subset, stdlib-only.

Usage::

    python scripts/check_schema.py SCHEMA.json DOCUMENT.json

CI uses it to check ``repro metrics --json`` output against
``schemas/metrics.schema.json`` and a ``WorkloadSpec.to_dict`` document
against ``schemas/workload.schema.json`` without adding a jsonschema
dependency.

The supported subset is exactly what the checked-in schemas use:

* ``type`` (a name or a list of names; ``number`` accepts integers);
* ``required`` and ``properties`` on objects;
* ``additionalProperties`` as a schema applied to non-declared keys;
* ``items`` as a schema applied to every array element.

Unknown schema keywords are ignored, as the spec requires.  Exit code 0
means valid; 1 means invalid (every violation is listed); 2 means the
inputs themselves could not be read.
"""

from __future__ import annotations

import json
import sys
from typing import Any, List

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, name: str) -> bool:
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)) or \
            (isinstance(value, float) and value.is_integer())
    return isinstance(value, _TYPES[name])


def validate(value: Any, schema: Any, path: str = "$",
             errors: List[str] | None = None) -> List[str]:
    """All violations of ``schema`` by ``value``, as ``path: message``."""
    if errors is None:
        errors = []
    if not isinstance(schema, dict):
        return errors

    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(value, name) for name in names):
            errors.append(
                f"{path}: expected type {' or '.join(names)}, "
                f"got {type(value).__name__}")
            return errors

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required property {key!r}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                validate(item, properties[key], f"{path}.{key}", errors)
            elif "additionalProperties" in schema:
                validate(item, schema["additionalProperties"],
                         f"{path}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{index}]", errors)

    return errors


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(f"usage: {argv[0]} SCHEMA.json DOCUMENT.json", file=sys.stderr)
        return 2
    checked = argv[2]
    try:
        errors = validate(_load(checked), _load(argv[1]))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error reading inputs: {exc}", file=sys.stderr)
        return 2
    if errors:
        print(f"{checked} does NOT satisfy {argv[1]}:", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"{checked} satisfies {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
