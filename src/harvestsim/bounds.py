"""JSON-schema bounds declared on the settings dataclasses themselves.

Every field of a settings dataclass carries its bound as field metadata,
``field(default=..., metadata=POS)``, so a setting's name, default and bound
sit on one line. :func:`section` turns such a class into the schema object
for its section of a scenario document.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

NUM = {"type": "number"}
POS = {"type": "number", "exclusiveMinimum": 0}
NONNEG = {"type": "number", "minimum": 0}
FRACTION = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
FRACTION_OR_ZERO = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}
PROBABILITY = {"type": "number", "minimum": 0, "maximum": 1}

# The most beacons or packets one node may schedule in one slot.
MAX_EVENTS_PER_NODE_SLOT = 10_000


def int_min(lo: int) -> dict:
    return {"type": "integer", "minimum": lo}


def enum(*values: str) -> dict:
    return {"enum": list(values)}


def section(cls, **extra) -> dict:
    """Closed schema object with one property per field of dataclass ``cls``.

    A field's bound is its metadata; a field whose default is itself a
    dataclass instance is bounded by that class's section. ``extra`` adds
    keywords such as ``required``.
    """
    properties = {
        f.name: section(type(f.default)) if is_dataclass(f.default) else dict(f.metadata)
        for f in fields(cls)
    }
    return {"type": "object", "additionalProperties": False, **extra, "properties": properties}
