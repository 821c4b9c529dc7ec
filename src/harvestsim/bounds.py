"""JSON-schema bounds declared on the settings dataclasses themselves, and
the one checker that reads them.

Every field of a settings dataclass carries its bound as field metadata,
``field(default=..., metadata=POS)``, so a setting's name, default and bound
sit on one line. :func:`section` turns such a class into the schema object
for its section of a scenario document; a :class:`Bounded` settings class
checks each field against the same bound when it is built.

:class:`Checker` validates a value against such a schema. It implements the
thirteen JSON-schema keywords in :data:`KEYWORDS`, each with jsonschema's
meaning and message, and refuses a schema that uses any other keyword. A
value's JSON type is read from its exact Python type, as YAML and click build
them. One difference from JSON Schema is deliberate: ``integer`` means an
``int``, so ``1.0`` is not an integer here.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from functools import cache

NUM = {"type": "number"}
POS = {"type": "number", "exclusiveMinimum": 0}
NONNEG = {"type": "number", "minimum": 0}
FRACTION = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
FRACTION_OR_ZERO = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}
FRACTION_OR_ONE = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
PROBABILITY = {"type": "number", "minimum": 0, "maximum": 1}
POS_TABLE = {"type": "object", "additionalProperties": POS}

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


# Each JSON type's Python types. ``bool`` is a type of its own, so a bool is
# neither an integer nor a number.
_TYPES = {
    "array": {list},
    "boolean": {bool},
    "integer": {int},
    "null": {type(None)},
    "number": {int, float},
    "object": {dict},
    "string": {str},
}
_NUMBER = _TYPES["number"]


# Each keyword's compiler: ``(argument, schema, where)`` to a check
# ``(value, path, out)`` that appends ``(path, message)`` to ``out`` for each
# violation, in jsonschema's wording, or to None where the keyword constrains
# nothing. ``where`` locates the schema in errors.

def _annotation(argument, schema, where):
    return None


def _type(types, schema, where):
    names = [types] if isinstance(types, str) else list(types)
    if not set(names) <= _TYPES.keys():
        raise ValueError(f"schema at {where}: unknown type in {names}")
    allowed = set().union(*(_TYPES[name] for name in names))
    expected = ", ".join(map(repr, names))

    def check(value, path, out):
        if type(value) not in allowed:
            out.append((path, f"{value!r} is not of type {expected}"))
    return check


def _enum(values, schema, where):
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"schema at {where}: enum members must be strings")

    def check(value, path, out):
        # Members are strings, so plain equality is jsonschema's equality.
        if value not in values:
            out.append((path, f"{value!r} is not one of {values!r}"))
    return check


def _bound(fails, wording):
    """Compiler of a numeric bound that ``fails(value, bound)``; other
    values pass."""
    def compile_bound(bound, schema, where):
        def check(value, path, out):
            if type(value) in _NUMBER and fails(value, bound):
                out.append((path, f"{value!r} is {wording} {bound!r}"))
        return check
    return compile_bound


def _min_items(n, schema, where):
    wording = "should be non-empty" if n == 1 else "is too short"

    def check(value, path, out):
        if isinstance(value, list) and len(value) < n:
            out.append((path, f"{value!r} {wording}"))
    return check


def _max_items(n, schema, where):
    wording = "is expected to be empty" if n == 0 else "is too long"

    def check(value, path, out):
        if isinstance(value, list) and len(value) > n:
            out.append((path, f"{value!r} {wording}"))
    return check


def _items(item_schema, schema, where):
    item = _compile(item_schema, f"{where}/items")

    def check(value, path, out):
        if isinstance(value, list):
            for index, each in enumerate(value):
                item(each, (*path, index), out)
    return check


def _properties(properties, schema, where):
    known = [(key, _compile(sub, f"{where}/properties/{key}")) for key, sub in properties.items()]

    def check(value, path, out):
        if isinstance(value, dict):
            for key, sub in known:
                if key in value:
                    sub(value[key], (*path, key), out)
    return check


def _additional_properties(extra, schema, where):
    known = schema.get("properties", {})
    if isinstance(extra, dict):
        sub = _compile(extra, f"{where}/additionalProperties")

        def check(value, path, out):
            if isinstance(value, dict):
                for key in value:
                    if key not in known:
                        sub(value[key], (*path, key), out)
        return check
    if extra is not False:
        return None

    def check(value, path, out):
        if isinstance(value, dict):
            extras = [key for key in value if key not in known]
            if extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                out.append((path, message))
    return check


def _required(names, schema, where):
    def check(value, path, out):
        if isinstance(value, dict):
            for name in names:
                if name not in value:
                    out.append((path, f"{name!r} is a required property"))
    return check


_KEYWORDS = {
    "$schema": _annotation,
    "type": _type,
    "enum": _enum,
    "minimum": _bound(lambda v, b: v < b, "less than the minimum of"),
    "exclusiveMinimum": _bound(lambda v, b: v <= b, "less than or equal to the minimum of"),
    "maximum": _bound(lambda v, b: v > b, "greater than the maximum of"),
    "exclusiveMaximum": _bound(lambda v, b: v >= b, "greater than or equal to the maximum of"),
    "minItems": _min_items,
    "maxItems": _max_items,
    "items": _items,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "required": _required,
}
KEYWORDS = frozenset(_KEYWORDS)


def _compile(schema: dict, where: str):
    """One check for all of ``schema``'s keywords, run in the schema's order."""
    unknown = sorted(set(schema) - KEYWORDS)
    if unknown:
        raise ValueError(f"schema at {where}: unsupported keywords {unknown}")
    checks = [_KEYWORDS[k](arg, schema, where) for k, arg in schema.items()]
    checks = [each for each in checks if each is not None]
    if len(checks) == 1:
        return checks[0]

    def check(value, path, out):
        for each in checks:
            each(value, path, out)
    return check


class Checker:
    """A schema in this module's vocabulary, compiled once.

    Raises ``ValueError`` if the schema uses a keyword outside
    :data:`KEYWORDS`, a type JSON Schema does not name, or a non-string enum
    member.
    """

    def __init__(self, schema: dict):
        self._check = _compile(schema, "#")

    def violations(self, value) -> list[tuple[tuple, str]]:
        """Every ``(path, message)`` violation of ``value``: keywords in the
        schema's order, keys in the value's; a path is the keys and indices
        from the root."""
        out: list = []
        self._check(value, (), out)
        return out


def non_finite(value) -> list[tuple[tuple, str]]:
    """``(path, message)`` of each NaN or infinite float in ``value``, its lists
    and its dicts, in order. A JSON-schema ``number`` admits them, and YAML
    spells them ``.nan`` and ``.inf``; no setting can use one."""
    out: list = []
    _non_finite(value, (), out)
    return out


def _non_finite(value, path, out):
    if isinstance(value, float):
        if not math.isfinite(value):
            out.append((path, f"{value!r} is not a finite number"))
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _non_finite(item, (*path, key), out)


def _field_check(f):
    """Field ``f``'s check: finite and within its bound, a tuple as an array.
    ``None`` passes where it is the default: the field is unset."""
    check, unset = _compile(dict(f.metadata), f.name), f.default is None

    def field_check(value, path, out):
        if value is None and unset:
            return
        value = list(value) if type(value) is tuple else value
        _non_finite(value, path, out)
        check(value, path, out)
    return field_check


@cache
def field_checks(cls) -> dict:
    """The check ``(value, path, out)`` of each bounded field of dataclass
    ``cls``, by name, compiled once. A section field checks itself."""
    return {
        f.name: _field_check(f) for f in fields(cls) if f.metadata and not is_dataclass(f.default)
    }


class Bounded:
    """Mixin of a settings dataclass: building one checks every field with
    its own bound, and raises one ``ValueError`` naming each violation as
    ``Class.field: message``."""

    def __post_init__(self) -> None:
        out: list = []
        for name, check in field_checks(type(self)).items():
            check(getattr(self, name), (name,), out)
        if out:
            cls = type(self).__name__
            raise ValueError("; ".join(f"{cls}.{'/'.join(map(str, p))}: {m}" for p, m in out))
