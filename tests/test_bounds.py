"""``bounds.Checker`` against jsonschema, the validator it replaced.

The oracle is ``parse_scenario``'s former path: jsonschema's Draft 2020-12
validator over ``SCENARIO_SCHEMA``, its errors sorted by path and formatted
as ``a/b/0: message``, then the non-finite and cross-field checks. Its one
declared difference from the checker is ``integer``, which admits ``1.0`` in
JSON Schema and only an ``int`` here; the oracle's type checker is redefined
to say so.
"""

import copy
import math
from importlib import resources

import jsonschema
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from test_simcore import lattice_yaml
from harvestsim import bounds, scenario
from harvestsim.bounds import Checker
from harvestsim.scenario import SCENARIO_SCHEMA, SchemaError, parse_scenario

_INTEGER_IS_INT = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
    "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
)
ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=_INTEGER_IS_INT
)(SCENARIO_SCHEMA)


def oracle_violations(doc: dict) -> list[str]:
    """``parse_scenario``'s violations as jsonschema reports them."""
    raw = list(ORACLE.iter_errors(doc))
    try:
        errors = sorted(raw, key=lambda e: list(e.absolute_path))
    except TypeError:  # an int key beside a str key: numbers first
        errors = sorted(raw, key=lambda e: [(isinstance(p, str), p) for p in e.absolute_path])
    violations = [
        f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
        for err in errors
    ]
    rejected = {err.absolute_path[0] for err in errors if err.absolute_path}
    for path, message in bounds.non_finite(doc):
        violations.append(f"{'/'.join(map(str, path))}: {message}")
        rejected.add(path[0])
    cfg = scenario._document_config(doc, rejected)
    return violations + [f"{'/'.join(map(str, path))}: {message}"
                         for path, message in scenario.config_violations(cfg, rejected)]


def checker_violations(text: str) -> list[str]:
    try:
        parse_scenario(text)
    except SchemaError as err:
        return err.violations
    return []


TREE = resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
BASES = {
    "tree": yaml.safe_load(TREE),
    "lattice": yaml.safe_load(lattice_yaml(sigma_db=4.0, predictor="hw", slots=60)),
}


def _sites(value, schema: dict, path: tuple = ()):
    """``(path, schema, value)`` of every value the schema governs, and of
    every property a present object may have but lacks (its value None)."""
    yield path, schema, value
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                yield from _sites(value[key], sub, (*path, key))
            else:
                yield (*path, key), sub, None
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            for key in value:
                if key not in properties:
                    yield from _sites(value[key], extra, (*path, key))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            yield from _sites(item, schema["items"], (*path, index))


def _boundaries(schema: dict) -> list:
    """Values on each side of each bound, and the bound itself."""
    integer = "integer" in schema.get("type", ())
    out = list(schema.get("enum", ()))
    for key in ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"):
        if key in schema:
            b = schema[key]
            out += [b - 1, b, b + 1] if integer else [
                math.nextafter(b, -math.inf), b, float(b), math.nextafter(b, math.inf)
            ]
    return out


def _required_present(schema, value):
    return [k for k in schema.get("required", ()) if k in value]


# Each mutation: whether it applies to a site ``(path, schema, value)``.
APPLIES = {
    "boundary": lambda path, schema, value: bool(path and _boundaries(schema)),
    "wrong-type": lambda path, schema, value: bool(path),
    "bool": lambda path, schema, value: bool(path),
    "non-finite": lambda path, schema, value: bool(path),
    "unknown-key": lambda path, schema, value: isinstance(value, dict),
    "missing-required": lambda path, schema, value: (
        isinstance(value, dict) and bool(_required_present(schema, value))
    ),
    "array-length": lambda path, schema, value: isinstance(value, list),
    "int-key": lambda path, schema, value: (
        isinstance(value, dict) and bool(value)
        and isinstance(schema.get("additionalProperties"), dict)
    ),
}
WRONG_TYPES = ["x", [1.0], {"k": 1}, None, 1.5, 3.0, -2, 0]


def _mutate(doc: dict, data) -> None:
    """One mutation of one kind, at a site where that kind applies."""
    kind = data.draw(st.sampled_from(sorted(APPLIES)))
    sites = [site for site in _sites(doc, SCENARIO_SCHEMA) if APPLIES[kind](*site)]
    path, schema, value = data.draw(st.sampled_from(sites))
    if kind == "unknown-key":
        value[data.draw(st.sampled_from(["zz_unknown", "aa_unknown", 7]))] = 1
    elif kind == "missing-required":
        del value[data.draw(st.sampled_from(_required_present(schema, value)))]
    elif kind == "array-length":
        change = data.draw(st.sampled_from(["pop", "append", "clear"]))
        if change == "append" or not value:
            value.append(copy.deepcopy(value[-1]) if value else 0.5)
        else:
            del value[-1 if change == "pop" else 0:]
    elif kind == "int-key":
        # An int key beside a str key, each valid (a sibling's copy) or not.
        sibling = next(iter(value.values()))
        for key in (0, "zz"):
            value[key] = data.draw(st.sampled_from([copy.deepcopy(sibling), -1.0, "x"]))
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from({
            "boundary": _boundaries(schema),
            "wrong-type": WRONG_TYPES,
            "bool": [True, False],
            "non-finite": [math.nan, math.inf, -math.inf],
        }[kind]))


class TestCheckerMatchesJsonschema:
    @given(base=st.sampled_from(sorted(BASES)), data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_mutated_documents(self, base, data):
        doc = copy.deepcopy(BASES[base])
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            _mutate(doc, data)
        text = yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False)
        assert checker_violations(text) == oracle_violations(doc)

    @pytest.mark.parametrize("base", sorted(BASES))
    def test_unmutated_documents_pass(self, base):
        assert oracle_violations(BASES[base]) == []
        parse_scenario(yaml.safe_dump(BASES[base]))

    @pytest.mark.parametrize(
        "value", [1, 0, -1, 1.0, 1.5, True, None, "1", [1]], ids=repr
    )
    def test_integer_is_int_only(self, value):
        # The declared difference: JSON Schema's integer admits 1.0.
        bound = bounds.int_min(1)
        expected = [e.message for e in jsonschema.Draft202012Validator(bound).iter_errors(value)]
        if isinstance(value, float) and value.is_integer():
            expected.insert(0, f"{value!r} is not of type 'integer'")
        assert [m for _, m in Checker(bound).violations(value)] == expected


class TestVocabulary:
    def test_keywords_are_exactly_those_the_schema_uses(self):
        used = set()

        def walk(schema):
            used.update(schema)
            for name in ("items", "additionalProperties"):
                if isinstance(schema.get(name), dict):
                    walk(schema[name])
            for sub in schema.get("properties", {}).values():
                walk(sub)

        walk(SCENARIO_SCHEMA)
        assert used == bounds.KEYWORDS
        assert len(bounds.KEYWORDS) == 13

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "string", "pattern": "^x"},
            {"type": "object", "properties": {"a": {"type": "number", "multipleOf": 2}}},
            {"type": "array", "items": {"const": 1}},
            {"type": "object", "additionalProperties": {"oneOf": []}},
            {"type": "text"},
            {"type": ["number", "decimal"]},
            {"enum": ["a", 1]},
        ],
        ids=["pattern", "nested-multipleOf", "items-const", "additional-oneOf",
             "unknown-type", "unknown-type-in-list", "non-string-enum"],
    )
    def test_schema_outside_the_vocabulary_is_refused(self, schema):
        with pytest.raises(ValueError, match="schema at #"):
            Checker(schema)

    MIXED = {
        "type": "object",
        "required": ["a"],
        "properties": {"a": bounds.int_min(0), "b": {"type": ["string", "null"]}},
        "additionalProperties": {"type": "array", "items": bounds.FRACTION, "maxItems": 1},
    }

    @pytest.mark.parametrize(
        "value",
        [{"a": 0, "b": None}, {"a": -1, "b": 2, "c": [0.5, 1.0]}, {"b": "x", "c": [], "d": 3},
         {"a": True, "c": [True, 0]}, [], "x"],
        ids=repr,
    )
    def test_properties_beside_an_additional_schema(self, value):
        # Named properties are left to their own schemas, the rest to the
        # additional one; the scenario schema never has both on one object.
        expected = sorted(
            (tuple(e.absolute_path), e.message)
            for e in jsonschema.Draft202012Validator(self.MIXED).iter_errors(value)
        )
        assert sorted(Checker(self.MIXED).violations(value)) == expected

    def test_messages_keep_jsonschema_wording(self):
        schema = {
            "type": "object",
            "additionalProperties": False,
            "required": ["id"],
            "properties": {
                "a": {"type": "array", "minItems": 1},
                "b": {"type": "array", "minItems": 2, "maxItems": 0},
                "n": bounds.POS,
                "f": bounds.FRACTION,
                "p": bounds.PROBABILITY,
            },
        }
        doc = {"a": [], "b": [1], "n": 0, "f": 1.0, "p": -0.5, "x": 1}
        assert Checker(schema).violations(doc) == [
            ((), "Additional properties are not allowed ('x' was unexpected)"),
            ((), "'id' is a required property"),
            (("a",), "[] should be non-empty"),
            (("b",), "[1] is too short"),
            (("b",), "[1] is expected to be empty"),
            (("n",), "0 is less than or equal to the minimum of 0"),
            (("f",), "1.0 is greater than or equal to the maximum of 1"),
            (("p",), "-0.5 is less than the minimum of 0"),
        ]
        assert Checker(schema).violations(1) == [((), "1 is not of type 'object'")]
