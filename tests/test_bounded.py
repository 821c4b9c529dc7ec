"""Settings dataclasses check their own fields (``bounds.Bounded``).

The cases are built from each field's own bound, so a new field or a new
settings class is covered without a new test: values just outside each
numeric limit, an unknown enum member, NaN and infinities, a bool for a
number and a float for an integer, each item of an array and each value of a
table. Each must be rejected with ``Class.field`` in the message; the
defaults and the values at each limit must be accepted.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import pytest

import harvestsim
from harvestsim import bounds
from harvestsim.app import Policy
from harvestsim.bounds import POS, Bounded, field_checks
from harvestsim.channel import ChannelSettings
from harvestsim.forecast import PredictorSettings
from harvestsim.mac import MacConfig
from harvestsim.routing import RoutingSettings
from harvestsim.scenario import EnergySettings, ProfileSpec

MODULES = [
    importlib.import_module(f"harvestsim.{info.name}")
    for info in pkgutil.iter_modules(harvestsim.__path__)
]
DATACLASSES = sorted(
    {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if inspect.isclass(obj)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    },
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
)
BOUNDED = [cls for cls in DATACLASSES if issubclass(cls, Bounded)]


def _types(meta) -> list[str]:
    kind = meta.get("type", [])
    return [kind] if isinstance(kind, str) else list(kind)


def _valid(meta):
    """A value strictly inside ``meta``'s bound."""
    types = _types(meta)
    if "enum" in meta:
        return meta["enum"][0]
    if "array" in types:
        return (_valid(meta.get("items", {})),) * max(meta.get("minItems", 1), 1)
    if "string" in types:
        return "x"
    if "boolean" in types:
        return False
    lo = meta.get("minimum", meta.get("exclusiveMinimum"))
    hi = meta.get("maximum", meta.get("exclusiveMaximum"))
    if lo is None:
        value = 0 if hi is None else hi - 1
    else:
        value = lo + 1 if hi is None else (lo + hi) / 2
    return value if "number" in types else int(value)


def _step(meta, value, direction: int):
    """The next value past ``value`` toward ``direction`` (+1 or -1)."""
    if "number" in _types(meta):
        return math.nextafter(value, direction * math.inf)
    return value + direction


def _edges(meta):
    """Each in-bound value at one of ``meta``'s limits."""
    if "minimum" in meta:
        yield meta["minimum"]
    if "exclusiveMinimum" in meta:
        yield _step(meta, meta["exclusiveMinimum"], +1)
    if "maximum" in meta:
        yield meta["maximum"]
    if "exclusiveMaximum" in meta:
        yield _step(meta, meta["exclusiveMaximum"], -1)


def _outside(meta, base):
    """``(label, value)`` of each value ``meta`` forbids; ``base`` is an
    in-bound value of the same field."""
    types = _types(meta)
    if "enum" in meta:
        yield "unknown member", "bogus"
    if "string" in types:
        yield "number for a string", 1
    if "boolean" in types:
        yield "number for a boolean", 1
    if "number" in types or "integer" in types:
        if "minimum" in meta:
            yield "below minimum", _step(meta, meta["minimum"], -1)
        if "exclusiveMinimum" in meta:
            yield "at exclusive minimum", meta["exclusiveMinimum"]
        if "maximum" in meta:
            yield "above maximum", _step(meta, meta["maximum"], +1)
        if "exclusiveMaximum" in meta:
            yield "at exclusive maximum", meta["exclusiveMaximum"]
        yield from (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("bool", True))
        if "number" not in types:
            yield "float for an integer", float(base)
    if "array" in types:
        items = meta.get("items", {})
        for label, bad in _outside(items, base[0]):
            yield f"item {label}", (bad, *base[1:])
        if "minItems" in meta:
            yield "too short", base[: meta["minItems"] - 1]
        if "maxItems" in meta:
            yield "too long", (*base, base[0])
    if "object" in types:
        yield "array for an object", []
        key, value = next(iter(base.items()))
        for label, bad in _outside(meta["additionalProperties"], value):
            yield f"entry {label}", {**base, key: bad}


def _required(cls) -> dict:
    """An in-bound value for each field of ``cls`` that has no default."""
    return {
        f.name: _valid(f.metadata)
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }


def _default(f):
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in BOUNDED
    for f in dataclasses.fields(cls)
    if f.name in field_checks(cls)
]

# Constructions that each used to build a settings object outside its bound.
OUT_OF_BOUND = [
    ("MacConfig.wake_window_ms", lambda: MacConfig(wake_window_ms=0.0)),
    ("MacConfig.data_packet_ms", lambda: MacConfig(data_packet_ms=math.nan)),
    ("MacConfig.schedule_mode", lambda: MacConfig(schedule_mode="bogus")),
    ("Policy.weight", lambda: Policy("p", ("sense",), weight=math.nan)),
    ("Policy.ops/0", lambda: Policy("p", ("bogus",))),
    ("Policy.priority", lambda: Policy("p", ("sense",), priority=0)),
    ("PredictorSettings.horizon", lambda: PredictorSettings(horizon=1)),
    ("PredictorSettings.kind", lambda: PredictorSettings(kind="bogus")),
    ("RoutingSettings.mode", lambda: RoutingSettings(mode="bogus")),
    ("RoutingSettings.beacon_period_s", lambda: RoutingSettings(beacon_period_s=0)),
    ("ChannelSettings.loss_prob_at_zero", lambda: ChannelSettings(loss_prob_at_zero=2)),
    ("ChannelSettings.shadowing_sigma_db", lambda: ChannelSettings(shadowing_sigma_db=-1)),
    ("EnergySettings.floor_fraction", lambda: EnergySettings(floor_fraction=1.5)),
    ("ProfileSpec.scale", lambda: ProfileSpec(scale=-1)),
    ("MacConfig.backoff_initial_ms", lambda: MacConfig(backoff_initial_ms=math.nan)),
]


class TestBoundedSettings:
    def test_classes_found(self):
        assert {cls.__name__ for cls in BOUNDED} == {
            "MacConfig", "PredictorSettings", "RoutingSettings", "ChannelSettings", "Policy",
            "EnergySettings", "OptimizerSettings", "TrafficSettings", "ProfileSpec", "NodeSpec",
            "OperationCostTable",
        }

    @pytest.mark.parametrize("cls", BOUNDED, ids=lambda cls: cls.__name__)
    def test_defaults_accepted(self, cls):
        cls(**_required(cls))

    @pytest.mark.parametrize("cls, f", FIELDS)
    def test_out_of_bound_values_rejected(self, cls, f):
        required = _required(cls)
        base = required.get(f.name, _default(f))
        if base is None:
            base = _valid(f.metadata)
        cases = list(_outside(f.metadata, base))
        assert cases
        for label, bad in cases:
            try:
                cls(**{**required, f.name: bad})
            except ValueError as err:
                assert f"{cls.__name__}.{f.name}" in str(err), label
            else:
                pytest.fail(f"{label}: {bad!r} accepted")

    @pytest.mark.parametrize("cls, f", FIELDS)
    def test_values_at_the_limits_accepted(self, cls, f):
        required = _required(cls)
        meta = f.metadata
        if "array" in _types(meta):
            base = required.get(f.name) or _default(f) or _valid(meta)
            values = [(edge, *base[1:]) for edge in _edges(meta["items"])]
        elif "object" in _types(meta):
            base = _default(f)
            key = next(iter(base))
            values = [{**base, key: edge} for edge in _edges(meta["additionalProperties"])]
        else:
            values = list(_edges(meta))
        for value in values:
            assert getattr(cls(**{**required, f.name: value}), f.name) == value

    def test_every_bounded_dataclass_inherits_the_check(self):
        # A settings class whose plain fields carry bounds must check them;
        # ScenarioConfig's sections and list elements check themselves.
        unchecked = [
            cls.__name__
            for cls in DATACLASSES
            if not issubclass(cls, Bounded)
            and any(
                f.metadata and set(f.metadata) <= bounds.KEYWORDS
                and not dataclasses.is_dataclass(f.default)
                for f in dataclasses.fields(cls)
            )
        ]
        assert unchecked == ["ScenarioConfig"]

    @pytest.mark.parametrize("name, build", OUT_OF_BOUND, ids=[n for n, _ in OUT_OF_BOUND])
    def test_out_of_bound_construction_names_its_field(self, name, build):
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
            build()

    def test_every_violation_reported_at_once(self):
        with pytest.raises(ValueError) as err:
            EnergySettings(capacity_uj=0, thresholds=(0.1, math.nan, 1.0))
        assert str(err.value) == (
            "EnergySettings.capacity_uj: 0 is less than or equal to the minimum of 0; "
            "EnergySettings.thresholds/1: nan is not a finite number; "
            "EnergySettings.thresholds/2: 1.0 is greater than or equal to the maximum of 1"
        )

    def test_unset_none_default_is_not_checked(self):
        # ProfileSpec.path is a string when given and None when not.
        assert ProfileSpec(kind="constant").path is None
        with pytest.raises(ValueError, match="ProfileSpec.path: 1 is not of type 'string'"):
            ProfileSpec(kind="csv", path=1)

    def test_checks_compiled_once_per_class(self):
        MacConfig()
        misses = field_checks.cache_info().misses
        MacConfig(arq_retries=0)
        MacConfig(wake_window_ms=2.0)
        assert field_checks.cache_info().misses == misses

    def test_section_field_checks_itself(self):
        @dataclasses.dataclass(frozen=True)
        class Inner(Bounded):
            x: float = dataclasses.field(default=1.0, metadata=POS)

        @dataclasses.dataclass(frozen=True)
        class Outer(Bounded):
            inner: Inner = Inner()
            y: float = dataclasses.field(default=1.0, metadata=POS)

        assert list(field_checks(Outer)) == ["y"]
        with pytest.raises(ValueError, match=r"^Inner\.x: "):
            Outer(inner=Inner(x=0.0))
