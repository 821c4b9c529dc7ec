"""Scenario configuration: schema, parsing, and harvest-trace construction.

Scenarios are YAML documents checked against a published JSON schema,
``SCENARIO_SCHEMA`` (pinned in ``tests/scenario_schema.json``), by
``bounds.Checker``, which reports jsonschema's paths and messages; jsonschema
itself is only the tests' oracle. Integer fields take integers only, so
``slots: 10.0`` is rejected although JSON Schema's ``integer`` admits it.
Validation collects *every* violation (schema and semantic) before failing,
and unknown keys are rejected rather than silently absorbed. Parsed configs
round-trip: ``parse(serialize(cfg)) == cfg``.

The rules across fields that the schema cannot express are one function,
:func:`config_violations`, over a built config. The parser runs it on the
config it builds from the document, skipping the rules that read a section
the schema rejected, and ``simcore.World`` runs it on every config, so a
config built in code is refused with the parser's messages.

Parsing goes through libyaml (``yaml.CSafeLoader``) where PyYAML was built
with it, and through the pure-Python ``yaml.SafeLoader`` only where it was
not. Both feed the same safe constructor, so they build the same document;
only the wording of a malformed-YAML error differs (libyaml gives the line
and column without the source snippet). The echo stays on the pure-Python
``yaml.safe_dump``: libyaml's emitter folds long double-quoted strings at
other points, so the echoed scenario would no longer be byte-identical.

Each setting is declared once, as a field of the dataclass that owns it
(``EnergySettings`` here, ``forecast.PredictorSettings``, ``mac.MacConfig``,
``NodeSpec``, ``app.Policy`` ...), with its default and its schema bound as
field metadata. ``SCENARIO_SCHEMA`` is built from those fields, and each of
those classes is a ``bounds.Bounded``: its constructor checks the same bounds
the schema publishes. Parsing builds every section from the keys it is
given, so adding a setting is one field line; it builds them with
``bounds.trusted``, so the document check is a parsed value's one check.
The operation kinds that ``costs`` and a policy's ``ops`` accept are
``energy.OP_KINDS``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import yaml

from .app import Policy
from .bounds import (
    FRACTION, FRACTION_OR_ONE, MAX_EVENTS_PER_NODE_SLOT, NONNEG, NUM, POS, POS_TABLE, PROBABILITY,
    Bounded, Checker, enum, int_min, non_finite, section, trusted,
)
from .channel import ChannelSettings
from .energy import DEFAULT_OP_COSTS, DEFAULT_THRESHOLDS, TX_OP_KIND, HarvestTrace, by_dbm
from .forecast import PredictorSettings
from .mac import MacConfig
from .routing import RoutingSettings


class ScenarioError(Exception):
    """Base class for scenario errors."""


class SchemaError(ScenarioError):
    """Config rejected; ``violations`` lists every field path and message."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class ParseError(ScenarioError):
    """Trace CSV malformed; message carries the line number."""


class NegativePower(ScenarioError):
    """Trace CSV contains a negative power sample."""


def _ascending(t) -> bool:
    """Whether the three level thresholds ``t`` are strictly ascending."""
    return t[0] < t[1] < t[2]


@dataclass(frozen=True)
class EnergySettings(Bounded):
    capacity_uj: float = field(default=100_000.0, metadata=POS)
    thresholds: tuple[float, float, float] = field(
        default=DEFAULT_THRESHOLDS,
        metadata={"type": "array", "items": FRACTION, "minItems": 3, "maxItems": 3},
    )
    floor_fraction: float = field(default=0.10, metadata=FRACTION)
    duty_energy_uj: float = field(default=10_000.0, metadata=POS)
    leakage_uj_per_slot: float = field(default=0.0, metadata=NONNEG)

    def __post_init__(self) -> None:
        super().__post_init__()
        t = self.thresholds
        if not _ascending(t):
            raise ValueError(f"EnergySettings.thresholds: must be strictly ascending, got {t}")


@dataclass(frozen=True)
class OptimizerSettings(Bounded):
    duty_weight: float | None = field(
        default=None, metadata={"type": ["number", "null"], "minimum": 0}
    )


@dataclass(frozen=True)
class TrafficSettings(Bounded):
    packet_period_s: float = field(default=2.0, metadata=POS)


@dataclass(frozen=True)
class ProfileSpec(Bounded):
    """A node's harvest source: a constant power, a CSV trace, or a synthetic
    diurnal trace (half-sine days with weather switching, see
    :func:`synth_trace`)."""

    kind: str = field(default="synthetic", metadata=enum("synthetic", "csv", "constant"))
    path: str | None = field(default=None, metadata={"type": "string"})
    scale: float = field(default=1.0, metadata=POS)
    power_w: float = field(default=0.0, metadata=NONNEG)
    amplitude_w: float = field(default=0.0003, metadata=NONNEG)
    period_slots: int = field(default=24, metadata=int_min(2))
    day_fraction: float = field(default=0.5, metadata=FRACTION_OR_ONE)
    cloudy_attenuation: float = field(default=0.35, metadata=PROBABILITY)
    switch_probability: float = field(default=0.3, metadata=PROBABILITY)
    trend_per_day: float = field(default=0.0, metadata=NUM)
    seed: int = field(default=0, metadata={"type": "integer"})

    @property
    def has_daylight(self) -> bool:
        """A synthetic day needs more than one daylight slot: with at most one,
        the half-sine is sampled only at sunrise, where it is zero."""
        return self.period_slots * self.day_fraction > 1


ROLES = ("source", "relay", "sink")


@dataclass(frozen=True)
class NodeSpec(Bounded):
    id: str = field(metadata={"type": "string"})
    role: str = field(metadata=enum(*ROLES))
    position: tuple[float, float] = field(
        default=(0.0, 0.0),
        metadata={"type": "array", "items": NUM, "minItems": 2, "maxItems": 2},
    )
    profile: str | None = field(default=None, metadata={"type": ["string", "null"]})


_PROFILES_SCHEMA = {
    "type": "object",
    "additionalProperties": section(ProfileSpec, required=["kind"]),
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = field(metadata={"type": "string"})
    nodes: tuple[NodeSpec, ...] = field(
        metadata={
            "type": "array",
            "minItems": 1,
            "items": section(NodeSpec, required=["id", "role"]),
        }
    )
    seed: int = field(default=1, metadata={"type": "integer"})
    slots: int = field(default=100, metadata=int_min(1))
    slot_duration_s: float = field(default=60.0, metadata=POS)
    energy: EnergySettings = EnergySettings()
    predictor: PredictorSettings = PredictorSettings()
    optimizer: OptimizerSettings = OptimizerSettings()
    routing: RoutingSettings = RoutingSettings()
    mac: MacConfig = MacConfig()
    channel: ChannelSettings = ChannelSettings()
    traffic: TrafficSettings = TrafficSettings()
    costs: dict = field(
        default_factory=dict,
        metadata={
            "type": "object",
            "additionalProperties": False,
            "properties": {
                **{kind: POS for kind in DEFAULT_OP_COSTS},
                TX_OP_KIND: POS_TABLE,
            },
        },
    )
    profiles: dict = field(default_factory=dict, metadata=_PROFILES_SCHEMA)
    policies: dict = field(
        default_factory=dict,
        metadata={
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": section(Policy, required=["name", "ops"]),
            },
        },
    )

    def policies_for(self, node: NodeSpec) -> tuple[Policy, ...]:
        """Node-specific policy list, falling back to the node's role."""
        if node.id in self.policies:
            return self.policies[node.id]
        return self.policies.get(node.role, ())


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **section(ScenarioConfig, required=["name", "nodes"]),
}
_CHECKER = Checker(SCENARIO_SCHEMA)

# The settings sections, by key: each field whose default is a settings dataclass.
_SECTIONS = {f.name: type(f.default) for f in fields(ScenarioConfig) if is_dataclass(f.default)}

# libyaml's scanner and parser where PyYAML has them; the same document either way.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_DBM_KEY = re.compile(r"[+-]?\d+")


def config_violations(cfg: ScenarioConfig, skip=frozenset()) -> list[tuple[tuple, str]]:
    """Every ``(path, message)`` violation of the rules across fields that the
    schema cannot express, in built config ``cfg``: the parser's rules for a
    document and ``simcore.World``'s for a config built in code. The rules
    that read a top-level key in ``skip``, one the schema rejected, are not
    run; the threshold order and the ``tx128`` keys are reported wherever
    their values have the shape they compare."""
    out = []
    if "nodes" not in skip:
        sinks, ids, at_position, per_node = [], [], {}, []
        for n in cfg.nodes:
            ids.append(n.id)
            if n.role == "sink":
                sinks.append(n.id)
            # Path loss needs a positive distance, so no two nodes may share a spot.
            at_position.setdefault(tuple(n.position), []).append(n.id)
            # A link's shadowing stream is keyed "a:b:shadow", so an id with a
            # ':' could give two links one stream.
            if ":" in n.id:
                per_node.append(((f"nodes[{n.id}].id",), "must not contain ':'"))
            # Every output CSV writes ids unquoted, so a ',' or a line break
            # would split a row, and a '"' would open a quoted field.
            breaks = [c for c in ',"\r\n' if c in n.id]
            if breaks:
                per_node.append(((f"nodes[{n.id!r}].id",),
                                 f"must not contain {', '.join(map(repr, breaks))} (CSV outputs)"))
            if n.profile is not None and "profiles" not in skip and n.profile not in cfg.profiles:
                per_node.append(((f"nodes[{n.id}].profile",),
                                 f"{n.profile!r} not defined in profiles"))
            if n.role != "sink" and n.profile is None:
                per_node.append(((f"nodes[{n.id}]",), "non-sink nodes need an energy profile"))
        if len(sinks) != 1:
            out.append((("nodes",), f"exactly one sink required, found {len(sinks)} ({sinks})"))
        known = set(ids)
        if len(known) != len(ids):
            out.append((("nodes",), f"duplicate ids in {ids}"))
        out += [(("nodes",), f"{shared} share position {list(pos)}")
                for pos, shared in at_position.items() if len(shared) > 1]
        out += per_node
    # A plan keys its policies by name, and a key that names no node and no
    # role would leave its policies unused.
    for key, plist in cfg.policies.items():
        names = [p.name for p in plist]
        if len(names) != len(set(names)):
            out.append((("policies", key), f"duplicate policy names in {names}"))
        if "nodes" not in skip and key not in ROLES and key not in known:
            out.append((("policies", key),
                        f"{key!r} names no node id and no role ({', '.join(ROLES)})"))
    for name, spec in cfg.profiles.items():
        if spec.kind == "csv" and not spec.path:
            out.append(((f"profiles[{name}]",), "csv profiles need a path"))
        if spec.kind == "synthetic" and not spec.has_daylight:
            out.append(((f"profiles[{name}]",), "period_slots x day_fraction must exceed 1"))
    t = cfg.energy.thresholds
    if (isinstance(t, (list, tuple)) and len(t) == 3
            and all(isinstance(x, (int, float)) for x in t) and not _ascending(t)):
        out.append((("energy", "thresholds"), "must be strictly ascending"))
    tx_costs = cfg.costs.get(TX_OP_KIND) if isinstance(cfg.costs, dict) else None
    if isinstance(tx_costs, dict):
        # Keys as written: 0 and "+0" both name 0 dBm.
        named = {}
        for power in tx_costs:
            if not _DBM_KEY.fullmatch(str(power)):
                out.append((("costs", TX_OP_KIND), f"power {power!r} is not an integer dBm"))
            elif (first := named.setdefault(int(power), power)) != power:
                out.append((("costs", TX_OP_KIND),
                            f"powers {first!r} and {power!r} both name {int(power)} dBm"))
    # Each node schedules this many beacons and packets per slot: past the
    # cap, one slot's work has no practical end.
    for name, key in (("routing", "beacon_period_s"), ("traffic", "packet_period_s")):
        if not {name, "slot_duration_s"} & skip:
            per_slot = cfg.slot_duration_s / getattr(getattr(cfg, name), key)
            if per_slot > MAX_EVENTS_PER_NODE_SLOT:
                out.append(((f"slot_duration_s / {name}", key),
                            f"{per_slot:.6g} per node-slot exceeds {MAX_EVENTS_PER_NODE_SLOT}"))
    return out


def _path_order(violation: tuple) -> list:
    """Sort key of a ``(path, message)`` violation: its path, in a total order.

    At each depth numbers sort before strings, and any other key (a null, a
    date) after both by its text, so an int key beside a str key sorts.
    Numbers among numbers and strings among strings keep their own order.
    """
    return [
        (0, p) if isinstance(p, (int, float)) else (1, p) if isinstance(p, str)
        else (2, type(p).__name__, str(p))
        for p in violation[0]
    ]


def _build(cls, data: dict):
    """``cls`` from the keys ``data`` has, lists as tuples; the rest keep their
    defaults. The document check reports on them, so they are not checked again."""
    return trusted(cls, {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def _document_config(doc: dict, skip) -> ScenarioConfig:
    """The config document ``doc`` builds, each part from the keys it gives.
    A value under a key in ``skip``, one the schema rejected, keeps its default
    (nodes, profiles and policies are left empty), apart from a settings
    section that is a mapping and the ``costs``: those are built as written,
    so that the threshold order and the ``tx128`` keys are reported beside a
    bound their section breaks."""
    def kept(key, empty):
        return empty if key in skip else doc.get(key, empty)

    return _build(ScenarioConfig, {
        **{key: value for key, value in doc.items() if key not in skip},
        **{name: _build(cls, doc[name])
           for name, cls in _SECTIONS.items() if isinstance(doc.get(name), dict)},
        "nodes": tuple(_build(NodeSpec, n) for n in kept("nodes", ())),
        "costs": doc.get("costs", {}),
        "profiles": {name: _build(ProfileSpec, spec) for name, spec in kept("profiles", {}).items()},
        "policies": {key: tuple(_build(Policy, p) for p in plist)
                     for key, plist in kept("policies", {}).items()},
    })


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario, reporting all violations at once."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError([f"not valid YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise SchemaError(["document must be a mapping"])

    errors = sorted(_CHECKER.violations(doc), key=_path_order) + non_finite(doc)
    skip = frozenset(path[0] for path, _ in errors if path)
    cfg = _document_config(doc, skip)
    errors += config_violations(cfg, skip)
    if errors:
        raise SchemaError(
            [f"{'/'.join(map(str, path)) or '<root>'}: {message}" for path, message in errors]
        )
    # The tx128 keys are read as powers only now, once their spellings passed.
    return replace(cfg, costs={
        kind: {power: float(c) for power, c in by_dbm(value).items()}
        if kind == TX_OP_KIND else float(value)
        for kind, value in cfg.costs.items()
    })


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain-dict form of a config, suitable for YAML dumping.

    Tuples stay tuples (both dumpers write them as lists); an unset profile
    ``path`` or node ``profile`` is left out.
    """
    doc = asdict(cfg)
    for prof in doc["profiles"].values():
        if prof["path"] is None:
            del prof["path"]
    for node in doc["nodes"]:
        if node["profile"] is None:
            del node["profile"]
    return doc


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Canonical YAML text; stable across runs for byte-identical echoes."""
    return yaml.safe_dump(scenario_to_dict(cfg), sort_keys=True, default_flow_style=False)


def config_hash(cfg: ScenarioConfig) -> str:
    """Short digest identifying a config (embedded in every output file)."""
    canonical = json.dumps(scenario_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_trace(text: str, scale: float = 1.0) -> HarvestTrace:
    """Parse a ``slot,power_watts`` CSV into a trace.

    Slots must run 0, 1, 2, ...; powers must be finite and non-negative.
    Errors name the offending line.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not rows:
        raise ParseError("line 1: empty file")
    header_no, header = rows[0]
    if header.replace(" ", "") != "slot,power_watts":
        raise ParseError(f"line {header_no}: header must be 'slot,power_watts'")
    if len(rows) == 1:
        raise ParseError("line 2: no data rows")
    powers = []
    for line_no, ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {line_no}: expected 2 fields, got {len(parts)}")
        try:
            slot = int(parts[0])
            power = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        if not math.isfinite(power):
            raise ParseError(f"line {line_no}: power {power} is not a finite number")
        if power < 0:
            raise NegativePower(f"line {line_no}: power {power} < 0")
        if slot != len(powers):
            raise ParseError(
                f"line {line_no}: slot {slot} out of order (expected {len(powers)})"
            )
        powers.append(power)
    return HarvestTrace(powers=tuple(powers), scale=scale)


def synth_trace(spec: ProfileSpec, n_slots: int) -> HarvestTrace:
    """Generate a deterministic diurnal trace, a stand-in for measured solar data.

    Each day is a half-sine of ``amplitude_w`` over the daylight fraction of
    the period, attenuated on (independently drawn) cloudy days and drifted
    by the per-day trend; clipped at zero. The profile's ``scale`` is carried
    on the trace. Each distinct (weather, growth) day is computed once per
    call, and the days equal to it share its sample objects.
    """
    if n_slots < 1:
        raise ValueError("need at least one slot")
    if not spec.has_daylight:
        raise ValueError("period_slots x day_fraction must exceed 1 for a synthetic day")
    period = spec.period_slots
    day_slots = period * spec.day_fraction
    rng = random.Random(f"synth:{spec.seed}")
    n_days = n_slots // period + 2
    cloudy = [rng.random() < spec.switch_probability for _ in range(n_days)]
    # A day's clear-sky shape is the same every day; weather and trend scale it.
    shape = [
        spec.amplitude_w * math.sin(math.pi * phase / day_slots) if phase < day_slots else 0.0
        for phase in range(period)
    ]
    days: dict[tuple[float, float], list[float]] = {}
    powers = []
    for day in range(-(-n_slots // period)):
        weather = spec.cloudy_attenuation if cloudy[day] else 1.0
        # Never -0.0, so two growths that compare equal have the same bits.
        growth = 1.0 + spec.trend_per_day * day
        samples = days.get((weather, growth))
        if samples is None:
            # (base * weather) * growth in this order keeps every sample's bits, -0.0 too.
            samples = days[weather, growth] = [max(base * weather * growth, 0.0) for base in shape]
        powers += samples
    return HarvestTrace(powers=tuple(powers[:n_slots]), scale=spec.scale)


def build_profile_trace(prof: ProfileSpec, n_slots: int, name: str) -> HarvestTrace:
    """Materialize a profile into a trace covering ``n_slots`` slots."""
    if prof.kind == "constant":
        return HarvestTrace(powers=(prof.power_w,) * n_slots, scale=prof.scale)
    if prof.kind == "csv":
        try:
            text = Path(prof.path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"profile {name}: cannot read {prof.path!r}: {exc.strerror}") from exc
        try:
            trace = load_trace(text, scale=prof.scale)
        except (ParseError, NegativePower) as exc:
            raise type(exc)(f"profile {name}: {exc}") from None
        if len(trace) < n_slots:
            raise ParseError(
                f"profile {name}: trace has {len(trace)} slots, run needs {n_slots}"
            )
        return trace
    return synth_trace(prof, n_slots)
