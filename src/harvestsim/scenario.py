"""Scenario configuration: schema, parsing, and harvest-trace construction.

Scenarios are YAML documents validated against a published JSON schema.
Validation collects *every* violation (schema and semantic) before failing,
and unknown keys are rejected rather than silently absorbed. Parsed configs
round-trip: ``parse(serialize(cfg)) == cfg``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from dataclasses import asdict, dataclass, field

import jsonschema
import yaml

from .app import Policy
from .energy import HarvestTrace
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


_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_FRACTION = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "nodes"],
    "properties": {
        "name": {"type": "string"},
        "seed": {"type": "integer"},
        "slots": {"type": "integer", "minimum": 1},
        "slot_duration_s": _POS,
        "energy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "capacity_uj": _POS,
                "thresholds": {
                    "type": "array",
                    "items": _FRACTION,
                    "minItems": 3,
                    "maxItems": 3,
                },
                "floor_fraction": _FRACTION,
                "duty_energy_uj": _POS,
                "leakage_uj_per_slot": _NONNEG,
            },
        },
        "predictor": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["ewma", "hw"]},
                "epsilon": _FRACTION,
                "beta": _FRACTION,
                "gamma": _FRACTION,
                "period": {"type": "integer", "minimum": 2},
                "horizon": {"type": "integer", "minimum": 2},
            },
        },
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"duty_weight": {"type": ["number", "null"], "minimum": 0}},
        },
        "routing": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["modified", "baseline"]},
                "cost_mode": {"enum": ["magnitude", "raw"]},
                "mu": {
                    "type": ["array", "null"],
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                },
                "beacon_period_s": _POS,
                "rreq_refresh_slots": {"type": "integer", "minimum": 1},
                "collection_window_ms": _POS,
            },
        },
        "mac": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "schedule_mode": {"enum": ["formula", "paper-table"]},
                "wake_window_ms": _POS,
                "preamble_packet_ms": _POS,
                "cca_threshold_dbm": _NUM,
                "backoff_initial_ms": _POS,
                "backoff_max_attempts": {"type": "integer", "minimum": 1},
                "arq_retries": {"type": "integer", "minimum": 0},
                "rts_cts": {"type": "boolean"},
                "data_packet_ms": _POS,
                "ack_ms": _POS,
                "control_packet_ms": _POS,
            },
        },
        "channel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path_loss_exponent": _POS,
                "reference_loss_db": _POS,
                "reference_distance_m": _POS,
                "shadowing_sigma_db": _NONNEG,
                "sensitivity_dbm": _NUM,
                "loss_margin_db": _POS,
                "loss_prob_at_zero": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "traffic": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "packet_period_s": _POS,
                "payload_bytes": {"type": "integer", "minimum": 1},
            },
        },
        "costs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sense": _POS,
                "average50": _POS,
                "peak50": _POS,
                "flash_write": _POS,
                "flash_read": _POS,
                "rx128": _POS,
                "tx128": {
                    "type": "object",
                    "additionalProperties": _POS,
                },
            },
        },
        "profiles": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": ["synthetic", "csv", "constant"]},
                    "path": {"type": "string"},
                    "scale": _POS,
                    "power_w": _NONNEG,
                    "amplitude_w": _NONNEG,
                    "period_slots": {"type": "integer", "minimum": 2},
                    "day_fraction": _FRACTION,
                    "cloudy_attenuation": {"type": "number", "minimum": 0, "maximum": 1},
                    "switch_probability": {"type": "number", "minimum": 0, "maximum": 1},
                    "trend_per_day": _NUM,
                    "seed": {"type": "integer"},
                },
            },
        },
        "nodes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id", "role"],
                "properties": {
                    "id": {"type": "string"},
                    "role": {"enum": ["source", "relay", "sink"]},
                    "position": {
                        "type": "array",
                        "items": _NUM,
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "profile": {"type": ["string", "null"]},
                },
            },
        },
        "policies": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["name", "ops"],
                    "properties": {
                        "name": {"type": "string"},
                        "priority": {"type": "integer", "minimum": 1},
                        "ops": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "enum": [
                                    "sense",
                                    "average50",
                                    "peak50",
                                    "flash_write",
                                    "flash_read",
                                    "tx128",
                                    "rx128",
                                ]
                            },
                        },
                        "repeat": {"type": "integer", "minimum": 1},
                        "weight": _POS,
                    },
                },
            },
        },
    },
}


@dataclass(frozen=True)
class EnergySettings:
    capacity_uj: float = 100_000.0
    thresholds: tuple[float, float, float] = (0.10, 0.40, 0.70)
    floor_fraction: float = 0.10
    duty_energy_uj: float = 10_000.0
    leakage_uj_per_slot: float = 0.0


@dataclass(frozen=True)
class OptimizerSettings:
    duty_weight: float | None = None


@dataclass(frozen=True)
class ChannelSettings:
    """Log-distance path loss anchored at the beacon calibration point."""

    path_loss_exponent: float = 2.7
    reference_loss_db: float = 65.0
    reference_distance_m: float = 8.0
    shadowing_sigma_db: float = 0.0
    sensitivity_dbm: float = -95.0
    loss_margin_db: float = 10.0
    loss_prob_at_zero: float = 0.5


@dataclass(frozen=True)
class TrafficSettings:
    packet_period_s: float = 2.0
    payload_bytes: int = 22


@dataclass(frozen=True)
class ProfileSpec:
    """A node's harvest source: a constant power, a CSV trace, or a synthetic
    diurnal trace (half-sine days with weather switching, see
    :func:`synth_trace`)."""

    kind: str = "synthetic"
    path: str | None = None
    scale: float = 1.0
    power_w: float = 0.0
    amplitude_w: float = 0.0003
    period_slots: int = 24
    day_fraction: float = 0.5
    cloudy_attenuation: float = 0.35
    switch_probability: float = 0.3
    trend_per_day: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class NodeSpec:
    id: str
    role: str
    position: tuple[float, float] = (0.0, 0.0)
    profile: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    nodes: tuple[NodeSpec, ...]
    seed: int = 1
    slots: int = 100
    slot_duration_s: float = 60.0
    energy: EnergySettings = EnergySettings()
    predictor: PredictorSettings = PredictorSettings()
    optimizer: OptimizerSettings = OptimizerSettings()
    routing: RoutingSettings = RoutingSettings()
    mac: MacConfig = MacConfig()
    channel: ChannelSettings = ChannelSettings()
    traffic: TrafficSettings = TrafficSettings()
    costs: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    policies: dict = field(default_factory=dict)

    def policies_for(self, node: NodeSpec) -> tuple[Policy, ...]:
        """Node-specific policy list, falling back to the node's role."""
        if node.id in self.policies:
            return self.policies[node.id]
        return self.policies.get(node.role, ())


def _semantic_violations(doc: dict) -> list[str]:
    problems = []
    nodes = doc.get("nodes", [])
    sinks = [n.get("id") for n in nodes if n.get("role") == "sink"]
    if len(sinks) != 1:
        problems.append(
            f"nodes: exactly one sink required, found {len(sinks)} ({sinks})"
        )
    ids = [n.get("id") for n in nodes]
    if len(ids) != len(set(ids)):
        problems.append(f"nodes: duplicate ids in {ids}")
    # Path loss needs a positive distance, so no two nodes may share a spot.
    at_position: dict[tuple, list] = {}
    for n in nodes:
        pos = n.get("position", [0.0, 0.0])
        if isinstance(pos, list) and all(isinstance(c, (int, float)) for c in pos):
            at_position.setdefault(tuple(pos), []).append(n.get("id"))
    for pos, shared in at_position.items():
        if len(shared) > 1:
            problems.append(f"nodes: {shared} share position {list(pos)}")
    profiles = doc.get("profiles", {})
    for n in nodes:
        prof = n.get("profile")
        if prof is not None and prof not in profiles:
            problems.append(
                f"nodes[{n.get('id')}].profile: {prof!r} not defined in profiles"
            )
        if n.get("role") != "sink" and prof is None:
            problems.append(
                f"nodes[{n.get('id')}]: non-sink nodes need an energy profile"
            )
    for prof_name, prof in profiles.items():
        if prof.get("kind") == "csv" and not prof.get("path"):
            problems.append(f"profiles[{prof_name}]: csv profiles need a path")
    return problems


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario, reporting all violations at once."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError([f"not valid YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise SchemaError(["document must be a mapping"])

    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    violations = [
        f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
        for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    ]
    violations += _semantic_violations(doc)
    if violations:
        raise SchemaError(violations)

    def build(cls, section):
        data = dict(doc.get(section, {}))
        return cls(**data)

    energy_raw = dict(doc.get("energy", {}))
    if "thresholds" in energy_raw:
        t = energy_raw["thresholds"]
        if not (t[0] < t[1] < t[2]):
            raise SchemaError(["energy/thresholds: must be strictly ascending"])
        energy_raw["thresholds"] = tuple(t)
    routing_raw = dict(doc.get("routing", {}))
    if routing_raw.get("mu") is not None:
        routing_raw["mu"] = tuple(routing_raw["mu"])

    costs = {}
    for kind, value in doc.get("costs", {}).items():
        if kind == "tx128":
            costs["tx128"] = {int(k): float(v) for k, v in value.items()}
        else:
            costs[kind] = float(value)

    profiles = {
        name: ProfileSpec(**spec) for name, spec in doc.get("profiles", {}).items()
    }
    nodes = tuple(
        NodeSpec(
            id=n["id"],
            role=n["role"],
            position=tuple(n.get("position", (0.0, 0.0))),
            profile=n.get("profile"),
        )
        for n in doc["nodes"]
    )
    policies = {
        key: tuple(
            Policy(
                name=p["name"],
                ops=tuple(p["ops"]),
                priority=p.get("priority", 1),
                repeat=p.get("repeat", 1),
                weight=p.get("weight", 1.0),
            )
            for p in plist
        )
        for key, plist in doc.get("policies", {}).items()
    }
    return ScenarioConfig(
        name=doc["name"],
        nodes=nodes,
        seed=doc.get("seed", 1),
        slots=doc.get("slots", 100),
        slot_duration_s=doc.get("slot_duration_s", 60.0),
        energy=EnergySettings(**energy_raw),
        predictor=build(PredictorSettings, "predictor"),
        optimizer=build(OptimizerSettings, "optimizer"),
        routing=RoutingSettings(**routing_raw),
        mac=build(MacConfig, "mac"),
        channel=build(ChannelSettings, "channel"),
        traffic=build(TrafficSettings, "traffic"),
        costs=costs,
        profiles=profiles,
        policies=policies,
    )


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain-dict form of a config, suitable for YAML dumping."""
    doc = {
        "name": cfg.name,
        "seed": cfg.seed,
        "slots": cfg.slots,
        "slot_duration_s": cfg.slot_duration_s,
        "energy": asdict(cfg.energy),
        "predictor": asdict(cfg.predictor),
        "optimizer": asdict(cfg.optimizer),
        "routing": asdict(cfg.routing),
        "mac": asdict(cfg.mac),
        "channel": asdict(cfg.channel),
        "traffic": asdict(cfg.traffic),
        "costs": {
            k: (dict(sorted(v.items())) if isinstance(v, dict) else v)
            for k, v in sorted(cfg.costs.items())
        },
        "profiles": {name: asdict(p) for name, p in sorted(cfg.profiles.items())},
        "nodes": [
            {
                "id": n.id,
                "role": n.role,
                "position": list(n.position),
                "profile": n.profile,
            }
            for n in cfg.nodes
        ],
        "policies": {
            key: [asdict(p) for p in plist]
            for key, plist in sorted(cfg.policies.items())
        },
    }
    doc["energy"]["thresholds"] = list(doc["energy"]["thresholds"])
    if doc["routing"]["mu"] is not None:
        doc["routing"]["mu"] = list(doc["routing"]["mu"])
    for prof in doc["profiles"].values():
        if prof["path"] is None:
            del prof["path"]
    for plist in doc["policies"].values():
        for p in plist:
            p["ops"] = list(p["ops"])
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

    Slots must be contiguous and ascending; powers non-negative. Errors name
    the offending line.
    """
    lines = [ln.strip() for ln in io.StringIO(text).read().splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not rows:
        raise ParseError("line 1: empty file")
    header_no, header = rows[0]
    if header.replace(" ", "") != "slot,power_watts":
        raise ParseError(f"line {header_no}: header must be 'slot,power_watts'")
    if len(rows) == 1:
        raise ParseError("line 2: no data rows")
    powers = []
    start_slot = None
    expected = None
    for line_no, ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {line_no}: expected 2 fields, got {len(parts)}")
        try:
            slot = int(parts[0])
            power = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        if power < 0:
            raise NegativePower(f"line {line_no}: power {power} < 0")
        if start_slot is None:
            start_slot = slot
            expected = slot
        if slot != expected:
            raise ParseError(
                f"line {line_no}: slot {slot} out of order (expected {expected})"
            )
        expected += 1
        powers.append(power)
    return HarvestTrace(powers=tuple(powers), start_slot=start_slot, scale=scale)


def trace_to_csv(trace: HarvestTrace) -> str:
    out = ["slot,power_watts"]
    for i, p in enumerate(trace.powers):
        out.append(f"{trace.start_slot + i},{p!r}")
    return "\n".join(out) + "\n"


def synth_trace(spec: ProfileSpec, n_slots: int) -> HarvestTrace:
    """Generate a deterministic diurnal trace, a stand-in for measured solar data.

    Each day is a half-sine of ``amplitude_w`` over the daylight fraction of
    the period, attenuated on (independently drawn) cloudy days and drifted
    by the per-day trend; clipped at zero. The profile's ``scale`` is carried
    on the trace.
    """
    if n_slots < 1:
        raise ValueError("need at least one slot")
    rng = random.Random(f"synth:{spec.seed}")
    n_days = n_slots // spec.period_slots + 2
    cloudy = [rng.random() < spec.switch_probability for _ in range(n_days)]
    powers = []
    day_slots = spec.period_slots * spec.day_fraction
    for slot in range(n_slots):
        day, phase = divmod(slot, spec.period_slots)
        if phase < day_slots:
            base = spec.amplitude_w * math.sin(math.pi * phase / day_slots)
        else:
            base = 0.0
        level = base * (spec.cloudy_attenuation if cloudy[day] else 1.0)
        level *= 1.0 + spec.trend_per_day * day
        powers.append(max(level, 0.0))
    return HarvestTrace(powers=tuple(powers), scale=spec.scale)


def build_profile_trace(
    prof: ProfileSpec, n_slots: int, name: str, read_file=None
) -> HarvestTrace:
    """Materialize a profile into a trace covering ``n_slots`` slots."""
    if prof.kind == "constant":
        return HarvestTrace(powers=(prof.power_w,) * n_slots, scale=prof.scale)
    if prof.kind == "csv":
        if read_file is None:
            read_file = lambda p: open(p, encoding="utf-8").read()
        trace = load_trace(read_file(prof.path), scale=prof.scale)
        if len(trace) < n_slots:
            raise ParseError(
                f"profile {name}: trace has {len(trace)} slots, run needs {n_slots}"
            )
        return trace
    return synth_trace(prof, n_slots)
