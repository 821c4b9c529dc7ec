"""Deterministic lattice scenarios for the grid workloads.

A grid is ``rows x cols`` nodes at a 30 m pitch with the sink at the (0, 0)
corner. Non-sink nodes, in id order, run relay, relay, source (every third
is a source) and cycle through three harvest profiles. The energy, routing,
MAC, traffic, profile and policy settings are those of
``four_node_tree.yaml``, written out here so that the grids do not change
when the tree file does; only topology, shadowing and predictor differ.
"""

from __future__ import annotations

import yaml

PITCH_M = 30.0
PROFILE_CYCLE = ("direct", "reflected", "diffused")

_SYNTH = {"kind": "synthetic", "period_slots": 24, "switch_probability": 0.3,
          "cloudy_attenuation": 0.35}

BASE = {
    "seed": 11,
    "slot_duration_s": 60.0,
    "energy": {"capacity_uj": 300000.0, "thresholds": [0.10, 0.40, 0.70],
               "floor_fraction": 0.10, "duty_energy_uj": 10000.0,
               "leakage_uj_per_slot": 0.0},
    "predictor": {"epsilon": 0.5, "period": 24, "horizon": 2},
    "routing": {"mode": "modified", "cost_mode": "magnitude", "beacon_period_s": 30.0,
                "rreq_refresh_slots": 10, "collection_window_ms": 200.0},
    "mac": {"schedule_mode": "formula", "arq_retries": 1},
    "traffic": {"packet_period_s": 10.0},
    "profiles": {
        "direct": {**_SYNTH, "amplitude_w": 0.008, "seed": 1},
        "reflected": {**_SYNTH, "amplitude_w": 0.0004, "seed": 2},
        "diffused": {**_SYNTH, "amplitude_w": 0.0028, "seed": 3},
    },
    "policies": {
        "source": [
            {"name": "report", "priority": 1, "ops": ["sense", "tx128"], "repeat": 6, "weight": 60},
            {"name": "log", "priority": 2, "ops": ["sense", "average50", "flash_write"], "repeat": 2},
        ],
        "relay": [
            {"name": "forward", "priority": 1, "ops": ["rx128", "tx128"], "repeat": 10, "weight": 60},
            {"name": "housekeeping", "priority": 2, "ops": ["flash_read", "average50"], "repeat": 1},
        ],
    },
}


def grid_yaml(rows: int, cols: int, *, slots: int, sigma_db: float, predictor: str) -> str:
    """Canonical YAML scenario for a ``rows x cols`` lattice."""
    width = len(str(rows * cols - 1))
    nodes = []
    for k in range(rows * cols):
        r, c = divmod(k, cols)
        node = {"id": f"N{k:0{width}d}", "position": [c * PITCH_M, r * PITCH_M]}
        if k == 0:
            node["role"] = "sink"
        else:
            node["role"] = "source" if (k - 1) % 3 == 2 else "relay"
            node["profile"] = PROFILE_CYCLE[(k - 1) % 3]
        nodes.append(node)
    doc = {**BASE, "name": f"grid-{rows}x{cols}", "slots": slots, "nodes": nodes}
    doc["channel"] = {"shadowing_sigma_db": sigma_db}
    doc["predictor"] = {**BASE["predictor"], "kind": predictor}
    return yaml.safe_dump(doc, sort_keys=True)
