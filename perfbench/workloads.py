"""The benchmark's workloads: inputs, set-up, simulation, output checks.

Each workload is a closed batch: one simulation at a time, in this process,
in the order of ``Workload.modes``. A simulation mirrors
``harvestsim run --config X --seed S --mode M --out D``: the same effective
config, the same echoed ``scenario.yaml`` and the same output files, so its
digest can be compared with the command's.

The harvestsim modules are reached through their module attributes at call
time (``scenario.parse_scenario``, ``simcore.run``), never bound here by
name, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

from harvestsim import cli, scenario, simcore

import grid

OUTPUT_FILES = ("summary.json", "slots.csv", "ledger.csv", "routes.csv", "forecast.csv")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    slots: int
    modes: tuple[str, ...]
    # Lattice shape and settings for generated grids; None for the tree file.
    grid: dict | None = None
    # sha256 prefix of the generated YAML; a mismatch means the grid drifted.
    config_sha: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree", 2000, ("modified", "baseline")),
        Workload(
            "grid48", 100, ("modified",),
            grid={"rows": 6, "cols": 8, "sigma_db": 0.0, "predictor": "ewma"},
            config_sha="931008565aea6e03",
        ),
        Workload(
            "grid12-shadow-hw", 600, ("modified",),
            grid={"rows": 3, "cols": 4, "sigma_db": 4.0, "predictor": "hw"},
            config_sha="28768a021d4b77c6",
        ),
    )
}


class GridDrift(Exception):
    """The generated grid no longer matches the hash recorded for it."""


def text_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def scenario_text(wl: Workload) -> str:
    """YAML scenario for the workload; generated grids are hash-checked."""
    if wl.grid is None:
        return (Path(scenario.__file__).parent / "scenarios" / "four_node_tree.yaml").read_text(
            encoding="utf-8"
        )
    text = grid.grid_yaml(slots=wl.slots, **wl.grid)
    if text_sha(text) != wl.config_sha:
        raise GridDrift(f"{wl.name}: generated config {text_sha(text)} != recorded {wl.config_sha}")
    return text


def setup(wl: Workload, text: str, seed: int, slots: int | None = None) -> list:
    """Parse the scenario and build one ``World`` per mode: the set-up phase."""
    base = scenario.parse_scenario(text)
    worlds = []
    for mode in wl.modes:
        cfg = dataclasses.replace(
            base,
            seed=seed,
            slots=slots or wl.slots,
            routing=dataclasses.replace(base.routing, mode=mode),
        )
        worlds.append(simcore.World(cfg))
    return worlds


def simulate(worlds: list, outdir: Path) -> list:
    """Run every world to its slot count and write its ``run`` outputs."""
    results = []
    for world in worlds:
        cfg = world.cfg
        out = outdir / cfg.routing.mode
        out.mkdir(parents=True, exist_ok=True)
        (out / "scenario.yaml").write_text(scenario.serialize_scenario(cfg), encoding="utf-8")
        digest = scenario.config_hash(cfg)
        metrics = simcore.run(world, cfg.slots)
        cli.write_metrics(
            metrics,
            out,
            {"command": "run", "seed": cfg.seed, "config": digest, "mode": cfg.routing.mode},
        )
        results.append(metrics)
    return results


@dataclasses.dataclass
class Outcome:
    digest: str
    delivered: int
    generated: int
    problems: list[str]


def check(worlds: list, outdir: Path) -> Outcome:
    """Check the written outputs and digest them.

    Every ledger row must close, no node may end a slot below the
    survivability floor, the ledger must hold one row per powered node and
    slot, and delivered may not exceed generated.
    """
    h = hashlib.sha256()
    problems: list[str] = []
    delivered = generated = 0
    for world in worlds:
        cfg = world.cfg
        mode = cfg.routing.mode
        out = outdir / mode
        for name in OUTPUT_FILES:
            h.update(f"{mode}/{name}\n".encode())
            h.update((out / name).read_bytes())
        floor = cfg.energy.floor_fraction * cfg.energy.capacity_uj
        with open(out / "ledger.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        powered = sum(1 for n in cfg.nodes if n.role != "sink")
        if len(rows) != powered * cfg.slots:
            problems.append(f"{mode}: {len(rows)} ledger rows, expected {powered * cfg.slots}")
        for r in rows:
            start, harvested, wasted, consumed, end = (
                float(r[k])
                for k in ("stored_start_uj", "harvested_uj", "wasted_uj", "consumed_uj", "stored_end_uj")
            )
            if not math.isclose(start + harvested - wasted - consumed, end, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"{mode}: ledger row slot {r['slot']} node {r['node']} does not close")
            if end < floor:
                problems.append(f"{mode}: slot {r['slot']} node {r['node']} ends at {end} < floor {floor}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if summary["delivered"] > summary["generated"]:
            problems.append(f"{mode}: delivered {summary['delivered']} > generated {summary['generated']}")
        delivered += summary["delivered"]
        generated += summary["generated"]
    return Outcome(h.hexdigest(), delivered, generated, problems[:20])


def input_size(wl: Workload, text: str) -> str:
    cfg = scenario.parse_scenario(text)
    powered = sum(1 for n in cfg.nodes if n.role != "sink")
    return f"{powered} powered nodes x {wl.slots} slots x {len(wl.modes)} runs"
