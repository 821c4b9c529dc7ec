"""Tests for the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import calibrate  # noqa: E402
import grid  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import harvestsim  # noqa: E402
from harvestsim import cli, energy, scenario, simcore  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SLOTS = {"tree": 20, "grid48": 4, "grid12-shadow-hw": 52}


@pytest.mark.parametrize("name", ["grid48", "grid12-shadow-hw"])
def test_generated_grid_validates_and_matches_recorded_hash(name):
    wl = workloads.WORKLOADS[name]
    text = workloads.scenario_text(wl)  # raises GridDrift on a hash mismatch
    cfg = scenario.parse_scenario(text)
    rows, cols = wl.grid["rows"], wl.grid["cols"]
    assert len(cfg.nodes) == rows * cols
    sinks = [n for n in cfg.nodes if n.role == "sink"]
    assert [(s.id, s.position) for s in sinks] == [(cfg.nodes[0].id, (0.0, 0.0))]
    assert sum(n.role == "source" for n in cfg.nodes) == (rows * cols - 1) // 3
    assert cfg.channel.shadowing_sigma_db == wl.grid["sigma_db"]
    assert cfg.predictor.kind == wl.grid["predictor"]
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}[name]
    assert wl.config_sha in why


def test_grid_drift_is_detected():
    wl = workloads.WORKLOADS["grid48"]
    drifted = workloads.Workload(wl.name, wl.slots + 1, wl.modes, wl.grid, wl.config_sha)
    with pytest.raises(workloads.GridDrift):
        workloads.scenario_text(drifted)
    assert grid.grid_yaml(slots=5, **wl.grid) == grid.grid_yaml(slots=5, **wl.grid)


def test_tracer_wraps_every_binding_and_restores_originals():
    mods = tracer.program_modules(harvestsim)
    before = tracer.snapshot(mods)
    original = energy.withdraw
    tr = tracer.Tracer(mods, layers.OBSERVERS)
    with pytest.raises(RuntimeError):
        with tr:
            assert simcore.withdraw is energy.withdraw is not original
            store = energy.EnergyStore(stored=10.0, capacity=100.0)
            simcore.withdraw(store, 1.0, 0.0)
            with pytest.raises(energy.InsufficientEnergy):
                energy.withdraw(store, 20.0, 0.0)
            raise RuntimeError("leave the block by an exception")
    assert energy.withdraw is original and simcore.withdraw is original
    assert tr.leaks() == []
    after = tracer.snapshot(mods)
    assert all(after[k] is v for k, v in before.items())
    agg = tr.aggregate()
    assert agg["energy.withdraw"]["calls"] == 2
    assert tr.counts["withdraw.refused"] == 1
    # check_amount runs inside withdraw, so withdraw's self time excludes it.
    w = agg["energy.withdraw"]
    assert agg["energy.check_amount"]["calls"] >= 4
    assert 0.0 <= w["self_s"] < w["total_s"]


def _smoke(name, tmp_path, tr=None):
    wl = workloads.WORKLOADS[name]
    text = workloads.scenario_text(wl)
    slots = SMOKE_SLOTS[name]
    if tr is None:
        worlds = workloads.setup(wl, text, 5, slots=slots)
        workloads.simulate(worlds, tmp_path)
    else:
        with tr:
            worlds = workloads.setup(wl, text, 5, slots=slots)
            workloads.simulate(worlds, tmp_path)
    return wl, text, workloads.check(worlds, tmp_path)


@pytest.mark.parametrize("name", sorted(SMOKE_SLOTS))
def test_smoke_run_passes_checks_and_matches_the_run_command(name, tmp_path):
    wl, text, outcome = _smoke(name, tmp_path / "bench")
    assert outcome.problems == []
    assert 0 < outcome.generated and outcome.delivered <= outcome.generated
    (tmp_path / "scenario.yaml").write_text(text)
    for mode in wl.modes:
        out = tmp_path / "cli" / mode
        argv = ["run", "--config", str(tmp_path / "scenario.yaml"), "--seed", "5",
                "--slots", str(SMOKE_SLOTS[name]), "--mode", mode, "--out", str(out)]
        assert cli.main(argv) == 0
        for f in workloads.OUTPUT_FILES + ("scenario.yaml",):
            assert (out / f).read_bytes() == (tmp_path / "bench" / mode / f).read_bytes(), f


@pytest.mark.parametrize("name", sorted(SMOKE_SLOTS))
def test_traced_smoke_run_reproduces_untraced_digest(name, tmp_path):
    _, _, plain = _smoke(name, tmp_path / "plain")
    tr = tracer.Tracer(tracer.program_modules(harvestsim), layers.OBSERVERS)
    _, _, traced = _smoke(name, tmp_path / "traced", tr)
    assert traced.digest == plain.digest
    assert tr.leaks() == []
    t = layers.Trace(tr.aggregate(), tr.counts, tr.durations("simcore.World.step_slot"), 1, 1.0, 0.0)
    assert len(t.step_s) == SMOKE_SLOTS[name] * len(workloads.WORKLOADS[name].modes)
    values = {metric: fn(t) for metric, _, _, fn in layers.PER_LAYER}
    assert values["energy.withdraw.calls"] > 0
    assert values["scenario.parse_scenario.s"] > 0
    if name == "grid12-shadow-hw":
        assert values["forecast.hw_step.calls"] > 0
    else:
        assert values["forecast.hw_step.calls"] == 0


def test_interleaved_reference_slices_keep_outputs_and_restore_step_slot(tmp_path):
    _, _, plain = _smoke("grid12-shadow-hw", tmp_path / "plain")
    original = simcore.World.__dict__["step_slot"]
    meter = calibrate.Meter()
    meter.slice()
    with meter.interleaved(simcore.World, "step_slot"):
        assert simcore.World.__dict__["step_slot"] is not original
        _, _, sliced = _smoke("grid12-shadow-hw", tmp_path / "sliced")
    assert simcore.World.__dict__["step_slot"] is original
    assert sliced.digest == plain.digest
    assert meter.slices > 1 and meter.cal_s > 0
    assert meter.scaled(meter.cal_s / meter.slices) == pytest.approx(calibrate.REFERENCE_S)


def test_check_flags_a_ledger_row_that_does_not_close(tmp_path):
    wl, _, outcome = _smoke("tree", tmp_path)
    assert outcome.problems == []
    ledger = tmp_path / "modified" / "ledger.csv"
    lines = ledger.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1.0)
    ledger.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    worlds = workloads.setup(wl, workloads.scenario_text(wl), 5, slots=SMOKE_SLOTS["tree"])
    problems = workloads.check(worlds, tmp_path).problems
    assert any("does not close" in p for p in problems)


def test_benchmark_json_lists_every_reported_metric():
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb", "pdr"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
