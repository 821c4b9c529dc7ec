"""End-to-end acceptance gates.

One test per criterion; each prints a single PASS line on success (run with
``pytest -s tests/test_acceptance.py`` to see them live). Tolerances and
runtime budgets are asserted, not just reported.
"""

import dataclasses
import json
import random
import time
from collections import defaultdict
from importlib import resources

import pytest

from harvestsim import forecast, mac, simcore
from harvestsim.cli import compare_predictors, main
from harvestsim.energy import DEFAULT_OP_COSTS, DEFAULT_TX_COSTS, EnergyLevel, HarvestTrace
from harvestsim.optimizer import (
    build_opt,
    evaluate_curve,
    parametric_sweep,
    solve_for_v,
)
from harvestsim.scenario import ProfileSpec, parse_scenario, synth_trace
from simplex_oracle import simplex_solve
from test_simcore import ChargeRows

TREE_YAML = (
    resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_optimizer_oracle_equivalence():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = rng.randint(0, 6)
        weights = tuple(rng.uniform(1, 100) for _ in range(m))
        costs = tuple(rng.uniform(1, 100) for _ in range(m))
        e_dc = rng.uniform(1, 100)
        w_delta = rng.uniform(0, 5) if rng.random() < 0.5 else None
        x = rng.uniform(0, sum(costs) + e_dc)
        lp = build_opt(weights, costs, e_dc, w_delta, x)

        curve = parametric_sweep(lp, 0.0, x)
        bps = curve.breakpoints
        assert len(bps) <= lp.n_vars + 2
        assert all(b0[0] < b1[0] for b0, b1 in zip(bps, bps[1:]))
        assert all(b0[1] >= b1[1] - 1e-9 for b0, b1 in zip(bps, bps[1:]))
        slopes = [
            (b1[1] - b0[1]) / (b1[0] - b0[0]) for b0, b1 in zip(bps, bps[1:])
        ]
        assert all(s0 >= s1 - 1e-9 for s0, s1 in zip(slopes, slopes[1:]))

        for k in range(13):  # dense grid across the V range
            v = x * k / 12
            u_fill = solve_for_v(lp, v).utility
            u_simplex = simplex_solve(lp, v).utility
            err = abs(u_fill - u_simplex)
            assert err <= 1e-9 * max(1.0, abs(u_simplex))
            worst = max(worst, err / max(1.0, abs(u_simplex)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"1000 instances, worst rel err {worst:.2e}, {elapsed:.2f}s < 10s")


def test_criterion_2_curve_linearity_per_basis_interval():
    rng = random.Random(42)
    checked = 0
    for _ in range(60):
        m = rng.randint(1, 6)
        weights = tuple(rng.uniform(1, 100) for _ in range(m))
        costs = tuple(rng.uniform(1, 100) for _ in range(m))
        e_dc = rng.uniform(1, 100)
        x = rng.uniform(1, sum(costs) + e_dc)
        lp = build_opt(weights, costs, e_dc, None, x)
        curve = parametric_sweep(lp, 0.0, x)
        for v_lo, v_hi in curve.intervals:
            for k in range(1, 11):  # 10 interior points per basis interval
                v = v_lo + (v_hi - v_lo) * k / 11
                direct = simplex_solve(lp, v).utility
                interp = evaluate_curve(curve, v)
                assert abs(direct - interp) <= 1e-9 * max(1.0, abs(direct))
                checked += 1
    report(2, f"{checked} interior points across basis intervals, 1e-9 agreement")


def test_criterion_3_forecasting_error_targets():
    t0 = time.perf_counter()
    period = 24
    spec = ProfileSpec(
        amplitude_w=0.003,
        period_slots=period,
        switch_probability=0.3,
        cloudy_attenuation=0.35,
        seed=7,
    )
    trace = synth_trace(spec, 60 * period)  # 60 days, day-type switching
    series = [p * 60.0 * 1e6 for p in trace.powers]
    result = compare_predictors(
        series,
        forecast.PredictorSettings(kind="ewma", epsilon=0.5),
        forecast.PredictorSettings("hw", 0.906, 0.1, 0.650, period),
    )
    elapsed = time.perf_counter() - t0
    assert result["hw_mape"] < result["ewma_mape"]
    assert result["hw_mape"] < 0.15
    assert result["ewma_mape"] > 0.25
    assert elapsed < 5.0
    report(
        3,
        f"HW MAPE {result['hw_mape']*100:.1f}% < 15% < 25% < "
        f"EWMA MAPE {result['ewma_mape']*100:.1f}%, {elapsed:.2f}s < 5s",
    )


def test_criterion_4_hw_reduces_to_ewma():
    rng = random.Random(99)
    eps = 0.41
    series = [rng.uniform(0.5, 500.0) for _ in range(10_000)]
    hw_settings = forecast.PredictorSettings(kind="hw", epsilon=eps, beta=0.0, gamma=0.0)
    ew_settings = forecast.PredictorSettings(kind="ewma", epsilon=eps)
    hw = forecast.HwState(level=series[0], trend=0.0, seasonal=(1.0, 1.0))
    ew = forecast.EwmaState(series[0])
    worst = 0.0
    for y in series[1:]:
        p_hw, hw = forecast.hw_step(hw_settings, hw, y)
        p_ew, ew = forecast.ewma_step(ew_settings, ew, y)
        err = abs(p_hw - p_ew)
        assert err <= 1e-12 * max(1.0, abs(p_ew))
        worst = max(worst, err)
    report(4, f"10^4 random points, max abs diff {worst:.2e} <= 1e-12 scale")


@pytest.fixture(scope="module")
def route_compare_runs():
    cfg = parse_scenario(TREE_YAML)
    t0 = time.perf_counter()
    results = {"modified": [], "baseline": []}
    worlds = {}
    for i in range(10):
        seed = cfg.seed + i
        for mode in ("modified", "baseline"):
            run_cfg = dataclasses.replace(
                cfg, seed=seed, routing=dataclasses.replace(cfg.routing, mode=mode)
            )
            sample = i == 0 and mode == "modified"
            world = simcore.World(run_cfg, metrics=ChargeRows() if sample else None)
            metrics = simcore.run(world, 2000)
            results[mode].append(metrics.pdr())
            if sample:
                worlds["sample"] = metrics
    elapsed = time.perf_counter() - t0
    return cfg, results, worlds["sample"], elapsed


def test_criterion_5_routing_pdr_ordering(route_compare_runs):
    _, results, _, elapsed = route_compare_runs
    mods, bases = results["modified"], results["baseline"]
    for i, (m, b) in enumerate(zip(mods, bases)):
        assert m >= b, f"seed index {i}: modified {m:.3f} < baseline {b:.3f}"
    mean_gap_pp = (sum(mods) / 10 - sum(bases) / 10) * 100.0
    assert mean_gap_pp >= 10.0
    assert elapsed < 60.0
    report(
        5,
        f"modified >= baseline on 10/10 seeds, mean gap {mean_gap_pp:.1f}pp >= 10pp, "
        f"{elapsed:.1f}s < 60s (mean PDR {sum(mods)/10:.3f} vs {sum(bases)/10:.3f})",
    )


def test_criterion_6_duty_realization():
    formula = mac.MacConfig(schedule_mode="formula")
    for delta in (0.05, 0.15, 0.25):
        sched = mac.schedule_from_delta(delta, formula)
        measured = mac.measure_duty(sched, 1000)
        assert abs(measured - delta) <= 0.01
    table = mac.MacConfig(schedule_mode="paper-table")
    sleeps = {
        delta: mac.schedule_from_delta(delta, table).sleep_ms
        for delta in (0.05, 0.15, 0.25)
    }
    assert sleeps == {0.05: 100.0, 0.15: 35.0, 0.25: 20.0}
    report(6, "formula duty within ±1pp over 1000 cycles; table sleeps exactly 100/35/20 ms")


def test_criterion_7_virtual_energy_transfer():
    model = mac.RadioEnergyModel()
    cfg = mac.MacConfig()
    energies = {}
    for delta in (0.05, 0.15, 0.25):
        sched = mac.schedule_from_delta(delta, cfg)
        # Worst-phase receiver: the train must span the whole sleep.
        res = mac.csma_send(
            sched, cfg, random.Random(1),
            receiver_phase_ms=sched.sleep_ms - 1e-6,
        )
        assert res.delivered
        energies[delta] = mac.radio_energy(model, tx_ms=res.sender_tx_ms)
    assert energies[0.05] > energies[0.15] > energies[0.25]
    reduction = 1.0 - energies[0.25] / energies[0.05]
    assert reduction >= 0.30
    report(
        7,
        f"sender energy {energies[0.05]:.0f} -> {energies[0.25]:.0f} uJ as receiver "
        f"duty rises 0.05 -> 0.25 ({reduction*100:.0f}% reduction >= 30%)",
    )


def test_criterion_8_ledger_conservation(route_compare_runs):
    _, _, metrics, _ = route_compare_runs  # one of the 2000-slot runs
    charge_sum = defaultdict(float)
    for s, n, _, amount in metrics.charges:
        charge_sum[(s, n)] += amount
    floor = 0.10 * 300_000.0
    worst = 0.0
    streamed = metrics.book.by_slot
    for s, n, start, harvested, wasted, consumed, end in metrics.ledger:
        scale = max(1.0, start + harvested)
        worst = max(
            worst,
            abs(consumed - charge_sum[(s, n)]) / scale,
            abs(consumed - streamed.get((s, n), 0.0)) / scale,
            abs((start + harvested - wasted - consumed) - end) / scale,
        )
        assert end >= floor - 1e-9
    assert worst < 1e-6
    op_rows = 0
    for _, _, label, amount in metrics.charges:
        if label.startswith("op:"):
            kind = label[3:]
            if kind == "tx128":
                assert amount in DEFAULT_TX_COSTS.values()
            else:
                assert amount == DEFAULT_OP_COSTS[kind]
            op_rows += 1
    report(
        8,
        f"2000-slot run: balance closes to {worst:.1e} (< 1e-6) against the rows and the "
        f"streamed sums, floor intact, "
        f"{op_rows} operation charges match the cost table exactly",
    )


MORPH_YAML = """
name: morph-reference
seed: 2
slots: 60
slot_duration_s: 60.0
energy: {capacity_uj: 200000.0, duty_energy_uj: 10000.0}
predictor: {kind: ewma, epsilon: 0.9}
traffic: {packet_period_s: 10.0}
profiles:
  steady: {kind: constant, power_w: 0.0025}
nodes:
  - {id: A, role: sink, position: [0.0, 0.0]}
  - {id: D, role: source, position: [10.0, 0.0], profile: steady}
policies:
  source:
    - {name: report, priority: 1, ops: [sense, tx128], repeat: 200, weight: 60}
    - {name: log,    priority: 2, ops: [sense, average50, flash_write], repeat: 2}
"""


def test_criterion_9_morphing_reference_and_virtual_drop():
    cfg = parse_scenario(MORPH_YAML)
    full = 200 * 2 + 2 * 3

    reference = simcore.run(simcore.World(cfg), 60)
    ref_ops = [r.ops_node + r.ops_network for r in reference.slot_reports]
    assert all(n == full for n in ref_ops), ref_ops[:5]

    drop_slot = 30
    stepped = HarvestTrace(
        powers=(0.0025,) * drop_slot + (0.0,) * (60 - drop_slot)
    )
    world = simcore.World(cfg, traces={"D": stepped})
    metrics = simcore.run(world, 60)
    by_slot = {r.slot: r for r in metrics.slot_reports}
    before, after = by_slot[drop_slot - 1], by_slot[drop_slot]
    assert before.ops_node + before.ops_network == full
    assert after.virtual_level == EnergyLevel.E0
    assert after.own_level >= EnergyLevel.E2  # store still healthy; forecast drives it
    assert after.ops_node + after.ops_network < full
    report(
        9,
        f"constant-E3 run executes all {full} ops every slot; virtual drop to E0 cuts "
        f"the next slot to {after.ops_node + after.ops_network} ops",
    )


def test_criterion_10_determinism_byte_identical(tmp_path):
    tree = tmp_path / "tree.yaml"
    tree.write_text(TREE_YAML)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(tree), "--slots", "40", "--seed", "21",
                 "--out", str(out1)]) == 0
    assert main(["run", "--config", str(out1 / "scenario.yaml"),
                 "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    summary = json.loads((out1 / "summary.json").read_text())
    report(
        10,
        f"re-run from echoed config reproduced {len(names)} files byte-identically "
        f"(config {summary['config']})",
    )
