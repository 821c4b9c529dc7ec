"""Cross-module runs exercising configuration variants and closure invariants."""

import dataclasses
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from harvestsim import simcore
from harvestsim.optimizer import build_opt, parametric_sweep
from harvestsim.scenario import parse_scenario
from harvestsim.simcore import Packet, World
from test_simcore import PacketChargeLog, PacketLog, lattice_yaml

BASE_YAML = """
name: variants
seed: 11
slots: 40
slot_duration_s: 60.0
energy: {capacity_uj: 300000.0, duty_energy_uj: 10000.0}
predictor: {kind: ewma, epsilon: 0.5}
traffic: {packet_period_s: 10.0}
mac: {arq_retries: 1}
profiles:
  direct:    {kind: synthetic, amplitude_w: 0.008,  period_slots: 24, switch_probability: 0.3, seed: 1}
  reflected: {kind: synthetic, amplitude_w: 0.0004, period_slots: 24, switch_probability: 0.3, seed: 2}
  diffused:  {kind: synthetic, amplitude_w: 0.0028, period_slots: 24, switch_probability: 0.3, seed: 3}
nodes:
  - {id: A, role: sink,   position: [0.0, 0.0]}
  - {id: B, role: relay,  position: [40.0, 0.0],  profile: direct}
  - {id: C, role: relay,  position: [40.0, 28.0], profile: reflected}
  - {id: D, role: source, position: [80.0, 0.0],  profile: diffused}
policies:
  source:
    - {name: report, priority: 1, ops: [sense, tx128], repeat: 6, weight: 60}
    - {name: log,    priority: 2, ops: [sense, average50, flash_write], repeat: 2}
  relay:
    - {name: forward,      priority: 1, ops: [rx128, tx128], repeat: 10, weight: 60}
    - {name: housekeeping, priority: 2, ops: [flash_read, average50], repeat: 1}
"""


def run_world(yaml_text=BASE_YAML, slots=40, *, seed=None, mode=None, **world_kwargs):
    cfg = parse_scenario(yaml_text)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if mode is not None:
        cfg = dataclasses.replace(cfg, routing=dataclasses.replace(cfg.routing, mode=mode))
    world = World(cfg, **world_kwargs)
    metrics = simcore.run(world, slots)
    return world, metrics


def leftover_packet_ids(world: World) -> list[str]:
    """The ids of the packets still alive at the end of a run, one per
    packet: pending queues, the backlog's packet entries and the event heap."""
    alive = []
    for rt in world.nodes.values():
        alive += [p.pid for p in rt.pending]
        alive += [e.packet_id for e in rt.backlog.entries if e.packet_id is not None]
    for _, _, _, payload in world._events:
        alive += [item.pid for item in payload if isinstance(item, Packet)]
    return alive


class TestPacketConservation:
    """Every generated packet is delivered, dropped or still alive: the
    run's counts close exactly, and so do its packet ids."""

    # The tree in both modes, and short runs of grid48's shape (6 x 8 nodes,
    # no shadowing, EWMA) and of a shadowed 3 x 4 Holt-Winters lattice.
    RUNS = {
        "tree-modified": (BASE_YAML, "modified", 40),
        "tree-baseline": (BASE_YAML, "baseline", 40),
        "lattice-6x8-ewma": (
            lattice_yaml(sigma_db=0.0, predictor="ewma", slots=30, rows=6, cols=8), None, 30),
        "lattice-3x4-shadow-hw": (lattice_yaml(sigma_db=4.0, predictor="hw", slots=60), None, 60),
    }

    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_generated_is_delivered_plus_dropped_plus_alive(self, case):
        text, mode, slots = self.RUNS[case]
        world, metrics = run_world(text, slots, mode=mode)
        # An aborted-op drop counts a lost operation, not a packet.
        packet_drops = sum(n for (_, why), n in metrics.drops.items() if why != "aborted-op")
        alive = leftover_packet_ids(world)
        assert metrics.delivered > 0 and packet_drops > 0
        assert metrics.generated == metrics.delivered + packet_drops + len(alive)

    @pytest.mark.parametrize("mode", ["modified", "baseline"])
    def test_every_packet_delivered_dropped_or_still_queued(self, mode):
        world, metrics = run_world(mode=mode, slots=40, metrics=PacketLog())
        dropped = {pid for _, pid, _, _ in metrics.drop_rows if pid != "-"}
        alive = set(leftover_packet_ids(world))
        accounted = set(metrics.delivered_ids) | dropped | alive
        assert len(accounted) >= metrics.generated
        # No phantom ids outside the generated namespace.
        assert all(pid.startswith("D-") for pid in accounted)
        # Delivered, dropped and alive must jointly cover every generated id.
        all_ids = {
            f"D-{slot}-{i}" for slot in range(40) for i in range(6)
        }
        missing = all_ids - accounted
        assert not missing, f"{len(missing)} packets vanished silently"

    def test_drop_records_carry_reasons(self):
        _, metrics = run_world(slots=40)
        for node, reason in metrics.drops:
            assert reason
            assert node in {"A", "B", "C", "D"}


class TestConfigVariants:
    def test_mu_weights_and_raw_cost_mode(self):
        text = BASE_YAML.replace(
            "mac: {arq_retries: 1}",
            "mac: {arq_retries: 1}\nrouting: {mu: [0.9, 0.8], cost_mode: raw}",
        )
        _, metrics = run_world(text, slots=30)
        assert metrics.delivered > 0

    def test_paper_table_schedule_mode(self):
        text = BASE_YAML.replace(
            "mac: {arq_retries: 1}",
            "mac: {arq_retries: 1, schedule_mode: paper-table}",
        )
        _, metrics = run_world(text, slots=30)
        assert metrics.delivered > 0

    def test_rts_cts_mode(self):
        text = BASE_YAML.replace(
            "mac: {arq_retries: 1}", "mac: {arq_retries: 1, rts_cts: true}"
        )
        world, metrics = run_world(text, slots=20, metrics=simcore.MacTrace())
        assert metrics.delivered > 0

    def test_hw_predictor_with_warmup(self):
        text = BASE_YAML.replace(
            "predictor: {kind: ewma, epsilon: 0.5}",
            "predictor: {kind: hw, epsilon: 0.9, beta: 0.1, gamma: 0.3, period: 12}",
        )
        _, metrics = run_world(text, slots=40)
        assert metrics.delivered > 0
        assert metrics.forecast_rows

    def test_shadowing_is_deterministic_per_seed(self):
        text = BASE_YAML.replace(
            "traffic: {packet_period_s: 10.0}",
            "traffic: {packet_period_s: 10.0}\nchannel: {shadowing_sigma_db: 4.0}",
        )
        _, m1 = run_world(text, slots=20, seed=9, metrics=PacketChargeLog())
        _, m2 = run_world(text, slots=20, seed=9, metrics=PacketChargeLog())
        assert m1.charges == m2.charges
        assert m1.delivered_ids == m2.delivered_ids

    def test_leakage_drains_and_ledger_still_closes(self):
        text = BASE_YAML.replace(
            "energy: {capacity_uj: 300000.0, duty_energy_uj: 10000.0}",
            "energy: {capacity_uj: 300000.0, duty_energy_uj: 10000.0, "
            "leakage_uj_per_slot: 500.0}",
        )
        _, metrics = run_world(text, slots=30)
        assert any(label == "leakage" for _, label in metrics.book.by_label)
        charge_sum = metrics.book.by_slot
        for s, n, start, harvested, wasted, consumed, end in metrics.ledger:
            scale = max(1.0, start + harvested)
            assert abs(consumed - charge_sum.get((s, n), 0.0)) / scale < 1e-6

    def test_node_specific_policy_override(self):
        text = BASE_YAML + """  D:
    - {name: solo, priority: 1, ops: [sense, tx128], repeat: 3, weight: 10}
"""
        world, metrics = run_world(text, slots=10)
        # D's reports use the 3-repeat override, not the role-level 6+2 set.
        d_full = [
            r.ops_node + r.ops_network
            for r in metrics.slot_reports
            if r.node == "D" and r.alpha_mean == 1.0
        ]
        assert d_full and all(n == 6 for n in d_full)

    def test_csv_profile_via_file(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        csv_path.write_text("slot,power_watts\n" + "".join(f"{t},0.003\n" for t in range(40)))
        text = BASE_YAML.replace(
            "diffused:  {kind: synthetic, amplitude_w: 0.0028, period_slots: 24, switch_probability: 0.3, seed: 3}",
            f"diffused:  {{kind: csv, path: '{csv_path}', scale: 1.0}}",
        )
        _, metrics = run_world(text, slots=40)
        d_harvest = [h for _, n, _, h, *_ in metrics.ledger if n == "D"]
        assert all(h == pytest.approx(0.003 * 60e6) for h in d_harvest)


class TestRandomScenarios:
    """Randomized topologies and settings must run clean end to end."""

    def test_fuzzed_worlds_survive(self):
        rng = random.Random(123)
        for trial in range(8):
            n_relays = rng.randint(0, 3)
            nodes = ["  - {id: A, role: sink, position: [0.0, 0.0]}"]
            profs = {}
            for i in range(n_relays):
                profs[f"p{i}"] = rng.uniform(0.00005, 0.01)
                nodes.append(
                    f"  - {{id: R{i}, role: relay, position: "
                    f"[{rng.uniform(5, 90):.1f}, {rng.uniform(-40, 40):.1f}], profile: p{i}}}"
                )
            profs["s0"] = rng.uniform(0.00005, 0.01)
            nodes.append(
                f"  - {{id: S0, role: source, position: "
                f"[{rng.uniform(20, 140):.1f}, {rng.uniform(-40, 40):.1f}], profile: s0}}"
            )
            prof_lines = "\n".join(
                f"  {k}: {{kind: synthetic, amplitude_w: {v:.6f}, period_slots: 12, "
                f"switch_probability: {rng.choice([0.0, 0.3, 0.7])}, seed: {rng.randint(0, 99)}}}"
                for k, v in profs.items()
            )
            text = f"""
name: fuzz{trial}
seed: {rng.randint(1, 10 ** 6)}
slot_duration_s: {rng.choice([30.0, 60.0])}
energy: {{capacity_uj: {rng.choice([50000.0, 300000.0])}, duty_energy_uj: 10000.0}}
predictor: {{kind: {rng.choice(['ewma', 'hw'])}, epsilon: {rng.choice([0.3, 0.9])}, period: 12}}
traffic: {{packet_period_s: {rng.choice([5.0, 30.0])}}}
mac: {{arq_retries: {rng.randint(0, 3)}, rts_cts: {str(rng.random() < 0.3).lower()}, schedule_mode: {rng.choice(['formula', 'paper-table'])}}}
routing: {{mode: {rng.choice(['modified', 'baseline'])}, rreq_refresh_slots: {rng.randint(1, 20)}}}
channel: {{shadowing_sigma_db: {rng.choice([0.0, 3.0])}}}
profiles:
{prof_lines}
nodes:
{chr(10).join(nodes)}
policies:
  source:
    - {{name: report, priority: 1, ops: [sense, tx128], repeat: {rng.randint(1, 8)}, weight: 40}}
    - {{name: log, priority: 2, ops: [sense, average50, flash_write], repeat: 1}}
  relay:
    - {{name: forward, priority: 1, ops: [rx128, tx128], repeat: {rng.randint(2, 12)}, weight: 40}}
"""
            cfg = parse_scenario(text)
            n = rng.randint(5, 40)
            metrics = simcore.run(World(cfg), n)  # traces cover the config's 100 slots
            assert metrics.delivered <= metrics.generated

    def test_horizon_extends_trace_materialization(self):
        cfg = parse_scenario(BASE_YAML)  # slots: 40 in the config
        metrics = simcore.run(World(dataclasses.replace(cfg, slots=60)), 60)
        assert metrics.slots_run == 60


instances = st.builds(
    lambda m, ws, cs, edc, x_frac: (tuple(ws[:m]), tuple(cs[:m]), edc, x_frac),
    m=st.integers(min_value=1, max_value=6),
    ws=st.lists(st.floats(min_value=1, max_value=100), min_size=6, max_size=6),
    cs=st.lists(st.floats(min_value=1, max_value=100), min_size=6, max_size=6),
    edc=st.floats(min_value=1, max_value=100),
    x_frac=st.floats(min_value=0.01, max_value=1),
)


class TestSweepControls:
    @given(inst=instances)
    @settings(max_examples=120, deadline=None)
    def test_spend_monotone_non_increasing_along_sweep(self, inst):
        ws, cs, edc, x_frac = inst
        x = x_frac * (sum(cs) + edc)
        lp = build_opt(ws, cs, edc, None, x)
        curve = parametric_sweep(lp, 0.0, x)
        spends = [
            sum(a * c for a, c in zip(alphas, cs)) + d * edc
            for alphas, d in curve.controls
        ]
        assert all(s0 >= s1 - 1e-6 for s0, s1 in zip(spends, spends[1:]))

    @given(inst=instances)
    @settings(max_examples=120, deadline=None)
    def test_controls_respect_bounds_exactly(self, inst):
        ws, cs, edc, x_frac = inst
        x = x_frac * (sum(cs) + edc)
        lp = build_opt(ws, cs, edc, None, x)
        curve = parametric_sweep(lp, 0.0, x)
        for alphas, delta in curve.controls:
            for v in alphas + (delta,):
                assert 0.0 <= v <= 1.0
