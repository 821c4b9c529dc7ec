import builtins
import dataclasses
import gc
import hashlib
import heapq
import inspect
import math
import os
import pickle
import random
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import harvestsim
from harvestsim import app, channel, energy, forecast, mac, routing, scenario, simcore
from harvestsim.channel import Channel, loss_probability, rssi_at, survives
from harvestsim.cli import main
from harvestsim.energy import (
    DEFAULT_OP_COSTS,
    DEFAULT_TX_COSTS,
    EnergyLevel,
    EnergyStore,
    HarvestTrace,
    SlotOutOfRange,
)
from harvestsim.routing import REFERENCE_TX_POWER_DBM, TX_POWER_BY_LEVEL
from harvestsim.scenario import ChannelSettings, SchemaError, parse_scenario, serialize_scenario
from harvestsim.simcore import Metrics, World

TREE_YAML = """
name: test-tree
seed: 11
slots: 60
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


@pytest.fixture(scope="module")
def tree_cfg():
    return parse_scenario(TREE_YAML)


@dataclass
class PacketLog(Metrics):
    """Metrics that keep the per-packet records the base ones only count.

    ``drop_rows`` holds one ``(slot, pid, node, reason)`` row per packet or
    operation that :meth:`Metrics.dropped` counts (an operation's pid is
    ``"-"``), in the order they are counted, and ``delivered_ids`` the id of
    each packet the sink receives, in arrival order.
    """

    drop_rows: list = field(default_factory=list)
    delivered_ids: list = field(default_factory=list)

    def dropped(self, slot, node, reason, ids):
        super().dropped(slot, node, reason, ids)
        self.drop_rows.extend((slot, pid, node, reason) for pid in ids)

    def arrived(self, pid):
        super().arrived(pid)
        self.delivered_ids.append(pid)


class ChargeRows(Metrics):
    """Metrics that keep each paid draw as a ``(slot, node, label, amount)``
    row in ``charges``, in draw order."""

    def draw(self, slot, node, label, amount):
        self.charges.append((slot, node, label, amount))


class PacketChargeLog(PacketLog, ChargeRows):
    """The per-packet records and the per-draw rows."""


class FullLog(PacketChargeLog, simcore.MacTrace):
    """Every opt-in record: per packet, per draw and per MAC event."""


class TestChannel:
    def test_reference_point(self):
        assert rssi_at(0.0, 8.0, ChannelSettings()) == pytest.approx(-65.0)

    def test_decade_distance(self):
        assert rssi_at(0.0, 80.0, ChannelSettings()) == pytest.approx(-92.0)

    def test_linear_in_tx_power(self):
        assert rssi_at(-10.0, 8.0, ChannelSettings()) == pytest.approx(-75.0)

    def test_monotone_decreasing_in_distance(self):
        ch = ChannelSettings()
        values = [rssi_at(0.0, d, ch) for d in (5, 10, 20, 40, 80)]
        assert values == sorted(values, reverse=True)

    def test_deliver_above_margin(self):
        assert survives(loss_probability(-60.0, ChannelSettings()), random.Random(1))

    def test_deliver_below_sensitivity(self):
        assert not survives(loss_probability(-96.0, ChannelSettings()), random.Random(1))

    def test_loss_probability_midpoint(self):
        # 5 dB margin on the default curve: p = 0.25
        assert loss_probability(-90.0, ChannelSettings()) == pytest.approx(0.25)

    def test_deliver_frequency_matches_probability(self):
        rng = random.Random(42)
        ch = ChannelSettings()
        n = 10_000
        lost = sum(0 if survives(loss_probability(-90.0, ch), rng) else 1 for _ in range(n))
        assert abs(lost / n - 0.25) <= 0.02


class TestDeterminism:
    def test_same_seed_identical_metrics(self, tree_cfg):
        w1, w2 = (World(dataclasses.replace(tree_cfg, seed=5), metrics=PacketChargeLog())
                  for _ in range(2))
        m1, m2 = simcore.run(w1, 40), simcore.run(w2, 40)
        assert list(m1.ledger) == list(m2.ledger)
        assert m1.charges == m2.charges
        assert list(m1.slot_reports) == list(m2.slot_reports)
        assert m1.delivered_ids == m2.delivered_ids
        assert m1.route_log == m2.route_log

    def test_different_seed_differs(self, tree_cfg):
        m1 = simcore.run(World(dataclasses.replace(tree_cfg, seed=5), metrics=ChargeRows()), 40)
        m2 = simcore.run(World(dataclasses.replace(tree_cfg, seed=6), metrics=ChargeRows()), 40)
        assert m1.charges != m2.charges


class TestConservation:
    def test_ledger_closes_against_charge_log(self, tree_cfg):
        m = simcore.run(World(dataclasses.replace(tree_cfg, seed=7)), 60)
        assert m.charges == []  # rows are opt-in; the sums are always streamed
        charge_sum = m.book.by_slot
        for s, n, start, harvested, wasted, consumed, end in m.ledger:
            scale = max(1.0, start + harvested)
            assert abs(consumed - charge_sum.get((s, n), 0.0)) / scale < 1e-6
            assert abs((start + harvested - wasted - consumed) - end) / scale < 1e-6

    def test_floor_never_breached(self, tree_cfg):
        m = simcore.run(World(dataclasses.replace(tree_cfg, seed=7)), 60)
        floor = 0.10 * 300_000.0
        assert min(row[6] for row in m.ledger) >= floor - 1e-9

    def test_plan_respects_settlement_floor(self):
        # With the floor above the E0/E1 threshold, a budget planned against
        # the threshold schedules operations that settlement then refuses.
        cfg = parse_scenario(
            resources.files("harvestsim")
            .joinpath("scenarios/four_node_tree.yaml")
            .read_text()
        )
        cfg = dataclasses.replace(
            cfg, energy=dataclasses.replace(cfg.energy, floor_fraction=0.30)
        )
        m = simcore.run(World(cfg), 100)
        assert not any(r.aborted for r in m.slot_reports)
        assert not any(reason == "aborted-op" for _, reason in m.drops)

    def test_table_charges_exact(self, tree_cfg):
        m = simcore.run(World(dataclasses.replace(tree_cfg, seed=7), metrics=ChargeRows()), 30)
        op_charges = [c for c in m.charges if c[2].startswith("op:")]
        assert op_charges
        for _, _, label, amount in op_charges:
            kind = label[3:]
            if kind == "tx128":
                assert amount in DEFAULT_TX_COSTS.values()
            else:
                assert amount == DEFAULT_OP_COSTS[kind]


class TestRadioDormancy:
    def test_e0_nodes_send_nothing(self, tree_cfg):
        # With the floor at the E0 threshold no store can reach E0, so the
        # floor goes below it and relay B gets no harvest at all.
        cfg = dataclasses.replace(
            tree_cfg, seed=7, energy=dataclasses.replace(tree_cfg.energy, floor_fraction=0.02)
        )
        dark = HarvestTrace(powers=(0.0,) * 60)
        world = World(cfg, traces={"B": dark}, metrics=simcore.MacTrace())
        m = simcore.run(world, 60)
        e0 = {(r.slot, r.node) for r in m.slot_reports if r.own_level == EnergyLevel.E0}
        assert e0
        slot_s = tree_cfg.slot_duration_s
        sent = [(int(t // slot_s), node) for t, node, event, _ in m.mac_trace if event.endswith("-tx")]
        assert sent
        assert not e0.intersection(sent)


    @staticmethod
    def _relay_b_dormant_from_slot_2(tree_cfg):
        """A tree world after slots 0 and 1 whose unharvested relay B enters
        slot 2 below the E0 threshold (0.10) but above the floor (0.02)."""
        cfg = dataclasses.replace(
            tree_cfg, energy=dataclasses.replace(tree_cfg.energy, floor_fraction=0.02)
        )
        dark = HarvestTrace(powers=(0.0,) * 60)
        world = World(cfg, traces={"B": dark}, metrics=FullLog())
        simcore.run(world, 2)
        b = world.nodes["B"]
        assert b.tx_power is not None
        b.store = dataclasses.replace(b.store, stored=0.05 * b.store.capacity)
        return world, b

    def test_forward_due_after_dropping_to_e0_is_not_sent(self, tree_cfg):
        # Forwarded late in slot 1, due in slot 2 at the power B had then.
        world, b = self._relay_b_dormant_from_slot_2(tree_cfg)
        t = 2 * tree_cfg.slot_duration_s + 0.01
        fwd = routing.Rreq(origin="D", seq=99, path=(("B", -70.0),), tx_power_dbm=b.tx_power)
        world._push(t, "rreq_tx", "B", fwd)
        world.step_slot()
        assert b.plan.context.own == EnergyLevel.E0
        assert (t, "B", "rreq-tx", "seq=99") not in world.metrics.mac_trace
        radio = [c for c in world.metrics.charges if c[:2] == (2, "B") and c[2].startswith("mac:")]
        assert radio == []

    def test_send_due_after_dropping_to_e0_is_dropped_dormant(self, tree_cfg):
        # Relayed late in slot 1, due in slot 2.
        world, b = self._relay_b_dormant_from_slot_2(tree_cfg)
        world._push(2 * tree_cfg.slot_duration_s + 0.01, "send", "B", simcore.Packet("D-1-9"))
        world.step_slot()
        assert b.plan.context.own == EnergyLevel.E0
        assert (2, "D-1-9", "B", "dormant") in world.metrics.drop_rows


class TestLevelSchedules:
    @pytest.mark.parametrize("mode", ["formula", "paper-table"])
    def test_each_node_runs_the_worlds_schedule_for_its_level(self, tree_cfg, mode):
        # Relay B gets no harvest, so its levels fall through E0 (radio off).
        cfg = dataclasses.replace(
            tree_cfg,
            seed=7,
            energy=dataclasses.replace(tree_cfg.energy, floor_fraction=0.02),
            mac=dataclasses.replace(tree_cfg.mac, schedule_mode=mode),
        )
        world = World(cfg, traces={"B": HarvestTrace(powers=(0.0,) * 60)})
        levels = set()
        for _ in range(60):
            world.step_slot()
            for rt in world.nodes.values():
                if rt.is_sink:
                    continue
                own = rt.plan.context.own
                levels.add(own)
                assert rt.schedule is world._levels[own].schedule
                assert rt.schedule == mac.schedule_from_delta(mac.DELTA_BY_LEVEL[own], cfg.mac)
                assert (rt.tx_power, rt.delta_op) == world._levels[own][:2]
        assert len(world._levels) == len(mac.DELTA_BY_LEVEL)
        assert EnergyLevel.E0 in levels and len(levels) > 2

    def test_one_row_per_level(self, tree_cfg):
        world = World(tree_cfg)
        for level in EnergyLevel:
            run = world._levels[level]
            assert run.tx_power == TX_POWER_BY_LEVEL.get(level)
            assert run.delta == mac.DELTA_BY_LEVEL[level]
            assert run.schedule == mac.schedule_from_delta(run.delta, tree_cfg.mac)
        # E0 is dormant: no transmit power, and its radio off.
        dormant = world._levels[EnergyLevel.E0]
        assert dormant.tx_power is None and dormant.schedule.radio_off


class TestDeferral:
    """``app`` decides what a slot defers, and at which priority."""

    def test_dark_source_backlogs_only_node_class_steps(self, tree_cfg):
        # D starts at the floor without harvest: nothing fits its budget.
        world = World(dataclasses.replace(tree_cfg, seed=3), traces={"D": HarvestTrace((0.0,) * 60)})
        d = world.nodes["D"]
        d.store = dataclasses.replace(d.store, stored=world.floor)
        simcore.run(world, 8)
        priority = {p.name: p.priority for p in d.policies}
        entries = d.backlog.entries
        assert {e.policy for e in entries} == {"log", "deferred-tx"}
        for e in entries:
            # Packets the slot could not send wait at the top priority.
            assert e.priority == (1 if e.packet_id else priority[e.policy])

    def test_lower_priority_entries_are_evicted_first(self, tree_cfg):
        # Relay B runs two node-class policies on disjoint op kinds, so each
        # eviction record names its policy. At the floor without harvest it
        # defers both every slot, and the backlog fills after 16 slots.
        audit = app.Policy("audit", ("sense",), priority=1, repeat=2)
        chores = app.Policy("chores", ("flash_read", "average50"), priority=2)
        cfg = dataclasses.replace(
            tree_cfg, seed=3, policies={**tree_cfg.policies, "B": (audit, chores)}
        )
        world = World(cfg, traces={"B": HarvestTrace((0.0,) * 60)})
        b = world.nodes["B"]
        b.store = dataclasses.replace(b.store, stored=world.floor)
        m = simcore.run(world, 30)
        evicted = Counter({kind: n for (node, kind), n in m.evictions.items() if node == "B"})
        assert sum(evicted.values()) == 30 * 4 - b.backlog.capacity
        assert set(evicted) == {"flash_read", "average50"}
        assert [e.policy for e in b.backlog.entries].count("audit") == 30 * 2


class TestSeasonalRestart:
    """The seasonal predictor restarts its warm-up instead of aborting the run."""

    @staticmethod
    def shipped_tree_hw(slots):
        doc = yaml.safe_load(
            resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
        )
        doc.update(slots=slots, predictor={"kind": "hw"})
        return parse_scenario(yaml.safe_dump(doc))

    def test_dark_node_keeps_warming_up(self):
        # Two dark periods leave no mean to take seasonal ratios against.
        cfg = self.shipped_tree_hw(120)
        world = World(cfg, traces={"D": HarvestTrace(powers=(0.0,) * 120)})
        m = simcore.run(world, 120)
        assert m.slots_run == 120
        # Restarts at slots 47 and 94: the warm-up holds slots 94 to 119.
        assert world.nodes["D"].predictor_state == forecast.Warmup((0.0,) * 26)
        assert isinstance(world.nodes["B"].predictor_state, forecast.HwState)

    def test_dawn_shift_restarts_and_model_recovers(self):
        # Daylight covers 12 of 24 slots from phase 7; after day 3 dawn comes
        # one slot earlier, and the level underflows at slot 81 on a ring
        # trained on the old dawn.
        powers = []
        for slot in range(140):
            day, phase = divmod(slot, 24)
            k = phase - (7 if day < 3 else 6)
            powers.append(0.0028 * math.sin(math.pi * k / 12) if 0 <= k < 12 else 0.0)
        world = World(self.shipped_tree_hw(140), traces={"D": HarvestTrace(powers=tuple(powers))})
        states = []
        for _ in range(140):
            world.step_slot()
            states.append(world.nodes["D"].predictor_state)
        assert isinstance(states[80], forecast.HwState)
        harvested = {slot: h for slot, node, _, h, *_ in world.metrics.ledger if node == "D"}
        assert states[81] == forecast.Warmup((harvested[81],)) and harvested[81] > 0.0
        # Two periods after the restart the model bootstraps on the new dawn.
        assert isinstance(states[81 + 47], forecast.HwState)
        assert isinstance(states[-1], forecast.HwState)


class TestDelivery:
    def test_delivered_never_exceeds_generated(self, tree_cfg):
        m = simcore.run(World(dataclasses.replace(tree_cfg, seed=9)), 50)
        assert m.delivered <= m.generated
        assert 0.0 <= m.pdr() <= 1.0

    def test_packets_flow_to_sink(self, tree_cfg):
        m = simcore.run(World(dataclasses.replace(tree_cfg, seed=9), metrics=PacketLog()), 50)
        assert m.delivered > 0
        assert all(pid.startswith("D-") for pid in m.delivered_ids)

    def test_mode_changes_outcomes(self, tree_cfg):
        def at_mode(mode):
            return dataclasses.replace(
                tree_cfg, seed=3, routing=dataclasses.replace(tree_cfg.routing, mode=mode)
            )

        m_mod = simcore.run(World(at_mode("modified")), 60)
        m_base = simcore.run(World(at_mode("baseline")), 60)
        assert m_mod.pdr() >= m_base.pdr()


class TestStarvation:
    def test_zero_harvest_everywhere_produces_no_operations(self, tree_cfg):
        dark = HarvestTrace(powers=(0.0,) * 60)
        world = World(
            dataclasses.replace(tree_cfg, seed=1), traces={"B": dark, "C": dark, "D": dark}
        )
        # Stores start at 50%: drain until the floor gates everything.
        m = simcore.run(world, 60)
        late = [r for r in m.slot_reports if r.slot >= 50]
        assert late
        assert all(r.ops_node + r.ops_network == 0 for r in late)

    def test_constant_rich_harvest_runs_full_policy(self, tree_cfg):
        rich = HarvestTrace(powers=(0.004,) * 60)  # 240 mJ per slot
        world = World(
            dataclasses.replace(tree_cfg, seed=1), traces={"B": rich, "C": rich, "D": rich}
        )
        m = simcore.run(world, 60)
        d_reports = [r for r in m.slot_reports if r.node == "D" and r.slot >= 2]
        full = 6 * 2 + 2 * 3
        assert all(r.ops_node + r.ops_network == full for r in d_reports)


class TestDrainedBacklog:
    def test_every_transmit_op_pays_its_slots_power(self, tree_cfg):
        # Twenty dark slots make D defer packets at low power; once rich it
        # reaches E3/E3, drains them and sends them at 0 dBm, so that is
        # what they cost.
        d = HarvestTrace(powers=(0.0,) * 20 + (0.004,) * 20)
        world = World(dataclasses.replace(tree_cfg, seed=1), traces={"D": d}, metrics=ChargeRows())
        drained = 0
        for _ in range(40):
            world.step_slot()
            drained += sum(1 for e in world.nodes["D"].plan.backlog_run if e.packet_id)
        assert drained > 0
        own = {(r.slot, r.node): r.own_level for r in world.metrics.slot_reports}
        tx_charges = [c for c in world.metrics.charges if c[2] == "op:tx128"]
        assert tx_charges
        for slot, node, _, amount in tx_charges:
            assert amount == world.prices[TX_POWER_BY_LEVEL[own[slot, node]]]["tx128"]


class TestCostTable:
    def test_partial_tx_table_merges_over_published_costs(self, tree_cfg):
        cfg = dataclasses.replace(tree_cfg, costs={"tx128": {0: 300.0}})
        world = World(cfg)
        tx = {power: prices["tx128"] for power, prices in world.prices.items() if power is not None}
        assert tx == {**DEFAULT_TX_COSTS, 0: 300.0}
        # Lower energy levels transmit at -5 and -10 dBm from slot 0 on.
        assert simcore.run(world, 3).slots_run == 3

    def test_code_built_tx_keys_priced_as_parsed_keys(self, tree_cfg):
        # A document's tx128 key "0" prices 0 dBm and "high" is refused;
        # built in code, the same keys are priced and refused the same way.
        costs = {"tx128": {"0": 300.0}}
        parsed = parse_scenario(yaml.safe_dump({**yaml.safe_load(TREE_YAML), "costs": costs}))
        world = World(dataclasses.replace(tree_cfg, costs=costs))
        assert world.prices == World(parsed).prices
        assert world.prices[0]["tx128"] == 300.0
        with pytest.raises(ValueError) as err:
            World(dataclasses.replace(tree_cfg, costs={"tx128": {"0": 300.0, "high": 5.0}}))
        assert str(err.value) == "ScenarioConfig.costs/tx128: power 'high' is not an integer dBm"

    @pytest.mark.parametrize("costs, where", [
        ({"tx128": {0: -1.0}}, "costs/tx128/0"),
        ({"sense": math.nan}, "costs/sense"),
        ({"rx128": "400"}, "costs/rx128"),
        ({"teleport": 1.0}, "costs"),
    ], ids=["negative", "nan", "not-a-number", "unknown-kind"])
    def test_code_built_costs_rejected_as_a_document_is(self, tree_cfg, costs, where):
        # The same costs in a document fail to parse; built in code, they
        # fail when the world is built, naming the same path.
        with pytest.raises(ValueError, match=f"^ScenarioConfig.{where}: "):
            World(dataclasses.replace(tree_cfg, costs=costs))


class TestRunContract:
    def test_zero_slots_rejected(self, tree_cfg):
        with pytest.raises(ValueError):
            simcore.run(World(dataclasses.replace(tree_cfg, seed=1)), 0)

    def test_run_past_trace_horizon_fails_before_first_slot(self, tree_cfg):
        world = World(dataclasses.replace(tree_cfg, seed=1))  # traces cover the config's 60 slots
        with pytest.raises(SlotOutOfRange):
            simcore.run(world, 80)
        assert world.metrics.slots_run == 0
        simcore.run(world, 60)
        with pytest.raises(SlotOutOfRange):
            simcore.run(world, 1)
        assert world.metrics.slots_run == 60

    def test_slots_run_counted(self, tree_cfg):
        m = simcore.run(World(dataclasses.replace(tree_cfg, seed=1)), 7)
        assert m.slots_run == 7
        assert len({r.slot for r in m.slot_reports}) == 7

    def test_causality_event_times_monotone(self, tree_cfg):
        world = World(dataclasses.replace(tree_cfg, seed=2), metrics=simcore.MacTrace())
        m = simcore.run(world, 30)
        times = [t for t, *_ in m.mac_trace]
        assert times == sorted(times)

    def test_exactly_one_sink_required(self, tree_cfg):
        import dataclasses

        bad = dataclasses.replace(
            tree_cfg,
            nodes=tuple(
                dataclasses.replace(n, role="relay") if n.id == "A" else n
                for n in tree_cfg.nodes
            ),
        )
        with pytest.raises(ValueError):
            World(bad)

    @pytest.mark.parametrize("node_id", ['"D', "D:1", "D,1", "D\n1"])
    def test_code_built_node_ids_rejected_as_a_document_is(self, tree_cfg, node_id):
        # The parser refuses these ids. Built in code, they are refused when
        # the world is built, before slot 0, with the parser's messages.
        doc = yaml.safe_load(TREE_YAML)
        doc["nodes"][3]["id"] = node_id
        with pytest.raises(SchemaError) as parsed:
            parse_scenario(yaml.safe_dump(doc))
        nodes = tuple(dataclasses.replace(n, id=node_id) if n.id == "D" else n
                      for n in tree_cfg.nodes)
        with pytest.raises(ValueError) as built:
            World(dataclasses.replace(tree_cfg, nodes=nodes))
        assert str(built.value) == "; ".join(f"ScenarioConfig.{v}" for v in parsed.value.violations)

    def test_code_built_duplicate_ids_rejected_as_a_document_is(self, tree_cfg):
        # Source D renamed C: the parser refuses it, and in code it would
        # silently replace relay C in a world of three nodes.
        doc = yaml.safe_load(TREE_YAML)
        doc["nodes"][3]["id"] = "C"
        with pytest.raises(SchemaError) as parsed:
            parse_scenario(yaml.safe_dump(doc))
        nodes = tuple(dataclasses.replace(n, id="C") if n.id == "D" else n
                      for n in tree_cfg.nodes)
        with pytest.raises(ValueError) as built:
            World(dataclasses.replace(tree_cfg, nodes=nodes))
        assert str(built.value) == "ScenarioConfig.nodes: duplicate ids in ['A', 'B', 'C', 'C']"
        assert str(built.value) == "; ".join(f"ScenarioConfig.{v}" for v in parsed.value.violations)

    @pytest.mark.parametrize("change", [
        lambda cfg: dataclasses.replace(
            cfg, policies={**cfg.policies, "sources": cfg.policies["source"]}),
        lambda cfg: dataclasses.replace(
            cfg, policies={**cfg.policies, "source": cfg.policies["source"] * 2}),
        lambda cfg: dataclasses.replace(cfg, slot_duration_s=1e7),
        lambda cfg: _with_node(cfg, "D", profile="nope"),
        lambda cfg: _with_node(cfg, "D", profile=None),
        lambda cfg: dataclasses.replace(
            cfg, profiles={**cfg.profiles, "diffused": scenario.ProfileSpec(kind="csv")}),
        lambda cfg: _with_node(cfg, "D", position=(40.0, 28.0)),
        lambda cfg: _with_node(cfg, "B", role="sink"),
        lambda cfg: dataclasses.replace(cfg, profiles={
            **cfg.profiles, "diffused": dataclasses.replace(cfg.profiles["diffused"], period_slots=2)
        }),
    ], ids=["policy-key", "repeated-policy-names", "event-cap", "undefined-profile",
            "missing-profile", "csv-without-path", "shared-position", "two-sinks", "no-daylight"])
    def test_code_built_config_refused_as_its_document_is(self, tree_cfg, change):
        # Each config breaks one rule across fields. Its document is refused by
        # the parser, and the config itself by the world, before slot 0, with
        # the parser's messages.
        bad = change(tree_cfg)
        with pytest.raises(SchemaError) as parsed:
            parse_scenario(serialize_scenario(bad))
        with pytest.raises(ValueError) as built:
            World(bad)
        assert str(built.value) == "; ".join(f"ScenarioConfig.{v}" for v in parsed.value.violations)


def _with_node(cfg, node_id, **changes):
    """``cfg`` with the node ``node_id`` given ``changes``."""
    return dataclasses.replace(cfg, nodes=tuple(
        dataclasses.replace(n, **changes) if n.id == node_id else n for n in cfg.nodes
    ))


class TestForecastMetrics:
    def test_prediction_rows_recorded(self, tree_cfg):
        m = simcore.run(World(dataclasses.replace(tree_cfg, seed=4)), 20)
        assert m.forecast_rows
        nodes = {n for _, n, _, _ in m.forecast_rows}
        assert nodes == {"B", "C", "D"}
        for slot, node, predicted, actual in m.forecast_rows:
            assert predicted >= 0.0 and actual >= 0.0


def lattice_yaml(
    *, sigma_db: float, predictor: str, slots: int, rows: int = 3, cols: int = 4
) -> str:
    """A ``rows x cols`` lattice at a 30 m pitch, sink at the (0, 0) corner.

    Every third non-sink node is a source, the rest relay, and the harvest
    profiles cycle; energy, MAC, routing, traffic, profile and policy
    settings are the shipped four-node tree's.
    """
    doc = yaml.safe_load(
        resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
    )
    profiles = ("direct", "reflected", "diffused")
    nodes = [{"id": "N00", "role": "sink", "position": [0.0, 0.0]}]
    for k in range(1, rows * cols):
        r, c = divmod(k, cols)
        nodes.append({
            "id": f"N{k:02d}",
            "role": "source" if (k - 1) % 3 == 2 else "relay",
            "position": [30.0 * c, 30.0 * r],
            "profile": profiles[(k - 1) % 3],
        })
    doc.update(name=f"lattice-{rows}x{cols}", slots=slots, nodes=nodes)
    doc["channel"] = {"shadowing_sigma_db": sigma_db}
    doc["predictor"]["kind"] = predictor
    return yaml.safe_dump(doc, sort_keys=True)


def link_offset(a, b, sigma):
    """A link's shadowing offset, derived here from the two node ids in
    sorted order; no run seed enters it."""
    lo, hi = sorted((a, b))
    return random.Random(f"{lo}:{hi}:shadow").gauss(0.0, sigma)


def _full_scan_rssi(settings, sender, receiver, tx_dbm):
    """A link's power, its path loss recomputed and its shadowing offset
    derived by :func:`link_offset`."""
    (x1, y1), (x2, y2) = sender.position, receiver.position
    rssi = rssi_at(tx_dbm, math.hypot(x2 - x1, y2 - y1), settings)
    sigma = settings.shadowing_sigma_db
    return rssi + link_offset(sender.node_id, receiver.node_id, sigma) if sigma > 0 else rssi


class _FullScanChannel(Channel):
    """A unicast exchange's link mean, and so its loss, from :func:`_full_scan_rssi`."""

    def link(self, sender, receiver, tx_dbm):
        rssi = _full_scan_rssi(self.settings, sender, receiver, tx_dbm)
        return rssi, loss_probability(rssi, self.settings)


class _FullScanWorld(World):
    """The engine before the link table: every reception recomputes its path
    loss, and every broadcast scans every other node in id order."""

    radio = mac.RadioEnergyModel()  # prices each frame afresh

    def __init__(self, cfg, **kwargs):
        super().__init__(cfg, **kwargs)
        self.channel = _FullScanChannel(cfg.channel, self.nodes, cfg.seed)

    def _link_rssi(self, sender, receiver, tx_dbm):
        return _full_scan_rssi(self.cfg.channel, sender, receiver, tx_dbm)

    def _on_beacon(self, t, node_id):
        rt = self.nodes[node_id]
        if not rt.is_sink and (rt.tx_power is None or rt.schedule.radio_off):
            return
        cost = mac.radio_energy(
            self.radio, tx_ms=self.cfg.mac.control_packet_ms, tx_power_dbm=REFERENCE_TX_POWER_DBM
        )
        if not self._charge(rt, "mac:beacon-tx", cost):
            return
        for other in self.nodes.values():
            if other.node_id == node_id:
                continue
            rssi = self._link_rssi(rt, other, REFERENCE_TX_POWER_DBM)
            if rssi < self.cfg.channel.sensitivity_dbm:
                continue
            if other.schedule.wait_ms(other.wake_phase_ms, t * 1000.0) != 0.0:
                continue
            if not survives(loss_probability(rssi, self.cfg.channel), self.channel.rng):
                continue
            rx = mac.radio_energy(self.radio, rx_ms=self.cfg.mac.control_packet_ms)
            if self._charge(other, "mac:beacon-rx", rx):
                routing.hear_beacon(other.routing, node_id, self.slot, node_id == self.sink_id)

    def _on_rreq_tx(self, t, node_id, rreq):
        rt = self.nodes[node_id]
        if rt.tx_power is None and not rt.is_sink:
            return
        span_ms = (
            mac.schedule_from_delta(mac.DELTA_BY_LEVEL[EnergyLevel.E1], self.cfg.mac).sleep_ms
            + self.cfg.mac.control_packet_ms
        )
        cost = mac.radio_energy(self.radio, tx_ms=span_ms, tx_power_dbm=rreq.tx_power_dbm)
        if not self._charge(rt, "mac:rreq-tx", cost):
            return
        arrival = t + span_ms / 1000.0
        self.channel.occupy(arrival)
        for other in self.nodes.values():
            if other.node_id == rt.node_id:
                continue
            if not other.is_sink and other.schedule.radio_off:
                continue
            rssi = self._link_rssi(rt, other, rreq.tx_power_dbm)
            if rssi < self.cfg.channel.sensitivity_dbm:
                continue
            if not survives(loss_probability(rssi, self.cfg.channel), self.channel.rng):
                continue
            rx = mac.radio_energy(self.radio, rx_ms=self.cfg.mac.control_packet_ms)
            if not self._charge(other, "mac:rreq-rx", rx):
                continue
            last_hop = rreq.path[-1][0] if rreq.path else rreq.origin
            self._push(arrival, "rreq_rx", other, rreq, rssi, last_hop, self.cfg.routing)


def _sink_decide(state, settings, candidates):
    """Winning route of a flood: first arrival in baseline mode, else the
    cheapest (first arrival on ties)."""
    chosen = candidates[0]
    if settings.mode != "baseline":
        best_cost = None
        for cand in candidates:
            cost = routing.candidate_cost(settings, cand)
            if best_cost is None or cost < best_cost:
                best_cost, chosen = cost, cand
    return _reply(state, chosen, routing.candidate_cost(settings, chosen))


def _reroute_on_better(state, settings, current, late):
    """Answer a late request only when it is strictly cheaper than ``current``."""
    if late.seq < state.answered.get(late.origin, 0):
        return None
    cost = routing.candidate_cost(settings, late)
    if cost >= current.cost:
        return None
    return _reply(state, late, cost)


def _reply(state, chosen, cost):
    state.answered[chosen.origin] = max(state.answered.get(chosen.origin, 0), chosen.seq)
    path = tuple(reversed(chosen.hops())) + (chosen.origin,)
    return routing.Rrep(chosen.origin, state.node_id, chosen.seq, path, cost)


class _EngineSinkWorld(World):
    """The engine while it held the sink's route choice: it kept the open
    collection windows and the installed route per origin itself and branched
    on the routing mode. Counts the late copies it re-answered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flood_candidates = {}
        self.active_sink_route = {}
        self.reanswers = 0

    def _on_rreq_rx(self, t, rt, rreq, rssi, last_hop, settings):
        if not rt.is_sink:
            return super()._on_rreq_rx(t, rt, rreq, rssi, last_hop, settings)
        routing.hear_frame(rt.routing, last_hop, rreq.tx_power_dbm, self.slot)
        self._sink_handle_rreq(t, rt, rreq, rssi)

    def _sink_handle_rreq(self, t, sink, rreq, rssi):
        state = sink.routing
        candidate = dataclasses.replace(rreq, path=rreq.path + ((sink.node_id, rssi),))
        key = (rreq.origin, rreq.seq)
        answered = state.answered.get(rreq.origin, 0)
        if rreq.seq < answered:
            return
        if self.cfg.routing.mode == "baseline":
            if rreq.seq == answered:
                return  # first copy already answered this flood
            rrep = _sink_decide(state, self.cfg.routing, [candidate])
            self._install_sink_route(rrep)
            self._push(t + simcore.PROCESSING_DELAY_S, "rrep_hop", rrep, 0)
            return
        if key in self.flood_candidates:
            self.flood_candidates[key].append(candidate)
            return
        if rreq.seq == answered and rreq.origin in self.active_sink_route:
            rrep = _reroute_on_better(
                state, self.cfg.routing, self.active_sink_route[rreq.origin], candidate
            )
            if rrep is not None:
                self.reanswers += 1
                self._install_sink_route(rrep)
                self._push(t + simcore.PROCESSING_DELAY_S, "rrep_hop", rrep, 0)
            return
        self.flood_candidates[key] = [candidate]
        window = self.cfg.routing.collection_window_ms / 1000.0
        self._push(t + window, "rreq_window", rreq.origin, rreq.seq)

    def _on_rreq_window(self, t, origin, seq):
        candidates = self.flood_candidates.pop((origin, seq), [])
        if not candidates:
            return
        sink = self.nodes[self.sink_id]
        if seq < sink.routing.answered.get(origin, 0):
            return
        rrep = _sink_decide(sink.routing, self.cfg.routing, candidates)
        self._install_sink_route(rrep)
        self._push(t, "rrep_hop", rrep, 0)

    def _install_sink_route(self, rrep):
        self.active_sink_route[rrep.origin] = routing.RouteEntry(
            next_hop=rrep.path[1] if len(rrep.path) > 1 else rrep.origin,
            cost=rrep.cost,
            seq=rrep.seq,
        )


def _by_slot(m: simcore.Metrics) -> dict:
    """The book's paid sum per ``(slot, node)``, read through ``by_slot.get``
    for each ledger row, with an entry for each sum above 0."""
    sums = ((s, n, m.book.by_slot.get((s, n), 0.0)) for s, n, *_ in m.ledger)
    return {(s, n): total for s, n, total in sums if total}


def _outputs(world: World) -> tuple:
    """A run's outputs: its metrics, with the per-packet records of a :class:`PacketLog`."""
    m = world.metrics
    return (list(m.ledger), (_by_slot(m), m.book.by_label, m.charges), list(m.slot_reports),
            m.route_log, m.drops, m.drop_rows, m.evictions, m.delivered, m.delivered_ids,
            m.generated)


class TestLinkTable:
    POWERS = sorted(set(TX_POWER_BY_LEVEL.values()) | {REFERENCE_TX_POWER_DBM})

    @pytest.mark.parametrize("sigma_db", [0.0, 4.0])
    def test_fanout_equals_brute_force_filter(self, sigma_db):
        cfg = parse_scenario(lattice_yaml(sigma_db=sigma_db, predictor="ewma", slots=10))
        world = World(cfg)
        ids = sorted(world.nodes)
        dropped = 0
        for sender_id in ids:
            sender = world.nodes[sender_id]
            for tx in self.POWERS:
                expected = []
                for other_id in ids:
                    if other_id == sender_id:
                        continue
                    (x1, y1), (x2, y2) = sender.position, world.nodes[other_id].position
                    rssi = rssi_at(tx, math.hypot(x2 - x1, y2 - y1), cfg.channel)
                    if sigma_db > 0:
                        rssi += link_offset(sender_id, other_id, sigma_db)
                    if rssi >= cfg.channel.sensitivity_dbm:
                        expected.append((other_id, rssi, loss_probability(rssi, cfg.channel)))
                    else:
                        dropped += 1
                fan = world.channel.fanout(sender, tx)
                got = [(other.node_id, mean, loss) for other, mean, loss in fan]
                assert got == expected
        assert dropped > 0  # the lattice has links below sensitivity at every power

    def test_rssi_at_called_once_per_link_and_power(self, monkeypatch):
        cfg = parse_scenario(lattice_yaml(sigma_db=0.0, predictor="ewma", slots=20))
        links = []
        last_pair = []
        real_link, real_rssi_at = Channel.link, channel.rssi_at

        def link(self, a, b, tx_dbm):
            last_pair[:] = [tuple(sorted((a.node_id, b.node_id)))]
            return real_link(self, a, b, tx_dbm)

        def counting_rssi_at(tx_dbm, distance_m, settings):
            links.append((*last_pair[0], tx_dbm))
            return real_rssi_at(tx_dbm, distance_m, settings)

        monkeypatch.setattr(Channel, "link", link)
        monkeypatch.setattr(channel, "rssi_at", counting_rssi_at)
        world = World(cfg, metrics=simcore.MacTrace())
        assert links == []  # the table is built on first use, not at set-up
        m = simcore.run(world, 20)
        broadcasts = sum(1 for row in m.mac_trace if row[2] in ("beacon-tx", "rreq-tx"))
        assert broadcasts > len(world.nodes) * len(self.POWERS)
        repeated = {link: n for link, n in Counter(links).items() if n > 1}
        assert links and not repeated

    def test_shadowed_link_rssi_is_its_path_loss_plus_its_offset(self, tree_cfg):
        settings = ChannelSettings(shadowing_sigma_db=4.0)
        cfg = dataclasses.replace(tree_cfg, channel=settings)
        world = World(dataclasses.replace(cfg, seed=23))
        untouched = random.Random("23:channel").getstate()
        a, b, c, d = (world.nodes[n] for n in "ABCD")
        for sender, receiver, tx in [(a, b, 0), (b, d, -5), (a, b, 0), (d, c, -10), (d, b, -5)]:
            (x1, y1), (x2, y2) = sender.position, receiver.position
            offset = link_offset(sender.node_id, receiver.node_id, 4.0)
            expected = rssi_at(tx, math.hypot(x2 - x1, y2 - y1), settings) + offset
            assert world.channel.link(sender, receiver, tx)[0] == expected
        assert world.channel.rng.getstate() == untouched  # no exchange draws from the channel stream

    @pytest.mark.parametrize("sigma_db", [0.0, 4.0])
    def test_run_equals_full_scan(self, sigma_db):
        # A floor below the E0 threshold and four dark nodes put radios off
        # mid-run, so floods pass receivers that must be skipped before
        # their delivery draw.
        cfg = parse_scenario(lattice_yaml(sigma_db=sigma_db, predictor="ewma", slots=30))
        cfg = dataclasses.replace(cfg, energy=dataclasses.replace(cfg.energy, floor_fraction=0.02))
        dark = HarvestTrace(powers=(0.0,) * 30)
        traces = {n: dark for n in ("N02", "N05", "N07", "N10")}
        cfg = dataclasses.replace(cfg, seed=5)
        table = World(cfg, traces=traces, metrics=PacketChargeLog())
        radio_off = 0
        for _ in range(30):
            simcore.run(table, 1)
            radio_off += sum(1 for rt in table.nodes.values() if rt.schedule.radio_off)
        scan = _FullScanWorld(cfg, traces=traces, metrics=PacketChargeLog())
        simcore.run(scan, 30)
        assert radio_off > 0 and table.metrics.delivered > 0
        assert _outputs(table) == _outputs(scan)


class _ArrivalLogWorld(World):
    """Logs each flood reception as it is handled."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    def _on_rreq_rx(self, t, rt, rreq, rssi, last_hop, settings):
        self.handled.append((rt, rssi))
        super()._on_rreq_rx(t, rt, rreq, rssi, last_hop, settings)


class TestFloodArrival:
    def test_one_broadcast_is_one_queue_entry_handled_in_fan_out_order(self):
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=5))
        world = _ArrivalLogWorld(cfg)
        world.step_slot()  # plans every node: transmit powers and schedules
        world._events.clear()
        world.handled.clear()
        sender = world.nodes["N05"]
        assert sender.tx_power is not None
        rreq = routing.Rreq(origin="N05", seq=9, tx_power_dbm=sender.tx_power)
        world._on_rreq_tx(world.now, "N05", rreq)

        assert len(world._events) == 1
        t, _, kind, payload = world._events[0]
        assert kind == "rreq_arrive" and payload[0] is rreq
        heard = list(payload[1])
        fan_out = [other.node_id for other, _, _ in world.channel.fanout(sender, sender.tx_power)]
        assert all(world.nodes[rt.node_id] is rt for rt, _ in heard)
        ids = [rt.node_id for rt, _ in heard]
        assert len(ids) > 2
        assert ids == [n for n in fan_out if n in ids]  # fan-out order, each at most once

        t, _, kind, payload = heapq.heappop(world._events)
        world._handlers[kind](t, *payload)
        assert world.handled == heard


class TestSinkRouteChoice:
    """``routing``'s sink entry points reproduce the engine-held route choice."""

    @staticmethod
    def both(cfg, slots, mode):
        cfg = dataclasses.replace(cfg, routing=dataclasses.replace(cfg.routing, mode=mode))
        reference = _EngineSinkWorld(cfg, metrics=PacketChargeLog())
        simcore.run(reference, slots)
        world = World(cfg, metrics=PacketChargeLog())
        simcore.run(world, slots)
        assert _outputs(world) == _outputs(reference)
        return reference

    @pytest.mark.parametrize("mode", ["modified", "baseline"])
    @pytest.mark.parametrize("sigma_db", [0.0, 4.0])
    def test_lattice_equals_engine_held_choice(self, sigma_db, mode):
        # The lattice reaches the late re-answer path (the tree does not), and
        # at seed 1 without shadowing two late copies tie the answered cost.
        cfg = parse_scenario(lattice_yaml(sigma_db=sigma_db, predictor="ewma", slots=60))
        reference = self.both(dataclasses.replace(cfg, seed=1), 60, mode)
        assert (reference.reanswers > 0) == (mode == "modified")

    @pytest.mark.parametrize("mode", ["modified", "baseline"])
    def test_tree_equals_engine_held_choice(self, tree_cfg, mode):
        self.both(tree_cfg, 60, mode)


class TestStreamedCharges:
    """The streamed totals are the sums of the per-draw rows, which are
    opt-in and change nothing else."""

    @pytest.mark.parametrize("shape", ["tree", "lattice"])
    def test_totals_equal_row_sums(self, tree_cfg, shape):
        if shape == "tree":
            cfg, slots = tree_cfg, 60
        else:
            cfg, slots = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=30)), 30
        with_rows = World(cfg, metrics=PacketChargeLog())
        m = simcore.run(with_rows, slots)
        by_slot, by_label = defaultdict(float), defaultdict(float)
        for s, n, label, amount in m.charges:
            by_slot[s, n] += amount
            by_label[n, label] += amount
        for streamed, summed in ((_by_slot(m), by_slot), (m.book.by_label, by_label)):
            assert streamed.keys() == summed.keys()
            for key, total in summed.items():
                assert streamed[key] == pytest.approx(total, rel=1e-9, abs=0.0)
        families = {label.split(":")[0] for _, label in m.book.by_label}
        assert families == {"op", "mac", "duty"}

        plain_world = World(cfg, metrics=PacketLog())
        plain = simcore.run(plain_world, slots)
        assert (_by_slot(plain), plain.book.by_label, plain.charges) == (
            _by_slot(m), m.book.by_label, [])
        assert list(plain.ledger) == list(m.ledger)
        assert _outputs(plain_world)[2:] == _outputs(with_rows)[2:]


class _CountingWorld(World):
    """The engine, counting the overhead draws the floor refused."""

    refusals = 0

    def _charge(self, rt, label, amount):
        paid = super()._charge(rt, label, amount)
        self.refusals += not paid and label.startswith("mac:")
        return paid


def _fold_rows(rows) -> tuple[dict, dict]:
    """The book settlement should build from a collecting run's per-draw rows:
    each draw summed as it was made, except one settlement's operation rows,
    which join once per kind, at price x count, in first-seen order."""
    by_slot, by_label, ops = {}, {}, {}

    def add(slot, node, label, amount):
        by_slot[slot, node] = by_slot.get((slot, node), 0.0) + amount
        by_label[node, label] = by_label.get((node, label), 0.0) + amount

    def add_ops():
        for (slot, node, label), (price, count) in ops.items():
            add(slot, node, label, price * count)
        ops.clear()

    for slot, node, label, amount in rows:
        if label.startswith("op:"):
            ops.setdefault((slot, node, label), [amount, 0])[1] += 1
        else:
            add_ops()  # a settlement's operations come before its duty and leakage
            add(slot, node, label, amount)
    add_ops()
    return by_slot, by_label


class TestChargeAccounts:
    """The per-node accounts the engine publishes give exactly the book that
    folding the per-draw rows gives: each sum adds the same draws in the same
    order, the slot's overhead, then each operation kind, duty and leakage."""

    @staticmethod
    def both(cfg, slots):
        collecting = _CountingWorld(cfg, metrics=PacketChargeLog())
        with_rows = simcore.run(collecting, slots)
        by_slot, by_label = _fold_rows(with_rows.charges)
        plain = World(cfg, metrics=PacketLog())
        m = simcore.run(plain, slots)
        assert _by_slot(m) == by_slot
        assert m.book.by_label == by_label
        assert list(m.ledger) == list(with_rows.ledger)
        assert _outputs(plain)[2:] == _outputs(collecting)[2:]
        return collecting, m

    def test_tree(self, tree_cfg):
        self.both(tree_cfg, 60)

    def test_shadowed_lattice(self):
        self.both(parse_scenario(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=30)), 30)

    def test_refusals_and_settlement_draws(self):
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=30))
        # A small store, leaking, with the floor lowered from 0.10: overhead
        # draws are refused and settlements abort.
        energy_settings = dataclasses.replace(
            cfg.energy, capacity_uj=50_000.0, leakage_uj_per_slot=500.0, floor_fraction=0.05
        )
        cfg = dataclasses.replace(cfg, energy=energy_settings, seed=5)
        counted, m = self.both(cfg, 30)
        assert counted.refusals > 0 and any(r.aborted for r in m.slot_reports)
        families = {label.split(":")[0] for _, label in m.book.by_label}
        assert families == {"op", "mac", "duty", "leakage"}


class TestLeakageToTheFloor:
    """Leakage larger than what a store holds above the floor drains it to
    the floor, even when ``stored - floor`` is not exactly representable and
    paying it whole would leave one ulp below the floor."""

    def test_each_leaking_node_slot_pays_and_ends_at_the_floor(self):
        text = resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
        cfg = parse_scenario(text)
        energy_settings = dataclasses.replace(
            cfg.energy, floor_fraction=0.07, leakage_uj_per_slot=500_000.0
        )
        cfg = dataclasses.replace(cfg, slots=50, energy=energy_settings)
        world = World(cfg, metrics=ChargeRows())
        m = simcore.run(world, 50)
        floor = world.floor
        assert floor == 21000.000000000004  # 0.07 x 300000 is not exact
        leaked = {(slot, node): uj for slot, node, label, uj in m.charges if label == "leakage"}
        assert len(m.ledger) == 150 and len(leaked) > 50
        for slot, node, *_, end in m.ledger:
            # The leak exceeds any store, so a node-slot that pays none was
            # already at the floor, and one that pays leaks all it may: one
            # ulp more would leave it below the floor.
            if (slot, node) not in leaked:
                assert end == floor, (slot, node, end)
                continue
            assert floor <= end <= floor + math.ulp(leaked[slot, node]), (slot, node, end)


class TestShadowOffset:
    """A link's mean received power is its path loss plus its shadowing
    offset, ``random.Random(f"{a}:{b}:shadow").gauss(0.0, sigma)`` with the
    two ids sorted, bit for bit, whatever the run seed; no link draws from the
    channel stream."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from([5e-324, 1e-300, 0.5, 4.0, 12.0])
        | st.floats(1e-3, 20.0, allow_nan=False),
        links=st.lists(
            st.tuples(st.permutations("ABCD"), st.sampled_from([-10, -5, 0])),
            min_size=1, max_size=12,
        ),
    )
    def test_bit_equal_to_the_link_stream(self, tree_cfg, seed, sigma, links):
        settings = ChannelSettings(shadowing_sigma_db=sigma)
        world = World(dataclasses.replace(tree_cfg, channel=settings, seed=seed))
        medium = world.channel
        untouched = medium.rng.getstate()
        bits = struct.Struct("d").pack
        for (a, b, *_), tx in links:
            sender, receiver = world.nodes[a], world.nodes[b]
            (x1, y1), (x2, y2) = sender.position, receiver.position
            expected = rssi_at(tx, math.hypot(x2 - x1, y2 - y1), settings)
            expected += link_offset(a, b, sigma)
            assert bits(medium.link(sender, receiver, tx)[0]) == bits(expected)
        assert medium.rng.getstate() == untouched

    def test_pinned_offsets(self):
        # The stream's derivation itself: a change of the seed string or of
        # the draw moves these values.
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=10))
        pinned = [("N01", "N00", 0.5025644435018144), ("N05", "N10", 5.289652090505074)]
        for seed in (8, 401):
            world = World(dataclasses.replace(cfg, seed=seed))
            for a, b, offset in pinned:
                sender, receiver = world.nodes[a], world.nodes[b]
                (x1, y1), (x2, y2) = sender.position, receiver.position
                path_loss = rssi_at(0, math.hypot(x2 - x1, y2 - y1), cfg.channel)
                # A link's mean is built as its path loss plus its offset.
                assert world.channel.link(sender, receiver, 0)[0] == path_loss + offset


class TestBenchmarkBindings:
    """What the benchmark's tracer relies on, pinned from the program side:
    it wraps ``simcore.withdraw`` as ``energy.withdraw``, times
    ``energy.check_amount`` inside it, and expects every paid overhead draw
    of a workload to go through it (the engine answers a floor refusal
    itself, by the same comparison)."""

    def test_simcore_withdraw_is_energy_withdraw(self):
        assert simcore.withdraw is energy.withdraw

    def test_withdraw_calls_check_amount(self, monkeypatch):
        store = EnergyStore(stored=10.0, capacity=100.0)
        checked = []
        real = energy.check_amount

        def counting(value, what="energy"):
            checked.append(what)
            return real(value, what)

        monkeypatch.setattr(energy, "check_amount", counting)
        energy.withdraw(store, 1.0, 0.0)
        assert len(checked) >= 1

    def test_lattice_run_draws_overhead_through_simcore_withdraw(self, monkeypatch):
        paid = []
        real = simcore.withdraw

        def counting(store, e, floor):
            real(store, e, floor)
            paid.append(e)
            return store

        monkeypatch.setattr(simcore, "withdraw", counting)
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=5))
        m = simcore.run(World(cfg, metrics=ChargeRows()), 5)
        overhead = [amount for _, _, label, amount in m.charges if not label.startswith("op:")]
        assert paid and paid == overhead


class TestBenchmarkObservers:
    """What the benchmark's tracer relies on in planning and settlement: it
    wraps ``forecast.hw_step`` at the module, so ``forecast.step`` must call
    it through the module attribute; and its observer of
    ``app.execute_plan`` reads the call's arguments, its returned
    ``(report, store, skipped)`` triple and the plan's ``backlog_run`` and
    ``run_ops``."""

    def test_step_reaches_hw_step_through_the_module_attribute(self, monkeypatch):
        real = forecast.hw_step
        seen = []

        def counting(settings, state, measured):
            seen.append(measured)
            return real(settings, state, measured)

        monkeypatch.setattr(forecast, "hw_step", counting)
        settings = forecast.PredictorSettings(kind="hw", period=2)
        state = forecast.hw_init([1.0, 2.0, 1.0, 2.0], 2)
        assert forecast.step(settings, state, 3.0) == real(settings, state, 3.0)
        assert seen == [3.0]

    def test_execute_plan_keeps_its_signature_and_triple(self):
        p = inspect.Parameter
        params = inspect.signature(app.execute_plan).parameters
        assert [(name, param.kind) for name, param in params.items()] == [
            ("plan", p.POSITIONAL_OR_KEYWORD),
            ("store", p.POSITIONAL_OR_KEYWORD),
            ("floor", p.POSITIONAL_OR_KEYWORD),
            ("available", p.KEYWORD_ONLY),
            ("slot", p.KEYWORD_ONLY),
            ("node", p.KEYWORD_ONLY),
        ]
        context = app.EnergyContext(EnergyLevel.E1, EnergyLevel.E1, EnergyLevel.E1)
        drained = [app.BacklogEntry("flash_write", "log", 2, 0)]
        run_ops = [("report", "sense"), ("report", "tx128")]
        price = {"flash_write": 1.23, "sense": 20.3, "tx128": 341.0}
        plan = app.ExecutionPlan(context, run_ops, drained, {"report": 1.0}, 0.0, [], price)
        store = EnergyStore(stored=100.0, capacity=1000.0)
        result = app.execute_plan(plan, store, 50.0, available=100.0, slot=3, node="D")
        assert type(result) is tuple and len(result) == 3
        report, paid_from, skipped = result
        assert isinstance(report, app.SlotReport) and (report.slot, report.node) == (3, "D")
        assert paid_from is store and store.stored == 100.0 - 1.23 - 20.3
        assert skipped == [("report", "tx128")]
        assert (report.ops_node, report.ops_network, report.aborted) == (2, 0, True)
        assert len(plan.backlog_run) + len(plan.run_ops) == 3


class TestChargeRefusal:
    """``World._charge`` refuses at the floor exactly the draws
    ``energy.withdraw`` refuses, without raising, and pays the rest through
    it; a refused draw changes nothing."""

    LABEL = "mac:beacon-tx"

    @staticmethod
    def powered(tree_cfg, stored, floor):
        world = World(tree_cfg, metrics=ChargeRows())
        world.floor = floor
        rt = world.nodes["D"]
        rt.store.stored = stored
        return world, rt

    @staticmethod
    def accounts(world, rt):
        return rt.store.stored, rt.slot_charged, dict(rt.charged_by_label), list(world.metrics.charges)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        stored=st.floats(0.0, 1e6),
        floor=st.floats(0.0, 1e6),
        amount=st.sampled_from([5e-324, 1e-9]) | st.floats(0.0, 2e6, exclude_min=True),
        exact=st.booleans(),
    )
    @example(stored=10.0, floor=4.0, amount=6.0, exact=False)  # leaves exactly the floor: paid
    @example(stored=10.0, floor=4.0, amount=6.000000000000001, exact=False)  # one ulp more: refused
    def test_refuses_exactly_what_withdraw_refuses(self, tree_cfg, stored, floor, amount, exact):
        if exact and stored > floor:
            amount = stored - floor
        twin = EnergyStore(stored=stored, capacity=max(stored, 1.0))
        try:
            energy.withdraw(twin, amount, floor)
            refused = False
        except energy.InsufficientEnergy:
            refused = True
        assert refused == (stored - amount < floor)  # what is left may equal the floor
        world, rt = self.powered(tree_cfg, stored, floor)
        before = self.accounts(world, rt)
        assert world._charge(rt, self.LABEL, amount) is (not refused)
        if refused:
            assert self.accounts(world, rt) == before
            return
        assert rt.store.stored == twin.stored
        assert rt.slot_charged == amount
        assert rt.charged_by_label == {self.LABEL: amount}
        assert world.metrics.charges == [(0, "D", self.LABEL, amount)]

    @pytest.mark.parametrize("amount", [0.0, 1.0, 1e12])
    def test_sink_pays_nothing(self, tree_cfg, amount):
        world = World(tree_cfg, metrics=ChargeRows())
        sink = world.nodes[world.sink_id]
        assert world._charge(sink, self.LABEL, amount)
        assert sink.store is None and sink.slot_charged == 0.0
        assert sink.charged_by_label == {} and world.metrics.charges == []

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf, -5e-324])
    def test_invalid_amount_raises(self, tree_cfg, amount):
        world, rt = self.powered(tree_cfg, 10.0, 4.0)
        before = self.accounts(world, rt)
        with pytest.raises(ValueError):
            world._charge(rt, self.LABEL, amount)
        assert self.accounts(world, rt) == before

    def test_negative_draw_names_its_label(self, tree_cfg):
        world, rt = self.powered(tree_cfg, 10.0, 4.0)
        with pytest.raises(ValueError, match="'mac:beacon-tx' must be >= 0, got -1.0"):
            world._charge(rt, self.LABEL, -1.0)
        assert rt.store.stored == 10.0 and rt.charged_by_label == {}

    @pytest.mark.parametrize("stored", [10.0, 4.0, 3.0])
    def test_zero_draw_is_free_and_unlabelled(self, tree_cfg, stored):
        # Free even on a store already below the floor, which withdraw refuses.
        world, rt = self.powered(tree_cfg, stored, 4.0)
        assert world._charge(rt, self.LABEL, 0.0)
        assert self.accounts(world, rt) == (stored, 0.0, {}, [])


class _BeaconLogWorld(World):
    """Logs the beacons it handles, through its own ``_on_beacon``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.beacons = []

    def _on_beacon(self, t, node_id):
        self.beacons.append(node_id)
        super()._on_beacon(t, node_id)


class TestEngineRecords:
    """The engine's per-event records carry no instance dict, and its event
    dispatch is bound without a ``dir()`` walk per world."""

    def test_hot_records_have_no_instance_dict(self, tree_cfg):
        world = World(tree_cfg)
        rt = world.nodes["D"]
        records = [
            rt,
            rt.routing,
            routing.RouteEntry(next_hop="B", cost=1.0, seq=1),
            app.EnergyContext(EnergyLevel.E1, EnergyLevel.E2, EnergyLevel.E3),
            world.frames,
            rt.schedule,
            world.channel,
            world,
        ]
        assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []

    def test_subclass_override_is_dispatched(self, tree_cfg):
        world = _BeaconLogWorld(tree_cfg)
        assert world._handlers["beacon"].__func__ is _BeaconLogWorld._on_beacon
        assert world._handlers["send"].__func__ is World._on_send
        world.step_slot()
        assert world.beacons and set(world.beacons) <= set(world.nodes)

    def test_set_up_and_first_slot_run_no_dir(self, tree_cfg, monkeypatch):
        calls = []
        real = builtins.dir

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(builtins, "dir", counting)
        for cls in (World, _BeaconLogWorld):
            world = cls(tree_cfg)
            world.step_slot()
        assert calls == []


def _hold_each(world, rt, pkts, reason):
    """The per-packet rule blocked packets once followed: a relay drops each;
    at a source each packet joins the pending queue in turn, and past the
    cap the oldest waiting one overflows, each packet through its own
    :meth:`Metrics.dropped`."""
    for pkt in pkts:
        if rt.role != "source":
            world.metrics.dropped(world.slot, rt.node_id, reason, [pkt.pid])
            continue
        if reason == "no-route":
            rt.need_route = True
        rt.pending.append(pkt)
        if len(rt.pending) > simcore.PENDING_QUEUE_CAP:
            victim = rt.pending.pop(0)
            world.metrics.dropped(world.slot, rt.node_id, f"queue-overflow({reason})", [victim.pid])


class TestBlockedSourceQueue:
    """``World._hold`` equals the per-packet rule, :func:`_hold_each`."""

    CAP = simcore.PENDING_QUEUE_CAP

    @staticmethod
    def blocked(tree_cfg, node_id, queued, need_route):
        """A world at slot 7 whose ``node_id`` has ``queued`` packets pending."""
        world = World(tree_cfg, metrics=PacketLog())
        world.slot = 7
        rt = world.nodes[node_id]
        rt.need_route = need_route
        rt.pending = [simcore.Packet(f"{node_id}-old-{i}") for i in range(queued)]
        return world, rt

    @staticmethod
    def outcome(world, rt):
        m = world.metrics
        return [p.pid for p in rt.pending], m.drop_rows, m.drops, rt.need_route

    # D is the tree's source, B a relay.
    @pytest.mark.parametrize("reason", ["dormant", "no-route"])
    @pytest.mark.parametrize("n", [0, 1, CAP - 1, CAP, CAP + 1, 3 * CAP + 5])
    @pytest.mark.parametrize("need_route", [False, True])
    @pytest.mark.parametrize("node_id, queued", [("D", 0), ("D", 5), ("D", CAP), ("B", 0)])
    def test_one_hold_equals_per_packet_holds(
        self, tree_cfg, reason, n, need_route, node_id, queued
    ):
        outcomes = []
        for hold in (_hold_each, World._hold):
            world, rt = self.blocked(tree_cfg, node_id, queued, need_route)
            pkts = [simcore.Packet(f"{node_id}-{i}") for i in range(n)]
            waiting = rt.pending + pkts if rt.role == "source" else []
            hold(world, rt, pkts, reason)
            assert all(a is b for a, b in zip(rt.pending, waiting[-self.CAP:], strict=True))
            outcomes.append(self.outcome(world, rt))
        assert outcomes[0] == outcomes[1]
        pending, drops, counts, _ = outcomes[1]
        assert counts.total() == len(drops)
        if node_id == "D":
            assert len(pending) == min(queued + n, self.CAP)
            assert len(drops) == max(queued + n - self.CAP, 0)
        else:
            assert pending == [] and len(drops) == n

    @pytest.mark.parametrize("reason", ["dormant", "no-route", "no-energy"])
    @pytest.mark.parametrize("node_id, queued", [("D", 0), ("D", CAP), ("B", 0)])
    def test_a_blocked_send_holds_its_packet(self, tree_cfg, reason, node_id, queued):
        outcomes = []
        for via_send in (False, True):
            world, rt = self.blocked(tree_cfg, node_id, queued, False)
            rt.tx_power = None if reason == "dormant" else 0
            if reason == "no-energy":
                routing.install_route(rt.routing, dest="A", next_hop="A", cost=1.0, seq=1)
                rt.store.stored = world.floor
            pkt = simcore.Packet(f"{node_id}-new")
            if via_send:
                world._on_send(0.0, node_id, pkt)
            else:
                _hold_each(world, rt, [pkt], reason)
            assert world._events == []
            outcomes.append(self.outcome(world, rt))
        assert outcomes[0] == outcomes[1]


class _SendLogWorld(World):
    """Records each send a source pushes: ``(slot, t)`` of every one, and
    ``late`` those at or past the end of the slot that pushed them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.source_sends, self.late = [], []

    def _push(self, t, kind, *payload):
        if kind == "send" and self.nodes[payload[0]].role == "source":
            self.source_sends.append((self.slot, t))
            if t >= (self.slot + 1) * self.cfg.slot_duration_s:
                self.late.append((self.slot, t, payload[0]))
        super()._push(t, kind, *payload)


class TestSendInSlot:
    """``World._send_in_slot`` is the one rule for a source's own sends: a
    slot's traffic stays in its slot, and the rest waits through ``_hold``."""

    @staticmethod
    def routed_source(cfg, metrics=None):
        """A world at slot 3 whose source D is awake with a route to the sink A."""
        world = World(cfg, metrics=metrics)
        world.slot = 3
        rt = world.nodes["D"]
        rt.tx_power = 0
        routing.install_route(rt.routing, dest="A", next_hop="B", cost=1.0, seq=1)
        return world, rt

    def test_a_send_that_would_fall_past_the_slot_end_stays_pending(self, tree_cfg):
        world, rt = self.routed_source(tree_cfg)
        pkts = [simcore.Packet(f"D-{i}") for i in range(4)]
        rt.pending = list(pkts)
        slot_end = 4 * tree_cfg.slot_duration_s
        world.now = slot_end - 0.15  # room for sends at +0 and +0.1 s
        world._send_in_slot(rt, [], world.now, 0.1)  # as a route install does
        sends = sorted(world._events)
        assert [(kind, payload) for _, _, kind, payload in sends] == [
            ("send", ("D", pkts[0])), ("send", ("D", pkts[1]))
        ]
        assert all(t < slot_end for t, *_ in sends)
        assert rt.pending == pkts[2:]

    def test_a_spill_past_the_cap_overflows_as_slot_end(self, tree_cfg):
        world, rt = self.routed_source(tree_cfg, PacketLog())
        cap = simcore.PENDING_QUEUE_CAP
        pkts = [simcore.Packet(f"D-{i}") for i in range(2 * cap + 10)]
        slot_end = 4 * tree_cfg.slot_duration_s
        world._send_in_slot(rt, pkts, slot_end - 0.25, 0.1)  # room for three sends
        assert [payload for *_, payload in sorted(world._events)] == [("D", p) for p in pkts[:3]]
        assert rt.pending == pkts[-cap:]
        spilled = [p.pid for p in pkts[3:-cap]]
        assert len(spilled) == cap + 7
        assert world.metrics.drop_rows == [
            (3, pid, "D", "queue-overflow(slot-end)") for pid in spilled
        ]
        assert world.metrics.drops == Counter({("D", "queue-overflow(slot-end)"): cap + 7})
        assert not rt.need_route

    @pytest.mark.parametrize("reason", ["dormant", "no-route"])
    def test_a_blocked_source_holds_the_whole_batch(self, tree_cfg, reason):
        world, rt = self.routed_source(tree_cfg, PacketLog())
        if reason == "dormant":
            rt.tx_power = None
        else:
            routing.invalidate_route(rt.routing, "A")
        old = rt.pending = [simcore.Packet("D-old")]
        pkts = [simcore.Packet(f"D-{i}") for i in range(5)]
        world._send_in_slot(rt, pkts, 3 * tree_cfg.slot_duration_s, 0.1)
        assert world._events == [] and world.metrics.drop_rows == []
        assert rt.pending == old + pkts
        assert rt.need_route == (reason == "no-route")

    @pytest.mark.parametrize(
        "shape",
        [{"rows": 6, "cols": 8, "sigma_db": 0.0, "predictor": "ewma"},
         {"sigma_db": 4.0, "predictor": "hw"}],
        ids=["grid48", "lattice-hw-4.0"],
    )
    def test_no_source_sends_at_or_past_its_slot_end(self, shape):
        # Before the one rule, a source with more than six packets spaced
        # its sends into later slots: 297 on grid48's shape and 52 on the
        # Holt-Winters lattice over these 100 slots.
        cfg = dataclasses.replace(parse_scenario(lattice_yaml(slots=100, **shape)), seed=401)
        world = _SendLogWorld(cfg)
        simcore.run(world, cfg.slots)
        assert len(world.source_sends) > 1000
        assert world.late == []


class TestPlanTermsPerWorld:
    """Each world plans from terms priced at its own costs."""

    COSTS = {"sense": 80.0, "rx128": 520.0, "tx128": {0: 700.0, -5: 610.0, -10: 540.0}}

    def test_worlds_with_other_costs_run_side_by_side_as_alone(self, tree_cfg):
        slots = 60
        alone = [
            World(parse_scenario(TREE_YAML), metrics=PacketChargeLog()),
            World(dataclasses.replace(parse_scenario(TREE_YAML), costs=self.COSTS),
                  metrics=PacketChargeLog()),
        ]
        for world in alone:
            simcore.run(world, slots)
        # Both worlds share the parsed policies and step in turn.
        pair = [World(tree_cfg, metrics=PacketChargeLog()),
                World(dataclasses.replace(tree_cfg, costs=self.COSTS), metrics=PacketChargeLog())]
        for _ in range(slots):
            for world in pair:
                simcore.run(world, 1)
        assert pair[0].nodes["B"].policies is pair[1].nodes["B"].policies
        assert _outputs(alone[0]) != _outputs(alone[1])
        for world, expected in zip(pair, alone):
            assert _outputs(world) == _outputs(expected)

    # sha256 of the per-draw rows, one repr per line, of the shipped tree at
    # seed 11 over 300 slots, as the engine drew them one withdrawal at a time.
    ROWS_SHA256 = {
        "modified": (25633, "11bf7da3fa4d7630f759500500e6624ce322d76203cc27adf8c301d4ad4556b0"),
        "baseline": (24922, "948873456a623830b06d9433d180e1178089f3038ae9d1de508f03a0c487be8a"),
    }

    @pytest.mark.parametrize("mode", ["modified", "baseline"])
    def test_charge_rows_match_pinned_digest(self, mode):
        text = resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
        cfg = parse_scenario(text)
        cfg = dataclasses.replace(cfg, seed=11, routing=dataclasses.replace(cfg.routing, mode=mode))
        rows = simcore.run(World(cfg, metrics=ChargeRows()), 300).charges
        digest = hashlib.sha256("".join(f"{row!r}\n" for row in rows).encode()).hexdigest()
        assert (len(rows), digest) == self.ROWS_SHA256[mode]


class TestPlanShapeMemo:
    """Each planning-terms entry keeps one plan shape per tuple of prefix
    counts, so what it retains is bounded by the policies, not the run."""

    # Shapes retained over both routing modes of the shipped tree at seed 401.
    RETAINED = {200: 52, 2000: 58}

    def test_memo_stays_within_its_bound(self):
        cfg = dataclasses.replace(parse_scenario(SHIPPED_TREE), seed=401)
        worlds = [
            World(dataclasses.replace(cfg, routing=dataclasses.replace(cfg.routing, mode=mode)))
            for mode in ("modified", "baseline")
        ]
        done = 0
        for slots, retained in self.RETAINED.items():
            total = bound = 0
            for world in worlds:
                simcore.run(world, slots - done)
                for rt in world.nodes.values():
                    for terms in rt.plan_terms.values():
                        most = math.prod(len(p.plan_steps) + 1 for p in terms.ranked)
                        assert len(terms.shapes) <= most
                        total += len(terms.shapes)
                        bound += most
                        # Every plan of a shape shared it, and none changed it.
                        for counts, shape in terms.shapes.items():
                            assert shape == app._plan_shape(terms.ranked, terms.eligible, counts)
            done = slots
            assert total == retained
            assert total < bound


class TestTracePerProfile:
    """A world builds each profile's trace once; the nodes that use it share it."""

    def test_one_build_per_distinct_profile(self, monkeypatch):
        cfg = parse_scenario(lattice_yaml(sigma_db=0.0, predictor="ewma", slots=30))
        built = Counter()
        build = simcore.build_profile_trace

        def counting(prof, n_slots, name):
            built[name] += 1
            return build(prof, n_slots, name)

        monkeypatch.setattr(simcore, "build_profile_trace", counting)
        world = World(cfg)
        assert built == {"direct": 1, "reflected": 1, "diffused": 1}
        # Eleven nodes on three profiles: one trace object per profile.
        by_profile = defaultdict(set)
        for spec in cfg.nodes:
            if spec.profile is not None:
                by_profile[spec.profile].add(id(world.nodes[spec.id].trace))
        assert {name: len(ids) for name, ids in by_profile.items()} == built
        assert len(set.union(*by_profile.values())) == 3
        assert world.nodes["N01"].trace == build(cfg.profiles["direct"], 30, "direct")

    def test_given_traces_stay_per_node(self):
        # N01, N04 and N07 all use the direct profile; only N01 is given a trace.
        cfg = parse_scenario(lattice_yaml(sigma_db=0.0, predictor="ewma", slots=30))
        dark = HarvestTrace(powers=(0.0,) * 30)
        world = World(cfg, traces={"N01": dark})
        assert world.nodes["N01"].trace is dark
        assert world.nodes["N04"].trace is world.nodes["N07"].trace
        assert world.nodes["N04"].trace.powers != dark.powers


class TestGridInvariants:
    SLOTS = 60  # Holt-Winters leaves its warm-up after 2 x 24 slots

    @pytest.mark.parametrize(
        "sigma_db, predictor, csv",
        [
            pytest.param(0.0, "ewma", False, id="ewma-0.0"),
            pytest.param(4.0, "ewma", False, id="ewma-4.0"),
            pytest.param(0.0, "hw", False, id="hw-0.0"),
            pytest.param(4.0, "hw", False, id="hw-4.0"),
            pytest.param(4.0, "hw", True, id="hw-4.0-csv"),
        ],
    )
    def test_invariants_hold(self, sigma_db, predictor, csv, tmp_path):
        text = lattice_yaml(sigma_db=sigma_db, predictor=predictor, slots=self.SLOTS)
        if csv:
            # Every profile reads one recorded trace of half-sine days,
            # scaled to the synthetic profile's amplitude it replaces.
            trace = tmp_path / "trace.csv"
            powers = [max(math.sin(2 * math.pi * t / 24), 0.0) for t in range(self.SLOTS)]
            trace.write_text("slot,power_watts\n" + "".join(f"{t},{w!r}\n" for t, w in enumerate(powers)))
            doc = yaml.safe_load(text)
            for name, profile in doc["profiles"].items():
                scale = profile["amplitude_w"]
                doc["profiles"][name] = {"kind": "csv", "path": str(trace), "scale": scale}
            text = yaml.safe_dump(doc)
        cfg = parse_scenario(text)
        world = World(cfg)
        m = simcore.run(world, self.SLOTS)
        if predictor == "hw":
            assert not any(
                isinstance(rt.predictor_state, forecast.Warmup)
                for rt in world.nodes.values()
                if not rt.is_sink
            )
        floor = cfg.energy.floor_fraction * cfg.energy.capacity_uj
        powered = sorted(n.id for n in cfg.nodes if n.role != "sink")
        rows = [(s, n) for s, n, *_ in m.ledger]
        assert sorted(rows) == [(s, n) for s in range(self.SLOTS) for n in powered]
        charge_sum = m.book.by_slot
        for s, n, start, harvested, wasted, consumed, end in m.ledger:
            scale = max(1.0, start + harvested)
            assert abs(consumed - charge_sum.get((s, n), 0.0)) / scale < 1e-9
            assert abs((start + harvested - wasted - consumed) - end) / scale < 1e-9
            assert end >= floor - 1e-9
        assert 0 < m.delivered <= m.generated

    def test_cli_runs_byte_identical(self, tmp_path):
        config = tmp_path / "lattice.yaml"
        config.write_text(lattice_yaml(sigma_db=4.0, predictor="hw", slots=self.SLOTS))
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main(["run", "--config", str(config), "--seed", "8", "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert "ledger.csv" in names and "summary.json" in names
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_runs_byte_identical_across_hash_seeds(self, tmp_path):
        # Every per-link stream is seeded from a string, and no output may
        # depend on set or dict iteration over strings, so the interpreter's
        # string hash seed changes no output byte.
        config = tmp_path / "lattice.yaml"
        config.write_text(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=30))
        src = Path(harvestsim.__file__).parent.parent
        outs = []
        for hash_seed in ("0", "12345"):
            out = tmp_path / f"hash-{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
            argv = ["run", "--config", str(config), "--seed", "8", "--out", str(out)]
            done = subprocess.run([sys.executable, "-m", "harvestsim.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "routes.csv" in names and names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestFloodState:
    def test_relays_keep_one_flood_per_origin(self):
        # Origins flood again every refresh period, so in 60 slots one
        # origin floods several times; a relay still holds only the newest
        # flood it forwarded from each origin.
        cfg = parse_scenario(lattice_yaml(sigma_db=0.0, predictor="ewma", slots=60))
        world = World(cfg)
        simcore.run(world, 60)
        floods = {n: rt.routing.seq_counter for n, rt in world.nodes.items() if rt.routing.seq_counter}
        assert max(floods.values()) >= 2
        forwarded = 0
        for node_id, rt in world.nodes.items():
            held = rt.routing.forwarded
            assert len(held) <= len(floods)
            assert set(held) <= set(floods) - {node_id}
            assert all(1 <= seq <= floods[origin] for origin, seq in held.items())
            forwarded += len(held)
        assert 0 < forwarded < sum(floods.values())


class TestPinnedLatticeOutputs:
    """sha256 of each output of ``run`` on the 3x4 lattice, seed 8, 60 slots:
    with 4 dB shadowing (one offset per link) and the Holt-Winters
    predictor, and without shadowing under EWMA (the ``unshadowed-``
    cases). Floods, beacons and backlog
    evictions all run here, which the tree exercises little. A change that
    alters an output on purpose updates the pin and names the change.

    Re-pinned when a source's sends were kept in their slot: sends that
    would start past the slot's end now wait in the pending queue
    (``World._send_in_slot``). ``unshadowed-baseline`` and every
    ``forecast.csv`` kept their bytes."""

    # Each case's (shadowing sigma in dB, predictor, routing mode).
    CASES = {
        "modified": (4.0, "hw", "modified"),
        "baseline": (4.0, "hw", "baseline"),
        "unshadowed-modified": (0.0, "ewma", "modified"),
        "unshadowed-baseline": (0.0, "ewma", "baseline"),
    }
    PINNED = {
        "modified": {
            "summary.json": "470ae1632f9e79b3cda379e58c0b05c6539296f1671ddd8f10a598e527b95ece",
            "slots.csv": "0542231ffca8c13958b992c00a6b135b40a08dc6de9cdcd8bdce865e8cd97e2e",
            "ledger.csv": "2fab3de43833d8fb9df0881bfcb09eefbb87151063aaf56e1fc3940328b5ac52",
            "routes.csv": "6cf8168e2120bcdd70b29d5ee81ac4dd7153f34045021c8963d0c7c72369fc68",
            "forecast.csv": "750dbb38a7f159acef9c00161517cbe3cf94b98a5ac387542ddd56df03174fdf",
        },
        "baseline": {
            "summary.json": "04ca6fcc13301c7ff74716b3ccc3e639969a2ed65ed38257a65ebf983c4fc478",
            "slots.csv": "d3f0ce819f9931dcd187f019ffc9d3175390c7506d3c14871247ff486eb849e6",
            "ledger.csv": "4dadf0eef3f77a247181c66322469f4a12def2e50364f861dc3b746cf17ca821",
            "routes.csv": "32d9c1ceb793de40596e9a3b577b2fdeba52643614e545930eafc61738be723e",
            "forecast.csv": "750dbb38a7f159acef9c00161517cbe3cf94b98a5ac387542ddd56df03174fdf",
        },
        "unshadowed-modified": {
            "summary.json": "41dfe8a8bcf1f1621c927a4d92b51ac4a48d11472310a3b021f0c54be5649b65",
            "slots.csv": "f02e3cdef48708e0c7429d4b80d575c9fba09d56fcb528d852e3c8d7099c527c",
            "ledger.csv": "43964fd890bf1e466bc6867f82b7091b5beef0e218a93943495f150a96733d29",
            "routes.csv": "238b472bbf650b27e056d0c8adaa9a1ea2e7839d08409303733cf2db39085c3f",
            "forecast.csv": "8715eb5402d8d7f0141ea0a622f07674d38a9eca2548f914f9971b4107006a86",
        },
        "unshadowed-baseline": {
            "summary.json": "f4b46b5b82d39740a56ee4e17ba0a2db15e6cb3be50ad532c987afb9652fa04f",
            "slots.csv": "9f956891edef712c10129d7b66e50e4fdc3fefa23bc9ab056359e8eba2489671",
            "ledger.csv": "b1bf48bd0c8d072d1c9c035729939326e8e75566ea9672ac847dc9af5afcd856",
            "routes.csv": "75864046f32c351d6b318d394d9fbe7037146501bd46fa83cca474facacdf367",
            "forecast.csv": "8715eb5402d8d7f0141ea0a622f07674d38a9eca2548f914f9971b4107006a86",
        },
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_run_outputs_match_pinned_digests(self, tmp_path, case):
        sigma_db, predictor, mode = self.CASES[case]
        config = tmp_path / "lattice.yaml"
        config.write_text(lattice_yaml(sigma_db=sigma_db, predictor=predictor, slots=60))
        out = tmp_path / mode
        argv = ["run", "--config", str(config), "--seed", "8", "--mode", mode, "--out", str(out)]
        assert main(argv) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.PINNED[case]
        }
        assert digests == self.PINNED[case]

    # The Holt-Winters case run for 150 slots: the seasonal model steps for
    # the 102 slots after its two-period warm-up, through nights whose dark
    # slots freeze its ring.
    LONG_HW_SLOTS = 150
    LONG_HW_PINNED = {
        "slots.csv": "c7f0c74f597e35d754e183d0031ecbfe6a2f231d27c1ef12762999dfa04cad10",
        "forecast.csv": "ff6fc42b0fbee93c4ba0e5c819bf577ec3b919089f10120e97b961b63203b572",
    }

    def test_long_holt_winters_run_matches_pinned_digests(self, tmp_path):
        config = tmp_path / "lattice.yaml"
        config.write_text(lattice_yaml(sigma_db=4.0, predictor="hw", slots=self.LONG_HW_SLOTS))
        out = tmp_path / "modified"
        assert main(["run", "--config", str(config), "--seed", "8", "--out", str(out)]) == 0
        rows = (out / "forecast.csv").read_text().splitlines()[1:]
        warm = 2 * parse_scenario(config.read_text()).predictor.period
        after_warmup = [row.split(",") for row in rows if int(row.split(",", 1)[0]) > warm]
        assert any(float(actual) == 0.0 for *_, actual in after_warmup)
        assert any(float(actual) > 0.0 for *_, actual in after_warmup)
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.LONG_HW_PINNED
        }
        assert digests == self.LONG_HW_PINNED


SHIPPED_TREE = resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()


class _RowLogWorld(World):
    """Records each ledger and forecast row as the engine makes them: the
    forecast row from the prediction planning scores and the slot's harvest,
    the ledger row from the node's slot account and its store after
    settlement."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ledger, self.forecast_rows = [], []

    def _plan_node(self, rt, slot, t0):
        predicted = rt.next_prediction
        super()._plan_node(rt, slot, t0)
        if predicted is not None:
            self.forecast_rows.append((slot, rt.node_id, predicted, rt.slot_ledger[1]))

    def _settle_node(self, rt, slot):
        start, harvested, wasted = rt.slot_ledger
        super()._settle_node(rt, slot)
        end = rt.store.stored
        self.ledger.append(
            (slot, rt.node_id, start, harvested, wasted, start + harvested - wasted - end, end)
        )


class TestMetricTables:
    """The metrics keep their per-node-slot rows in typed columns, and each
    table iterates as the rows the engine made, with the same values, types
    and order, and counts them as a list does."""

    @pytest.mark.parametrize("shape", ["tree", "lattice"])
    def test_tables_iterate_the_rows_made(self, monkeypatch, shape):
        if shape == "tree":
            cfg, slots = parse_scenario(SHIPPED_TREE), 120
        else:
            cfg, slots = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="hw", slots=60)), 60
        reports = []
        real = app.execute_plan

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            reports.append(result[0])
            return result

        monkeypatch.setattr(app, "execute_plan", recording)
        world = _RowLogWorld(cfg)
        m = simcore.run(world, slots)
        # repr tells 1 from 1.0 and True, -0.0 from 0.0, and a level from its value.
        for table, made in ((m.ledger, world.ledger), (m.forecast_rows, world.forecast_rows),
                            (m.slot_reports, reports)):
            assert [repr(row) for row in table] == [repr(row) for row in made]
            assert list(table) == made
            assert len(table) == len(made) and bool(table) is bool(made)
        assert {type(r.own_level) for r in m.slot_reports} == {EnergyLevel}
        assert {type(r.aborted) for r in m.slot_reports} == {bool}
        # Settlement publishes one paid sum per ledger row.
        powered = sum(n.role != "sink" for n in cfg.nodes)
        assert len(m.book.by_slot.sums) == len(m.ledger) == powered * slots
        assert m.forecast_rows and len(m.forecast_rows) < len(m.ledger)

    def test_empty_tables_count_as_empty_lists(self):
        m = simcore.Metrics()
        for table in (m.ledger, m.forecast_rows, m.slot_reports):
            assert list(table) == [] and len(table) == 0 and not table
        assert m.book.by_slot.get((0, "B"), 0.0) == 0.0

    def test_by_slot_reads_each_ledger_rows_sum(self):
        m = simcore.run(World(parse_scenario(SHIPPED_TREE)), 30)
        sums = list(m.book.by_slot.sums)
        assert [m.book.by_slot.get((s, n)) for s, n, *_ in m.ledger] == sums
        assert m.book.by_slot.get((30, "B"), -1.0) == -1.0
        assert m.book.by_slot.get((3, "A"), -1.0) == -1.0  # the sink keeps no ledger row

    def test_tables_retain_at_most_250_bytes_per_node_slot(self):
        # Dropping the four tables frees what they retain. Lists of row tuples
        # and report objects with a per-(slot, node) dict retained 617 B per
        # node-slot on this run.
        cfg = parse_scenario(SHIPPED_TREE)
        world = World(cfg)
        slots = 200
        tracemalloc.start()
        try:
            m = simcore.run(world, slots)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            m.ledger = m.forecast_rows = m.slot_reports = m.book.by_slot = None
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        node_slots = sum(n.role != "sink" for n in cfg.nodes) * slots
        assert freed / node_slots <= 250.0, f"{freed / node_slots:.0f} B per node-slot"
        assert freed / node_slots >= 100.0  # the tables hold each row's values at all

    @staticmethod
    def retained_past_the_tables(slots):
        """What the metrics of a tree run of ``slots`` slots keep besides the
        per-node-slot tables and the route log, in bytes: the drop, eviction
        and delivery counts and the per-node sums, measured as the memory an
        equal copy of them (strings included) takes. Copying keeps the
        run itself untraced."""
        m = simcore.run(World(parse_scenario(SHIPPED_TREE)), slots)
        m.ledger = m.forecast_rows = m.slot_reports = m.book.by_slot = m.route_log = None
        kept = pickle.dumps(m)
        gc.collect()
        tracemalloc.start()
        try:
            copy = pickle.loads(kept)  # bound, so alive as it is measured
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_packet_counts_do_not_grow_with_the_run(self):
        # About 8 KB at both lengths. A set of delivered ids and one row per
        # drop and per eviction kept 115 KB after 200 slots and 1.4 MB after
        # 2,000.
        short, long = self.retained_past_the_tables(200), self.retained_past_the_tables(2000)
        assert short > 0
        assert long <= short + 2048, f"{short} B after 200 slots, {long} B after 2,000"


class TestNoRepeatDelivery:
    """The precondition of the ``delivered`` count: no packet reaches the sink
    twice, so counting each arrival at the sink counts distinct packets.
    There is one live packet per id, and a delivered one is never retried."""

    @staticmethod
    def assert_each_arrival_is_a_new_packet(cfg, slots):
        m = simcore.run(World(cfg, metrics=PacketLog()), slots)
        arrivals = m.delivered_ids
        assert m.delivered == len(arrivals) > 0
        assert len(set(arrivals)) == len(arrivals), "a packet reached the sink twice"

    @pytest.mark.parametrize("mode", ["modified", "baseline"])
    def test_tree(self, mode):
        base = parse_scenario(SHIPPED_TREE)
        cfg = dataclasses.replace(base, routing=dataclasses.replace(base.routing, mode=mode))
        self.assert_each_arrival_is_a_new_packet(cfg, 300)

    def test_shadowed_holt_winters_lattice(self):
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="hw", slots=100))
        self.assert_each_arrival_is_a_new_packet(cfg, 100)

    def test_grid48_lattice(self):
        # grid48's shape: 6 x 8 nodes, no shadowing, EWMA prediction.
        cfg = parse_scenario(lattice_yaml(sigma_db=0.0, predictor="ewma", slots=100,
                                          rows=6, cols=8))
        self.assert_each_arrival_is_a_new_packet(cfg, 100)


# Metrics' record methods: every record a run makes goes through one of them.
RECORDS = ("settled", "forecasted", "dropped", "arrived", "offered", "routed", "evicted",
           "stepped", "totalled")


class RecordLog(Metrics):
    """Metrics that log each record-method call a run makes as ``(name,
    args)``. A call one record method makes to another (``evicted`` drops
    an evicted packet) is part of the outer call and is not logged again."""

    def __post_init__(self):
        super().__post_init__()
        self.calls, self.depth = [], 0


def _logged(name):
    def record(self, *args):
        if self.depth == 0:
            self.calls.append((name, args))
        self.depth += 1
        try:
            getattr(super(RecordLog, self), name)(*args)
        finally:
            self.depth -= 1
    return record


for _name in RECORDS:
    setattr(RecordLog, _name, _logged(_name))


class TestRecordReplay:
    """The record methods carry everything a run's metrics hold: replaying
    their logged calls into fresh metrics rebuilds every table and counter."""

    @staticmethod
    def held(m):
        return (m.summary(), m.route_log, m.drops, m.evictions, m.duty_sum, m.book.by_label,
                list(m.slot_reports), list(m.ledger), list(m.forecast_rows),
                list(m.book.by_slot.sums))

    def test_every_record_method_is_logged(self):
        readers = {"pdr", "duty_fractions", "summary"}
        public = {name for name, value in vars(Metrics).items()
                  if callable(value) and not name.startswith("_")}
        assert public - readers == set(RECORDS)

    @pytest.mark.parametrize("text, slots", [
        (SHIPPED_TREE, 300),
        (lattice_yaml(sigma_db=4.0, predictor="hw", slots=100), 100),
    ], ids=["tree", "lattice-3x4-shadow-hw"])
    def test_replay_rebuilds_the_metrics(self, text, slots):
        logged = simcore.run(World(parse_scenario(text), metrics=RecordLog()), slots)
        # Routes are installed and lost, and backlogs evict.
        assert {row[-1] for row in logged.route_log} == {"installed", "mac-fail", "rrep-lost"}
        assert logged.evictions
        replayed = Metrics()
        for name, args in logged.calls:
            getattr(replayed, name)(*args)
        assert self.held(replayed) == self.held(logged)
