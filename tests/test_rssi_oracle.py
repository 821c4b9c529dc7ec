"""The RSSI decode (``rssi_oracle``) and the engine's level belief agree: on
every frame a node receives, the level decoded from the frame's received
power against the smoothed beacon reference is the level ``routing.hear_frame``
believes, which is the level of the frame's transmit power."""

import dataclasses
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import rssi_oracle
from harvestsim import routing, simcore
from harvestsim.energy import EnergyLevel
from harvestsim.scenario import parse_scenario
from harvestsim.simcore import World
from test_simcore import _full_scan_rssi, lattice_yaml


class TestDecode:
    def test_calibration_point_is_high(self):
        assert rssi_oracle.decode(-65.0, -65.0) == EnergyLevel.E3

    def test_ten_db_down_is_minimum(self):
        assert rssi_oracle.decode(-75.0, -65.0) == EnergyLevel.E1

    def test_nearest_step_wins(self):
        # attenuation 7.4: |7.4-5| = 2.4 beats |7.4-10| = 2.6
        assert rssi_oracle.decode(-72.4, -65.0) == EnergyLevel.E2

    def test_tie_takes_lower_level(self):
        # attenuation 7.5 is equidistant from steps 5 and 10
        assert rssi_oracle.decode(-72.5, -65.0) == EnergyLevel.E1

    def test_the_oracle_powers_are_the_programs(self):
        assert rssi_oracle.TX_POWER_BY_LEVEL == {int(l): p for l, p in routing.TX_POWER_BY_LEVEL.items()}
        assert rssi_oracle.REFERENCE_TX_POWER_DBM == routing.REFERENCE_TX_POWER_DBM

    @given(st.floats(min_value=-200.0, max_value=50.0))
    @settings(max_examples=200)
    def test_a_frame_exactly_its_step_below_the_reference_decodes_to_its_level(self, reference):
        for level, power in rssi_oracle.TX_POWER_BY_LEVEL.items():
            observed = reference - (rssi_oracle.REFERENCE_TX_POWER_DBM - power)
            assert rssi_oracle.decode(observed, reference) == level


class TestCalibration:
    def test_first_beacon_seeds(self):
        assert rssi_oracle.calibrate(None, -65.0) == -65.0

    def test_smoothing(self):
        assert rssi_oracle.calibrate(-65.0, -70.0) == pytest.approx(-66.0)

    def test_converges_to_steady_observation(self):
        ref = -80.0
        for _ in range(60):
            ref = rssi_oracle.calibrate(ref, -65.0)
        assert ref == pytest.approx(-65.0, abs=0.01)

    def test_a_steady_beacon_keeps_the_reference_exactly(self):
        ref = rssi_oracle.calibrate(None, -71.3)
        assert rssi_oracle.calibrate(ref, -71.3) == ref


def run_with_oracle(monkeypatch, cfg, slots):
    """Run ``cfg`` with the RSSI decode beside every reception; returns the
    decoded levels, one per frame heard from a sender whose beacon came first.

    Each reception's power is recomputed from the two positions and the
    link's offset (``_full_scan_rssi``) at the power the frame was sent at:
    a beacon's calibrates the receiver's reference for its sender, and any
    other frame's is decoded against that reference.
    """
    world = World(cfg)
    nodes, channel = world.nodes, cfg.channel
    references, decoded = {}, []
    hear_beacon, hear_frame = routing.hear_beacon, routing.hear_frame

    def received(state, sender, tx_dbm):
        return _full_scan_rssi(channel, nodes[sender], nodes[state.node_id], tx_dbm)

    def beacon(state, sender, slot, from_sink):
        key = (state.node_id, sender)
        observed = received(state, sender, rssi_oracle.REFERENCE_TX_POWER_DBM)
        references[key] = rssi_oracle.calibrate(references.get(key), observed)
        hear_beacon(state, sender, slot, from_sink)

    def frame(state, sender, tx_power_dbm, slot):
        before = state.neighbor_seen.get(sender)
        hear_frame(state, sender, tx_power_dbm, slot)
        reference = references.get((state.node_id, sender))
        if reference is None:  # no beacon heard yet: no belief either
            assert sender not in state.beaconed and state.neighbor_seen.get(sender) == before
            return
        level = rssi_oracle.decode(received(state, sender, tx_power_dbm), reference)
        assert state.neighbor_seen[sender] == (level, slot)
        decoded.append(level)

    monkeypatch.setattr(routing, "hear_beacon", beacon)
    monkeypatch.setattr(routing, "hear_frame", frame)
    simcore.run(world, slots)
    return decoded


class TestEngineBelief:
    def test_shipped_tree(self, monkeypatch):
        tree = resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
        decoded = run_with_oracle(monkeypatch, parse_scenario(tree), 2000)
        assert len(decoded) > 10_000 and set(decoded) == {1, 2, 3}, Counter(decoded)

    def test_shadowed_holt_winters_lattice(self, monkeypatch):
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="hw", slots=300))
        decoded = run_with_oracle(monkeypatch, dataclasses.replace(cfg, seed=3), 300)
        assert len(decoded) > 10_000 and set(decoded) == {1, 2, 3}, Counter(decoded)
