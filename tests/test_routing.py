import pytest
from hypothesis import given, strategies as st

from harvestsim.energy import EnergyLevel
from harvestsim.routing import (
    DimensionMismatch,
    NoCandidates,
    NodeDormant,
    RouteEntry,
    RoutingSettings,
    RoutingState,
    Rreq,
    RssiReference,
    Uncalibrated,
    calibrate_reference,
    candidate_cost,
    infer_neighbor_level,
    install_route,
    map_level_to_txpower,
    process_rreq,
    reroute_on_better,
    sink_decide,
    sink_route_cost,
)

MODIFIED = RoutingSettings(mode="modified")


class TestTxPowerMapping:
    def test_high_gets_full_power(self):
        assert map_level_to_txpower(EnergyLevel.E3) == 0

    def test_minimum_gets_lowest_power(self):
        assert map_level_to_txpower(EnergyLevel.E1) == -10

    def test_intermediate(self):
        assert map_level_to_txpower(EnergyLevel.E2) == -5

    def test_dormant_nodes_cannot_transmit(self):
        with pytest.raises(NodeDormant):
            map_level_to_txpower(EnergyLevel.E0)

    def test_monotone(self):
        powers = [
            map_level_to_txpower(l)
            for l in (EnergyLevel.E1, EnergyLevel.E2, EnergyLevel.E3)
        ]
        assert powers == sorted(powers)


class TestInference:
    def test_calibration_point_is_high(self):
        ref = RssiReference(-65.0)
        assert infer_neighbor_level(-65.0, ref) is EnergyLevel.E3

    def test_ten_db_down_is_minimum(self):
        ref = RssiReference(-65.0)
        assert infer_neighbor_level(-75.0, ref) is EnergyLevel.E1

    def test_nearest_step_wins(self):
        ref = RssiReference(-65.0)
        # delta 7.4: |7.4-5| = 2.4 beats |7.4-10| = 2.6
        assert infer_neighbor_level(-72.4, ref) is EnergyLevel.E2

    def test_tie_takes_lower_level(self):
        ref = RssiReference(-65.0)
        # delta 7.5 is equidistant from steps 5 and 10
        assert infer_neighbor_level(-72.5, ref) is EnergyLevel.E1

    def test_uncalibrated(self):
        with pytest.raises(Uncalibrated):
            infer_neighbor_level(-70.0, None)


class TestCalibration:
    def test_first_beacon_seeds(self):
        ref = calibrate_reference(None, -65.0)
        assert ref.rssi_dbm == -65.0

    def test_smoothing(self):
        ref = calibrate_reference(RssiReference(-65.0), -70.0)
        assert ref.rssi_dbm == pytest.approx(-66.0)

    def test_converges_to_steady_observation(self):
        ref = RssiReference(-80.0)
        for _ in range(60):
            ref = calibrate_reference(ref, -65.0)
        assert ref.rssi_dbm == pytest.approx(-65.0, abs=0.01)


class TestRouteCost:
    def test_single_hop(self):
        assert sink_route_cost([-65.0], [1.0]) == pytest.approx(65.0)

    def test_two_hops_weighted(self):
        assert sink_route_cost([-65.0, -70.0], [0.5, 0.5]) == pytest.approx(67.5)

    def test_uniform_default(self):
        assert sink_route_cost([-60.0, -80.0]) == pytest.approx(70.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sink_route_cost([-65.0, -70.0], [1.0])
        with pytest.raises(DimensionMismatch):
            sink_route_cost([])

    @given(st.lists(st.floats(min_value=-95, max_value=-30), min_size=1, max_size=6))
    def test_stronger_paths_cost_less(self, rssis):
        weaker = [r - 5.0 for r in rssis]
        assert sink_route_cost(weaker) > sink_route_cost(rssis)

    def test_raw_mode_matches_magnitude_for_negative_rssi(self):
        magnitude = RoutingSettings(cost_mode="magnitude")
        raw = RoutingSettings(cost_mode="raw")
        rreq = Rreq("D", "A", 1, path=(("B", -61.0), ("A", -70.5)))
        assert candidate_cost(magnitude, rreq) == pytest.approx(candidate_cost(raw, rreq))

    def test_mu_weights_apply_only_to_matching_path_lengths(self):
        weighted = RoutingSettings(mu=(0.9, 0.1))
        two_hops = Rreq("D", "A", 1, path=(("B", -61.0), ("A", -70.5)))
        one_hop = Rreq("D", "A", 1, path=(("A", -80.0),))
        assert candidate_cost(weighted, two_hops) == pytest.approx(0.9 * 61.0 + 0.1 * 70.5)
        assert candidate_cost(weighted, one_hop) == pytest.approx(80.0)


def rreq_via(origin="D", seq=1, *hops):
    return Rreq(origin=origin, dest="A", seq=seq, path=tuple(hops))


class TestProcessRreq:
    def test_duplicate_dropped(self):
        state = RoutingState("B")
        r = rreq_via("D", 1)
        assert process_rreq(state, r, -70.0, EnergyLevel.E3) is not None
        assert process_rreq(state, r, -70.0, EnergyLevel.E3) is None

    def test_fresh_rreq_appends_observation(self):
        state = RoutingState("B")
        fwd = process_rreq(state, rreq_via("D", 1), -70.0, EnergyLevel.E3)
        assert fwd.path == (("B", -70.0),)
        assert fwd.tx_power_dbm == 0

    def test_dormant_relay_drops(self):
        state = RoutingState("B")
        assert process_rreq(state, rreq_via("D", 1), -70.0, EnergyLevel.E0) is None

    def test_loop_blocked(self):
        state = RoutingState("B")
        looped = rreq_via("D", 1, ("B", -70.0))
        assert process_rreq(state, looped, -70.0, EnergyLevel.E3) is None

    def test_origin_does_not_forward_own(self):
        state = RoutingState("D")
        assert process_rreq(state, rreq_via("D", 1), -70.0, EnergyLevel.E3) is None

    def test_power_follows_level(self):
        state = RoutingState("B")
        fwd = process_rreq(state, rreq_via("D", 1), -70.0, EnergyLevel.E1)
        assert fwd.tx_power_dbm == -10

    def test_flood_forwards_at_most_once_per_relay(self):
        # Dedupe bound: a relay re-seeing its own or others' copies never
        # forwards a given (origin, seq) twice.
        state = RoutingState("B")
        copies = [rreq_via("D", 7), rreq_via("D", 7, ("C", -72.0))]
        forwarded = [
            process_rreq(state, c, -70.0, EnergyLevel.E3) for c in copies
        ]
        assert sum(f is not None for f in forwarded) == 1


class TestSinkDecide:
    def test_single_candidate_wins(self):
        sink = RoutingState("A")
        rrep = sink_decide(sink, MODIFIED, [rreq_via("D", 1, ("B", -70.0), ("A", -72.0))])
        assert rrep.path == ("A", "B", "D")
        assert rrep.cost == pytest.approx(71.0)

    def test_cheapest_candidate_chosen(self):
        sink = RoutingState("A")
        good = rreq_via("D", 1, ("B", -65.0), ("A", -70.0))  # cost 67.5
        bad = rreq_via("D", 1, ("C", -68.4), ("A", -72.0))  # cost 70.2
        rrep = sink_decide(sink, MODIFIED, [bad, good])
        assert rrep.cost == pytest.approx(67.5)
        assert rrep.path == ("A", "B", "D")

    def test_baseline_takes_first_arrival(self):
        sink = RoutingState("A")
        first = rreq_via("D", 1, ("C", -68.4), ("A", -72.0))
        better = rreq_via("D", 1, ("B", -65.0), ("A", -70.0))
        rrep = sink_decide(sink, RoutingSettings(mode="baseline"), [first, better])
        assert rrep.path == ("A", "C", "D")

    def test_no_candidates(self):
        with pytest.raises(NoCandidates):
            sink_decide(RoutingState("A"), MODIFIED, [])

    def test_equal_costs_keep_first(self):
        sink = RoutingState("A")
        one = rreq_via("D", 1, ("B", -65.0), ("A", -70.0))
        two = rreq_via("D", 1, ("C", -70.0), ("A", -65.0))
        rrep = sink_decide(sink, MODIFIED, [one, two])
        assert rrep.path == ("A", "B", "D")


class TestReroute:
    def current(self):
        return RouteEntry(dest="A", next_hop="B", cost=67.5, seq=1)

    def test_higher_cost_ignored(self):
        sink = RoutingState("A")
        late = rreq_via("D", 1, ("C", -70.0), ("A", -72.0))  # cost 71
        assert reroute_on_better(sink, MODIFIED, self.current(), late) is None

    def test_strict_improvement_replaces(self):
        sink = RoutingState("A")
        late = rreq_via("D", 1, ("C", -58.0), ("A", -62.0))  # cost 60
        rrep = reroute_on_better(sink, MODIFIED, self.current(), late)
        assert rrep is not None
        assert rrep.cost == pytest.approx(60.0)

    def test_equal_cost_no_reply(self):
        sink = RoutingState("A")
        late = rreq_via("D", 1, ("C", -65.0), ("A", -70.0))  # cost 67.5 again
        assert reroute_on_better(sink, MODIFIED, self.current(), late) is None

    def test_stale_sequence_never_answered(self):
        sink = RoutingState("A")
        sink.answered["D"] = 5
        late = rreq_via("D", 4, ("C", -50.0), ("A", -50.0))  # very cheap but old
        assert reroute_on_better(sink, MODIFIED, self.current(), late) is None


class TestRouteTable:
    def test_install_and_replace_rules(self):
        state = RoutingState("D")
        assert install_route(state, "A", "B", 67.5, seq=1)
        # same seq, higher cost: refused
        assert not install_route(state, "A", "C", 70.0, seq=1)
        # same seq, strictly lower cost: accepted
        assert install_route(state, "A", "C", 60.0, seq=1)
        # newer seq always accepted
        assert install_route(state, "A", "B", 90.0, seq=2)
        # older seq refused
        assert not install_route(state, "A", "C", 10.0, seq=1)
        assert state.table["A"].next_hop == "B"

    def test_one_entry_per_destination(self):
        state = RoutingState("D")
        install_route(state, "A", "B", 67.5, seq=1)
        install_route(state, "A", "C", 50.0, seq=2)
        assert len(state.table) == 1


class TestLoopFreedom:
    @given(st.integers(min_value=2, max_value=8))
    def test_installed_paths_never_repeat_nodes(self, n_relays):
        # Build a chain flood through n relays; the path record must stay
        # duplicate-free by construction.
        rreq = Rreq(origin="S", dest="A", seq=1)
        states = [RoutingState(f"R{i}") for i in range(n_relays)]
        for st_ in states:
            fwd = process_rreq(st_, rreq, -70.0, EnergyLevel.E3)
            assert fwd is not None
            rreq = fwd
        hops = rreq.hops()
        assert len(hops) == len(set(hops))
