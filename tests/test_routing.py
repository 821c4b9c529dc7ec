import dataclasses

import pytest
from hypothesis import given, strategies as st

from harvestsim.energy import EnergyLevel
from harvestsim.routing import (
    TX_POWER_BY_LEVEL,
    NEIGHBOR_TTL_SLOTS,
    RoutingSettings,
    RoutingState,
    Rreq,
    believed_level,
    candidate_cost,
    hear_beacon,
    hear_frame,
    install_route,
    neighbor_levels,
    process_rreq,
    sink_close_window,
    sink_receive,
)

MODIFIED = RoutingSettings(mode="modified")
BASELINE = RoutingSettings(mode="baseline")
FULL_POWER = TX_POWER_BY_LEVEL[EnergyLevel.E3]


class TestTxPowerMapping:
    def test_high_gets_full_power(self):
        assert TX_POWER_BY_LEVEL[EnergyLevel.E3] == 0

    def test_minimum_gets_lowest_power(self):
        assert TX_POWER_BY_LEVEL[EnergyLevel.E1] == -10

    def test_intermediate(self):
        assert TX_POWER_BY_LEVEL[EnergyLevel.E2] == -5

    def test_dormant_nodes_cannot_transmit(self):
        # E0 has no power: the engine's level table runs it dormant.
        assert EnergyLevel.E0 not in TX_POWER_BY_LEVEL
        assert TX_POWER_BY_LEVEL.get(EnergyLevel.E0) is None

    def test_monotone(self):
        powers = [
            TX_POWER_BY_LEVEL[l]
            for l in (EnergyLevel.E1, EnergyLevel.E2, EnergyLevel.E3)
        ]
        assert powers == sorted(powers)


class TestNeighborBelief:
    """What a node believes of each neighbour's level: beacons prove liveness
    and enable belief, other frames tell the level of the power they were
    sent at, and the belief ages out of the network level after
    ``NEIGHBOR_TTL_SLOTS`` slots."""

    def test_unheard_neighbour_is_believed_e1(self):
        state = RoutingState("B")
        assert believed_level(state, "C") is EnergyLevel.E1
        assert neighbor_levels(state, 0) == []

    def test_first_beacon_enables_belief_and_believes_e1(self):
        state = RoutingState("B")
        hear_beacon(state, "C", 4, from_sink=False)
        assert state.beaconed == {"C"}
        assert state.neighbor_seen == {"C": (EnergyLevel.E1, 4)}

    def test_beacon_from_the_sink_gives_e3(self):
        state = RoutingState("B")
        hear_beacon(state, "A", 2, from_sink=True)
        assert believed_level(state, "A") is EnergyLevel.E3
        assert state.neighbor_seen == {"A": (EnergyLevel.E3, 2)}

    def test_beacon_keeps_the_level_last_told(self):
        state = RoutingState("B")
        hear_beacon(state, "C", 1, from_sink=False)
        hear_frame(state, "C", TX_POWER_BY_LEVEL[EnergyLevel.E2], 2)
        assert state.neighbor_seen["C"] == (EnergyLevel.E2, 2)
        hear_beacon(state, "C", 3, from_sink=False)
        assert state.neighbor_seen["C"] == (EnergyLevel.E2, 3)
        assert believed_level(state, "C") is EnergyLevel.E2

    def test_frame_tells_the_level_of_its_power(self):
        state = RoutingState("B")
        hear_beacon(state, "C", 1, from_sink=False)
        for slot, (level, power) in enumerate(TX_POWER_BY_LEVEL.items(), start=2):
            hear_frame(state, "C", power, slot)
            assert state.neighbor_seen["C"] == (level, slot)
        assert state.beaconed == {"C"}  # only beacons enable belief

    def test_frame_before_any_beacon_changes_nothing(self):
        state = RoutingState("B")
        hear_frame(state, "C", TX_POWER_BY_LEVEL[EnergyLevel.E2], 1)
        assert state.beaconed == set() and state.neighbor_seen == {}
        assert believed_level(state, "C") is EnergyLevel.E1

    def test_neighbour_counts_for_the_ttl_only(self):
        assert NEIGHBOR_TTL_SLOTS == 5
        state = RoutingState("B")
        hear_beacon(state, "A", 10, from_sink=True)
        hear_beacon(state, "C", 11, from_sink=False)
        assert neighbor_levels(state, 15) == [EnergyLevel.E3, EnergyLevel.E1]
        assert neighbor_levels(state, 16) == [EnergyLevel.E1]
        assert neighbor_levels(state, 17) == []
        # Aged out of the network level, the belief still sizes trains.
        assert believed_level(state, "C") is EnergyLevel.E1
        assert believed_level(state, "A") is EnergyLevel.E3


def path_of(*rssis):
    """A candidate whose hops were heard at ``rssis``, the last at the sink."""
    return Rreq("D", 1, path=tuple((f"H{k}", rssi) for k, rssi in enumerate(rssis)))


class TestRouteCost:
    def test_single_hop(self):
        assert candidate_cost(RoutingSettings(mu=(1.0,)), path_of(-65.0)) == pytest.approx(65.0)

    def test_two_hops_weighted(self):
        weighted = RoutingSettings(mu=(0.5, 0.5))
        assert candidate_cost(weighted, path_of(-65.0, -70.0)) == pytest.approx(67.5)

    def test_uniform_default(self):
        assert candidate_cost(RoutingSettings(), path_of(-60.0, -80.0)) == pytest.approx(70.0)

    @pytest.mark.parametrize("mu", [(0.0,), (1.5, 0.5), (-0.1,)])
    def test_weights_outside_zero_to_one_are_refused_when_set(self, mu):
        with pytest.raises(ValueError, match="RoutingSettings.mu"):
            RoutingSettings(mu=mu)

    @given(
        st.lists(st.floats(min_value=-95, max_value=-30), min_size=1, max_size=6),
        st.sampled_from(["magnitude", "raw"]),
    )
    def test_stronger_paths_cost_less(self, rssis, cost_mode):
        uniform = RoutingSettings(cost_mode=cost_mode)
        weaker = [r - 5.0 for r in rssis]
        assert candidate_cost(uniform, path_of(*weaker)) > candidate_cost(uniform, path_of(*rssis))

    def test_raw_mode_matches_magnitude_for_negative_rssi(self):
        magnitude = RoutingSettings(cost_mode="magnitude")
        raw = RoutingSettings(cost_mode="raw")
        rreq = path_of(-61.0, -70.5)
        assert candidate_cost(magnitude, rreq) == pytest.approx(candidate_cost(raw, rreq))

    @pytest.mark.parametrize("cost_mode", ["magnitude", "raw"])
    def test_mu_weights_apply_only_to_matching_path_lengths(self, cost_mode):
        weighted = RoutingSettings(cost_mode=cost_mode, mu=(0.9, 0.1))
        assert candidate_cost(weighted, path_of(-61.0, -70.5)) == pytest.approx(0.9 * 61.0 + 0.1 * 70.5)
        assert candidate_cost(weighted, path_of(-80.0)) == pytest.approx(80.0)
        assert candidate_cost(weighted, path_of(-60.0, -70.0, -80.0)) == pytest.approx(70.0)


def rreq_via(origin="D", seq=1, *hops):
    return Rreq(origin=origin, seq=seq, path=tuple(hops))


class TestProcessRreq:
    def test_duplicate_dropped(self):
        state = RoutingState("B")
        r = rreq_via("D", 1)
        assert process_rreq(state, r, -70.0, FULL_POWER) is not None
        assert process_rreq(state, r, -70.0, FULL_POWER) is None

    def test_fresh_rreq_appends_observation(self):
        state = RoutingState("B")
        fwd = process_rreq(state, rreq_via("D", 1), -70.0, FULL_POWER)
        assert fwd.path == (("B", -70.0),)
        assert fwd.tx_power_dbm == 0

    def test_dormant_relay_drops(self):
        state = RoutingState("B")
        assert process_rreq(state, rreq_via("D", 1), -70.0, None) is None

    def test_loop_blocked(self):
        state = RoutingState("B")
        looped = rreq_via("D", 1, ("B", -70.0))
        assert process_rreq(state, looped, -70.0, FULL_POWER) is None

    def test_origin_does_not_forward_own(self):
        state = RoutingState("D")
        assert process_rreq(state, rreq_via("D", 1), -70.0, FULL_POWER) is None

    def test_power_follows_level(self):
        state = RoutingState("B")
        fwd = process_rreq(state, rreq_via("D", 1), -70.0, TX_POWER_BY_LEVEL[EnergyLevel.E1])
        assert fwd.tx_power_dbm == -10

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ABCD"),  # origin
                st.integers(min_value=1, max_value=3),  # seq
                st.lists(st.sampled_from("ABCDE"), max_size=4),  # hops so far
                st.sampled_from([None, -10, -5, 0]),  # the relay's power
            ),
            max_size=12,
        )
    )
    def test_forwarded_request_equals_replace_oracle(self, requests):
        # The relay's handling as it read with dataclasses.replace and the
        # hops() list, fed the same sequence: duplicates, out-of-order
        # seqs, loops, the relay's own floods and dormant slots all occur.
        # The oracle keeps every (origin, seq) it forwarded and forwards a
        # flood only when it is newer than all of them.
        state, served = RoutingState("B"), set()
        for k, (origin, seq, hops, power) in enumerate(requests):
            rreq = rreq_via(origin, seq, *((h, -60.0 - i) for i, h in enumerate(hops)))
            rssi = -70.0 - k
            expected = None
            if not (
                any(o == origin and s >= seq for o, s in served)
                or power is None
                or state.node_id == origin
                or state.node_id in rreq.hops()
            ):
                served.add((origin, seq))
                expected = dataclasses.replace(
                    rreq, path=rreq.path + ((state.node_id, rssi),), tx_power_dbm=power
                )
            assert process_rreq(state, rreq, rssi, power) == expected
            newest = {}
            for o, s in served:
                newest[o] = max(s, newest.get(o, 0))
            assert state.forwarded == newest

    def test_stale_flood_not_forwarded(self):
        # Once a relay forwarded D's flood 2, a first copy of D's older
        # flood 1 is stale; a newer flood from D is still forwarded.
        state = RoutingState("B")
        assert process_rreq(state, rreq_via("D", 2), -70.0, FULL_POWER) is not None
        assert process_rreq(state, rreq_via("D", 1), -70.0, FULL_POWER) is None
        assert process_rreq(state, rreq_via("D", 3), -70.0, FULL_POWER) is not None
        assert state.forwarded == {"D": 3}

    def test_flood_forwards_at_most_once_per_relay(self):
        # Dedupe bound: a relay re-seeing its own or others' copies never
        # forwards a given (origin, seq) twice.
        state = RoutingState("B")
        copies = [rreq_via("D", 7), rreq_via("D", 7, ("C", -72.0))]
        forwarded = [
            process_rreq(state, c, -70.0, FULL_POWER) for c in copies
        ]
        assert sum(f is not None for f in forwarded) == 1


def collect(settings, *copies):
    """A fresh sink "A" receives each (request, final-hop RSSI) copy; returns
    the sink and the replies its receive calls asked for, in order, with the
    first copy's window closed afterwards if it opened one."""
    sink = RoutingState("A")
    replies = []
    opened = None
    for rreq, rssi in copies:
        rrep, opens_window = sink_receive(sink, settings, rreq, rssi)
        if rrep is not None:
            replies.append(rrep)
        if opens_window:
            assert opened is None
            opened = (rreq.origin, rreq.seq)
    if opened is not None:
        replies.append(sink_close_window(sink, settings, *opened))
    return sink, replies


class TestSinkDecide:
    def test_single_candidate_wins(self):
        _, [rrep] = collect(MODIFIED, (rreq_via("D", 1, ("B", -70.0)), -72.0))
        assert rrep.path == ("A", "B", "D")
        assert rrep.cost == pytest.approx(71.0)

    def test_cheapest_candidate_chosen(self):
        good = rreq_via("D", 1, ("B", -65.0))  # cost 67.5 with the final -70
        bad = rreq_via("D", 1, ("C", -68.4))  # cost 70.2 with the final -72
        _, [rrep] = collect(MODIFIED, (bad, -72.0), (good, -70.0))
        assert rrep.cost == pytest.approx(67.5)
        assert rrep.path == ("A", "B", "D")

    def test_baseline_takes_first_arrival(self):
        first = rreq_via("D", 1, ("C", -68.4))
        better = rreq_via("D", 1, ("B", -65.0))
        sink, [rrep] = collect(BASELINE, (first, -72.0), (better, -70.0))
        assert rrep.path == ("A", "C", "D")
        assert sink.windows == {}

    def test_equal_costs_keep_first(self):
        one = rreq_via("D", 1, ("B", -65.0))
        two = rreq_via("D", 1, ("C", -70.0))
        _, [rrep] = collect(MODIFIED, (one, -70.0), (two, -65.0))
        assert rrep.path == ("A", "B", "D")

    def test_window_closes_once(self):
        sink, _ = collect(MODIFIED, (rreq_via("D", 1, ("B", -70.0)), -72.0))
        assert sink_close_window(sink, MODIFIED, "D", 1) is None

    def test_window_superseded_by_newer_answer_not_answered(self):
        sink = RoutingState("A")
        assert sink_receive(sink, MODIFIED, rreq_via("D", 1, ("B", -70.0)), -72.0) == (None, True)
        sink.answered["D"] = 2
        assert sink_close_window(sink, MODIFIED, "D", 1) is None


class TestReroute:
    @staticmethod
    def answered(seq=1):
        """A sink that answered flood ``seq`` from D at cost 67.5."""
        sink, [rrep] = collect(MODIFIED, (rreq_via("D", seq, ("B", -65.0)), -70.0))
        assert rrep.cost == pytest.approx(67.5)
        return sink

    def test_higher_cost_ignored(self):
        sink = self.answered()
        late = rreq_via("D", 1, ("C", -70.0))  # cost 71 with the final -72
        assert sink_receive(sink, MODIFIED, late, -72.0) == (None, False)

    def test_strict_improvement_replaces(self):
        sink = self.answered()
        late = rreq_via("D", 1, ("C", -58.0))  # cost 60 with the final -62
        rrep, opens_window = sink_receive(sink, MODIFIED, late, -62.0)
        assert rrep is not None and not opens_window
        assert rrep.cost == pytest.approx(60.0)
        assert rrep.path == ("A", "C", "D")
        assert sink.answered_cost["D"] == pytest.approx(60.0)

    def test_equal_cost_no_reply(self):
        sink = self.answered()
        late = rreq_via("D", 1, ("C", -65.0))  # cost 67.5 again
        assert sink_receive(sink, MODIFIED, late, -70.0) == (None, False)

    def test_stale_sequence_never_answered(self):
        sink = self.answered(seq=5)
        late = rreq_via("D", 4, ("C", -50.0))  # very cheap but old
        for settings in (MODIFIED, BASELINE):
            assert sink_receive(sink, settings, late, -50.0) == (None, False)
        assert sink.windows == {}

    def test_baseline_answers_each_flood_once(self):
        sink, [rrep] = collect(BASELINE, (rreq_via("D", 1, ("B", -65.0)), -70.0))
        cheaper = rreq_via("D", 1, ("C", -50.0))
        assert sink_receive(sink, BASELINE, cheaper, -50.0) == (None, False)
        newer, _ = sink_receive(sink, BASELINE, rreq_via("D", 2, ("B", -65.0)), -70.0)
        assert newer.seq == 2


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
        rreq = Rreq(origin="S", seq=1)
        states = [RoutingState(f"R{i}") for i in range(n_relays)]
        for st_ in states:
            fwd = process_rreq(st_, rreq, -70.0, FULL_POWER)
            assert fwd is not None
            rreq = fwd
        hops = rreq.hops()
        assert len(hops) == len(set(hops))
