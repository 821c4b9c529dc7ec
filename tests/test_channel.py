import dataclasses
import itertools
import math
import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from harvestsim import mac, scenario
from harvestsim.channel import Channel, ChannelSettings, loss_probability, rssi_at, survives
from harvestsim.routing import REFERENCE_TX_POWER_DBM, TX_POWER_BY_LEVEL
from harvestsim.scenario import parse_scenario
from harvestsim.simcore import World
from test_simcore import TREE_YAML, lattice_yaml, link_offset

POWERS = sorted(set(TX_POWER_BY_LEVEL.values()) | {REFERENCE_TX_POWER_DBM})


class TestCarrierSense:
    """What carrier sense samples: ``0.0`` dBm while the medium is busy,
    ``-120.0`` dBm from ``busy_until`` on."""

    def test_busy_before_busy_until_and_idle_after(self):
        medium = Channel(ChannelSettings(), {}, seed=1)
        assert medium.busy_until == 0.0 and medium._power_dbm(0.0) == -120.0
        medium.occupy(2.5)
        assert medium._power_dbm(0.0) == 0.0
        assert medium._power_dbm(2499.999) == 0.0
        assert medium._power_dbm(2500.0) == -120.0
        assert mac.cca(medium._power_dbm(1000.0)) and not mac.cca(medium._power_dbm(3000.0))

    @given(
        ends=st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=8),
        at_ms=st.floats(0.0, 1e7, allow_nan=False),
    )
    def test_busy_until_the_latest_end(self, ends, at_ms):
        medium = Channel(ChannelSettings(), {}, seed=1)
        for end in ends:
            medium.occupy(end)
        assert medium.busy_until == max(ends)
        assert medium._power_dbm(at_ms) == (0.0 if at_ms / 1000.0 < max(ends) else -120.0)


class TestExchange:
    def test_every_frame_of_an_exchange_meets_its_link_loss(self, monkeypatch):
        settings = ChannelSettings(shadowing_sigma_db=4.0)
        cfg = dataclasses.replace(parse_scenario(TREE_YAML), channel=settings, seed=5)
        world = World(cfg)
        twin = random.Random("5:channel")
        medium = world.channel
        b, d = world.nodes["B"], world.nodes["D"]
        rssi = medium.link(d, b, -10)[0]
        assert rssi == rssi_at(-10, 40.0, settings) + link_offset("B", "D", 4.0)
        assert medium.link(b, d, -10)[0] == rssi  # one offset per link, both ways
        loss = loss_probability(rssi, settings)
        assert 0.0 < loss < 1.0  # so that every frame draws

        # The engine's exchanges, each frame's delivery test recorded.
        decided = []
        real = mac.csma_send

        def recording(*args, attempt_delivers, **kwargs):
            def decide():
                decided.append(attempt_delivers())
                return decided[-1]

            return real(*args, attempt_delivers=decide, **kwargs)

        monkeypatch.setattr(mac, "csma_send", recording)
        d.tx_power, b.schedule = -10, mac.schedule_from_delta(1.0, cfg.mac)
        sleep = world._believed_sleep_ms(d, "B")
        for k in range(8):
            world._unicast(10.0 * k, d, b, "data", sleep)
        assert len(decided) >= 8 and True in decided and False in decided
        assert decided == [survives(loss, twin) for _ in decided]
        assert medium.rng.getstate() == twin.getstate()

    def test_scenario_reads_the_channel_settings_class(self):
        assert scenario.ChannelSettings is ChannelSettings


class TestLinkModel:
    """One shadowing offset per unordered link, fixed by the two node ids
    alone: the run seed does not move it."""

    @staticmethod
    def lattice():
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="ewma", slots=10))
        return World(dataclasses.replace(cfg, seed=8))

    def test_offset_is_the_same_in_both_directions(self):
        world = self.lattice()
        medium = world.channel
        offsets = set()
        for a, b in itertools.combinations(world.nodes.values(), 2):
            (x1, y1), (x2, y2) = a.position, b.position
            path_loss_only = rssi_at(0, math.hypot(x2 - x1, y2 - y1), world.cfg.channel)
            offsets.add(medium.link(a, b, 0)[0] - path_loss_only)
            for tx in POWERS:
                assert medium.link(a, b, tx) == medium.link(b, a, tx)
        assert len(offsets) == len(world.nodes) * (len(world.nodes) - 1) // 2

    def test_every_seed_runs_over_the_same_links(self):
        world = self.lattice()
        other = World(dataclasses.replace(world.cfg, seed=9))
        assert world.channel.rng.getstate() != other.channel.rng.getstate()
        for tx in POWERS:
            for sender_id, sender in world.nodes.items():
                fans = [
                    [(e[0].node_id, e[1], e[2]) for e in w.channel.fanout(w.nodes[sender_id], tx)]
                    for w in (world, other)
                ]
                assert fans[0] == fans[1]
            for a, b in itertools.permutations(world.nodes, 2):
                assert world.channel.link(world.nodes[a], world.nodes[b], tx) == (
                    other.channel.link(other.nodes[a], other.nodes[b], tx)
                )

    def test_a_superset_of_nodes_keeps_every_shared_link(self):
        world = self.lattice()
        nodes = world.nodes
        subset = {n: rt for k, (n, rt) in enumerate(nodes.items()) if k % 3 != 1}
        settings = world.cfg.channel
        small, large = Channel(settings, subset, 8), Channel(settings, nodes, 8)
        for a, b in itertools.permutations(subset.values(), 2):
            for tx in POWERS:
                assert small.link(a, b, tx) == large.link(a, b, tx)
        for tx in POWERS:
            # The superset's fan-out is the subset's with the added nodes' links.
            for sender in subset.values():
                shared = [e for e in large.fanout(sender, tx) if e[0].node_id in subset]
                assert shared == list(small.fanout(sender, tx))


class TestLevelSignalPrecondition:
    """A frame's level is the level of its transmit power (``routing.hear_frame``)
    only because a link's mean received power is linear in the transmit power
    with no per-frame term: a frame at power p arrives exactly -p dB below the
    reference-power beacon on the same link. Per-frame fading would break this,
    and the RSSI decode (``tests/rssi_oracle.py``) would have to come back."""

    @given(
        exponent=st.floats(1.5, 6.0),
        reference_loss=st.floats(20.0, 120.0),
        distance=st.floats(0.5, 1000.0),
        sigma=st.sampled_from([0.0, 4.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_level_power_arrives_its_own_step_below_the_beacon(
        self, exponent, reference_loss, distance, sigma
    ):
        link_settings = ChannelSettings(
            path_loss_exponent=exponent, reference_loss_db=reference_loss, shadowing_sigma_db=sigma
        )
        medium = Channel(link_settings, {}, seed=1)
        s = SimpleNamespace(node_id="S", position=(0.0, 0.0))
        r = SimpleNamespace(node_id="R", position=(distance, 0.0))
        beacon = medium.link(s, r, REFERENCE_TX_POWER_DBM)[0]
        for p in TX_POWER_BY_LEVEL.values():
            assert abs((beacon - medium.link(s, r, p)[0]) - (REFERENCE_TX_POWER_DBM - p)) < 1e-9
