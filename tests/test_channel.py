import dataclasses
import random

from hypothesis import given, strategies as st

from harvestsim import mac, scenario
from harvestsim.channel import Channel, ChannelSettings, deliver
from harvestsim.scenario import parse_scenario
from harvestsim.simcore import World
from test_simcore import TREE_YAML


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
    def test_every_frame_of_an_exchange_meets_its_one_draw(self):
        settings = ChannelSettings(shadowing_sigma_db=4.0)
        world = World(dataclasses.replace(parse_scenario(TREE_YAML), channel=settings, seed=5))
        twin = random.Random("5:channel")
        medium = world.channel
        b, d = world.nodes["B"], world.nodes["D"]
        rssi = medium.open_exchange(d, b, -5)
        assert rssi == medium._link_mean(d, b, -5) + twin.gauss(0.0, 4.0)
        for attempt in range(1, 6):
            assert medium._attempt_delivers(attempt) == deliver(rssi, settings, twin)

    def test_scenario_reads_the_channel_settings_class(self):
        assert scenario.ChannelSettings is ChannelSettings
