import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import csma_oracle
from harvestsim.energy import EnergyLevel
from harvestsim.mac import (
    DELTA_BY_LEVEL,
    ChannelSaturated,
    DutySchedule,
    FrameCosts,
    MacConfig,
    NoAck,
    PreambleTrain,
    RadioEnergyModel,
    backoff_window_ms,
    cca,
    csma_send,
    frame_costs,
    measure_duty,
    preamble_train,
    radio_energy,
    schedule_from_delta,
)


class TestSchedule:
    def test_zero_delta_radio_off(self):
        sched = schedule_from_delta(0.0)
        assert sched.radio_off
        assert sched.duty_fraction == 0.0

    def test_paper_table_sleeps(self):
        cfg = MacConfig(schedule_mode="paper-table")
        assert schedule_from_delta(0.05, cfg).sleep_ms == 100.0
        assert schedule_from_delta(0.15, cfg).sleep_ms == 35.0
        assert schedule_from_delta(0.25, cfg).sleep_ms == 20.0

    def test_formula_five_percent(self):
        sched = schedule_from_delta(0.05)
        assert sched.wake_ms == 5.0
        assert sched.sleep_ms == pytest.approx(95.0)

    def test_formula_duty_matches_delta(self):
        for delta in (0.05, 0.15, 0.25, 0.5, 0.9):
            sched = schedule_from_delta(delta)
            assert abs(sched.duty_fraction - delta) < 0.005

    def test_always_on(self):
        sched = schedule_from_delta(1.0)
        assert sched.sleep_ms == 0.0
        assert sched.duty_fraction == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            schedule_from_delta(1.5)

    def test_measured_duty_over_cycles(self):
        for delta in (0.05, 0.15, 0.25):
            sched = schedule_from_delta(delta)
            measured = measure_duty(sched, 1000)
            assert abs(measured - delta) <= 0.01

    def test_level_anchors(self):
        assert DELTA_BY_LEVEL[EnergyLevel.E0] == 0.0
        assert DELTA_BY_LEVEL[EnergyLevel.E1] == 0.05
        assert DELTA_BY_LEVEL[EnergyLevel.E3] == 0.25


def every_schedule():
    """Each level's schedule in both modes, then always-on and radio-off."""
    out = [
        schedule_from_delta(delta, MacConfig(schedule_mode=mode))
        for mode in ("formula", "paper-table")
        for delta in DELTA_BY_LEVEL.values()
    ]
    return out + [schedule_from_delta(1.0), DutySchedule(wake_ms=0.0, sleep_ms=math.inf)]


class TestDerivedScheduleFields:
    @pytest.mark.parametrize("sched", every_schedule(), ids=repr)
    def test_period_and_radio_off_follow_the_timings(self, sched):
        assert sched.period_ms == sched.wake_ms + sched.sleep_ms
        assert sched.radio_off == (sched.wake_ms == 0.0)

    @pytest.mark.parametrize("sched", every_schedule(), ids=repr)
    def test_equality_hash_and_repr_see_only_the_timings(self, sched):
        twin = DutySchedule(wake_ms=sched.wake_ms, sleep_ms=sched.sleep_ms)
        assert twin == sched and hash(twin) == hash(sched)
        assert hash(sched) == hash((sched.wake_ms, sched.sleep_ms))
        assert repr(sched) == f"DutySchedule(wake_ms={sched.wake_ms!r}, sleep_ms={sched.sleep_ms!r})"
        assert [f.name for f in dataclasses.fields(sched) if f.compare] == ["wake_ms", "sleep_ms"]
        assert sched != DutySchedule(wake_ms=sched.wake_ms + 1.0, sleep_ms=sched.sleep_ms)

    @pytest.mark.parametrize("sched", every_schedule(), ids=repr)
    def test_replace_recomputes_both(self, sched):
        off = dataclasses.replace(sched, wake_ms=0.0)
        assert off.radio_off and off.period_ms == sched.sleep_ms
        longer = dataclasses.replace(sched, wake_ms=7.0, sleep_ms=sched.sleep_ms + 3.0)
        assert not longer.radio_off
        assert longer.period_ms == 7.0 + (sched.sleep_ms + 3.0)


class TestWaitMs:
    def test_awake_asleep_always_on_and_off(self):
        sched = DutySchedule(wake_ms=5.0, sleep_ms=15.0)
        assert sched.wait_ms(2.0, 2.0) == 0.0  # the wake's first instant
        assert sched.wait_ms(2.0, 6.9) == 0.0
        assert sched.wait_ms(2.0, 7.0) == 15.0  # the sleep's first instant
        assert sched.wait_ms(2.0, 20.0) == 2.0
        assert schedule_from_delta(1.0).wait_ms(3.0, 11.0) == 0.0
        assert schedule_from_delta(0.0).wait_ms(0.0, 0.0) == math.inf

    def test_one_ulp_before_the_wake_is_awake(self):
        # Here (t - phase) % period rounds up to the period itself, so no wait
        # is left: beacon reception hears the receiver at this instant, as
        # unicast rendezvous meets it.
        sched = DutySchedule(wake_ms=5.0, sleep_ms=15.0)
        t = math.nextafter(1.0, 0.0)
        assert (t - 1.0) % sched.period_ms == sched.period_ms
        assert sched.wait_ms(1.0, t) == 0.0

    @pytest.mark.parametrize("sched", every_schedule(), ids=repr)
    @settings(max_examples=50)
    @given(phase=st.floats(0.0, 200.0), t=st.floats(0.0, 1e7))
    def test_next_wake_is_the_oracle_rendezvous(self, sched, phase, t):
        expected = csma_oracle.first_wake_at(sched.wake_ms, sched.sleep_ms, phase, t)
        assert t + sched.wait_ms(phase, t) == expected


class TestPreamble:
    def test_spans_20ms_sleep(self):
        train = preamble_train(20.0)
        assert train.count == 20
        assert train.duration_ms >= 20.0

    def test_spans_100ms_sleep(self):
        assert preamble_train(100.0).count == 100

    def test_always_on_receiver_single_packet(self):
        assert preamble_train(0.0).count == 1

    def test_fractional_sleep_rounds_up(self):
        assert preamble_train(20.5).count == 21

    def test_invariant_count_times_duration_covers_sleep(self):
        for sleep in (1.0, 7.3, 35.0, 95.0, 100.0):
            train = preamble_train(sleep)
            assert train.count * train.packet_ms >= sleep


class TestCca:
    def test_quiet_channel_idle(self):
        assert not cca(-90.0)

    def test_loud_channel_busy(self):
        assert cca(-60.0)

    def test_threshold_itself_busy(self):
        assert cca(-77.0)


class TestBackoff:
    def test_binary_exponential(self):
        cfg = MacConfig()
        windows = [backoff_window_ms(k, cfg) for k in range(1, 6)]
        assert windows == [1.25, 2.5, 5.0, 10.0, 20.0]


class TestRadioEnergy:
    def test_zero_durations(self):
        assert radio_energy(RadioEnergyModel()) == 0.0

    def test_rx_ten_ms(self):
        assert radio_energy(RadioEnergyModel(), rx_ms=10.0) == pytest.approx(555.0)

    def test_tx_matches_table_scale(self):
        # 128 B at 250 kb/s = 4.096 ms at 25.8 mA, 3 V: same order as the
        # 341 uJ table entry for a full-power 128 B transmission.
        e = radio_energy(RadioEnergyModel(), tx_ms=4.096, tx_power_dbm=0)
        assert e == pytest.approx(317.03, abs=0.01)
        assert abs(e - 341.0) / 341.0 < 0.1


def awake_schedule():
    return DutySchedule(wake_ms=5.0, sleep_ms=0.0)


class TestFrameCosts:
    """Each field of a world's frame-cost table equals the direct
    ``radio_energy`` or ``preamble_train`` call it stands for."""

    # Frame times unlike the defaults and each other, so that a field
    # computed from the wrong one differs.
    CONFIG = MacConfig(
        preamble_packet_ms=0.8, data_packet_ms=4.5, ack_ms=0.3, control_packet_ms=1.2
    )

    @pytest.mark.parametrize("mode", ["formula", "paper-table"])
    @pytest.mark.parametrize("beacon_dbm", sorted(RadioEnergyModel().tx_ma))
    def test_fields_equal_direct_calls(self, mode, beacon_dbm):
        config = dataclasses.replace(self.CONFIG, schedule_mode=mode)
        radio = RadioEnergyModel()
        schedules = {
            level: schedule_from_delta(delta, config) for level, delta in DELTA_BY_LEVEL.items()
        }
        costs = frame_costs(config, radio, schedules, beacon_dbm)
        control, preamble = config.control_packet_ms, config.preamble_packet_ms
        live = (EnergyLevel.E1, EnergyLevel.E2, EnergyLevel.E3)
        sleeps = [0.0] + [schedules[level].sleep_ms for level in live]
        assert len(set(sleeps)) == 4
        span = schedules[EnergyLevel.E1].sleep_ms + control
        ack = radio_energy(radio, tx_ms=config.ack_ms, tx_power_dbm=0)

        assert costs.beacon_tx_uj == radio_energy(radio, tx_ms=control, tx_power_dbm=beacon_dbm)
        assert costs.control_rx_uj == radio_energy(radio, rx_ms=control)
        assert costs.rreq_span_ms == span == max(sleeps) + control
        assert costs.rreq_tx_uj == {
            power: radio_energy(radio, tx_ms=span, tx_power_dbm=power) for power in radio.tx_ma
        }
        ack_rx = config.ack_ms * radio.rx_ma
        assert costs.unicasts == {
            "data": (
                config, config.data_packet_ms, "mac:data-tx", "mac:data-rx",
                radio_energy(radio, rx_ms=preamble) + ack, ack_rx,
            ),
            "rrep": (
                dataclasses.replace(config, data_packet_ms=control), 0.0,
                "mac:rrep-tx", "mac:rrep-rx",
                radio_energy(radio, rx_ms=preamble + control) + ack, ack_rx,
            ),
        }
        assert costs.trains == {sleep: preamble_train(sleep, config) for sleep in sleeps}
        assert costs.send_estimate_uj == {
            (sleep, power): radio_energy(
                radio, tx_ms=sleep + config.data_packet_ms, tx_power_dbm=power
            )
            for sleep in sleeps
            for power in radio.tx_ma
        }

    @pytest.mark.parametrize("tx_ms", [0.0, 0.3, 1.0, 4.5, 17.3, 101.25])
    def test_sender_overhead_is_radio_energy_bit_for_bit(self, tx_ms):
        # What a unicast's sender pays beyond its planned frame: its extra
        # airtime at its power and the ack it hears, priced from the table.
        radio = RadioEnergyModel()
        schedules = {
            level: schedule_from_delta(delta, self.CONFIG) for level, delta in DELTA_BY_LEVEL.items()
        }
        costs = frame_costs(self.CONFIG, radio, schedules, 0)
        for spec in costs.unicasts.values():
            for power in radio.tx_ma:
                priced = costs.supply_v * (tx_ms * costs.tx_ma[power] + spec.ack_rx)
                direct = radio_energy(
                    radio, tx_ms=tx_ms, tx_power_dbm=power, rx_ms=spec.config.ack_ms
                )
                assert priced.hex() == direct.hex()

    def test_frozen(self):
        schedules = {level: schedule_from_delta(d) for level, d in DELTA_BY_LEVEL.items()}
        costs = frame_costs(MacConfig(), RadioEnergyModel(), schedules, 0)
        assert isinstance(costs, FrameCosts)
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.beacon_tx_uj = 0.0


class TestCsmaSend:
    def test_idle_channel_awake_receiver_first_attempt(self):
        res = csma_send(awake_schedule(), MacConfig(), random.Random(1))
        assert res.delivered
        assert res.attempts == 1
        assert res.preambles_sent == 1

    def test_saturated_channel(self):
        with pytest.raises(ChannelSaturated):
            csma_send(
                awake_schedule(),
                MacConfig(),
                random.Random(1),
                channel_power_dbm=lambda t: -10.0,
            )

    def test_no_ack_after_retries(self):
        cfg = MacConfig(arq_retries=3)
        with pytest.raises(NoAck) as err:
            csma_send(
                awake_schedule(),
                cfg,
                random.Random(1),
                attempt_delivers=lambda: False,
            )
        assert err.value.result.preambles_sent == 4  # one per delivery round

    def test_rendezvous_at_any_phase(self):
        # Receiver at 5% duty (formula: sleep 95 ms): any wake phase lands
        # inside the spanning train.
        sched = schedule_from_delta(0.05)
        for phase in [0.0, 13.7, 42.0, 60.0, 94.9]:
            res = csma_send(
                sched,
                MacConfig(),
                random.Random(2),
                receiver_phase_ms=phase,
            )
            assert res.delivered

    def test_sleepier_receiver_costs_sender_more(self):
        cfg = MacConfig(schedule_mode="paper-table")
        slow = schedule_from_delta(0.05, cfg)  # sleep 100 -> up to 100 packets
        fast = schedule_from_delta(0.25, cfg)  # sleep 20 -> up to 20 packets
        # Phase far enough out that the train runs its full span.
        res_slow = csma_send(
            slow, cfg, random.Random(3), receiver_phase_ms=99.9
        )
        res_fast = csma_send(
            fast, cfg, random.Random(3), receiver_phase_ms=19.9
        )
        assert res_slow.delivered and res_fast.delivered
        assert res_slow.sender_tx_ms > res_fast.sender_tx_ms

    def test_virtual_energy_transfer_monotone(self):
        model = RadioEnergyModel()
        energies = []
        for delta in (0.05, 0.15, 0.25):
            sched = schedule_from_delta(delta)
            res = csma_send(
                sched,
                MacConfig(),
                random.Random(4),
                receiver_phase_ms=sched.sleep_ms - 0.01,
            )
            energies.append(radio_energy(model, tx_ms=res.sender_tx_ms))
        assert energies[0] > energies[1] > energies[2]

    def test_dormant_receiver_never_acks(self):
        sched = schedule_from_delta(0.0)
        with pytest.raises(NoAck):
            csma_send(sched, MacConfig(), random.Random(5))

    def test_rts_cts_precedes_data(self):
        # RTS and CTS each take one control frame before the data; the
        # sender keys up only for the RTS.
        cfg = MacConfig(rts_cts=True)
        base = csma_send(awake_schedule(), MacConfig(), random.Random(6))
        res = csma_send(awake_schedule(), cfg, random.Random(6))
        assert res.delivered and base.delivered
        assert res.elapsed_ms == pytest.approx(base.elapsed_ms + 2 * cfg.control_packet_ms)
        assert res.sender_tx_ms == pytest.approx(base.sender_tx_ms + cfg.control_packet_ms)

    def test_busy_then_clear_backs_off(self):
        calls = {"n": 0}

        def channel(t):
            calls["n"] += 1
            return -10.0 if calls["n"] == 1 else -120.0

        res = csma_send(
            awake_schedule(), MacConfig(), random.Random(8),
            channel_power_dbm=channel,
        )
        assert res.delivered
        assert res.attempts == 2


def _mac_outcome(sched, cfg, rng, **kwargs):
    """``csma_send``'s outcome in the oracle's terms."""
    try:
        res, outcome = csma_send(sched, cfg, rng, **kwargs), csma_oracle.DELIVERED
    except ChannelSaturated as exc:
        res, outcome = exc.result, csma_oracle.SATURATED
    except NoAck as exc:
        res, outcome = exc.result, csma_oracle.NO_ACK
    assert res.delivered == (outcome == csma_oracle.DELIVERED)
    return csma_oracle.OracleSend(
        outcome, res.attempts, res.preambles_sent, res.elapsed_ms, res.sender_tx_ms
    )


# Rendezvous boundaries: on the 5 ms / 95 ms cycle from phase 50, an idle
# channel and a 1 ms packet, the receiver wakes exactly at ``now``, exactly
# 3 packets after it, exactly at a 3-packet train's end, and one ulp past it.
SLEEPY = schedule_from_delta(0.05)
BOUNDARIES = {
    "at now": dict(start=1050.0, phase=50.0, train=10),
    "3 packets after now": dict(start=1047.0, phase=50.0, train=10),
    "at the train's end": dict(start=1047.0, phase=50.0, train=3),
    "one ulp past the train's end": dict(start=1047.0, phase=50.00000000000023, train=3),
}


def _boundary(case):
    return example(
        sched=SLEEPY, rts_cts=False, mode="formula", arq_retries=1, backoff_attempts=1,
        packet_ms=1.0, busy_for=-30.0, loss=0.0, seed=3, **case,
    )


class TestCsmaOracle:
    """``csma_send`` equals the exchange loop it was derived from, draw for draw."""

    def test_boundary_examples_wake_where_they_say(self):
        wakes = {
            name: case["start"] + SLEEPY.wait_ms(case["phase"], case["start"])
            for name, case in BOUNDARIES.items()
        }
        assert wakes == {
            "at now": 1050.0,
            "3 packets after now": 1047.0 + 3 * 1.0,
            "at the train's end": 1047.0 + 3 * 1.0,
            "one ulp past the train's end": math.nextafter(1047.0 + 3 * 1.0, math.inf),
        }

    @_boundary(BOUNDARIES["at now"])
    @_boundary(BOUNDARIES["3 packets after now"])
    @_boundary(BOUNDARIES["at the train's end"])
    @_boundary(BOUNDARIES["one ulp past the train's end"])
    @given(
        sched=st.sampled_from(every_schedule()),
        rts_cts=st.booleans(),
        mode=st.sampled_from(["formula", "paper-table"]),
        arq_retries=st.integers(min_value=0, max_value=4),
        backoff_attempts=st.integers(min_value=1, max_value=6),
        packet_ms=st.sampled_from([1.0, 0.5, 1.7]),
        train=st.none() | st.integers(min_value=1, max_value=130),
        phase=st.floats(min_value=0.0, max_value=120.0),
        start=st.floats(min_value=0.0, max_value=1e7),
        busy_for=st.floats(min_value=-30.0, max_value=120.0),
        loss=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_oracle(
        self, sched, rts_cts, mode, arq_retries, backoff_attempts, packet_ms, train,
        phase, start, busy_for, loss, seed,
    ):
        cfg = MacConfig(
            rts_cts=rts_cts, schedule_mode=mode, arq_retries=arq_retries,
            backoff_max_attempts=backoff_attempts, preamble_packet_ms=packet_ms,
        )
        busy_until = start + busy_for

        def channel(t):
            return 0.0 if t < busy_until else -120.0

        runs = []
        for side in ("mac", "oracle"):
            rng, link = random.Random(seed), random.Random(seed + 1)

            def delivers(link=link):
                return link.random() >= loss

            if side == "mac":
                got = _mac_outcome(
                    sched, cfg, rng, receiver_phase_ms=phase, start_ms=start,
                    channel_power_dbm=channel, attempt_delivers=delivers,
                    train=None if train is None else PreambleTrain(train, packet_ms),
                )
            else:
                got = csma_oracle.csma_send(
                    sched.wake_ms, sched.sleep_ms, cfg, rng, phase_ms=phase, start_ms=start,
                    channel_power_dbm=channel, attempt_delivers=delivers,
                    train=None if train is None else (train, packet_ms),
                )
            runs.append((got, rng.getstate(), link.getstate()))
        assert runs[0] == runs[1]

    def test_examples_reach_every_outcome(self):
        # Saturated, unacknowledged and delivered exchanges, including an
        # undersized train that misses the wake and retries.
        cfg = MacConfig(arq_retries=2)
        sleepy = schedule_from_delta(0.05)
        # Each case's data frames in turn survive or not (``None``: the default,
        # every frame survives); the third case's second frame is its first to.
        cases = [
            (awake_schedule(), dict(channel_power_dbm=lambda t: 0.0), None),
            (sleepy, dict(train=PreambleTrain(3, 1.0), receiver_phase_ms=50.0), None),
            (sleepy, dict(receiver_phase_ms=50.0), (False, True)),
        ]
        outcomes = []
        for sched, kwargs, frames in cases:
            if frames is not None:
                kwargs = dict(kwargs, attempt_delivers=iter(frames).__next__)
            got = _mac_outcome(sched, cfg, random.Random(7), **kwargs)
            oracle_kwargs = {
                "phase_ms": kwargs.get("receiver_phase_ms", 0.0),
                "start_ms": 0.0,
                "channel_power_dbm": kwargs.get("channel_power_dbm", lambda t: -120.0),
                "attempt_delivers": iter(frames).__next__ if frames else lambda: True,
            }
            if "train" in kwargs:
                oracle_kwargs["train"] = (kwargs["train"].count, kwargs["train"].packet_ms)
            want = csma_oracle.csma_send(
                sched.wake_ms, sched.sleep_ms, cfg, random.Random(7), **oracle_kwargs
            )
            assert got == want
            outcomes.append(got.outcome)
        assert outcomes == [csma_oracle.SATURATED, csma_oracle.NO_ACK, csma_oracle.DELIVERED]
