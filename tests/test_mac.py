import random

import pytest

from harvestsim.energy import EnergyLevel
from harvestsim.mac import (
    DELTA_BY_LEVEL,
    ChannelSaturated,
    DutySchedule,
    MacConfig,
    NoAck,
    RadioEnergyModel,
    backoff_window_ms,
    cca,
    csma_send,
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
                attempt_delivers=lambda k: False,
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
