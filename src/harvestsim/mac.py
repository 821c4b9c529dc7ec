"""Low-power-listening MAC: adaptive duty schedules and addressed preambles.

Receivers sleep most of the time and wake briefly on a fixed cycle; a sender
therefore precedes each data frame with a train of short addressed packets
long enough to span the receiver's sleep interval, so any wake phase lands
inside the train. The engine runs the duty factor anchored to a node's own
energy level (``DELTA_BY_LEVEL``): nodes high on energy wake more often,
shortening the trains their peers must send ("virtual energy transfer"). The
per-slot optimizer's duty factor is reported (the ``delta`` column of the
slot log) but does not set the schedule.

Two schedule realizations exist. Formula mode keeps a fixed wake window and
derives sleep as ``w * (1 - delta) / delta``, so the on-fraction equals the
duty factor exactly. Table mode reproduces the three published
(duty, sleep-ms) calibration pairs verbatim; those pairs are mutually
inconsistent with any single wake window, which is why the formula is the
default and the table is kept for comparison runs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .bounds import NUM, POS, Bounded, enum, int_min
from .energy import EnergyLevel


class MacError(Exception):
    """Base class for MAC errors; ``result`` is the failed exchange's
    :class:`SendResult`, when there was one."""

    def __init__(self, msg: str, result=None):
        super().__init__(msg)
        self.result = result


class ChannelSaturated(MacError):
    """Every CSMA attempt found the channel busy."""


class NoAck(MacError):
    """Retries exhausted without an acknowledgement."""


# Duty-factor anchors per energy level, used both to realize a node's own
# schedule and to size preamble trains for an inferred neighbour level.
DELTA_BY_LEVEL = {
    EnergyLevel.E0: 0.0,
    EnergyLevel.E1: 0.05,
    EnergyLevel.E2: 0.15,
    EnergyLevel.E3: 0.25,
}

# Published duty-to-sleep calibration pairs (table mode).
PAPER_TABLE_SLEEP_MS = {0.05: 100.0, 0.15: 35.0, 0.25: 20.0}


@dataclass(frozen=True)
class MacConfig(Bounded):
    cca_threshold_dbm: float = field(default=-77.0, metadata=NUM)
    backoff_initial_ms: float = field(default=1.25, metadata=POS)
    backoff_max_attempts: int = field(default=5, metadata=int_min(1))
    arq_retries: int = field(default=3, metadata=int_min(0))
    rts_cts: bool = field(default=False, metadata={"type": "boolean"})
    preamble_packet_ms: float = field(default=1.0, metadata=POS)
    wake_window_ms: float = field(default=5.0, metadata=POS)
    schedule_mode: str = field(default="formula", metadata=enum("formula", "paper-table"))
    # 128 B at 250 kb/s.
    data_packet_ms: float = field(default=4.096, metadata=POS)
    ack_ms: float = field(default=0.35, metadata=POS)
    # Beacon, rts, cts, rreq and rrep frames.
    control_packet_ms: float = field(default=1.0, metadata=POS)


@dataclass(frozen=True)
class RadioEnergyModel:
    """Per-state supply currents (mA) and voltage; uJ = mA * V * ms."""

    tx_ma: dict[int, float] = field(
        default_factory=lambda: {0: 25.8, -5: 23.0, -10: 20.5}
    )
    rx_ma: float = 18.5
    supply_v: float = 3.0


@dataclass(frozen=True)
class DutySchedule:
    """Wake/sleep timing realizing one duty factor.

    The cycle's ``period_ms`` and whether the radio is off derive from the
    two timings alone, so they are computed once, when the schedule is
    built; equality, hashing and ``repr`` see only the two timings.
    """

    wake_ms: float
    sleep_ms: float
    period_ms: float = field(init=False, repr=False, compare=False)
    radio_off: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        derived = self.__dict__
        derived["period_ms"] = self.wake_ms + self.sleep_ms
        derived["radio_off"] = self.wake_ms == 0.0

    @property
    def duty_fraction(self) -> float:
        if self.wake_ms == 0.0:
            return 0.0
        if self.sleep_ms == 0.0:
            return 1.0
        return self.wake_ms / self.period_ms


def schedule_from_delta(delta: float, config: MacConfig = MacConfig()) -> DutySchedule:
    """Realize a duty factor as a wake/sleep cycle.

    ``delta = 0`` turns the radio off entirely (system-only operation);
    ``delta = 1`` keeps it always on.
    """
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"duty factor outside [0,1]: {delta}")
    if delta == 0.0:
        return DutySchedule(wake_ms=0.0, sleep_ms=math.inf)
    if delta == 1.0:
        return DutySchedule(wake_ms=config.wake_window_ms, sleep_ms=0.0)
    if config.schedule_mode == "paper-table":
        anchor = min(PAPER_TABLE_SLEEP_MS, key=lambda d: (abs(d - delta), d))
        return DutySchedule(wake_ms=config.wake_window_ms, sleep_ms=PAPER_TABLE_SLEEP_MS[anchor])
    w = config.wake_window_ms
    return DutySchedule(wake_ms=w, sleep_ms=w * (1.0 - delta) / delta)


def measure_duty(schedule: DutySchedule, cycles: int) -> float:
    """Radio-on fraction over a number of wake cycles, from the timeline itself."""
    if cycles < 1:
        raise ValueError("need at least one cycle")
    if schedule.radio_off:
        return 0.0
    on = 0.0
    total = 0.0
    for _ in range(cycles):
        on += schedule.wake_ms
        total += schedule.wake_ms + schedule.sleep_ms
    return on / total


@dataclass(frozen=True)
class PreambleTrain:
    """Addressed wake-up packets spanning the receiver's sleep interval."""

    count: int
    packet_ms: float

    @property
    def duration_ms(self) -> float:
        return self.count * self.packet_ms


def preamble_train(receiver_sleep_ms: float, config: MacConfig = MacConfig()) -> PreambleTrain:
    """Size a train to span the receiver's sleep; always at least one packet."""
    if receiver_sleep_ms < 0 or math.isinf(receiver_sleep_ms):
        raise ValueError(f"receiver sleep invalid: {receiver_sleep_ms}")
    count = max(1, math.ceil(receiver_sleep_ms / config.preamble_packet_ms))
    return PreambleTrain(count=count, packet_ms=config.preamble_packet_ms)


def cca(sampled_power_dbm: float, config: MacConfig = MacConfig()) -> bool:
    """Energy-detection clear channel assessment: True when busy (>= threshold)."""
    return sampled_power_dbm >= config.cca_threshold_dbm


def backoff_window_ms(attempt: int, config: MacConfig) -> float:
    """Binary-exponential window for the k-th attempt (1-based)."""
    if attempt < 1:
        raise ValueError("attempts are 1-based")
    return config.backoff_initial_ms * (2 ** (attempt - 1))


def radio_energy(
    model: RadioEnergyModel,
    *,
    tx_ms: float = 0.0,
    tx_power_dbm: int = 0,
    rx_ms: float = 0.0,
) -> float:
    """Energy (uJ) of radio activity: sum of duration x current x voltage."""
    if tx_ms < 0:
        raise ValueError("tx duration must be >= 0")
    if rx_ms < 0:
        raise ValueError("rx duration must be >= 0")
    if tx_ms and tx_power_dbm not in model.tx_ma:
        raise ValueError(f"no tx current for {tx_power_dbm} dBm")
    tx_current = model.tx_ma.get(tx_power_dbm, 0.0)
    return model.supply_v * (tx_ms * tx_current + rx_ms * model.rx_ma)


class UnicastCost(NamedTuple):
    """How the engine sends and charges one unicast purpose."""

    config: MacConfig  # its frame length is the purpose's frame
    paid_frame_ms: float  # the part of the sender's airtime the plan pays
    tx_label: str
    rx_label: str
    rx_uj: float  # a delivered unicast's receiver cost


@dataclass(frozen=True)
class FrameCosts:
    """What the frames of one world cost, computed once by :func:`frame_costs`.

    ``trains`` and ``send_estimate_uj`` (a unicast's worst-case single round,
    per transmit power) are keyed by the receiver's believed sleep: 0 ms for
    the always-on sink, else the sleep of the E1, E2 or E3 schedule.
    """

    beacon_tx_uj: float  # one beacon, at the fixed beacon power
    control_rx_uj: float  # hearing a beacon or an RREQ
    rreq_span_ms: float  # an RREQ train spans the longest sleep a live receiver has
    rreq_tx_uj: dict[int, float]  # per transmit power
    unicasts: dict[str, UnicastCost]  # per purpose: data or rrep
    trains: dict[float, PreambleTrain]
    send_estimate_uj: dict[tuple[float, int], float]  # per (believed sleep, power)


def frame_costs(
    config: MacConfig,
    radio: RadioEnergyModel,
    schedules: Mapping[EnergyLevel, DutySchedule],
    beacon_dbm: int,
) -> FrameCosts:
    """The radio energy of every fixed-length frame and the preamble trains,
    from the MAC settings, the radio model and each level's schedule."""
    control_ms = config.control_packet_ms
    # Unicasts carry data frames (``config``) or control-length frames
    # (rrep). The plan pays a data frame's tx128 and rx128, so its frame
    # is no sender overhead; a delivered unicast's receiver hears the
    # preamble, plus the frame for rrep, and acks at 0 dBm.
    preamble_ms = config.preamble_packet_ms
    ack_uj = radio_energy(radio, tx_ms=config.ack_ms, tx_power_dbm=0)
    unicasts = {
        "data": UnicastCost(
            config,
            config.data_packet_ms,
            "mac:data-tx",
            "mac:data-rx",
            radio_energy(radio, rx_ms=preamble_ms) + ack_uj,
        ),
        "rrep": UnicastCost(
            replace(config, data_packet_ms=control_ms),
            0.0,
            "mac:rrep-tx",
            "mac:rrep-rx",
            radio_energy(radio, rx_ms=preamble_ms + control_ms) + ack_uj,
        ),
    }
    # E1 has the longest sleep of the levels whose radio is on.
    rreq_span_ms = schedules[EnergyLevel.E1].sleep_ms + control_ms
    believed_sleeps = [0.0] + [
        schedules[level].sleep_ms for level in (EnergyLevel.E1, EnergyLevel.E2, EnergyLevel.E3)
    ]
    return FrameCosts(
        beacon_tx_uj=radio_energy(radio, tx_ms=control_ms, tx_power_dbm=beacon_dbm),
        control_rx_uj=radio_energy(radio, rx_ms=control_ms),
        rreq_span_ms=rreq_span_ms,
        rreq_tx_uj={
            power: radio_energy(radio, tx_ms=rreq_span_ms, tx_power_dbm=power)
            for power in radio.tx_ma
        },
        unicasts=unicasts,
        trains={sleep: preamble_train(sleep, config) for sleep in believed_sleeps},
        send_estimate_uj={
            (sleep, power): radio_energy(
                radio, tx_ms=sleep + config.data_packet_ms, tx_power_dbm=power
            )
            for sleep in believed_sleeps
            for power in radio.tx_ma
        },
    )


@dataclass(slots=True)
class SendResult:
    """Outcome of a CSMA unicast exchange."""

    delivered: bool
    attempts: int
    preambles_sent: int
    elapsed_ms: float
    sender_tx_ms: float


def _first_wake_at(
    schedule: DutySchedule, phase_ms: float, t_ms: float
) -> float:
    """Earliest time >= t_ms at which the receiver is awake.

    ``phase_ms`` is the offset of the receiver's first wake within its cycle.
    """
    if schedule.radio_off:
        return math.inf
    if schedule.sleep_ms == 0.0:
        return t_ms
    period = schedule.period_ms
    into = (t_ms - phase_ms) % period
    if into < schedule.wake_ms:
        return t_ms
    return t_ms + (period - into)


def csma_send(
    receiver_schedule: DutySchedule,
    config: MacConfig,
    rng,
    *,
    receiver_phase_ms: float = 0.0,
    start_ms: float = 0.0,
    channel_power_dbm=None,
    attempt_delivers=None,
    train: PreambleTrain | None = None,
) -> SendResult:
    """One unicast exchange: CCA, backoff, preamble train, data, ack, retries.

    ``channel_power_dbm`` samples the medium at a given time (default: always
    idle); ``attempt_delivers`` decides whether a given attempt's data frame
    survives the link (default: always). ``train`` overrides the train sized
    for the receiver's sleep (a sender sizes it from its *belief* about the
    receiver, which may be stale); rendezvous always follows the receiver's
    real schedule, so an undersized train misses and the round is retried.
    Raises :class:`ChannelSaturated` when every attempt finds the channel
    busy and :class:`NoAck` when the allowed retries are exhausted without a
    delivery.
    """
    sample = channel_power_dbm or (lambda t: -120.0)
    decide = attempt_delivers or (lambda attempt: True)
    if train is None:
        sleep_ms = (
            0.0
            if receiver_schedule.radio_off or math.isinf(receiver_schedule.sleep_ms)
            else receiver_schedule.sleep_ms
        )
        train = preamble_train(sleep_ms, config)
    # What stays fixed for the whole exchange, read once.
    train_count, packet_ms = train.count, train.packet_ms
    train_ms = train.duration_ms
    backoff_attempts = config.backoff_max_attempts
    rts_cts, control_ms = config.rts_cts, config.control_packet_ms
    data_ms, ack_ms = config.data_packet_ms, config.ack_ms
    now = start_ms
    attempts = 0
    preambles_total = 0
    tx_ms_total = 0.0
    saturated = 0
    deliveries_allowed = config.arq_retries + 1

    for round_no in range(1, deliveries_allowed + 1):
        # CSMA: sample, back off while busy.
        cleared = False
        for attempt in range(1, backoff_attempts + 1):
            attempts += 1
            if not cca(sample(now), config):
                cleared = True
                break
            now += rng.uniform(0.0, backoff_window_ms(attempt, config))
        if not cleared:
            saturated += 1
            continue
        if rts_cts:
            now += control_ms  # rts
            now += control_ms  # cts
            tx_ms_total += control_ms
        # Preamble until the receiver's wake lands inside the train.
        wake_at = _first_wake_at(receiver_schedule, receiver_phase_ms, now)
        train_end = now + train_ms
        if wake_at > train_end:
            preambles_total += train_count
            tx_ms_total += train_count * packet_ms
            now = train_end
            continue
        sent = max(1, math.ceil(max(wake_at - now, 0.0) / packet_ms))
        sent = min(sent, train_count)
        preambles_total += sent
        tx_ms_total += sent * packet_ms
        now = max(wake_at, now + sent * packet_ms)
        now += data_ms
        tx_ms_total += data_ms
        now += ack_ms
        if decide(round_no):
            return SendResult(
                delivered=True,
                attempts=attempts,
                preambles_sent=preambles_total,
                elapsed_ms=now - start_ms,
                sender_tx_ms=tx_ms_total,
            )

    result = SendResult(
        delivered=False,
        attempts=attempts,
        preambles_sent=preambles_total,
        elapsed_ms=now - start_ms,
        sender_tx_ms=tx_ms_total,
    )
    if saturated == deliveries_allowed:
        raise ChannelSaturated(
            f"{attempts} attempts, channel never cleared", result
        )
    raise NoAck(
        f"no acknowledgement after {deliveries_allowed} delivery rounds", result
    )
