"""One LPL unicast exchange, step by step: the independent oracle for
``mac.csma_send``.

This is the loop ``csma_send`` ran before it read its settings and train
once per exchange: every field is read from its settings object where it is
used, and the receiver's next wake is found from its wake and sleep timings
alone. It shares no code with ``harvestsim``: the receiver's schedule and
the preamble train arrive as plain numbers, and the MAC settings are only
read (``cca_threshold_dbm``, ``backoff_initial_ms``,
``backoff_max_attempts``, ``arq_retries``, ``rts_cts``,
``control_packet_ms``, ``data_packet_ms``, ``ack_ms``,
``preamble_packet_ms``). The tests compare the two draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DELIVERED = "delivered"
SATURATED = "saturated"  # every round found the channel busy
NO_ACK = "no-ack"  # some round got through, none was acknowledged


@dataclass(frozen=True)
class OracleSend:
    outcome: str
    attempts: int
    preambles_sent: int
    elapsed_ms: float
    sender_tx_ms: float


def first_wake_at(wake_ms: float, sleep_ms: float, phase_ms: float, t_ms: float) -> float:
    """Earliest time >= ``t_ms`` at which a receiver on this cycle is awake."""
    if wake_ms == 0.0:
        return math.inf
    if sleep_ms == 0.0:
        return t_ms
    period = wake_ms + sleep_ms
    into = (t_ms - phase_ms) % period
    if into < wake_ms:
        return t_ms
    return t_ms + (period - into)


def csma_send(
    wake_ms: float,
    sleep_ms: float,
    settings,
    rng,
    *,
    phase_ms: float,
    start_ms: float,
    channel_power_dbm,
    attempt_delivers,
    train: tuple[int, float] | None = None,
) -> OracleSend:
    """The exchange against a receiver waking ``wake_ms`` every
    ``wake_ms + sleep_ms`` from ``phase_ms``; ``train`` is ``(count,
    packet_ms)``, or ``None`` for a train sized to span the real sleep.
    ``attempt_delivers()`` tells, once per data frame sent, whether that frame
    survives."""
    if train is None:
        span = 0.0 if wake_ms == 0.0 or math.isinf(sleep_ms) else sleep_ms
        train = (max(1, math.ceil(span / settings.preamble_packet_ms)), settings.preamble_packet_ms)
    count, packet_ms = train
    now = start_ms
    attempts = 0
    preambles = 0
    tx_ms = 0.0
    saturated = 0
    rounds = settings.arq_retries + 1
    for _ in range(rounds):
        cleared = False
        for attempt in range(1, settings.backoff_max_attempts + 1):
            attempts += 1
            if not channel_power_dbm(now) >= settings.cca_threshold_dbm:  # clear
                cleared = True
                break
            now += rng.uniform(0.0, settings.backoff_initial_ms * (2 ** (attempt - 1)))
        if not cleared:
            saturated += 1
            continue
        if settings.rts_cts:
            now += settings.control_packet_ms
            now += settings.control_packet_ms
            tx_ms += settings.control_packet_ms
        wake_at = first_wake_at(wake_ms, sleep_ms, phase_ms, now)
        train_end = now + count * packet_ms
        if wake_at > train_end:
            preambles += count
            tx_ms += count * packet_ms
            now = train_end
            continue
        sent = max(1, math.ceil(max(wake_at - now, 0.0) / packet_ms))
        sent = min(sent, count)
        preambles += sent
        tx_ms += sent * packet_ms
        now = max(wake_at, now + sent * packet_ms)
        now += settings.data_packet_ms
        tx_ms += settings.data_packet_ms
        if attempt_delivers():
            now += settings.ack_ms
            return OracleSend(DELIVERED, attempts, preambles, now - start_ms, tx_ms)
        now += settings.ack_ms
    outcome = SATURATED if saturated == rounds else NO_ACK
    return OracleSend(outcome, attempts, preambles, now - start_ms, tx_ms)
