"""The radio channel: log-distance path loss, optional shadowing, a loss ramp
near sensitivity, and one shared medium. Each world has one :class:`Channel`.

Link table: node positions never move, so the mean received power of a link
at a given transmit power (path loss without shadowing) is computed once per
(sender, receiver, power) on first use and memoised, and each broadcast walks
a per-(sender, power) fan-out list of ``(receiver, mean, loss)`` entries in
node-id order, also built on first use. A link is left out of a fan-out only
when it can never draw from the channel stream: without shadowing a link below
sensitivity was always skipped before its delivery draw, so it is dropped;
with shadowing every link keeps its per-reception draw, which can still lift
it above sensitivity, so every link stays. Without shadowing every reception
of a link has its mean power, so the entry carries the link's loss
probability, computed once; with it each reception computes its own. Either
way the channel stream is consumed in the same order as a full scan over all
nodes, and every delivery draw is :func:`survives`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .bounds import NONNEG, NUM, POS, PROBABILITY, Bounded

if TYPE_CHECKING:
    from .simcore import NodeRuntime


@dataclass(frozen=True)
class ChannelSettings(Bounded):
    """Log-distance path loss anchored at the beacon calibration point."""

    path_loss_exponent: float = field(default=2.7, metadata=POS)
    reference_loss_db: float = field(default=65.0, metadata=POS)
    reference_distance_m: float = field(default=8.0, metadata=POS)
    shadowing_sigma_db: float = field(default=0.0, metadata=NONNEG)
    sensitivity_dbm: float = field(default=-95.0, metadata=NUM)
    loss_margin_db: float = field(default=10.0, metadata=POS)
    loss_prob_at_zero: float = field(default=0.5, metadata=PROBABILITY)


def rssi_at(tx_dbm: float, distance_m: float, channel: ChannelSettings) -> float:
    """Mean received power over one link: log-distance path loss, no shadowing."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    loss = channel.reference_loss_db + 10.0 * channel.path_loss_exponent * math.log10(
        distance_m / channel.reference_distance_m
    )
    return tx_dbm - loss


def loss_probability(rssi_dbm: float, channel: ChannelSettings) -> float:
    """Frame loss probability from the link margin (linear ramp near the floor)."""
    margin = rssi_dbm - channel.sensitivity_dbm
    if margin < 0:
        return 1.0
    if margin >= channel.loss_margin_db:
        return 0.0
    return channel.loss_prob_at_zero * (1.0 - margin / channel.loss_margin_db)


def survives(loss: float, rng) -> bool:
    """Bernoulli frame delivery at loss probability ``loss``: a certain
    outcome draws nothing, any other draws once from ``rng``."""
    if loss >= 1.0:
        return False
    if loss <= 0.0:
        return True
    return rng.random() >= loss


def deliver(rssi_dbm: float, channel: ChannelSettings, rng) -> bool:
    """Bernoulli frame delivery at the given received power."""
    return survives(loss_probability(rssi_dbm, channel), rng)


class Channel:
    """One world's medium: every channel draw comes from ``rng``, in the
    order the engine asks, and carrier sense finds the medium busy before
    ``busy_until`` (seconds), which :meth:`occupy` moves.
    """

    def __init__(self, settings: ChannelSettings, nodes: Mapping[str, NodeRuntime], seed: int):
        self.settings = settings
        self.nodes = nodes  # every node, in id order
        self.rng = random.Random(f"{seed}:channel")
        # Read by every reception's shadowing draw, so looked up once.
        self._sigma = settings.shadowing_sigma_db
        self._link_means: dict[tuple[str, str, float], float] = {}
        self._fanouts: dict[tuple[str, float], tuple[tuple, ...]] = {}
        self.busy_until = 0.0
        # The mean-plus-shadowing RSSI of the unicast exchange in progress.
        self._exchange_rssi = 0.0

    def _link_mean(self, sender: NodeRuntime, receiver: NodeRuntime, tx_dbm: float) -> float:
        """Received power without shadowing, memoised per (sender, receiver, power)."""
        key = (sender.node_id, receiver.node_id, tx_dbm)
        mean = self._link_means.get(key)
        if mean is None:
            (x1, y1), (x2, y2) = sender.position, receiver.position
            mean = rssi_at(tx_dbm, math.hypot(x2 - x1, y2 - y1), self.settings)
            self._link_means[key] = mean
        return mean

    def fanout(self, sender: NodeRuntime, tx_dbm: float) -> tuple[tuple, ...]:
        """Who can hear a broadcast: one ``(receiver, mean, loss)`` entry per
        link, in node-id order.

        Without shadowing, links below sensitivity never reach a delivery
        draw and are left out, and each kept link carries its loss
        probability; with shadowing every link is kept, with loss ``None``:
        each reception draws its own power.
        """
        key = (sender.node_id, tx_dbm)
        fan = self._fanouts.get(key)
        if fan is None:
            settings = self.settings
            links = (
                (other, self._link_mean(sender, other, tx_dbm))
                for other in self.nodes.values()
                if other is not sender
            )
            if self._sigma > 0.0:
                fan = tuple((other, mean, None) for other, mean in links)
            else:
                fan = tuple(
                    (other, mean, loss_probability(mean, settings))
                    for other, mean in links
                    if mean >= settings.sensitivity_dbm
                )
            self._fanouts[key] = fan
        return fan

    def _shadow(self, mean: float) -> float:
        """One reception at a link mean, plus the shadowing draw when it is on:
        ``rng.gauss(0.0, sigma)`` run in place, sharing its ``gauss_next``."""
        sigma = self._sigma
        if sigma <= 0.0:
            return mean
        rng = self.rng
        z, rng.gauss_next = rng.gauss_next, None
        if z is None:
            x2pi = rng.random() * math.tau
            g2rad = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
            z, rng.gauss_next = math.cos(x2pi) * g2rad, math.sin(x2pi) * g2rad
        return mean + (0.0 + z * sigma)

    def open_exchange(self, sender: NodeRuntime, receiver: NodeRuntime, tx_dbm: float) -> float:
        """The received power of a unicast exchange from ``sender`` to
        ``receiver``: one reception's draw, which every frame of the exchange
        then meets (:meth:`_attempt_delivers`)."""
        rssi = self._exchange_rssi = self._shadow(self._link_mean(sender, receiver, tx_dbm))
        return rssi

    def _attempt_delivers(self, _round: int) -> bool:
        """Whether one data frame of the exchange in progress survives its link."""
        return deliver(self._exchange_rssi, self.settings, self.rng)

    def _power_dbm(self, at_ms: float) -> float:
        """What carrier sense samples at ``at_ms``: busy until ``busy_until``."""
        return 0.0 if at_ms / 1000.0 < self.busy_until else -120.0

    def occupy(self, until_s: float) -> None:
        """The medium is in use until ``until_s``, if that is later."""
        self.busy_until = max(self.busy_until, until_s)
