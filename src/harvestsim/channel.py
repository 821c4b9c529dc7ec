"""The radio channel: log-distance path loss, log-normal shadowing, a loss
ramp near sensitivity, and one shared medium. Each world has one
:class:`Channel`.

Shadowing stands for the obstacles along a link, and node positions never
move, so each unordered link carries one constant offset, the first draw of
a stream of its own: ``random.Random(f"{a}:{b}:shadow").gauss(0.0, sigma)``
with the two node ids in sorted order (a scenario's node ids contain no
``:``, so no two links share a stream). The obstacles belong to the
deployment, not to a run, so the run seed does not enter the stream: every
seed of a scenario runs over the same links, and the seed varies only the
per-run draws (frame loss, backoff, wake phases). The offset is the same in
both directions, and adding a node elsewhere changes no link. The channel
keeps one link table (:meth:`Channel.link`), built on first use: one
``(mean, loss)`` entry per unordered link and transmit power, the link's mean
received power (:func:`rssi_at` plus its offset) and its loss probability.
Each broadcast walks a per-(sender, power) fan-out of ``(receiver, mean,
loss)`` entries in node-id order, read from the table, which leaves out the
links below sensitivity. A unicast exchange reads its link's entry, and each
of its data frames meets that loss. The channel keeps no per-exchange state.
Per-frame randomness comes from the loss ramp alone: every delivery draw is
:func:`survives`, from the world's channel stream.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .bounds import NONNEG, NUM, POS, PROBABILITY, Bounded
from .mac import CCA_BUSY_DBM, CCA_IDLE_DBM

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


class Channel:
    """One world's medium: every channel draw comes from ``rng``, in the
    order the engine asks, and carrier sense finds the medium busy before
    ``busy_until`` (seconds), which :meth:`occupy` moves.
    """

    __slots__ = ("settings", "nodes", "rng", "_links", "_fanouts", "busy_until")

    def __init__(self, settings: ChannelSettings, nodes: Mapping[str, NodeRuntime], seed: int):
        self.settings = settings
        self.nodes = nodes  # every node, in id order
        self.rng = random.Random(f"{seed}:channel")
        self._links: dict[tuple[str, str, float], tuple[float, float]] = {}
        self._fanouts: dict[tuple[str, float], tuple[tuple, ...]] = {}
        self.busy_until = 0.0

    def link(
        self, sender: NodeRuntime, receiver: NodeRuntime, tx_dbm: float
    ) -> tuple[float, float]:
        """A link's ``(mean, loss)`` at ``tx_dbm``: its mean received power,
        shadowing offset included, and its frame loss probability. One entry
        per unordered link and power, built on first use."""
        a, b = sender.node_id, receiver.node_id
        key = (a, b, tx_dbm) if a < b else (b, a, tx_dbm)
        entry = self._links.get(key)
        if entry is None:
            settings = self.settings
            (x1, y1), (x2, y2) = sender.position, receiver.position
            mean = rssi_at(tx_dbm, math.hypot(x2 - x1, y2 - y1), settings)
            sigma = settings.shadowing_sigma_db
            if sigma > 0.0:
                mean += random.Random(f"{key[0]}:{key[1]}:shadow").gauss(0.0, sigma)
            entry = self._links[key] = (mean, loss_probability(mean, settings))
        return entry

    def fanout(self, sender: NodeRuntime, tx_dbm: float) -> tuple[tuple, ...]:
        """Who can hear a broadcast: one ``(receiver, mean, loss)`` entry per
        link at or above sensitivity, in node-id order."""
        key = (sender.node_id, tx_dbm)
        fan = self._fanouts.get(key)
        if fan is None:
            links = (
                (other, *self.link(sender, other, tx_dbm))
                for other in self.nodes.values()
                if other is not sender
            )
            floor = self.settings.sensitivity_dbm
            fan = self._fanouts[key] = tuple(entry for entry in links if entry[1] >= floor)
        return fan

    def _power_dbm(self, at_ms: float) -> float:
        """What carrier sense samples at ``at_ms``: busy until ``busy_until``."""
        return CCA_BUSY_DBM if at_ms / 1000.0 < self.busy_until else CCA_IDLE_DBM

    def occupy(self, until_s: float) -> None:
        """The medium is in use until ``until_s``, if that is later."""
        self.busy_until = max(self.busy_until, until_s)
