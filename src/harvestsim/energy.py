"""Per-node energy ledger: harvest intake, capacitor storage, operation costs.

All energy amounts are plain floats in microjoules (uJ). A store is checked
when it is built and on every draw: deposit/withdraw validate the amount
first, then update the store in place and return it, so a refused or invalid
draw leaves it untouched. :func:`withdraw` spells the floor rule: a draw is
paid when what it leaves is not below the floor; a refusal raises
:class:`InsufficientEnergy` carrying its numbers (its message formatted only
when read). ``simcore.World._charge`` pays through it, answering a refusal
by the same comparison without the exception; ``app.execute_plan`` pays
a plan's checked prices by that comparison alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple


class EnergyError(Exception):
    """Base class for ledger errors."""


class SlotOutOfRange(EnergyError):
    """A harvest trace ended before the requested slot."""


class InsufficientEnergy(EnergyError):
    """A withdrawal would push the store below the survivability floor.

    Raised as ``InsufficientEnergy(amount, stored, floor)``: its ``args`` are
    the refused amount, the balance and the floor, and its message is
    formatted from them only when it is read.
    """

    def __str__(self) -> str:
        amount, stored, floor = self.args
        return f"withdraw {amount} from {stored} would leave {stored - amount} < floor {floor}"


class EnergyLevel(IntEnum):
    """Discretized store state, ordered from lowest-survivable to high."""

    E0 = 0
    E1 = 1
    E2 = 2
    E3 = 3


def check_amount(value: float, what: str = "energy") -> float:
    """Validate a microjoule amount: finite and non-negative."""
    if 0.0 <= value < math.inf:
        return float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    raise ValueError(f"{what} must be >= 0, got {value!r}")


# Three ascending capacity fractions splitting [0, capacity] into the four
# levels; ``EnergySettings.thresholds`` defaults to them and checks the order.
DEFAULT_THRESHOLDS = (0.10, 0.40, 0.70)
_LEVELS = tuple(EnergyLevel)


def classify_level(e: float, capacity: float, thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS) -> EnergyLevel:
    """Map a stored/available amount to one of the four energy levels.

    Classification is total: every 0 <= e <= capacity maps to exactly one
    level, with boundaries belonging to the level above.
    """
    check_amount(e, "e")
    check_amount(capacity, "capacity")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return _LEVELS[bisect_right(thresholds, e / capacity)]


@dataclass(slots=True)
class EnergyStore:
    """Supercapacitor ledger: stored amount and capacity clamp.

    Only :func:`deposit`, :func:`withdraw` and ``app.execute_plan`` change
    ``stored``, each keeping it valid.
    """

    stored: float
    capacity: float

    def __post_init__(self) -> None:
        # Kept as floats, so that a store clamped full holds a float too.
        self.stored = check_amount(self.stored, "stored")
        self.capacity = check_amount(self.capacity, "capacity")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.stored > self.capacity:
            raise ValueError(
                f"stored ({self.stored}) exceeds capacity ({self.capacity})"
            )


def deposit(store: EnergyStore, e: float) -> tuple[EnergyStore, float]:
    """Add harvested energy in place, clamping at capacity.

    Returns the same store and the overflow that could not be banked
    (wasted harvest).
    """
    check_amount(e, "deposit")
    total = store.stored + e
    if total > store.capacity:
        store.stored = store.capacity
        return store, total - store.capacity
    store.stored = total
    return store, 0.0


def withdraw(store: EnergyStore, e: float, floor: float) -> EnergyStore:
    """Spend energy in place, refusing any draw that would breach the
    survivability floor; returns the same store.

    The floor is validated before the amount.
    """
    if not 0.0 <= floor < math.inf:
        check_amount(floor, "floor")  # raises, naming the fault
    check_amount(e, "withdrawal")
    stored = store.stored
    remaining = stored - e
    if remaining < floor:
        raise InsufficientEnergy(e, stored, floor)
    store.stored = remaining
    return store


@dataclass(frozen=True)
class HarvestTrace:
    """Per-slot harvested power samples (watts), with a lazy scale factor.

    Slots are contiguous, starting at 0. The scale factor models
    panels attenuated to lab scale and is applied at integration time, not to
    the stored samples.
    """

    powers: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        # One chained comparison per sample, as in check_amount; NaN fails it too.
        for p in self.powers:
            if not 0.0 <= p < math.inf:
                # Every earlier sample passed, so none equals p: index finds this one.
                raise ValueError(f"power sample {self.powers.index(p)} invalid: {p!r}")

    def __len__(self) -> int:
        return len(self.powers)

    def power_at(self, slot: int) -> float:
        if slot < 0 or slot >= len(self.powers):
            raise SlotOutOfRange(f"slot {slot} outside trace [0, {len(self.powers) - 1}]")
        return self.powers[slot]


def harvest_in_slot(trace: HarvestTrace, slot: int, slot_duration_s: float) -> float:
    """Integrate harvested power over one slot (rectangle rule), in microjoules."""
    if slot_duration_s < 0 or not math.isfinite(slot_duration_s):
        raise ValueError(f"slot duration invalid: {slot_duration_s}")
    power_w = trace.power_at(slot)
    # 1 W * 1 s = 1 J = 1e6 uJ
    return power_w * slot_duration_s * trace.scale * 1e6


class OpKind(NamedTuple):
    """One measured operation of the reference mote."""

    cost_uj: float | None  # None: priced per transmit power (DEFAULT_TX_COSTS)
    radio: bool = False


TX_OP_KIND = "tx128"
RX_OP_KIND = "rx128"

# The operation vocabulary, in the order scenarios list it, with the costs
# measured on the reference mote in uJ. Transmit cost depends on the radio
# power level; the sub-0dBm entries are scaled by the transmit-current ratio
# of the radio (only the 0 dBm cost was measured).
OP_KINDS = {
    "sense": OpKind(20.30),
    "average50": OpKind(7.056),
    "peak50": OpKind(7.392),
    "flash_write": OpKind(1.23),
    "flash_read": OpKind(0.30),
    TX_OP_KIND: OpKind(None, radio=True),
    RX_OP_KIND: OpKind(400.0, radio=True),
}
DEFAULT_TX_COSTS = {0: 341.0, -5: 304.0, -10: 271.0}
DEFAULT_OP_COSTS = {kind: op.cost_uj for kind, op in OP_KINDS.items() if kind != TX_OP_KIND}
RADIO_OPS = frozenset(kind for kind, op in OP_KINDS.items() if op.radio)


def by_dbm(tx_costs: Mapping) -> dict:
    """A ``tx128`` table keyed by integer dBm: ``"0"`` and ``0`` both key 0 dBm."""
    return {int(power): c for power, c in tx_costs.items()}


def price_tables(costs: Mapping) -> dict[int | None, dict[str, float]]:
    """The price in uJ of every operation kind at each transmit power, and
    with the radio dormant (``None``), where there is no ``tx128``.

    A scenario's ``costs`` override the published ones entry by entry, its
    ``tx128`` table those of :data:`DEFAULT_TX_COSTS`, keyed :func:`by_dbm`
    as a parsed document's is.
    """
    prices = {**DEFAULT_OP_COSTS, **costs}
    tx_costs = {**DEFAULT_TX_COSTS, **by_dbm(prices.pop(TX_OP_KIND, {}))}
    return {None: prices, **{power: {**prices, TX_OP_KIND: c} for power, c in tx_costs.items()}}
