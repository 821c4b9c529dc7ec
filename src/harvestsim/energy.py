"""Per-node energy ledger: harvest intake, capacitor storage, operation costs.

All energy amounts are plain floats in microjoules (uJ). A store is checked
when it is built and on every draw: deposit/withdraw validate the amount
first, then update the store in place and return it, so a refused or invalid
draw leaves it untouched. :func:`withdraw` is the one floor rule: a draw is
paid when what it leaves is not below the floor. A draw the floor refuses
raises :class:`InsufficientEnergy` carrying its numbers; the message is
formatted only when read. :class:`ChargeBook` sums every draw into totals.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from .bounds import POS_TABLE, Bounded


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


class UnknownOperation(EnergyError):
    """No cost entry for the requested operation kind / power level."""


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
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class LevelThresholds:
    """Three ascending capacity fractions splitting [0, capacity] into four levels."""

    t1: float = 0.10
    t2: float = 0.40
    t3: float = 0.70

    def __post_init__(self) -> None:
        if not (0.0 < self.t1 < self.t2 < self.t3 < 1.0):
            raise ValueError(
                f"thresholds must be strictly ascending in (0,1), got "
                f"({self.t1}, {self.t2}, {self.t3})"
            )


DEFAULT_THRESHOLDS = LevelThresholds()


def classify_level(e: float, capacity: float, thresholds: LevelThresholds = DEFAULT_THRESHOLDS) -> EnergyLevel:
    """Map a stored/available amount to one of the four energy levels.

    Classification is total: every 0 <= e <= capacity maps to exactly one
    level, with boundaries belonging to the level above.
    """
    check_amount(e, "e")
    check_amount(capacity, "capacity")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    frac = e / capacity
    if frac < thresholds.t1:
        return EnergyLevel.E0
    if frac < thresholds.t2:
        return EnergyLevel.E1
    if frac < thresholds.t3:
        return EnergyLevel.E2
    return EnergyLevel.E3


@dataclass(slots=True)
class EnergyStore:
    """Supercapacitor ledger: stored amount, capacity clamp, level thresholds.

    Only :func:`deposit` and :func:`withdraw` change ``stored``.
    """

    stored: float
    capacity: float
    thresholds: LevelThresholds = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        check_amount(self.stored, "stored")
        check_amount(self.capacity, "capacity")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.stored > self.capacity:
            raise ValueError(
                f"stored ({self.stored}) exceeds capacity ({self.capacity})"
            )

    @property
    def level(self) -> EnergyLevel:
        return classify_level(self.stored, self.capacity, self.thresholds)


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


@dataclass
class ChargeBook:
    """Every draw a run makes, summed in draw order.

    ``by_slot`` sums the draws per ``(slot, node)``, which is what each
    ledger row's consumption must equal; ``by_label`` totals them per
    ``(node, label)``. A world publishes each node's overhead accounts here
    at settlement, before the plan's draws join them. The per-draw rows
    ``(slot, node, label, amount)`` are kept, in draw order, only with
    ``keep_rows``.
    """

    keep_rows: bool = False
    by_slot: dict[tuple[int, str], float] = field(default_factory=dict)
    by_label: dict[tuple[str, str], float] = field(default_factory=dict)
    rows: list[tuple[int, str, str, float]] = field(default_factory=list)

    def add(self, slot: int, node: str, label: str, amount: float) -> None:
        self.by_slot[slot, node] = self.by_slot.get((slot, node), 0.0) + amount
        self.by_label[node, label] = self.by_label.get((node, label), 0.0) + amount
        if self.keep_rows:
            self.rows.append((slot, node, label, amount))

    def add_draws(
        self,
        slot: int,
        node: str,
        keys: Sequence[str],
        price: Mapping[str, float],
        labels: Mapping[str, str],
    ) -> None:
        """One draw of ``price[key]`` under ``labels[key]`` per entry of
        ``keys``, made in that order.

        The totals take each distinct key once, at its price times its
        count; the rows, when kept, stay one per draw, in draw order.
        """
        by_slot, by_label = self.by_slot, self.by_label
        slot_key = (slot, node)
        for key in dict.fromkeys(keys):
            amount = price[key] * keys.count(key)
            by_slot[slot_key] = by_slot.get(slot_key, 0.0) + amount
            label_key = (node, labels[key])
            by_label[label_key] = by_label.get(label_key, 0.0) + amount
        if self.keep_rows:
            self.rows.extend([(slot, node, labels[key], price[key]) for key in keys])


@dataclass(frozen=True)
class HarvestTrace:
    """Per-slot harvested power samples (watts), with a lazy scale factor.

    Slots are contiguous, starting at ``start_slot``. The scale factor models
    panels attenuated to lab scale and is applied at integration time, not to
    the stored samples.
    """

    powers: tuple[float, ...]
    start_slot: int = 0
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
        idx = slot - self.start_slot
        if idx < 0 or idx >= len(self.powers):
            raise SlotOutOfRange(
                f"slot {slot} outside trace [{self.start_slot}, "
                f"{self.start_slot + len(self.powers) - 1}]"
            )
        return self.powers[idx]


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


@dataclass(frozen=True)
class OperationCostTable(Bounded):
    """Lookup from operation kind to energy cost (uJ)."""

    costs: dict[str, float] = field(default_factory=DEFAULT_OP_COSTS.copy, metadata=POS_TABLE)
    tx_costs: dict[int, float] = field(default_factory=DEFAULT_TX_COSTS.copy, metadata=POS_TABLE)


def op_cost(table: OperationCostTable, kind: str, tx_power_dbm: int | None = None) -> float:
    """Cost of one operation; transmit kinds additionally need a power level."""
    if kind == TX_OP_KIND:
        if tx_power_dbm is None:
            raise UnknownOperation("transmit cost requires a tx power level")
        try:
            return table.tx_costs[tx_power_dbm]
        except KeyError:
            raise UnknownOperation(
                f"no transmit cost configured for {tx_power_dbm} dBm"
            ) from None
    try:
        return table.costs[kind]
    except KeyError:
        raise UnknownOperation(f"unknown operation kind {kind!r}") from None
