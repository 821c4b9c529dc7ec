"""The morphing application: per-slot energy assessment and policy planning.

Each slot the application classifies its own, predicted ("virtual") and
neighbourhood energy into the four discrete levels, derives a spendable
budget, and asks the optimizer how far to morph each policy (the alpha
prefix rule) and how much duty cycle to afford. Abundant slots drain the
backlog first; :func:`deferrals` alone decides what enters it.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .bounds import POS, Bounded, enum, int_min
from .energy import (
    OP_KINDS,
    RADIO_OPS,
    TX_OP_KIND,
    ChargeBook,
    EnergyLevel,
    EnergyStore,
    InsufficientEnergy,
    OperationCostTable,
    classify_level,
    op_cost,
    withdraw,
)
from .optimizer import PolicyLp, build_opt, solve_for_v


@dataclass(frozen=True)
class Policy(Bounded):
    """Named operation-kind sequence, run ``repeat`` times, with a priority
    rank (1 = highest).

    ``weight`` scales the policy's utility contribution (base: one unit per
    executed step); it lets a scenario value reporting work above cheap
    housekeeping despite the cost asymmetry.
    """

    name: str = field(metadata={"type": "string"})
    ops: tuple[str, ...] = field(
        metadata={"type": "array", "minItems": 1, "items": enum(*OP_KINDS)}
    )
    priority: int = field(default=1, metadata=int_min(1))
    repeat: int = field(default=1, metadata=int_min(1))
    weight: float = field(default=1.0, metadata=POS)

    # A policy never changes, so what is derived from it is computed once.

    @cached_property
    def steps(self) -> tuple[str, ...]:
        """The executable sequence: ``ops`` repeated ``repeat`` times."""
        return self.ops * self.repeat

    @cached_property
    def plan_steps(self) -> tuple[tuple[str, str], ...]:
        """The ``(policy, kind)`` pairs a plan lists for :attr:`steps`."""
        return tuple((self.name, kind) for kind in self.steps)

    @cached_property
    def is_network(self) -> bool:
        return any(kind in RADIO_OPS for kind in self.ops)

    @cached_property
    def utility(self) -> float:
        return self.weight * len(self.steps)


@dataclass(frozen=True)
class EnergyContext:
    """The three level readings steering the slot's plan."""

    own: EnergyLevel
    virtual: EnergyLevel
    network: EnergyLevel


# Network level when no neighbour has been heard this epoch: conservative
# but not paralyzing.
DEFAULT_NETWORK_LEVEL = EnergyLevel.E1

# Spendable fraction of stored energy withheld per *virtual* level: the
# gloomier the forecast, the more is reserved.
RESERVE_FRACTIONS = {
    EnergyLevel.E3: 0.0,
    EnergyLevel.E2: 0.10,
    EnergyLevel.E1: 0.25,
    EnergyLevel.E0: 0.40,
}

# Residual target as a fraction of the budget, keyed by *own* level: a rich
# node spends its whole grant, a poor one conserves most of it. Reuses the
# level-threshold ladder so a single knob shapes both discretizations.
RESIDUAL_FRACTIONS = {
    EnergyLevel.E3: 0.0,
    EnergyLevel.E2: 0.10,
    EnergyLevel.E1: 0.40,
    EnergyLevel.E0: 0.70,
}


def assess_slot(
    store: EnergyStore,
    forecasts: list[float],
    neighbor_levels: dict[str, EnergyLevel] | list[EnergyLevel],
) -> EnergyContext:
    """Classify own, virtual and network energy for this slot.

    The virtual level is the classification of the *worst* forecast over the
    horizon (at least two slots).
    """
    if len(forecasts) < 2:
        raise ValueError("forecast horizon must cover at least 2 slots")
    own = store.level
    virtual = classify_level(
        max(min(forecasts), 0.0), store.capacity, store.thresholds
    )
    levels = neighbor_levels.values() if isinstance(neighbor_levels, dict) else neighbor_levels
    network = min(levels) if levels else DEFAULT_NETWORK_LEVEL
    return EnergyContext(own=own, virtual=virtual, network=network)


def compute_budget(context: EnergyContext, store: EnergyStore, floor: float) -> float:
    """Spendable energy this slot.

    Stored energy minus a virtual-level reserve minus the survivability
    ``floor`` (the same one settlement enforces), clamped at zero. The
    network level never shrinks the budget; it gates network-class policies
    in plan_slot instead.
    """
    e_a = store.stored
    reserve = RESERVE_FRACTIONS[context.virtual] * e_a
    return max(e_a - reserve - floor, 0.0)


@dataclass(frozen=True, slots=True)
class BacklogEntry:
    kind: str
    policy: str
    priority: int
    enqueued_slot: int
    packet_id: str | None = None


class Backlog:
    """Bounded deferred-operation queue.

    Eviction removes the lowest-priority entry, oldest first among equals,
    and the first queued among entries equal in both; evicted entries are
    returned to the caller so nothing vanishes silently.

    The queue numbers its entries in queue order and keeps them by number,
    with a heap of their eviction keys ``(-priority, enqueued_slot,
    number)``, so a push past the capacity finds its victim at the top of
    the heap. ``entries`` lists them in queue order; assigning it (as
    :func:`plan_slot` does after a partial drain) numbers the new list
    afresh, in its order.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self.entries = []

    @property
    def entries(self) -> list[BacklogEntry]:
        """A new list of the queued entries, in queue order."""
        return list(self._queued.values())

    @entries.setter
    def entries(self, entries: list[BacklogEntry]) -> None:
        self._queued = dict(enumerate(entries))
        self._heap = [(-e.priority, e.enqueued_slot, n) for n, e in self._queued.items()]
        heapq.heapify(self._heap)
        self._next = len(self._queued)

    def __len__(self) -> int:
        return len(self._queued)

    def push(self, entry: BacklogEntry) -> BacklogEntry | None:
        n = self._next
        self._next = n + 1
        queued = self._queued
        queued[n] = entry
        key = (-entry.priority, entry.enqueued_slot, n)
        if len(queued) <= self.capacity:
            heapq.heappush(self._heap, key)
            return None
        return queued.pop(heapq.heappushpop(self._heap, key)[2])

    def drain(self) -> list[BacklogEntry]:
        """Remove and return all entries, highest priority and oldest first."""
        out = sorted(self._queued.values(), key=lambda e: (e.priority, e.enqueued_slot))
        self.entries = []
        return out


def deferrals(
    policies: Iterable[Policy], steps: Sequence[tuple[str, str]], slot: int
) -> list[BacklogEntry]:
    """Backlog entries, stamped with ``slot``, for unrun ``(policy, kind)`` steps.

    Only node-class policies' steps wait, each at its own policy's priority.
    A network policy's steps never do: the engine queues, defers or drops
    the packets they carry.
    """
    if not steps:
        return []
    priority = {p.name: p.priority for p in policies if not p.is_network}
    return [BacklogEntry(k, name, priority[name], slot) for name, k in steps if name in priority]


def aborted_tail(
    policies: Iterable[Policy], skipped: Sequence[tuple[str, str]], slot: int
) -> tuple[list[BacklogEntry], int]:
    """The :func:`deferrals` of an aborted plan's unrun tail, and how many
    network operations it lost."""
    if not skipped:
        return [], 0
    return deferrals(policies, skipped, slot), sum(k in RADIO_OPS for _, k in skipped)


# The charge label of each operation kind.
OP_LABELS = {kind: f"op:{kind}" for kind in OP_KINDS}


def deferred_packet(packet_id: str, slot: int) -> BacklogEntry:
    """A fresh packet the slot cannot send waits at the top priority."""
    return BacklogEntry(TX_OP_KIND, "deferred-tx", 1, slot, packet_id=packet_id)


@dataclass
class ExecutionPlan:
    """One slot's commitment: the levels it was planned at, (policy, kind)
    steps to run now, controls, the backlog entries it defers, the
    transmit power every ``tx128`` is charged at, and the price of each
    kind it runs, from the cost table it was planned with."""

    context: EnergyContext
    run_ops: list[tuple[str, str]]
    backlog_run: list[BacklogEntry]
    alphas: dict[str, float]
    delta: float
    deferred: list[BacklogEntry]
    tx_power_dbm: int | None
    price: Mapping[str, float]


@dataclass(slots=True)
class SlotReport:
    """Per-slot settlement record (one CSV row of the slot log)."""

    slot: int
    node: str
    own_level: EnergyLevel
    virtual_level: EnergyLevel
    network_level: EnergyLevel
    alpha_mean: float
    delta: float
    ops_node: int
    ops_network: int
    consumed_uj: float
    residual_uj: float
    aborted: bool = False


def _rank(policy: Policy) -> tuple[int, str]:
    return policy.priority, policy.name


def _prefixes(
    ranked: Iterable[Policy], alphas: dict[str, float]
) -> tuple[list[tuple[str, str]], dict[str, int]]:
    """The prefix rule over policies already in priority order: the chosen
    steps, and how many steps of each policy they hold."""
    chosen: list[tuple[str, str]] = []
    ran: dict[str, int] = {}
    for pol in ranked:
        alpha = alphas.get(pol.name, 0.0)
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha for {pol.name!r} outside [0,1]: {alpha}")
        steps = pol.plan_steps
        count = math.floor(alpha * len(steps) + 1e-12)
        chosen += steps[:count]
        ran[pol.name] = ran.get(pol.name, 0) + count
    return chosen, ran


def select_subset(policies: list[Policy], alphas: dict[str, float]) -> list[tuple[str, str]]:
    """Deterministic prefix rule: run the first floor(alpha * len) steps of each policy.

    Policies are visited in priority order so higher-ranked work lands first
    in the slot.
    """
    return _prefixes(sorted(policies, key=_rank), alphas)[0]


def policy_cost(policy: Policy, table: OperationCostTable, tx_power_dbm: int | None) -> float:
    return sum(op_cost(table, kind, tx_power_dbm) for kind in policy.steps)


@dataclass(frozen=True)
class PlanTerms:
    """What planning needs of a node's policies at one transmit power, with
    the radio dark or not: the policies that may run, the same policies in
    priority order, the :func:`energy.op_cost` of each kind they list, and
    the LP over them (each one's utility weight and cost, and the duty
    factor's), built and validated once at a zero budget. Each slot solves
    that LP moved to its own budget by :meth:`optimizer.PolicyLp.at_budget`.

    The terms depend only on the policies, the cost table, the duty
    settings and that pair, so a run computes them once per pair (see
    :func:`plan_slot`'s ``cache``).
    """

    eligible: tuple[Policy, ...]
    ranked: tuple[Policy, ...]
    price: Mapping[str, float]
    lp: PolicyLp


def plan_terms(
    policies: Iterable[Policy],
    table: OperationCostTable,
    tx_power_dbm: int | None,
    radio_dark: bool,
    *,
    duty_energy: float,
    duty_weight: float | None = None,
) -> PlanTerms:
    """The :class:`PlanTerms` of ``policies``; a dark radio drops the network
    policies. ``duty_weight=None`` picks the optimizer's default rate."""
    eligible = tuple(p for p in policies if not (p.is_network and radio_dark))
    return PlanTerms(
        eligible=eligible,
        ranked=tuple(sorted(eligible, key=_rank)),
        price={kind: op_cost(table, kind, tx_power_dbm) for p in eligible for kind in p.ops},
        lp=build_opt(
            [p.utility for p in eligible],
            [policy_cost(p, table, tx_power_dbm) for p in eligible],
            duty_energy,
            duty_weight,
            0.0,
        ),
    )


def plan_slot(
    context: EnergyContext,
    policies: list[Policy],
    backlog: Backlog,
    budget: float,
    table: OperationCostTable,
    *,
    slot: int,
    tx_power_dbm: int | None,
    duty_energy: float,
    duty_weight: float | None = None,
    cache: dict[tuple[int | None, bool], PlanTerms],
) -> ExecutionPlan:
    """Choose this slot's operation subset from the energy context.

    Network-class policies are dropped when the network (or the node itself)
    is at E0. The residual target is the own-level conservation fraction of
    the budget, raised just enough to keep the spend within what the
    variables can absorb; the optimizer then yields the morphing factors.
    When both own and virtual levels are high the backlog is drained before
    fresh policy work is planned. Every ``tx128``, drained or fresh, is
    costed at ``tx_power_dbm``, the power this slot transmits at. The plan
    carries the terms' prices, with any drained kind they lack priced from
    ``table``, and defers the :func:`deferrals` of every step it leaves
    unrun.

    ``cache`` is the caller's store of :func:`plan_terms` for exactly these
    ``policies``, ``table`` and duty settings, keyed by ``(tx_power_dbm,
    radio_dark)``: a missing entry is computed and kept there, so a caller
    that plans again with the same store reuses it, and one that passes a
    fresh store plans from terms computed afresh.
    """
    radio_dark = EnergyLevel.E0 in (context.network, context.own)
    key = (tx_power_dbm, radio_dark)
    terms = cache.get(key)
    if terms is None:
        terms = cache[key] = plan_terms(
            policies,
            table,
            tx_power_dbm,
            radio_dark,
            duty_energy=duty_energy,
            duty_weight=duty_weight,
        )

    v_target = RESIDUAL_FRACTIONS[context.own] * budget
    spend_cap = budget - v_target

    backlog_run: list[BacklogEntry] = []
    drained_cost = 0.0
    price = terms.price
    if (
        context.own == EnergyLevel.E3
        and context.virtual == EnergyLevel.E3
        and len(backlog)
    ):
        kept: list[BacklogEntry] = []
        for entry in backlog.drain():
            kind = entry.kind
            if kind not in price:  # priced for this plan alone; the terms keep theirs
                price = {**price, kind: op_cost(table, kind, tx_power_dbm)}
            cost = price[kind]
            if drained_cost + cost <= spend_cap:
                backlog_run.append(entry)
                drained_cost += cost
            else:
                kept.append(entry)
        backlog.entries = kept

    lp = terms.lp.at_budget(budget)
    # Clamp the residual up so the LP spend never exceeds total capacity:
    # abundant slots simply saturate every variable instead of failing. The
    # clamp keeps the solve feasible, since ``budget - v_eff <= max_spend``.
    v_eff = max(v_target + drained_cost, budget - lp.max_spend)
    v_eff = min(v_eff, budget)
    result = solve_for_v(lp, v_eff)

    alphas = {p.name: a for p, a in zip(terms.eligible, result.alphas)}
    run_ops, ran = _prefixes(terms.ranked, alphas)
    unrun = [step for p in policies for step in p.plan_steps[ran.get(p.name, 0) :]]
    return ExecutionPlan(
        context=context,
        run_ops=run_ops,
        backlog_run=backlog_run,
        alphas={p.name: alphas.get(p.name, 0.0) for p in policies},
        delta=result.delta,
        deferred=deferrals(policies, unrun, slot),
        tx_power_dbm=tx_power_dbm,
        price=price,
    )


def execute_plan(
    plan: ExecutionPlan,
    store: EnergyStore,
    floor: float,
    *,
    available: float | None = None,
    slot: int = 0,
    node: str = "",
    charges: ChargeBook | None = None,
) -> tuple[SlotReport, EnergyStore, list[tuple[str, str]]]:
    """Charge the store for the plan's operations, in order, at the plan's
    prices, and enter the paid ones in ``charges`` under their
    :data:`OP_LABELS` labels.

    Backlogged work runs first, then the fresh subset. Each draw is one
    :func:`energy.withdraw`; the first one the floor refuses aborts the
    remainder (the harvest-forecast-error path). The unexecuted tail is
    returned whole, for :func:`aborted_tail` to settle. The report's residual
    is measured against ``available`` (defaults to the store's balance at
    entry).
    """
    if available is None:
        available = store.stored
    sequence = plan.run_ops
    if plan.backlog_run:
        sequence = [(e.policy, e.kind) for e in plan.backlog_run] + sequence
    price = plan.price
    kinds = [kind for _, kind in sequence]
    paid = 0
    consumed = 0.0
    try:
        for kind in kinds:
            amount = price[kind]
            withdraw(store, amount, floor)
            paid += 1
            consumed += amount
    except InsufficientEnergy:
        pass
    ran = kinds[:paid]
    ops_network = sum(map(ran.count, RADIO_OPS))
    if charges is not None:
        charges.add_draws(slot, node, ran, price, OP_LABELS)
    alphas = list(plan.alphas.values())
    report = SlotReport(
        slot=slot,
        node=node,
        own_level=plan.context.own,
        virtual_level=plan.context.virtual,
        network_level=plan.context.network,
        alpha_mean=sum(alphas) / len(alphas) if alphas else 0.0,
        delta=plan.delta,
        ops_node=paid - ops_network,
        ops_network=ops_network,
        consumed_uj=consumed,
        residual_uj=available - consumed,
        aborted=paid < len(sequence),
    )
    return report, store, sequence[paid:]
