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
    RX_OP_KIND,
    TX_OP_KIND,
    EnergyLevel,
    EnergyStore,
    classify_level,
)
from .optimizer import PolicyLp, build_opt


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


@dataclass(frozen=True, slots=True)
class EnergyContext:
    """The three level readings steering the slot's plan."""

    own: EnergyLevel
    virtual: EnergyLevel
    network: EnergyLevel


# Every context there is, built once; assess_slot returns one of them.
_CONTEXTS = {
    (own, virtual, network): EnergyContext(own, virtual, network)
    for own in EnergyLevel
    for virtual in EnergyLevel
    for network in EnergyLevel
}

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
    neighbor_levels: list[EnergyLevel],
    thresholds: tuple[float, ...],
) -> EnergyContext:
    """Classify own, virtual and network energy for this slot.

    Own and virtual level are :func:`energy.classify_level` of the store's
    balance and of the *worst* forecast over the horizon (at least two
    slots), at the scenario's ``thresholds``.
    """
    if len(forecasts) < 2:
        raise ValueError("forecast horizon must cover at least 2 slots")
    own = classify_level(store.stored, store.capacity, thresholds)
    virtual = classify_level(max(min(forecasts), 0.0), store.capacity, thresholds)
    network = min(neighbor_levels) if neighbor_levels else DEFAULT_NETWORK_LEVEL
    return _CONTEXTS[own, virtual, network]


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


def deferred_packet(packet_id: str, slot: int) -> BacklogEntry:
    """A fresh packet the slot cannot send waits at the top priority."""
    return BacklogEntry(TX_OP_KIND, "deferred-tx", 1, slot, packet_id=packet_id)


@dataclass(frozen=True, slots=True)
class PlanShape:
    """What a plan's per-policy prefix counts decide: the steps it runs, the
    node-class steps it leaves unrun, the kinds of the run steps, and how
    many of those are transmissions and receptions.

    Built once per counts in each :class:`PlanTerms` entry's ``shapes`` and
    shared by every plan of that shape, so nothing changes it: ``run_ops``
    is each such plan's ``run_ops`` list, which no reader mutates.
    """

    run_ops: list[tuple[str, str]]
    unrun: tuple[tuple[str, str], ...]
    kinds: tuple[str, ...]
    tx_quota: int
    rx_quota: int


@dataclass
class ExecutionPlan:
    """One slot's commitment: the levels it was planned at, (policy, kind)
    steps to run now, controls, the backlog entries it defers, and the
    price of every kind at the slot's transmit power.

    ``shape`` is the :class:`PlanShape` :func:`plan_slot` planned
    ``run_ops`` from (``None`` for a plan built by hand); ``kinds`` lists
    the kind of each of :attr:`steps`, once."""

    context: EnergyContext
    run_ops: list[tuple[str, str]]
    backlog_run: list[BacklogEntry]
    alphas: dict[str, float]
    delta: float
    deferred: list[BacklogEntry]
    price: Mapping[str, float]
    shape: PlanShape | None = field(default=None, repr=False, compare=False)
    kinds: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = self.shape
        kinds = shape.kinds if shape is not None else tuple(kind for _, kind in self.run_ops)
        if self.backlog_run:
            kinds = (*(e.kind for e in self.backlog_run), *kinds)
        self.kinds = kinds

    @property
    def steps(self) -> list[tuple[str, str]]:
        """The ``(policy, kind)`` steps in the order they are paid: the
        drained backlog first, then the fresh subset."""
        if not self.backlog_run:
            return self.run_ops
        return [(e.policy, e.kind) for e in self.backlog_run] + self.run_ops


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


def _prefix_counts(ranked: Iterable[Policy], alphas: dict[str, float]) -> tuple[int, ...]:
    """The deterministic prefix rule: each policy runs the first
    ``floor(alpha * len)`` of its steps. Returns those counts in the given
    (priority) order, which is the order the steps land in the slot."""
    counts = []
    for pol in ranked:
        alpha = alphas.get(pol.name, 0.0)
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha for {pol.name!r} outside [0,1]: {alpha}")
        counts.append(math.floor(alpha * len(pol.plan_steps) + 1e-12))
    return tuple(counts)


def _plan_shape(
    ranked: Sequence[Policy], eligible: Iterable[Policy], counts: Sequence[int]
) -> PlanShape:
    """The :class:`PlanShape` of running ``counts`` (:func:`_prefix_counts`)
    of the ``ranked`` policies' steps; the unrun steps are those of the
    node-class policies among ``eligible``, in its order."""
    run_ops: list[tuple[str, str]] = []
    ran: dict[str, int] = {}
    for pol, count in zip(ranked, counts):
        run_ops += pol.plan_steps[:count]
        ran[pol.name] = count
    # Only node-class policies' steps wait, and each of them is eligible.
    unrun = tuple(step for p in eligible if not p.is_network for step in p.plan_steps[ran[p.name] :])
    kinds = tuple(kind for _, kind in run_ops)
    return PlanShape(run_ops, unrun, kinds, kinds.count(TX_OP_KIND), kinds.count(RX_OP_KIND))


@dataclass(frozen=True)
class PlanTerms:
    """What planning needs of a node's policies at one transmit power, with
    the radio dark or not: the policies that may run, the same policies in
    priority order, and the LP over them (each one's utility weight and
    cost, and the duty factor's), built and validated once at a zero budget.
    Each slot fills that LP at the spend its budget leaves
    (:meth:`optimizer.PolicyLp.fill`).

    The terms depend only on the policies, the prices, the duty settings and
    that pair, so a run computes them once per pair (see :func:`plan_slot`'s
    ``cache``). ``shapes`` is their memo of plan shapes: the
    :class:`PlanShape` of each tuple of prefix counts a slot has planned, so
    each is built once. A policy runs 0 to ``len(plan_steps)`` steps, so the
    memo holds at most the product of ``len(plan_steps) + 1`` over
    ``ranked``.
    """

    eligible: tuple[Policy, ...]
    ranked: tuple[Policy, ...]
    lp: PolicyLp
    shapes: dict[tuple[int, ...], PlanShape] = field(
        default_factory=dict, repr=False, compare=False
    )


def plan_terms(
    policies: Iterable[Policy],
    price: Mapping[str, float],
    radio_dark: bool,
    *,
    duty_energy: float,
    duty_weight: float | None = None,
) -> PlanTerms:
    """The :class:`PlanTerms` of ``policies``, each costing the sum of its
    steps' ``price``; a dark radio drops the network policies.
    ``duty_weight=None`` picks the optimizer's default rate."""
    eligible = tuple(p for p in policies if not (p.is_network and radio_dark))
    return PlanTerms(
        eligible=eligible,
        ranked=tuple(sorted(eligible, key=_rank)),
        lp=build_opt(
            [p.utility for p in eligible],
            [sum(price[kind] for kind in p.steps) for p in eligible],
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
    price: Mapping[str, float],
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
    fresh policy work is planned. ``price`` prices every kind at
    ``tx_power_dbm``, the power this slot transmits at, so every step,
    drained or fresh, is costed at it; the plan carries it. The plan defers
    the :func:`deferrals` of the steps it leaves unrun, listing no network
    policy's. The plan keys policies by name, so no two in ``policies`` may
    share one (``scenario.parse_scenario`` rejects a repeated name).

    ``cache`` is the caller's store of :func:`plan_terms` for exactly these
    ``policies``, each power's prices and the duty settings, keyed by
    ``(tx_power_dbm, radio_dark)``: a missing entry is computed and kept
    there, so a caller that plans again with the same store reuses it, and
    one that passes a fresh store plans from terms computed afresh. Each
    slot computes its prefix counts (checking each alpha's range) and looks
    them up in the terms' ``shapes`` memo: a miss builds the
    :class:`PlanShape` and keeps it, and every plan of that shape shares
    its ``run_ops``, unrun steps, kinds and tx/rx quotas.
    """
    radio_dark = EnergyLevel.E0 in (context.network, context.own)
    key = (tx_power_dbm, radio_dark)
    terms = cache.get(key)
    if terms is None:
        terms = cache[key] = plan_terms(
            policies,
            price,
            radio_dark,
            duty_energy=duty_energy,
            duty_weight=duty_weight,
        )

    v_target = RESIDUAL_FRACTIONS[context.own] * budget
    spend_cap = budget - v_target

    backlog_run: list[BacklogEntry] = []
    drained_cost = 0.0
    if (
        context.own == EnergyLevel.E3
        and context.virtual == EnergyLevel.E3
        and len(backlog)
    ):
        kept: list[BacklogEntry] = []
        for entry in backlog.drain():
            cost = price[entry.kind]
            if drained_cost + cost <= spend_cap:
                backlog_run.append(entry)
                drained_cost += cost
            else:
                kept.append(entry)
        backlog.entries = kept

    # Clamp the residual up so the LP spend never exceeds total capacity:
    # abundant slots simply saturate every variable instead of failing. The
    # clamp keeps the fill within ``[0, max_spend]``, so it spends
    # ``budget - v_eff`` as solve_for_v spends it on the LP built at ``budget``.
    v_eff = max(v_target + drained_cost, budget - terms.lp.max_spend)
    v_eff = min(v_eff, budget)
    xs = terms.lp.fill(budget - v_eff)

    alphas = {p.name: a for p, a in zip(terms.eligible, xs)}
    counts = _prefix_counts(terms.ranked, alphas)
    shape = terms.shapes.get(counts)
    if shape is None:
        shape = terms.shapes[counts] = _plan_shape(terms.ranked, terms.eligible, counts)
    return ExecutionPlan(
        context,
        shape.run_ops,
        backlog_run,
        {p.name: alphas.get(p.name, 0.0) for p in policies},
        xs[-1],
        deferrals(policies, shape.unrun, slot),
        price,
        shape,
    )


def execute_plan(
    plan: ExecutionPlan,
    store: EnergyStore,
    floor: float,
    *,
    available: float | None = None,
    slot: int = 0,
    node: str = "",
) -> tuple[SlotReport, EnergyStore, list[tuple[str, str]]]:
    """Charge the store for the plan's :attr:`~ExecutionPlan.steps`, in
    order, at the plan's prices.

    A draw of a checked price is :func:`energy.withdraw`'s comparison
    alone: paid when what it leaves is not below ``floor``; the first one
    refused aborts the remainder (the harvest-forecast-error path). The
    caller books the paid steps, the first ``ops_node + ops_network`` of
    ``plan.steps``. The unexecuted tail is returned whole, for
    :func:`aborted_tail` to settle. The report's residual is measured against
    ``available`` (defaults to the store's balance at entry).
    """
    if available is None:
        available = store.stored
    kinds = plan.kinds
    price = plan.price
    stored = store.stored
    paid = 0
    consumed = 0.0
    for kind in kinds:
        amount = price[kind]
        if stored - amount < floor:
            break
        stored -= amount
        paid += 1
        consumed += amount
    store.stored = stored
    skipped = plan.steps[paid:] if paid < len(kinds) else []
    ops_network = sum(map((kinds[:paid] if skipped else kinds).count, RADIO_OPS))
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
        aborted=bool(skipped),
    )
    return report, store, skipped
