"""Deterministic hybrid engine: coarse energy slots, fine-grained radio events.

Each slot runs three phases, nodes visited in ascending id order:

1. planning: harvest intake, forecast update, level assessment, budgeting,
   the LP plan (from the node's planning terms, which ``app.plan_slot``
   computes once per transmit power and radio state and keeps in the node's
   ``plan_terms``; each terms entry also keeps the plan shape of every
   tuple of prefix counts it has met, built once, whose tx and rx quotas
   size the slot's sends and relay forwards), and scheduling of the slot's
   traffic/beacon/flood events;
2. event drain: the continuous-time queue (CSMA exchanges, floods, replies,
   forwarding) advances to the slot boundary, each event going to its
   kind's ``_on_<kind>`` handler;
3. settlement: the plan's operations are charged against the store at the
   published per-operation costs (each kind priced once, each operation one
   floor comparison), the duty-cycle baseline and leakage are drawn, the
   entries ``app`` defers enter the backlog, and the slot's report, ledger
   row and paid sum go to :meth:`Metrics.settled`, which copies them into
   typed-column tables (:class:`Rows`), one ``append`` or ``extend`` per column.

Floods: a source's flood is numbered and built when planning schedules it,
with the slot's transmit power, so a flood start and a relay's forward are
both one ``rreq_tx`` event. Sends: a slot's traffic stays in its slot, by
:meth:`World._send_in_slot`, the one rule for a source's sends. Blocked
packets: every packet a node cannot send now goes through :meth:`World._hold`,
the one queue-or-drop rule and the one place the pending queue's cap is
applied; :meth:`Metrics.dropped` counts every loss. Output: a world reports
every record into the :class:`Metrics` it is handed, one method per kind:
``settled`` (a node-slot's report, ledger row, paid sum and paid duty
factor), ``forecasted``, ``dropped``, ``arrived``, ``offered`` (the packets
a source generates), ``routed`` (a route-log row), ``evicted`` (a backlog
eviction, whose packet ``evicted`` drops), ``stepped`` (a slot done) and, as
:func:`run` returns, ``totalled`` (a node's paid totals per label). Neither
the world nor ``run`` names a field of :class:`Metrics`.

Flood arrival: every reception of one RREQ broadcast happens at the same
arrival time, so the broadcast queues one ``rreq_arrive`` event carrying its
``(receiver, rssi)`` pairs in fan-out order, each receiver a
:class:`NodeRuntime`, and that event handles each reception in turn
(``_on_rreq_rx``), with the hop they all heard and the routing settings
looked up once. The order is that of one event per reception: such events
would have held consecutive places in the queue, and everything a reception
schedules is queued after them.

Energy accounting is split in two: application operations (sense, compute,
storage, packet transmissions/receptions) are settled through the plan at
exact per-kind prices, while MAC-layer overhead (preamble trains, acks,
retries, beacons, flood frames) is charged per event from the radio current
model. ``app.execute_plan`` pays the plan by withdraw's floor comparison
alone; :meth:`World._charge` pays every other draw, duty and leakage too,
each one :func:`energy.withdraw` (through this module's ``withdraw``
binding), and answers a refusal at the floor itself, by withdraw's own
comparison, without raising. A node's two accounts, the
slot's sum and the run's total per label, are the only running totals: a
paid draw adds to them, the plan's paid prefix once per kind at price x
count. Settlement publishes the slot's sum into the metrics'
:class:`ChargeBook` once per node-slot, and :func:`run` publishes the
label totals as it returns. Per-draw rows are built only for metrics that
define ``draw``. The radio energies of fixed-length
frames are the world's :class:`mac.FrameCosts`, computed once. Rarely, a
slot's radio overhead can leave the store unable to cover the
already-planned operations; settlement then aborts mid-plan (the
forecast-error path): ``app`` defers the tail's node-class steps, and each
lost network operation is counted as an ``aborted-op`` drop.

Each world's :class:`channel.Channel` holds every link's received power
and loss probability, fixed for the run (a link's shadowing is one constant
offset), and what carrier sense finds. Every reception and frame delivery is
one :func:`channel.survives` draw over its link's loss, from the channel's
stream; a unicast exchange hands ``mac.csma_send`` that test.

Forecasting: each node feeds its slot's harvest to :func:`forecast.step`
under the scenario's predictor settings. When the seasonal model degenerates
on a node's samples (:class:`forecast.DivisionDegenerate`: a warm-up with no
harvest at all, or a level that underflows after dawn moves), that node
restarts its warm-up from the current sample instead of aborting the run.

Determinism: all randomness flows from named streams derived from the global
seed, apart from each link's shadowing offset, which belongs to the deployment
and is derived from the link's two node ids; the event queue orders ties by
insertion sequence, so identical (config, seed) pairs reproduce runs
bit-for-bit.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from . import app, forecast, mac, routing
from .bounds import field_checks, refuse
from .channel import Channel, survives
from .energy import (
    OP_KINDS,
    EnergyLevel,
    EnergyStore,
    HarvestTrace,
    deposit,
    harvest_in_slot,
    price_tables,
    withdraw,
)
from .scenario import ScenarioConfig, build_profile_trace, config_violations

PROCESSING_DELAY_S = 0.005
RREQ_JITTER_MS = 20.0
MAX_PACKET_RETRIES = 3
PENDING_QUEUE_CAP = 64

# The charge label of each operation kind. Overhead draws are labelled
# ``mac:<purpose>-tx/rx``, duty and leakage ``duty`` and ``leakage``.
OP_LABELS = {kind: f"op:{kind}" for kind in OP_KINDS}


class LevelRun(NamedTuple):
    """What a node at one energy level runs: its transmit power (``None``:
    dormant), its duty factor and the schedule that realizes it."""

    tx_power: int | None
    delta: float
    schedule: mac.DutySchedule


@dataclass(slots=True)
class Packet:
    pid: str
    retries: int = 0


@dataclass(slots=True)
class NodeRuntime:
    """Everything the engine tracks per node."""

    node_id: str
    role: str
    position: tuple[float, float]
    store: EnergyStore | None
    trace: HarvestTrace | None
    routing: routing.RoutingState
    backlog: app.Backlog
    wake_phase_ms: float
    rng_mac: random.Random
    policies: tuple[app.Policy, ...]
    # The app.plan_terms of ``policies`` at the world's prices, filled by
    # app.plan_slot as (tx power, radio-dark) pairs first occur, each with
    # its memo of plan shapes.
    plan_terms: dict[tuple[int | None, bool], app.PlanTerms] = field(default_factory=dict)
    predictor_state: object | None = None
    next_prediction: float | None = None
    tx_power: int | None = None
    delta_op: float = 0.0
    schedule: mac.DutySchedule = mac.DutySchedule(wake_ms=0.0, sleep_ms=math.inf)
    plan: app.ExecutionPlan | None = None
    available: float = 0.0
    forwards_left: int = 0
    pending: list[Packet] = field(default_factory=list)
    need_route: bool = False
    slot_ledger: tuple = (0.0, 0.0, 0.0)
    # Paid draws: this slot's sum, and the run's total per label.
    slot_charged: float = 0.0
    charged_by_label: dict[str, float] = field(default_factory=dict)
    is_sink: bool = field(init=False)

    def __post_init__(self) -> None:
        self.is_sink = self.role == "sink"


class Rows:
    """A run's rows of one shape, kept in typed columns rather than as one
    Python object per row and one per value.

    A row is a slot, a node id and then one value per letter of ``layout``,
    each letter the typecode of the column that holds it: ``q`` an integer,
    ``d`` a float, ``b`` a small integer (an energy level, a flag). Row
    after row, ``ints`` (``array('q')``) holds each row's slot and then its
    ``q`` values, ``reals`` (``array('d')``) its ``d`` values and ``smalls``
    (``array('b')``) its ``b`` values, in row order, while ``nodes`` holds a
    reference to the node's shared id string. :class:`Metrics` adds a row
    with one ``append`` or ``extend`` per column.

    Iterating yields each row as the tuple ``(slot, node, *values)``;
    ``len`` and truthiness count the rows, as a list's do.
    """

    __slots__ = ("ints", "nodes", "reals", "smalls", "layout")

    def __init__(self, layout: str):
        self.ints = array("q")
        self.nodes: list[str] = []
        self.reals = array("d")
        self.smalls = array("b")
        self.layout = layout

    def tuples(self):
        """The rows as tuples, zipped from the columns at C speed: ``zip``
        draws from its arguments left to right, so each column's one
        iterator, given once per value the column holds, hands out a row's
        values in order."""
        columns = {"q": iter(self.ints), "d": iter(self.reals), "b": iter(self.smalls)}
        return zip(columns["q"], self.nodes, *[columns[code] for code in self.layout])

    __iter__ = tuples

    def __len__(self) -> int:
        return len(self.nodes)


class SlotReports(Rows):
    """The settled :class:`app.SlotReport` rows, iterated as reports.

    :meth:`Rows.tuples` yields a report's fields in their order, the levels
    and the ``aborted`` flag as their integer values.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__("bbbddqqddb")

    def __iter__(self):
        return (
            app.SlotReport(slot, node, EnergyLevel(own), EnergyLevel(virtual),
                           EnergyLevel(network), *values, bool(aborted))
            for slot, node, own, virtual, network, *values, aborted in self.tuples()
        )


class SlotSums:
    """What each ledger row's node paid in that slot: a float column,
    ``sums``, aligned with the ledger's rows (0.0 where nothing was paid).

    ``get((slot, node), default)`` reads a row's sum, or ``default`` when
    the ledger has no such row. The ledger's rows run in slot order, so the
    slot's first row is found by bisection.
    """

    __slots__ = ("ledger", "sums")

    def __init__(self, ledger: Rows):
        self.ledger = ledger
        self.sums = array("d")

    def get(self, key: tuple[int, str], default=None):
        slot, node = key
        slots, nodes = self.ledger.ints, self.ledger.nodes
        i = bisect_left(slots, slot)
        while i < len(slots) and slots[i] == slot:
            if nodes[i] == node:
                return self.sums[i]
            i += 1
        return default


@dataclass
class ChargeBook:
    """Every paid draw of a run, summed in draw order.

    ``by_slot`` sums the draws per ``(slot, node)``, which is what each
    ledger row's consumption must equal, read as ``by_slot.get((slot,
    node), 0.0)``; ``by_label`` totals them per ``(node, label)``.
    """

    by_slot: SlotSums
    by_label: dict[tuple[str, str], float] = field(default_factory=dict)


@dataclass
class Metrics:
    """Collected run output; delivered can never exceed generated.

    The per-node-slot rows are typed-column tables: ``ledger`` rows are
    ``(slot, node, stored_start_uj, harvested_uj, wasted_uj, consumed_uj,
    stored_end_uj)``, ``forecast_rows`` are ``(slot, node, predicted_uj,
    actual_uj)``, ``slot_reports`` iterate as :class:`app.SlotReport`, and
    ``book.by_slot`` is the paid sum of each ledger row. Packets are only
    counted: no record is kept per packet.

    A world and :func:`run` report each record through one method per kind
    and name none of these fields, so a subclass that overrides the record
    methods sees every record of a run. The MAC and per-draw rows are
    opt-in: metrics that keep them define ``mac(t, node, event, detail)``
    (:class:`MacTrace`) or ``draw(slot, node, label, amount)``.
    """

    slot_reports: SlotReports = field(default_factory=SlotReports)
    ledger: Rows = field(default_factory=partial(Rows, "ddddd"))
    book: ChargeBook = field(init=False)
    forecast_rows: Rows = field(default_factory=partial(Rows, "dd"))
    route_log: list[tuple] = field(default_factory=list)
    charges: list[tuple] = field(default_factory=list)
    drops: Counter = field(default_factory=Counter)  # per (node, reason)
    evictions: Counter = field(default_factory=Counter)  # per (node, evicted kind)
    generated: int = 0
    delivered: int = 0
    duty_sum: dict[str, float] = field(default_factory=dict)
    slots_run: int = 0
    mac = draw = None  # not fields: unset recorders, which a world binds once

    def __post_init__(self) -> None:
        self.book = ChargeBook(SlotSums(self.ledger))

    def settled(self, report: app.SlotReport, start: float, harvested: float, wasted: float,
                end: float, paid: float, duty: float) -> None:
        """One settled node-slot: its report, its ledger row, the sum it paid
        and the duty factor it paid for (0.0: none)."""
        reports = self.slot_reports
        reports.ints.extend((report.slot, report.ops_node, report.ops_network))
        reports.nodes.append(report.node)
        reports.reals.extend(
            (report.alpha_mean, report.delta, report.consumed_uj, report.residual_uj)
        )
        reports.smalls.extend(
            (report.own_level, report.virtual_level, report.network_level, report.aborted)
        )
        ledger = self.ledger
        ledger.ints.append(report.slot)
        ledger.nodes.append(report.node)
        ledger.reals.extend((start, harvested, wasted, start + harvested - wasted - end, end))
        self.book.by_slot.sums.append(paid)
        if duty > 0.0:
            self.duty_sum[report.node] = self.duty_sum.get(report.node, 0.0) + duty

    def forecasted(self, slot: int, node: str, predicted: float, actual: float) -> None:
        rows = self.forecast_rows
        rows.ints.append(slot)
        rows.nodes.append(node)
        rows.reals.extend((predicted, actual))

    def dropped(self, slot: int, node: str, reason: str, ids: list[str]) -> None:
        """The one drop rule: count ``ids`` lost at ``node`` in ``slot`` (``"-"``: an operation)."""
        self.drops[node, reason] += len(ids)

    def arrived(self, pid: str) -> None:
        """Packet ``pid`` reached the sink."""
        self.delivered += 1

    def offered(self, slot: int, node: str, n: int) -> None:
        """Source ``node`` generated ``n`` packets in ``slot``."""
        self.generated += n

    def routed(self, t: float, node: str, dest: str, next_hop: str, cost: float, seq: int,
               reason: str) -> None:
        """A route change at ``node`` toward ``dest``: ``"installed"`` through
        ``next_hop``, or lost (``next_hop`` ``"-"``) for ``reason``."""
        self.route_log.append((t, node, dest, next_hop, cost, seq, reason))

    def evicted(self, slot: int, node: str, entry: app.BacklogEntry) -> None:
        """``entry`` left ``node``'s full backlog; an evicted packet is dropped."""
        self.evictions[node, entry.kind] += 1
        if entry.packet_id is not None:
            self.dropped(slot, node, "backlog-evicted", [entry.packet_id])

    def stepped(self, slot: int) -> None:
        """Slot ``slot`` is done."""
        self.slots_run += 1

    def totalled(self, node: str, by_label: dict[str, float]) -> None:
        """``node``'s paid total per label so far."""
        self.book.by_label.update({(node, label): uj for label, uj in by_label.items()})

    def pdr(self) -> float:
        if self.generated == 0:
            return 0.0
        return self.delivered / self.generated

    def duty_fractions(self) -> dict[str, float]:
        if self.slots_run == 0:
            return {}
        return {n: s / self.slots_run for n, s in sorted(self.duty_sum.items())}

    def summary(self) -> dict:
        return {
            "generated": self.generated,
            "delivered": self.delivered,
            "pdr": self.pdr(),
            "slots": self.slots_run,
            "route_changes": len(self.route_log),
            "drops": self.drops.total(),
            "evictions": self.evictions.total(),
            "duty_fractions": self.duty_fractions(),
        }


class MacTrace(Metrics):
    """Metrics that keep each MAC event as a ``(time, node, event, detail)``
    row in ``mac_trace``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.mac_trace: list[tuple] = []

    def mac(self, t: float, node: str, event: str, detail: str) -> None:
        self.mac_trace.append((t, node, event, detail))


def _handler_names(cls: type) -> dict[str, str]:
    """Each event kind a world class handles, and its handler's name, ``_on_<kind>``."""
    return {name[4:]: name for c in cls.__mro__ for name in vars(c) if name.startswith("_on_")}


class World:
    """One simulation instance; deterministic under a fixed (config, seed).

    It reports every record into ``metrics``, a fresh :class:`Metrics` by
    default.
    """

    __slots__ = (
        "cfg", "prices", "floor", "_levels", "frames",
        "metrics", "_mac", "_draw", "now", "slot", "_event_seq",
        "_events", "sink_id", "nodes", "channel", "_visit_order", "_handlers",
    )

    def __init__(
        self,
        cfg: ScenarioConfig,
        *,
        traces: dict[str, HarvestTrace] | None = None,
        metrics: Metrics | None = None,
    ):
        self.cfg = cfg
        # A config built in code is refused before slot 0 as its document
        # would be: its costs by the field's own bound, and its fields
        # together by the parser's one rule set.
        out: list = []
        field_checks(ScenarioConfig)["costs"](cfg.costs, ("costs",), out)
        refuse(ScenarioConfig, out + config_violations(cfg))
        self.prices = price_tables(cfg.costs)
        self.floor = cfg.energy.floor_fraction * cfg.energy.capacity_uj
        schedules = {
            level: mac.schedule_from_delta(delta, cfg.mac)
            for level, delta in mac.DELTA_BY_LEVEL.items()
        }
        # What each energy level runs, indexed by level; a node runs its own
        # level's row.
        self._levels = tuple(
            LevelRun(routing.TX_POWER_BY_LEVEL.get(level), delta, schedules[level])
            for level, delta in sorted(mac.DELTA_BY_LEVEL.items())
        )
        self.frames = mac.frame_costs(
            cfg.mac, mac.RadioEnergyModel(), schedules, routing.REFERENCE_TX_POWER_DBM
        )
        self.metrics = Metrics() if metrics is None else metrics
        self._mac, self._draw = self.metrics.mac, self.metrics.draw
        self.now = 0.0
        self.slot = 0
        self._event_seq = 0
        self._events: list = []

        self.sink_id = next(n.id for n in cfg.nodes if n.role == "sink")

        traces = traces or {}
        # Traces are frozen, so the nodes that share a profile share its trace.
        profile_traces: dict[str, HarvestTrace] = {}
        self.nodes: dict[str, NodeRuntime] = {}
        for spec in sorted(cfg.nodes, key=lambda n: n.id):
            trace = None
            store = None
            if spec.role != "sink":
                if spec.id in traces:
                    trace = traces[spec.id]
                elif spec.profile in profile_traces:
                    trace = profile_traces[spec.profile]
                else:
                    trace = profile_traces[spec.profile] = build_profile_trace(
                        cfg.profiles[spec.profile], cfg.slots, spec.profile
                    )
                store = EnergyStore(
                    stored=0.5 * cfg.energy.capacity_uj, capacity=cfg.energy.capacity_uj
                )
            rt = NodeRuntime(
                node_id=spec.id,
                role=spec.role,
                position=spec.position,
                store=store,
                trace=trace,
                routing=routing.RoutingState(node_id=spec.id),
                backlog=app.Backlog(),
                wake_phase_ms=random.Random(f"{cfg.seed}:{spec.id}:phase").uniform(
                    0.0, 100.0
                ),
                rng_mac=random.Random(f"{cfg.seed}:{spec.id}:mac"),
                policies=cfg.policies_for(spec),
            )
            if spec.role == "sink":
                rt.tx_power = routing.REFERENCE_TX_POWER_DBM
                rt.schedule = mac.schedule_from_delta(1.0, cfg.mac)
            self.nodes[spec.id] = rt
        self.channel = Channel(cfg.channel, self.nodes, cfg.seed)
        # Every node, in ascending id order (as ``nodes`` was filled): the
        # order each slot phase visits.
        self._visit_order = tuple(self.nodes.values())
        self._handlers = {k: getattr(self, name) for k, name in _handler_names(type(self)).items()}

    # ------------------------------------------------------------------
    # infrastructure

    def _push(self, t: float, kind: str, *payload) -> None:
        if t < self.now - 1e-9:
            raise AssertionError(f"causality violation: {kind} at {t} < now {self.now}")
        self._event_seq += 1
        heapq.heappush(self._events, (t, self._event_seq, kind, payload))

    def _charge(self, rt: NodeRuntime, label: str, amount: float) -> bool:
        """Pay one draw into the node's accounts, or refuse it at the floor.

        Sinks are mains-powered: their draws are free and unchecked. For any
        other node a draw of exactly 0 is free, and a paid draw goes through
        :func:`energy.withdraw`. A refusal is answered here, by withdraw's own
        comparison (what the draw leaves is below the floor), without its
        exception; a refused draw changes nothing. A negative amount raises
        ``ValueError`` naming the label, and a NaN or infinite one reaches
        withdraw, which rejects it.
        """
        if rt.is_sink:
            return True
        store, floor = rt.store, self.floor
        if amount > 0.0:
            if store.stored - amount < floor and amount < math.inf:
                return False
        elif amount == 0.0:
            return True
        elif amount < 0.0:
            raise ValueError(f"draw {label!r} must be >= 0, got {amount!r}")
        withdraw(store, amount, floor)
        rt.slot_charged += amount
        rt.charged_by_label[label] = rt.charged_by_label.get(label, 0.0) + amount
        if self._draw is not None:
            self._draw(self.slot, rt.node_id, label, amount)
        return True

    def _believed_sleep_ms(self, sender: NodeRuntime, receiver_id: str) -> float:
        """Train sizing: the sink never sleeps, and any other receiver sleeps
        as its level in the sender's routing belief does."""
        if receiver_id == self.sink_id:
            return 0.0
        return self._levels[routing.believed_level(sender.routing, receiver_id)].schedule.sleep_ms

    # ------------------------------------------------------------------
    # unicast exchange

    def _unicast(
        self,
        t: float,
        sender: NodeRuntime,
        receiver: NodeRuntime,
        purpose: str,
        believed_sleep: float,
    ):
        """One LPL exchange, its train sized for the receiver's believed
        sleep; returns (delivered, elapsed_s)."""
        tx_dbm = sender.tx_power
        channel = self.channel
        # Every data frame of the exchange meets its link's loss.
        rssi, loss = channel.link(sender, receiver, tx_dbm)
        frames = self.frames
        spec = frames.unicasts[purpose]
        # The train is sized by the sender's belief about the receiver's
        # level; rendezvous happens on the receiver's real schedule. An
        # undersized train simply misses that round and retries.
        try:
            result = mac.csma_send(
                receiver.schedule,
                spec.config,
                sender.rng_mac,
                receiver_phase_ms=receiver.wake_phase_ms,
                start_ms=t * 1000.0,
                channel_power_dbm=channel._power_dbm,
                attempt_delivers=partial(survives, loss, channel.rng),
                train=frames.trains[believed_sleep],
            )
            delivered = True
        except (mac.ChannelSaturated, mac.NoAck) as exc:
            result = exc.result
            delivered = False
        elapsed_s = result.elapsed_ms / 1000.0
        channel.occupy(t + elapsed_s)

        # Sender overhead: everything but the frame the plan pays, and the ack.
        tx_ms = max(result.sender_tx_ms - spec.paid_frame_ms, 0.0)
        overhead = frames.supply_v * (tx_ms * frames.tx_ma[tx_dbm] + spec.ack_rx)
        self._charge(sender, spec.tx_label, overhead)
        if self._mac is not None:
            self._mac(t, sender.node_id, f"{purpose}-tx",
                      f"to={receiver.node_id} rssi={rssi:.1f} delivered={delivered} "
                      f"attempts={result.attempts} preambles={result.preambles_sent}")
        if delivered:
            self._charge(receiver, spec.rx_label, spec.rx_uj)
            routing.hear_frame(receiver.routing, sender.node_id, tx_dbm, self.slot)
        return delivered, elapsed_s

    # ------------------------------------------------------------------
    # event handlers

    def _on_beacon(self, t: float, node_id: str) -> None:
        rt = self.nodes[node_id]
        if rt.tx_power is None:
            return
        charge, frames = self._charge, self.frames
        if not charge(rt, "mac:beacon-tx", frames.beacon_tx_uj):
            return
        if self._mac is not None:
            self._mac(t, node_id, "beacon-tx", "")
        rx = frames.control_rx_uj
        channel = self.channel
        rng, hear = channel.rng, routing.hear_beacon
        t_ms, slot, from_sink = t * 1000.0, self.slot, rt.is_sink
        for other, _rssi, loss in channel.fanout(rt, routing.REFERENCE_TX_POWER_DBM):
            if other.schedule.wait_ms(other.wake_phase_ms, t_ms) != 0.0:
                continue
            if survives(loss, rng) and charge(other, "mac:beacon-rx", rx):
                hear(other.routing, node_id, slot, from_sink)

    def _on_rreq_tx(self, t: float, node_id: str, rreq: routing.Rreq) -> None:
        """One broadcast of ``rreq`` by ``node_id``: a flood start or a relay's forward."""
        rt = self.nodes[node_id]
        if rt.tx_power is None:
            return
        charge, frames = self._charge, self.frames
        if not charge(rt, "mac:rreq-tx", frames.rreq_tx_uj[rreq.tx_power_dbm]):
            return
        if self._mac is not None:  # format the detail only when it is kept
            self._mac(t, node_id, "rreq-tx", f"seq={rreq.seq}")
        arrival = t + frames.rreq_span_ms / 1000.0
        channel = self.channel
        channel.occupy(arrival)
        rx = frames.control_rx_uj
        rng = channel.rng
        heard = []
        for other, rssi, loss in channel.fanout(rt, rreq.tx_power_dbm):
            # Radio-off receivers are skipped before their delivery draw.
            if other.tx_power is None:
                continue
            if survives(loss, rng) and charge(other, "mac:rreq-rx", rx):
                heard.append((other, rssi))
        if heard:
            self._push(arrival, "rreq_arrive", rreq, tuple(heard))

    def _on_rreq_arrive(self, t: float, rreq: routing.Rreq, heard: tuple) -> None:
        """Every reception of one broadcast, in fan-out order.

        One event stands for the receptions a broadcast once queued one by
        one: they shared its arrival time and took consecutive queue places,
        and whatever a reception schedules is queued after them, so handling
        them here in order keeps the event order. What every reception shares,
        the hop it heard and the routing settings, is looked up once.
        """
        last_hop = rreq.path[-1][0] if rreq.path else rreq.origin
        settings = self.cfg.routing
        on_rx = self._on_rreq_rx
        for rt, rssi in heard:
            on_rx(t, rt, rreq, rssi, last_hop, settings)

    def _on_rreq_rx(
        self,
        t: float,
        rt: NodeRuntime,
        rreq: routing.Rreq,
        rssi: float,
        last_hop: str,
        settings: routing.RoutingSettings,
    ) -> None:
        """One reception of ``rreq`` by ``rt``, heard from ``last_hop``."""
        routing.hear_frame(rt.routing, last_hop, rreq.tx_power_dbm, self.slot)
        if rt.is_sink:
            rrep, opens_window = routing.sink_receive(rt.routing, settings, rreq, rssi)
            if rrep is not None:
                self._push(t + PROCESSING_DELAY_S, "rrep_hop", rrep, 0)
            elif opens_window:
                window = settings.collection_window_ms / 1000.0
                self._push(t + window, "rreq_window", rreq.origin, rreq.seq)
            return
        if rt.role != "relay":
            return
        fwd = routing.process_rreq(rt.routing, rreq, rssi, rt.tx_power)
        if fwd is None:
            return
        jitter = rt.rng_mac.uniform(0.0, RREQ_JITTER_MS) / 1000.0
        self._push(t + PROCESSING_DELAY_S + jitter, "rreq_tx", rt.node_id, fwd)

    def _on_rreq_window(self, t: float, origin: str, seq: int) -> None:
        sink = self.nodes[self.sink_id]
        rrep = routing.sink_close_window(sink.routing, self.cfg.routing, origin, seq)
        if rrep is not None:
            self._push(t, "rrep_hop", rrep, 0)

    def _on_rrep_hop(self, t: float, rrep: routing.Rrep, idx: int) -> None:
        sender = self.nodes[rrep.path[idx]]
        receiver = self.nodes[rrep.path[idx + 1]]
        if sender.tx_power is None:
            return
        sleep = self._believed_sleep_ms(sender, receiver.node_id)
        delivered, elapsed = self._unicast(t, sender, receiver, "rrep", sleep)
        if not delivered:
            self.metrics.routed(t, sender.node_id, rrep.origin, "-", rrep.cost, rrep.seq,
                                "rrep-lost")
            return
        if routing.install_route(receiver.routing, dest=rrep.dest, next_hop=sender.node_id,
                                 cost=rrep.cost, seq=rrep.seq):
            self.metrics.routed(t + elapsed, receiver.node_id, rrep.dest, sender.node_id,
                                rrep.cost, rrep.seq, "installed")
        if receiver.node_id == rrep.origin:
            receiver.need_route = False
            self._send_in_slot(receiver, [], t + elapsed, 0.1)
        elif idx + 2 < len(rrep.path):
            self._push(t + elapsed + PROCESSING_DELAY_S, "rrep_hop", rrep, idx + 1)

    def _send_in_slot(self, rt: NodeRuntime, fresh: list[Packet], t: float, spacing: float) -> None:
        """Send the pending packets, then ``fresh``, ``spacing`` apart from ``t``
        while they start before the slot's end; :meth:`_hold` keeps the rest,
        or all of them while the source is dormant or has no route."""
        pkts, rt.pending = rt.pending + fresh, []
        if rt.tx_power is None or self.sink_id not in rt.routing.table:
            self._hold(rt, pkts, "dormant" if rt.tx_power is None else "no-route")
            return
        slot_end = (self.slot + 1) * self.cfg.slot_duration_s - 1e-9
        for i, pkt in enumerate(pkts):
            at = t + i * spacing
            if at >= slot_end:
                self._hold(rt, pkts[i:], "slot-end")
                return
            self._push(at, "send", rt.node_id, pkt)

    def _hold(self, rt: NodeRuntime, pkts: list[Packet], reason: str) -> None:
        """Packets ``rt`` cannot send now, for ``reason``: a relay drops them;
        a source queues them, in order, asking for a route when it has none,
        and past ``PENDING_QUEUE_CAP`` the oldest waiting ones overflow."""
        if not pkts:
            return
        if rt.role != "source":
            self.metrics.dropped(self.slot, rt.node_id, reason, [pkt.pid for pkt in pkts])
            return
        if reason == "no-route":
            rt.need_route = True
        pending = rt.pending
        pending += pkts
        if len(pending) > PENDING_QUEUE_CAP:
            overflow = [p.pid for p in pending[:-PENDING_QUEUE_CAP]]
            del pending[:-PENDING_QUEUE_CAP]
            self.metrics.dropped(self.slot, rt.node_id, f"queue-overflow({reason})", overflow)

    def _on_send(self, t: float, node_id: str, pkt: Packet) -> None:
        rt = self.nodes[node_id]
        entry = rt.routing.table.get(self.sink_id)
        if rt.tx_power is None or entry is None:
            self._hold(rt, [pkt], "dormant" if rt.tx_power is None else "no-route")
            return
        receiver = self.nodes[entry.next_hop]
        # Worst-case single-round overhead must be affordable before keying up.
        sleep = self._believed_sleep_ms(rt, entry.next_hop)
        if rt.store.stored - self.frames.send_estimate_uj[sleep, rt.tx_power] < self.floor:
            self._hold(rt, [pkt], "no-energy")
            return
        delivered, elapsed = self._unicast(t, rt, receiver, "data", sleep)
        if delivered:
            self._push(t + elapsed, "arrive", receiver.node_id, pkt)
            return
        pkt.retries += 1
        if rt.role == "source":
            routing.invalidate_route(rt.routing, self.sink_id)
            self.metrics.routed(t, node_id, self.sink_id, "-", entry.cost, entry.seq, "mac-fail")
            rt.need_route = True
            if pkt.retries > MAX_PACKET_RETRIES:
                self.metrics.dropped(self.slot, node_id, "retries", [pkt.pid])
                return
        self._hold(rt, [pkt], "mac-fail")

    def _on_arrive(self, t: float, node_id: str, pkt: Packet) -> None:
        rt = self.nodes[node_id]
        if rt.is_sink:
            self.metrics.arrived(pkt.pid)
            return
        if rt.role != "relay":
            return
        if rt.forwards_left <= 0:
            self.metrics.dropped(self.slot, node_id, "relay-quota", [pkt.pid])
            return
        rt.forwards_left -= 1
        self._push(t + PROCESSING_DELAY_S, "send", node_id, pkt)

    # ------------------------------------------------------------------
    # slot phases

    def _plan_node(self, rt: NodeRuntime, slot: int, t0: float) -> None:
        harvested = harvest_in_slot(rt.trace, slot, self.cfg.slot_duration_s)
        stored_start = rt.store.stored
        _, wasted = deposit(rt.store, harvested)
        e_a = rt.store.stored
        rt.slot_ledger = (stored_start, harvested, wasted)

        if rt.next_prediction is not None:
            self.metrics.forecasted(slot, rt.node_id, rt.next_prediction, harvested)
        settings = self.cfg.predictor
        try:
            pred, rt.predictor_state = forecast.step(settings, rt.predictor_state, harvested)
        except forecast.DivisionDegenerate:
            # The seasonal model broke down on this node's samples: warm up afresh.
            pred, rt.predictor_state = forecast.step(settings, None, harvested)
        rt.next_prediction = pred
        forecasts = forecast.predict_horizon(rt.predictor_state, settings.horizon)

        neighbors = routing.neighbor_levels(rt.routing, slot)
        context = app.assess_slot(rt.store, forecasts, neighbors, self.cfg.energy.thresholds)
        rt.available = e_a
        rt.tx_power, rt.delta_op, rt.schedule = self._levels[context.own]

        rt.plan = app.plan_slot(
            context,
            rt.policies,
            rt.backlog,
            app.compute_budget(context, rt.store, self.floor),
            self.prices[rt.tx_power],
            slot=slot,
            tx_power_dbm=rt.tx_power,
            duty_energy=self.cfg.energy.duty_energy_uj,
            duty_weight=self.cfg.optimizer.duty_weight,
            cache=rt.plan_terms,
        )

        shape = rt.plan.shape  # the fresh steps' quotas
        tx_quota = shape.tx_quota
        rt.forwards_left = min(tx_quota, shape.rx_quota) if rt.role == "relay" else 0

        if rt.role == "source":
            self._schedule_traffic(rt, slot, t0, tx_quota)
        self._schedule_beacons(rt, t0)

    def _schedule_traffic(self, rt: NodeRuntime, slot: int, t0: float, tx_quota: int) -> None:
        period = self.cfg.traffic.packet_period_s
        n_gen = int(round(self.cfg.slot_duration_s / period))
        self.metrics.offered(slot, rt.node_id, n_gen)

        drained = [Packet(pid=e.packet_id) for e in rt.plan.backlog_run if e.packet_id is not None]
        sendable = [Packet(f"{rt.node_id}-{slot}-{i}") for i in range(min(tx_quota, n_gen))]
        for i in range(tx_quota, n_gen):
            self._defer(rt, app.deferred_packet(f"{rt.node_id}-{slot}-{i}", slot))

        self._send_in_slot(rt, drained + sendable, t0 + 0.2, period)

        refresh = slot % self.cfg.routing.rreq_refresh_slots == 0
        if rt.tx_power is not None and (rt.need_route or refresh):
            jitter = rt.rng_mac.uniform(0.0, 0.1)
            seq = rt.routing.next_seq()
            rreq = routing.Rreq(rt.node_id, seq, tx_power_dbm=rt.tx_power)
            self._push(t0 + jitter, "rreq_tx", rt.node_id, rreq)

    def _schedule_beacons(self, rt: NodeRuntime, t0: float) -> None:
        period = self.cfg.routing.beacon_period_s
        t_end = t0 + self.cfg.slot_duration_s
        t_b = math.ceil(t0 / period) * period
        while t_b < t_end - 1e-9:
            offset = rt.rng_mac.uniform(0.0, 0.05)
            self._push(max(t_b + offset, t0), "beacon", rt.node_id)
            t_b += period

    def _defer(self, rt: NodeRuntime, entry: app.BacklogEntry) -> None:
        """Backlog an entry, reporting any entry it evicts."""
        victim = rt.backlog.push(entry)
        if victim is not None:
            self.metrics.evicted(self.slot, rt.node_id, victim)

    def _settle_node(self, rt: NodeRuntime, slot: int) -> None:
        stored_start, harvested, wasted = rt.slot_ledger
        plan = rt.plan
        report, rt.store, skipped = app.execute_plan(
            plan, rt.store, self.floor, available=rt.available, slot=slot, node=rt.node_id
        )
        # The paid prefix joins the accounts once per kind, at price x count.
        kinds = plan.kinds[: len(plan.kinds) - len(skipped)]
        price, by_label = plan.price, rt.charged_by_label
        for kind in dict.fromkeys(kinds):
            amount = price[kind] * kinds.count(kind)
            rt.slot_charged += amount
            label = OP_LABELS[kind]
            by_label[label] = by_label.get(label, 0.0) + amount
        if self._draw is not None:
            for k in kinds:
                self._draw(slot, rt.node_id, OP_LABELS[k], price[k])
        # Duty-cycle baseline for the level-anchored schedule actually run.
        duty = rt.delta_op
        if duty > 0.0 and not self._charge(rt, "duty", self.cfg.energy.duty_energy_uj * duty):
            duty = 0.0
        leak = self.cfg.energy.leakage_uj_per_slot
        stored, floor = rt.store.stored, self.floor
        if leak > 0.0 and stored > floor:
            # Leakage drains at most to the floor: the largest amount the
            # floor admits, which can be one ulp below ``stored - floor``.
            leak = min(leak, stored - floor)
            while stored - leak < floor:
                leak = math.nextafter(leak, 0.0)
            self._charge(rt, "leakage", leak)

        requeued, lost = app.aborted_tail(rt.policies, skipped, slot)
        for entry in plan.deferred + requeued:
            self._defer(rt, entry)
        if lost:
            self.metrics.dropped(slot, rt.node_id, "aborted-op", ["-"] * lost)
        # The slot's sum enters the book once, after every draw joined it.
        self.metrics.settled(report, stored_start, harvested, wasted, rt.store.stored,
                             rt.slot_charged, duty)
        rt.slot_charged = 0.0

    def step_slot(self) -> None:
        slot = self.slot
        t0 = slot * self.cfg.slot_duration_s
        t_end = t0 + self.cfg.slot_duration_s
        self.now = max(self.now, t0)
        visit = self._visit_order
        for rt in visit:
            if rt.is_sink:
                self._schedule_beacons(rt, t0)
                continue
            self._plan_node(rt, slot, t0)
        events, handlers = self._events, self._handlers
        while events and events[0][0] < t_end:
            t, _, kind, payload = heapq.heappop(events)
            self.now = t
            handlers[kind](t, *payload)
        self.now = t_end
        for rt in visit:
            if not rt.is_sink:
                self._settle_node(rt, slot)
        self.metrics.stepped(slot)
        self.slot += 1


def run(world: World, n_slots: int) -> Metrics:
    """Advance the world ``n_slots`` slots and return the metrics.

    Raises :class:`SlotOutOfRange` before the first step when some node's
    harvest trace does not cover every requested slot. The book's totals
    per (node, label) are published as it returns, so they are the world's
    totals so far.
    """
    if n_slots < 1:
        raise ValueError("need at least one slot")
    for rt in world.nodes.values():
        if rt.trace is not None:
            # Traces are contiguous, so covering both ends covers every slot.
            rt.trace.power_at(world.slot)
            rt.trace.power_at(world.slot + n_slots - 1)
    for _ in range(n_slots):
        world.step_slot()
    for rt in world.nodes.values():
        world.metrics.totalled(rt.node_id, rt.charged_by_label)
    return world.metrics
