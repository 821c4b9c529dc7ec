"""Energy-aware on-demand routing.

A reduced reactive protocol: sources flood route requests, only the sink
replies, and the reply installs one next-hop entry per destination along the
reverse path. An origin numbers its floods in increasing order, so a relay
forwards a request only when it is newer than the last flood it forwarded
from that origin, and its flood memory is one number per origin however long
the run. Two sink behaviours are supported:

* ``baseline``: the first request of a flood wins (classic reduced-AODV);
* ``modified``: the sink collects candidates for a short window, scores each
  path by a weighted sum of per-hop link qualities (:func:`candidate_cost`)
  and answers the cheapest; late requests that beat the answered route
  trigger a fresh reply even mid-transfer.

The sink's route choice lives here whole: :func:`sink_receive` takes each
request copy and :func:`sink_close_window` answers a closed collection
window; the sink's :class:`RoutingState` holds its open windows and each
origin's answered flood and cost. The engine only schedules the window close
and the replies these two ask for.

Nodes signal their energy level implicitly through transmit power: each
live level sends at its own power (``TX_POWER_BY_LEVEL``), so a frame carries
its sender's level, the level of the power it was sent at
(:func:`hear_frame`). Every node periodically beacons at a fixed reference
power. A beacon tells no level, but it proves its sender alive and enables
belief: a frame from a sender whose beacon was never heard tells nothing
(:func:`hear_beacon`). Every link's mean received power is fixed and linear
in the transmit power, so decoding the level from a frame's attenuation below
its sender's beacons gives this same level; only per-frame fading would make
that decode a model again. The engine reads the belief back to size preamble
trains and to judge the network's energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import FRACTION_OR_ONE, POS, Bounded, enum, int_min
from .energy import EnergyLevel


# Three discrete transmit powers for the three live energy levels (E0 sends
# nothing); the reference (beacon) power is the top level's.
TX_POWER_BY_LEVEL = {
    EnergyLevel.E1: -10,
    EnergyLevel.E2: -5,
    EnergyLevel.E3: 0,
}
REFERENCE_TX_POWER_DBM = TX_POWER_BY_LEVEL[EnergyLevel.E3]
_LEVEL_BY_TX_POWER = {power: level for level, power in TX_POWER_BY_LEVEL.items()}
# A neighbour last heard more than this many slots ago no longer counts
# toward the network level.
NEIGHBOR_TTL_SLOTS = 5


# The sink's route choices, as a scenario and ``harvestsim run --mode`` name them.
MODES = ("modified", "baseline")


@dataclass(frozen=True)
class RoutingSettings(Bounded):
    """A scenario's routing: the sink's route choice (``mode``, ``cost_mode``
    and per-hop weights ``mu``) and the beacon, flood-refresh and collection
    timing."""

    mode: str = field(default="modified", metadata=enum(*MODES))
    # "raw" maximizes the weighted RSSI sum.
    cost_mode: str = field(default="magnitude", metadata=enum("magnitude", "raw"))
    mu: tuple[float, ...] | None = field(
        default=None, metadata={"type": ["array", "null"], "items": FRACTION_OR_ONE}
    )
    beacon_period_s: float = field(default=30.0, metadata=POS)
    rreq_refresh_slots: int = field(default=10, metadata=int_min(1))
    collection_window_ms: float = field(default=200.0, metadata=POS)


@dataclass(frozen=True, slots=True)
class Rreq:
    """Route request to the sink: flood-identified by (origin, seq), accumulating per-hop RSSI."""

    origin: str
    seq: int
    path: tuple[tuple[str, float], ...] = ()
    tx_power_dbm: int = 0

    def hops(self) -> list[str]:
        return [node for node, _ in self.path]

    def heard_by(self, node: str, rssi: float, tx_power_dbm: int) -> Rreq:
        """This copy as ``node`` heard it at ``rssi``: the path record gains
        that observation, and the copy goes on at ``tx_power_dbm``."""
        return Rreq(self.origin, self.seq, self.path + ((node, rssi),), tx_power_dbm)


@dataclass(frozen=True, slots=True)
class Rrep:
    """Route reply carrying the chosen reverse path and its cost."""

    origin: str
    dest: str
    seq: int
    path: tuple[str, ...]
    cost: float


@dataclass(slots=True)
class RouteEntry:
    next_hop: str
    cost: float
    seq: int


@dataclass(slots=True)
class RoutingState:
    """Per-node protocol state, mutated only by the owning simulator.

    ``forwarded`` holds, per origin, the newest flood this node forwarded as
    a relay. ``answered`` and ``answered_cost`` hold, per origin, the newest
    flood the sink answered and that answer's cost; ``windows`` holds the
    candidates of each open collection window by (origin, seq). Only the
    sink fills these three. ``beaconed`` holds the neighbours whose beacon
    this node heard, and ``neighbor_seen``, per neighbour, its believed
    level and the slot it was last heard in.
    """

    node_id: str
    table: dict[str, RouteEntry] = field(default_factory=dict)
    forwarded: dict[str, int] = field(default_factory=dict)
    answered: dict[str, int] = field(default_factory=dict)
    answered_cost: dict[str, float] = field(default_factory=dict)
    windows: dict[tuple[str, int], list[Rreq]] = field(default_factory=dict)
    beaconed: set[str] = field(default_factory=set)
    neighbor_seen: dict[str, tuple[EnergyLevel, int]] = field(default_factory=dict)
    seq_counter: int = 0

    def next_seq(self) -> int:
        self.seq_counter += 1
        return self.seq_counter


def hear_beacon(state: RoutingState, sender: str, slot: int, from_sink: bool) -> None:
    """A beacon rides the fixed reference power: it proves the sender alive
    and lets its later frames tell its level, but tells no level itself, so
    the sender keeps its believed level; the mains-powered sink is always E3."""
    state.beaconed.add(sender)
    level = EnergyLevel.E3 if from_sink else believed_level(state, sender)
    state.neighbor_seen[sender] = (level, slot)


def hear_frame(state: RoutingState, sender: str, tx_power_dbm: int, slot: int) -> None:
    """Any other frame, sent at its sender's level power: once the sender's
    beacon has been heard, the frame's power tells the sender's level."""
    if sender in state.beaconed:
        state.neighbor_seen[sender] = (_LEVEL_BY_TX_POWER[tx_power_dbm], slot)


def believed_level(state: RoutingState, neighbor: str) -> EnergyLevel:
    """The level last inferred for ``neighbor``, however long ago, and E1
    (the longest live sleep) before any; never E0, which sends nothing."""
    seen = state.neighbor_seen.get(neighbor)
    return seen[0] if seen else EnergyLevel.E1


def neighbor_levels(state: RoutingState, slot: int) -> list[EnergyLevel]:
    """The believed level of each neighbour heard within ``NEIGHBOR_TTL_SLOTS`` slots."""
    return [lvl for lvl, seen in state.neighbor_seen.values() if slot - seen <= NEIGHBOR_TTL_SLOTS]


def candidate_cost(settings: RoutingSettings, rreq: Rreq) -> float:
    """A candidate path's cost, lower is better, from its per-hop RSSI.

    The weights are ``mu`` when it has one per hop, else uniform 1/n.
    ``magnitude`` sums the weighted |dBm|, so least cost prefers strong links;
    ``raw`` maximizes the weighted (negative-dBm) sum by minimizing its
    negation, which for all-negative RSSI is the magnitude form.
    """
    rssis = [rssi for _, rssi in rreq.path]
    weights = settings.mu
    if weights is None or len(weights) != len(rssis):
        weights = [1.0 / len(rssis)] * len(rssis)
    if settings.cost_mode == "raw":
        return -sum(w * r for w, r in zip(weights, rssis))
    return sum(w * abs(r) for w, r in zip(weights, rssis))


def process_rreq(
    state: RoutingState, rreq: Rreq, observed_rssi: float, own_tx_power: int | None
) -> Rreq | None:
    """Relay handling of a request: dedupe, append own observation, re-send
    at the relay's transmit power.

    Returns the forwarded request, or ``None`` when the relay already
    forwarded this flood or a newer one from the same origin, the node is
    dormant (``own_tx_power is None``), or forwarding would loop.
    """
    if rreq.seq <= state.forwarded.get(rreq.origin, 0):
        return None
    if own_tx_power is None:
        return None
    me = state.node_id
    if me == rreq.origin:
        return None
    for hop, _ in rreq.path:
        if hop == me:
            return None
    state.forwarded[rreq.origin] = rreq.seq
    return rreq.heard_by(me, observed_rssi, own_tx_power)


def _answer(state: RoutingState, candidate: Rreq, cost: float) -> Rrep:
    """Record ``candidate`` as its origin's answered flood and build the reply.

    Callers answer only floods no older than the origin's last answered one.
    """
    state.answered[candidate.origin] = candidate.seq
    state.answered_cost[candidate.origin] = cost
    # The path record ends at the sink; the reply walks it back to the origin.
    return Rrep(
        origin=candidate.origin,
        dest=state.node_id,
        seq=candidate.seq,
        path=tuple(reversed(candidate.hops())) + (candidate.origin,),
        cost=cost,
    )


def sink_receive(
    state: RoutingState, settings: RoutingSettings, rreq: Rreq, observed_rssi: float
) -> tuple[Rrep | None, bool]:
    """The sink's handling of one request copy: ``(reply, opens_window)``.

    The final-hop observation completes the candidate's path record. Copies
    of floods older than the origin's last answered one are ignored. Baseline
    mode answers the first copy of each flood at once. Modified mode opens a
    collection window with a flood's first copy (``opens_window``; the caller
    closes it with :func:`sink_close_window`), adds later copies to it while
    it is open, and after it closed answers a late copy only when it is
    strictly cheaper than the answered route, even mid-transfer.
    """
    answered = state.answered.get(rreq.origin, 0)
    if rreq.seq < answered:
        return None, False
    baseline = settings.mode == "baseline"
    if baseline and rreq.seq == answered:
        return None, False  # first copy already answered this flood
    candidate = rreq.heard_by(state.node_id, observed_rssi, rreq.tx_power_dbm)
    if baseline:
        return _answer(state, candidate, candidate_cost(settings, candidate)), False
    key = (rreq.origin, rreq.seq)
    if key in state.windows:
        state.windows[key].append(candidate)
        return None, False
    if rreq.seq == answered and rreq.origin in state.answered_cost:
        cost = candidate_cost(settings, candidate)
        if cost < state.answered_cost[rreq.origin]:
            return _answer(state, candidate, cost), False
        return None, False
    state.windows[key] = [candidate]
    return None, True


def sink_close_window(
    state: RoutingState, settings: RoutingSettings, origin: str, seq: int
) -> Rrep | None:
    """Close the (origin, seq) collection window and answer its cheapest
    candidate (first arrival on ties); ``None`` when no such window is open or
    a newer flood from that origin has been answered since it opened."""
    candidates = state.windows.pop((origin, seq), None)
    if candidates is None or seq < state.answered.get(origin, 0):
        return None
    best = candidates[0]
    best_cost = candidate_cost(settings, best)
    for cand in candidates[1:]:
        cost = candidate_cost(settings, cand)
        if cost < best_cost:
            best, best_cost = cand, cost
    return _answer(state, best, best_cost)


def install_route(state: RoutingState, dest: str, next_hop: str, cost: float, seq: int) -> bool:
    """Install or replace a route entry.

    Replacement requires a strictly newer sequence number or, at the same
    sequence, a strictly lower cost.
    """
    entry = state.table.get(dest)
    if entry is not None:
        if seq < entry.seq:
            return False
        if seq == entry.seq and cost >= entry.cost:
            return False
    state.table[dest] = RouteEntry(next_hop=next_hop, cost=cost, seq=seq)
    return True


def invalidate_route(state: RoutingState, dest: str) -> None:
    state.table.pop(dest, None)
