"""Energy-aware on-demand routing.

A reduced reactive protocol: sources flood route requests, only the sink
replies, and the reply installs one next-hop entry per destination along the
reverse path. An origin numbers its floods in increasing order, so a relay
forwards a request only when it is newer than the last flood it forwarded
from that origin, and its flood memory is one number per origin however long
the run. Two sink behaviours are supported:

* ``baseline``: the first request of a flood wins (classic reduced-AODV);
* ``modified``: the sink collects candidates for a short window, scores each
  path by a weighted sum of per-hop link qualities and answers the cheapest;
  late requests that beat the answered route trigger a fresh reply even
  mid-transfer.

The sink's route choice lives here whole: :func:`sink_receive` takes each
request copy and :func:`sink_close_window` answers a closed collection
window; the sink's :class:`RoutingState` holds its open windows and each
origin's answered flood and cost. The engine only schedules the window close
and the replies these two ask for.

Nodes signal their energy level implicitly through transmit power. Every
node periodically beacons at a fixed reference power; listeners smooth those
observations into a per-neighbour RSSI reference (:func:`hear_beacon`), and
the attenuation of any later frame relative to the reference reveals which
power step - hence which energy level - the neighbour used (:func:`hear_frame`).
The engine reads that belief back to size preamble trains and to judge the
network's energy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .bounds import FRACTION_OR_ONE, POS, Bounded, enum, int_min
from .energy import EnergyLevel


class RoutingError(Exception):
    """Base class for routing errors."""


class DimensionMismatch(RoutingError):
    """Path RSSI list and weight list differ in length."""


# Three discrete transmit powers for the three live energy levels (E0 sends
# nothing); the reference (beacon) power equals the top level's.
TX_POWER_BY_LEVEL = {
    EnergyLevel.E1: -10,
    EnergyLevel.E2: -5,
    EnergyLevel.E3: 0,
}
REFERENCE_TX_POWER_DBM = 0
REFERENCE_SMOOTHING = 0.2
# (level, attenuation below the reference power), ascending by level.
_LEVEL_STEPS = tuple(
    (level, REFERENCE_TX_POWER_DBM - TX_POWER_BY_LEVEL[level]) for level in sorted(TX_POWER_BY_LEVEL)
)
# The same steps by ascending attenuation, and the midpoint between each
# adjacent pair: an attenuation at or above a midpoint is nearer the larger
# step (a tie is nearer neither and goes to the larger step's lower level).
_BY_ATTENUATION = sorted(_LEVEL_STEPS, key=lambda ls: ls[1])
_DECODED_LEVELS = tuple(level for level, _ in _BY_ATTENUATION)
_STEP_MIDPOINTS = tuple((a + b) / 2 for (_, a), (_, b) in zip(_BY_ATTENUATION, _BY_ATTENUATION[1:]))
# A neighbour last heard more than this many slots ago no longer counts
# toward the network level.
NEIGHBOR_TTL_SLOTS = 5


@dataclass(frozen=True)
class RoutingSettings(Bounded):
    """A scenario's routing: the sink's route choice (``mode``, ``cost_mode``
    and per-hop weights ``mu``) and the beacon, flood-refresh and collection
    timing."""

    mode: str = field(default="modified", metadata=enum("modified", "baseline"))
    # "raw" maximizes the weighted RSSI sum.
    cost_mode: str = field(default="magnitude", metadata=enum("magnitude", "raw"))
    mu: tuple[float, ...] | None = field(
        default=None, metadata={"type": ["array", "null"], "items": FRACTION_OR_ONE}
    )
    beacon_period_s: float = field(default=30.0, metadata=POS)
    rreq_refresh_slots: int = field(default=10, metadata=int_min(1))
    collection_window_ms: float = field(default=200.0, metadata=POS)


def calibrate_reference(existing: float | None, observed_dbm: float) -> float:
    """Fold a new beacon observation into the smoothed reference RSSI (dBm),
    seeded by the first."""
    if existing is None:
        return float(observed_dbm)
    return existing + REFERENCE_SMOOTHING * (observed_dbm - existing)


def infer_neighbor_level(observed_rssi: float, reference: float) -> EnergyLevel:
    """Decode a neighbour's energy level from its received signal strength.

    The attenuation below the beacon reference is matched to the nearest
    power step; ties resolve to the lower (conservative) level.
    """
    return _DECODED_LEVELS[bisect_right(_STEP_MIDPOINTS, reference - observed_rssi)]


def sink_route_cost(path_rssi: list[float], weights: list[float] | None = None) -> float:
    """Weighted sum of per-hop link quality magnitudes; lower is better.

    Magnitudes (|dBm|) make "least cost" prefer strong links. ``weights``
    default to uniform 1/n.
    """
    if not path_rssi:
        raise DimensionMismatch("empty path")
    if weights is None:
        weights = [1.0 / len(path_rssi)] * len(path_rssi)
    if len(weights) != len(path_rssi):
        raise DimensionMismatch(
            f"{len(path_rssi)} hops but {len(weights)} weights"
        )
    if any(not (0.0 < w <= 1.0) for w in weights):
        raise ValueError(f"weights must lie in (0,1], got {weights}")
    return sum(w * abs(r) for w, r in zip(weights, path_rssi))


@dataclass(frozen=True, slots=True)
class Rreq:
    """Route request: flood-identified by (origin, seq), accumulating per-hop RSSI."""

    origin: str
    dest: str
    seq: int
    path: tuple[tuple[str, float], ...] = ()
    tx_power_dbm: int = 0

    def hops(self) -> list[str]:
        return [node for node, _ in self.path]

    def rssi_values(self) -> list[float]:
        return [rssi for _, rssi in self.path]


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
    sink fills these three. ``neighbor_seen`` holds, per neighbour, its
    believed level and the slot it was last heard in.
    """

    node_id: str
    table: dict[str, RouteEntry] = field(default_factory=dict)
    forwarded: dict[str, int] = field(default_factory=dict)
    answered: dict[str, int] = field(default_factory=dict)
    answered_cost: dict[str, float] = field(default_factory=dict)
    windows: dict[tuple[str, int], list[Rreq]] = field(default_factory=dict)
    references: dict[str, float] = field(default_factory=dict)
    neighbor_seen: dict[str, tuple[EnergyLevel, int]] = field(default_factory=dict)
    seq_counter: int = 0

    def next_seq(self) -> int:
        self.seq_counter += 1
        return self.seq_counter


def hear_beacon(state: RoutingState, sender: str, rssi: float, slot: int, from_sink: bool) -> None:
    """A beacon rides the fixed reference power: it calibrates the sender's
    reference and proves it alive, but tells no level, so the sender keeps
    its believed level; the mains-powered sink is always E3."""
    references = state.references
    references[sender] = calibrate_reference(references.get(sender), rssi)
    level = EnergyLevel.E3 if from_sink else believed_level(state, sender)
    state.neighbor_seen[sender] = (level, slot)


def hear_frame(state: RoutingState, sender: str, rssi: float, slot: int) -> None:
    """Any other frame, sent at its sender's level power: once a beacon has
    calibrated the sender's reference, it tells the sender's level."""
    reference = state.references.get(sender)
    if reference is not None:
        state.neighbor_seen[sender] = (infer_neighbor_level(rssi, reference), slot)


def believed_level(state: RoutingState, neighbor: str) -> EnergyLevel:
    """The level last inferred for ``neighbor``, however long ago, and E1
    (the longest live sleep) before any; never E0, which sends nothing."""
    seen = state.neighbor_seen.get(neighbor)
    return seen[0] if seen else EnergyLevel.E1


def neighbor_levels(state: RoutingState, slot: int) -> list[EnergyLevel]:
    """The believed level of each neighbour heard within ``NEIGHBOR_TTL_SLOTS`` slots."""
    return [lvl for lvl, seen in state.neighbor_seen.values() if slot - seen <= NEIGHBOR_TTL_SLOTS]


def candidate_cost(settings: RoutingSettings, rreq: Rreq) -> float:
    rssis = rreq.rssi_values()
    weights = settings.mu
    if weights is not None and len(weights) != len(rssis):
        weights = None  # per-hop weights only apply to matching path lengths
    if settings.cost_mode == "raw":
        if weights is None:
            weights = [1.0 / len(rssis)] * len(rssis)
        # Maximizing the weighted (negative-dBm) sum equals minimizing its
        # negation; for all-negative RSSI this coincides with the magnitude
        # form.
        return -sum(w * r for w, r in zip(weights, rssis))
    return sink_route_cost(rssis, weights)


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
    return Rreq(
        origin=rreq.origin,
        dest=rreq.dest,
        seq=rreq.seq,
        path=rreq.path + ((me, observed_rssi),),
        tx_power_dbm=own_tx_power,
    )


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
    candidate = Rreq(
        origin=rreq.origin,
        dest=rreq.dest,
        seq=rreq.seq,
        path=rreq.path + ((state.node_id, observed_rssi),),
        tx_power_dbm=rreq.tx_power_dbm,
    )
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
