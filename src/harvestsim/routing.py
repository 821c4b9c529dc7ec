"""Energy-aware on-demand routing.

A reduced reactive protocol: sources flood route requests, only the sink
replies, and the reply installs one next-hop entry per destination along the
reverse path. Two sink behaviours are supported:

* ``baseline``: the first request of a flood wins (classic reduced-AODV);
* ``modified``: the sink collects candidates for a short window, scores each
  path by a weighted sum of per-hop link qualities and answers the cheapest;
  late requests that beat the installed route trigger a fresh reply even
  mid-transfer.

Nodes signal their energy level implicitly through transmit power. Every
node periodically beacons at a fixed reference power; listeners smooth those
observations into a per-neighbour RSSI reference, and the attenuation of any
later packet relative to the reference reveals which power step - hence
which energy level - the neighbour used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .bounds import POS, enum, int_min
from .energy import EnergyLevel


class RoutingError(Exception):
    """Base class for routing errors."""


class NodeDormant(RoutingError):
    """A node at the lowest energy level cannot transmit."""


class Uncalibrated(RoutingError):
    """No beacon reference available to decode a neighbour's power choice."""


class DimensionMismatch(RoutingError):
    """Path RSSI list and weight list differ in length."""


class NoCandidates(RoutingError):
    """The sink's collection window closed with no route request."""


# Three discrete transmit powers for the three live energy levels; the
# reference (beacon) power equals the top level's.
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


@dataclass(frozen=True)
class RoutingSettings:
    """A scenario's routing: the sink's route choice (``mode``, ``cost_mode``
    and per-hop weights ``mu``) and the beacon, flood-refresh and collection
    timing."""

    mode: str = field(default="modified", metadata=enum("modified", "baseline"))
    # "raw" maximizes the weighted RSSI sum.
    cost_mode: str = field(default="magnitude", metadata=enum("magnitude", "raw"))
    mu: tuple[float, ...] | None = field(
        default=None,
        metadata={
            "type": ["array", "null"],
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
    )
    beacon_period_s: float = field(default=30.0, metadata=POS)
    rreq_refresh_slots: int = field(default=10, metadata=int_min(1))
    collection_window_ms: float = field(default=200.0, metadata=POS)


def map_level_to_txpower(level: EnergyLevel) -> int:
    """Transmit power (dBm) for an energy level; E0 nodes stay silent."""
    if level == EnergyLevel.E0:
        raise NodeDormant("no energy for communication at E0")
    return TX_POWER_BY_LEVEL[level]


@dataclass(frozen=True)
class RssiReference:
    """Smoothed RSSI observed from a neighbour's fixed-power beacons."""

    rssi_dbm: float


def calibrate_reference(existing: RssiReference | None, observed_dbm: float) -> RssiReference:
    """Fold a new beacon observation into the reference (seeded by the first)."""
    if existing is None:
        return RssiReference(rssi_dbm=float(observed_dbm))
    smoothed = existing.rssi_dbm + REFERENCE_SMOOTHING * (observed_dbm - existing.rssi_dbm)
    return RssiReference(rssi_dbm=smoothed)


def infer_neighbor_level(observed_rssi: float, reference: RssiReference | None) -> EnergyLevel:
    """Decode a neighbour's energy level from its received signal strength.

    The attenuation below the beacon reference is matched to the nearest
    power step; ties resolve to the lower (conservative) level.
    """
    if reference is None:
        raise Uncalibrated("no beacon reference for this neighbour")
    delta = reference.rssi_dbm - observed_rssi
    best_level = None
    best_err = None
    for level, step in _LEVEL_STEPS:  # ascending: lower level wins ties
        err = abs(delta - step)
        if best_err is None or err < best_err:
            best_level, best_err = level, err
    return best_level


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Rrep:
    """Route reply carrying the chosen reverse path and its cost."""

    origin: str
    dest: str
    seq: int
    path: tuple[str, ...]
    cost: float


@dataclass
class RouteEntry:
    dest: str
    next_hop: str
    cost: float
    seq: int


@dataclass
class RoutingState:
    """Per-node protocol state, mutated only by the owning simulator."""

    node_id: str
    table: dict[str, RouteEntry] = field(default_factory=dict)
    forwarded: set[tuple[str, int]] = field(default_factory=set)
    answered: dict[str, int] = field(default_factory=dict)
    references: dict[str, RssiReference] = field(default_factory=dict)
    seq_counter: int = 0

    def next_seq(self) -> int:
        self.seq_counter += 1
        return self.seq_counter


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
    state: RoutingState,
    rreq: Rreq,
    observed_rssi: float,
    own_level: EnergyLevel,
    own_tx_power: int | None = None,
) -> Rreq | None:
    """Relay handling of a request: dedupe, append own observation, re-send.

    Returns the forwarded request, or ``None`` when the flood was already
    served, the node is dormant, or forwarding would loop.
    """
    key = (rreq.origin, rreq.seq)
    if key in state.forwarded:
        return None
    if own_level == EnergyLevel.E0:
        return None
    if state.node_id == rreq.origin or state.node_id in rreq.hops():
        return None
    state.forwarded.add(key)
    if own_tx_power is None:
        own_tx_power = map_level_to_txpower(own_level)
    return replace(
        rreq,
        path=rreq.path + ((state.node_id, observed_rssi),),
        tx_power_dbm=own_tx_power,
    )


def sink_observe(rreq: Rreq, sink_id: str, observed_rssi: float) -> Rreq:
    """Complete a candidate at the sink: append the final-hop observation.

    After this the path record holds one (node, RSSI) pair per link of the
    route, ending with the sink itself.
    """
    return replace(rreq, path=rreq.path + ((sink_id, observed_rssi),))


def _reverse_path(rreq: Rreq) -> tuple[str, ...]:
    # Path record ends at the sink; the reply walks it backwards to the origin.
    return tuple(reversed(rreq.hops())) + (rreq.origin,)


def sink_decide(state: RoutingState, settings: RoutingSettings, candidates: list[Rreq]) -> Rrep:
    """Pick the flood's winning route and build the reply.

    Candidates must be completed via :func:`sink_observe`. Modified mode
    takes the cheapest one (first arrival on ties); baseline mode takes the
    first arrival regardless of cost.
    """
    if not candidates:
        raise NoCandidates("collection window closed without any request")
    if settings.mode == "baseline":
        chosen = candidates[0]
    else:
        best_cost = None
        chosen = candidates[0]
        for cand in candidates:
            cost = candidate_cost(settings, cand)
            if best_cost is None or cost < best_cost:
                best_cost, chosen = cost, cand
    cost = candidate_cost(settings, chosen)
    state.answered[chosen.origin] = max(
        state.answered.get(chosen.origin, 0), chosen.seq
    )
    return Rrep(
        origin=chosen.origin,
        dest=state.node_id,
        seq=chosen.seq,
        path=_reverse_path(chosen),
        cost=cost,
    )


def reroute_on_better(
    state: RoutingState, settings: RoutingSettings, current: RouteEntry, late: Rreq
) -> Rrep | None:
    """Mid-transfer improvement: answer a late request only if strictly cheaper.

    Requests older than the last answered flood for that origin are ignored
    entirely.
    """
    if late.seq < state.answered.get(late.origin, 0):
        return None
    cost = candidate_cost(settings, late)
    if cost >= current.cost:
        return None
    state.answered[late.origin] = max(state.answered.get(late.origin, 0), late.seq)
    return Rrep(
        origin=late.origin,
        dest=state.node_id,
        seq=late.seq,
        path=_reverse_path(late),
        cost=cost,
    )


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
    state.table[dest] = RouteEntry(dest=dest, next_hop=next_hop, cost=cost, seq=seq)
    return True


def invalidate_route(state: RoutingState, dest: str) -> None:
    state.table.pop(dest, None)
