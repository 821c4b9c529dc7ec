"""Per-layer metrics of a traced run, keyed by harvestsim module.

Each metric is computed from the tracer's spans (calls, total and self time
per span name) and from the outcome counters the observers below collect at
the same call boundaries. Span names are ``<module>.<function>`` or
``<module>.<Class>.<method>``, always under the defining module.
"""

from __future__ import annotations

import statistics

from harvestsim import energy, mac, optimizer

LAYERS = ("scenario", "energy", "forecast", "optimizer", "app", "routing", "mac", "simcore", "cli")


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _bump(counts: dict, key: str, by: float = 1) -> None:
    counts[key] = counts.get(key, 0) + by


def _withdraw(args, kwargs, result, exc, counts):
    if isinstance(exc, energy.InsufficientEnergy):
        _bump(counts, "withdraw.refused")


def _solve_for_v(args, kwargs, result, exc, counts):
    if isinstance(exc, optimizer.Infeasible):
        _bump(counts, "solve_for_v.infeasible")


def _execute_plan(args, kwargs, result, exc, counts):
    if result is None:
        return
    report, _store, skipped = result
    plan = args[0] if args else kwargs["plan"]
    _bump(counts, "execute_plan.aborted", 1 if skipped else 0)
    _bump(counts, "ops.planned", len(plan.backlog_run) + len(plan.run_ops))
    _bump(counts, "ops.executed", report.ops_node + report.ops_network)


def _process_rreq(args, kwargs, result, exc, counts):
    if result is not None:
        _bump(counts, "process_rreq.forwarded")


def _install_route(args, kwargs, result, exc, counts):
    if result:
        _bump(counts, "install_route.changed")


def _csma_send(args, kwargs, result, exc, counts):
    if isinstance(exc, (mac.NoAck, mac.ChannelSaturated)):
        _bump(counts, "csma_send.failed")
        result = exc.result
    if result is not None:
        _bump(counts, "csma_send.preambles", result.preambles_sent)


def _deliver(args, kwargs, result, exc, counts):
    if result is False:
        _bump(counts, "deliver.lost")


OBSERVERS = {
    "energy.withdraw": _withdraw,
    "optimizer.solve_for_v": _solve_for_v,
    "app.execute_plan": _execute_plan,
    "routing.process_rreq": _process_rreq,
    "routing.install_route": _install_route,
    "mac.csma_send": _csma_send,
    "simcore.deliver": _deliver,
}


class Trace:
    """Read-only view of one traced workload run."""

    def __init__(self, agg: dict, counts: dict, step_s: list[float], charge_rows: int,
                 us_per_node_slot: float, overhead_s: float):
        self.agg, self.counts = agg, counts
        self.step_s = step_s
        self.charge_rows = charge_rows
        self.us_per_node_slot = us_per_node_slot
        self.overhead_s = overhead_s

    def calls(self, span: str) -> int:
        return self.agg.get(span, {}).get("calls", 0)

    def total(self, span: str) -> float:
        return self.agg.get(span, {}).get("total_s", 0.0)

    def self_s(self, span: str) -> float:
        return self.agg.get(span, {}).get("self_s", 0.0)

    def us_per_call(self, span: str) -> float:
        n = self.calls(span)
        return self.total(span) / n * 1e6 if n else 0.0

    def share(self, counter: str, base: str | int) -> float:
        """``counter`` over ``base`` calls (a span name) or a plain number; 0 for no base."""
        n = self.calls(base) if isinstance(base, str) else base
        return self.counts.get(counter, 0) / n if n else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(a["self_s"] for name, a in self.agg.items() if name.split(".", 1)[0] == layer)


# (metric, unit, better, value). The order is the report order.
PER_LAYER = [
    ("scenario.parse_scenario.s", "s", "lower", lambda t: t.total("scenario.parse_scenario")),
    ("scenario.build_profile_trace.s", "s", "lower", lambda t: t.total("scenario.build_profile_trace")),
    ("energy.withdraw.calls", "count", "lower", lambda t: t.calls("energy.withdraw")),
    ("energy.withdraw.us_per_call", "us", "lower", lambda t: t.us_per_call("energy.withdraw")),
    ("energy.withdraw.refused", "ratio", "lower", lambda t: t.share("withdraw.refused", "energy.withdraw")),
    ("forecast.ewma_step.us_per_call", "us", "lower", lambda t: t.us_per_call("forecast.ewma_step")),
    ("forecast.hw_step.calls", "count", "lower", lambda t: t.calls("forecast.hw_step")),
    ("forecast.hw_step.us_per_call", "us", "lower", lambda t: t.us_per_call("forecast.hw_step")),
    ("forecast.predict_horizon.us_per_call", "us", "lower", lambda t: t.us_per_call("forecast.predict_horizon")),
    ("optimizer.build_opt.us_per_call", "us", "lower", lambda t: t.us_per_call("optimizer.build_opt")),
    ("optimizer.solve_for_v.calls", "count", "lower", lambda t: t.calls("optimizer.solve_for_v")),
    ("optimizer.solve_for_v.us_per_call", "us", "lower", lambda t: t.us_per_call("optimizer.solve_for_v")),
    ("optimizer.solve_for_v.infeasible", "ratio", "lower", lambda t: t.share("solve_for_v.infeasible", "optimizer.solve_for_v")),
    ("app.plan_slot.self_s", "s", "lower", lambda t: t.self_s("app.plan_slot")),
    ("app.execute_plan.self_s", "s", "lower", lambda t: t.self_s("app.execute_plan")),
    ("app.execute_plan.us_per_call", "us", "lower", lambda t: t.us_per_call("app.execute_plan")),
    ("app.execute_plan.aborted", "ratio", "lower", lambda t: t.share("execute_plan.aborted", "app.execute_plan")),
    ("app.ops_executed_ratio", "ratio", "higher", lambda t: t.share("ops.executed", t.counts.get("ops.planned", 0))),
    ("routing.process_rreq.calls", "count", "lower", lambda t: t.calls("routing.process_rreq")),
    ("routing.process_rreq.forwarded", "ratio", "lower", lambda t: t.share("process_rreq.forwarded", "routing.process_rreq")),
    ("routing.next_seq.calls", "count", "lower", lambda t: t.calls("routing.RoutingState.next_seq")),
    ("routing.install_route.changed", "ratio", "higher", lambda t: t.share("install_route.changed", "routing.install_route")),
    ("routing.installs_per_flood", "ratio", "higher", lambda t: t.share("install_route.changed", "routing.RoutingState.next_seq")),
    ("routing.invalidate_route.calls", "count", "lower", lambda t: t.calls("routing.invalidate_route")),
    ("mac.csma_send.calls", "count", "lower", lambda t: t.calls("mac.csma_send")),
    ("mac.csma_send.us_per_call", "us", "lower", lambda t: t.us_per_call("mac.csma_send")),
    ("mac.csma_send.self_s", "s", "lower", lambda t: t.self_s("mac.csma_send")),
    ("mac.csma_send.failed", "ratio", "lower", lambda t: t.share("csma_send.failed", "mac.csma_send")),
    ("mac.csma_send.preambles_per_call", "count", "lower", lambda t: t.share("csma_send.preambles", "mac.csma_send")),
    ("mac.radio_energy.calls", "count", "lower", lambda t: t.calls("mac.radio_energy")),
    ("mac.schedule_from_delta.calls", "count", "lower", lambda t: t.calls("mac.schedule_from_delta")),
    ("simcore.rssi_at.calls", "count", "lower", lambda t: t.calls("simcore.rssi_at")),
    ("simcore.rssi_at.us_per_call", "us", "lower", lambda t: t.us_per_call("simcore.rssi_at")),
    ("simcore.deliver.calls", "count", "lower", lambda t: t.calls("simcore.deliver")),
    ("simcore.deliver.lost", "ratio", "lower", lambda t: t.share("deliver.lost", "simcore.deliver")),
    ("simcore.step_slot.p50_ms", "ms", "lower", lambda t: percentile(t.step_s, 50) * 1e3),
    ("simcore.step_slot.p99_ms", "ms", "lower", lambda t: percentile(t.step_s, 99) * 1e3),
    ("simcore.us_per_node_slot", "us", "lower", lambda t: t.us_per_node_slot),
    ("simcore.charge_rows", "count", "lower", lambda t: t.charge_rows),
    ("cli.write_metrics.s", "s", "lower", lambda t: t.total("cli.write_metrics")),
] + [
    (f"{layer}.self_s", "s", "lower", (lambda t, layer=layer: t.layer_self_s(layer)))
    for layer in LAYERS
] + [
    ("trace.overhead_s", "s", "lower", lambda t: t.overhead_s),
]
