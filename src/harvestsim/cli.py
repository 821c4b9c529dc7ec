"""Experiment commands and machine-readable outputs.

Every command writes CSV/JSON files plus an echo of the effective scenario
into the output directory; re-running with the echoed config reproduces the
outputs byte for byte (outputs embed the seed and a config hash, never
timestamps).

Exit codes: 0 success, 2 config/schema rejection, 3 runtime infeasibility.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import click

from . import forecast, mac, routing, simcore
from .bounds import field_checks, trusted
from .energy import EnergyError, EnergyLevel, harvest_in_slot
from .forecast import ForecastError
from .mac import MacError
from .optimizer import OptimizerError, build_opt, parametric_sweep
from .scenario import (
    ParseError,
    ProfileSpec,
    ScenarioConfig,
    ScenarioError,
    SchemaError,
    config_hash,
    parse_scenario,
    serialize_scenario,
    synth_trace,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_RUNTIME = 3


def write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row, each value as ``str`` gives it (for a float that is
    its ``repr``, the shortest text that reads back to the same float).
    The lines are streamed to the file as the rows come."""
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


class _Bounded(click.ParamType):
    """A number checked by settings field ``cls.name``'s own check, as the
    field's constructor checks it: finite and within the declared bound."""

    name = "number"

    def __init__(self, cls, name: str):
        self.check = field_checks(cls)[name]

    def convert(self, value, param, ctx):
        value = click.FLOAT.convert(value, param, ctx)
        out: list = []
        self.check(value, (), out)
        for _, message in out:
            self.fail(message, param, ctx)
        return value


def _load_config(config_path: str) -> ScenarioConfig:
    text = Path(config_path).read_text(encoding="utf-8")
    return parse_scenario(text)


def _effective_config(cfg, seed, slots, mode) -> ScenarioConfig:
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if slots is not None:
        cfg = dataclasses.replace(cfg, slots=slots)
    if mode is not None:
        # One of routing.MODES, as click checks --mode, so not checked again.
        routing_settings = trusted(routing.RoutingSettings, {**vars(cfg.routing), "mode": mode})
        cfg = dataclasses.replace(cfg, routing=routing_settings)
    return cfg


def _echo_config(cfg: ScenarioConfig, outdir: Path) -> str:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "scenario.yaml").write_text(serialize_scenario(cfg), encoding="utf-8")
    return config_hash(cfg)


def write_metrics(metrics: simcore.Metrics, outdir: Path, base: dict) -> None:
    names = [level.name for level in EnergyLevel]  # each level's name, by value
    write_csv(
        outdir / "slots.csv",
        [
            "slot",
            "node",
            "own_level",
            "virtual_level",
            "network_level",
            "alpha_mean",
            "delta",
            "ops_node",
            "ops_network",
            "consumed_uJ",
            "residual_uJ",
        ],
        (
            (slot, node, names[own], names[virtual], names[network], alpha, delta,
             ops_node, ops_network, consumed, residual)
            for slot, node, own, virtual, network, alpha, delta, ops_node, ops_network,
            consumed, residual, _ in metrics.slot_reports.tuples()
        ),
    )
    write_csv(
        outdir / "ledger.csv",
        [
            "slot",
            "node",
            "stored_start_uj",
            "harvested_uj",
            "wasted_uj",
            "consumed_uj",
            "stored_end_uj",
        ],
        metrics.ledger,
    )
    write_csv(
        outdir / "routes.csv",
        ["time", "node", "dest", "next_hop", "cost", "seq", "reason"],
        metrics.route_log,
    )
    write_csv(
        outdir / "forecast.csv",
        ["slot", "node", "predicted_uj", "actual_uj"],
        metrics.forecast_rows,
    )
    if isinstance(metrics, simcore.MacTrace) and metrics.mac_trace:
        write_csv(
            outdir / "mac_trace.csv",
            ["time", "node", "event", "detail"],
            (
                (t, node, event, detail.replace(",", ";"))
                for t, node, event, detail in metrics.mac_trace
            ),
        )
    write_json(outdir / "summary.json", {**base, **metrics.summary()})


@click.group()
def cli() -> None:
    """Energy-harvesting sensor network experiments."""


@cli.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--slots", type=click.IntRange(min=1), default=None)
@click.option("--mode", type=click.Choice(routing.MODES), default=None)
@click.option("--out", "outdir", required=True, type=click.Path())
@click.option("--mac-trace", is_flag=True, default=False)
def run_cmd(config_path, seed, slots, mode, outdir, mac_trace) -> None:
    """Full simulation: slot reports, ledger, routes, forecasts, summary."""
    cfg = _effective_config(_load_config(config_path), seed, slots, mode)
    # Built first, so that a set-up failure (an unreadable trace) writes nothing.
    world = simcore.World(cfg, metrics=simcore.MacTrace() if mac_trace else None)
    outdir = Path(outdir)
    digest = _echo_config(cfg, outdir)
    metrics = simcore.run(world, cfg.slots)
    write_metrics(
        metrics,
        outdir,
        {"command": "run", "seed": cfg.seed, "config": digest, "mode": cfg.routing.mode},
    )


@cli.command("forecast-compare")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--days", type=click.IntRange(min=3), default=60)
@click.option("--period", type=click.IntRange(min=3), default=24)
@click.option("--amplitude", type=_Bounded(ProfileSpec, "amplitude_w"), default=0.003)
@click.option("--switch-prob", type=_Bounded(ProfileSpec, "switch_probability"), default=0.3)
@click.option("--attenuation", type=_Bounded(ProfileSpec, "cloudy_attenuation"), default=0.35)
@click.option("--seed", type=int, default=7)
@click.option("--slot-duration", type=_Bounded(ScenarioConfig, "slot_duration_s"), default=60.0)
@click.option("--out", "outdir", required=True, type=click.Path())
def forecast_compare_cmd(
    config_path, days, period, amplitude, switch_prob, attenuation, seed,
    slot_duration, outdir,
) -> None:
    """One-step prediction error of both predictors on a synthetic trace."""
    pred = forecast.PredictorSettings(kind="hw", period=period)
    if config_path is not None:
        source = click.get_current_context().get_parameter_source
        given = [f"--{n}" for n in ("seed", "period", "slot-duration")
                 if source(n.replace("-", "_")) is not click.core.ParameterSource.DEFAULT]
        if given:
            raise click.UsageError(f"--config sets the seed, period and slot duration; "
                                   f"drop {' '.join(given)}")
        cfg = _load_config(config_path)
        pred, seed, slot_duration = cfg.predictor, cfg.seed, cfg.slot_duration_s
    seasonal = dataclasses.replace(pred, kind="hw")
    ewma = dataclasses.replace(
        pred, kind="ewma", epsilon=pred.epsilon if pred.kind == "ewma" else 0.5
    )
    spec = ProfileSpec(
        amplitude_w=amplitude,
        period_slots=seasonal.period,
        switch_probability=switch_prob,
        cloudy_attenuation=attenuation,
        seed=seed,
    )
    if not spec.has_daylight:
        raise click.UsageError(
            f"predictor.period {seasonal.period}: the synthetic day needs more than one "
            f"daylight slot"
        )
    trace = synth_trace(spec, days * seasonal.period)
    series = [harvest_in_slot(trace, slot, slot_duration) for slot in range(len(trace))]
    result = compare_predictors(series, ewma, seasonal)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        outdir / "forecast_compare.csv",
        ["slot", "actual_uj", "ewma_pred_uj", "hw_pred_uj"],
        result["rows"],
    )
    write_json(
        outdir / "summary.json",
        {
            "command": "forecast-compare",
            "seed": seed,
            "ewma_epsilon": ewma.epsilon,
            "hw_parameters": [seasonal.epsilon, seasonal.beta, seasonal.gamma],
            "ewma_mape": result["ewma_mape"],
            "hw_mape": result["hw_mape"],
            "masked_slots": result["masked_slots"],
        },
    )


def compare_predictors(series, ewma, seasonal) -> dict:
    """Run the ``ewma`` and ``seasonal`` predictor settings over a series;
    MAPE masked to meaningful actuals.

    Percentage errors are undefined at zero (night slots), so the mean skips
    actuals below 5% of the series peak.
    """
    ew = hw = None
    rows = []
    ew_errs, hw_errs = [], []
    thresh = 0.05 * max(series, default=0.0)
    for t, y in enumerate(series):
        # Score from the first slot the seasonal model itself predicts.
        if isinstance(hw, forecast.HwState):
            rows.append((t, y, ew_pred, hw_pred))
            if y > thresh:
                ew_errs.append(abs(ew_pred - y) / y)
                hw_errs.append(abs(hw_pred - y) / y)
        ew_pred, ew = forecast.step(ewma, ew, y)
        hw_pred, hw = forecast.step(seasonal, hw, y)
    if len(rows) < 2:
        raise ForecastError("series too short for the warm-up window")
    if not ew_errs:
        raise ForecastError("no scored slot above 5% of the series peak")
    return {
        "rows": rows,
        "ewma_mape": sum(ew_errs) / len(ew_errs),
        "hw_mape": sum(hw_errs) / len(hw_errs),
        "masked_slots": len(ew_errs),
    }


@cli.command("route-compare")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seeds", type=click.IntRange(min=1), default=10)
@click.option("--slots", type=click.IntRange(min=1), default=None)
@click.option("--out", "outdir", required=True, type=click.Path())
def route_compare_cmd(config_path, seeds, slots, outdir) -> None:
    """PDR of modified versus baseline routing over a batch of seeds."""
    cfg = _effective_config(_load_config(config_path), None, slots, None)
    runs = (
        (seed, mode, simcore.World(_effective_config(cfg, seed, None, mode)))
        for seed in range(cfg.seed, cfg.seed + seeds)
        for mode in routing.MODES
    )
    # The first world is built first, so that a set-up failure (an
    # unreadable trace) writes nothing.
    first = next(runs)
    outdir = Path(outdir)
    digest = _echo_config(cfg, outdir)
    rows = []
    pdrs = {mode: [] for mode in routing.MODES}
    for seed, mode, world in itertools.chain([first], runs):
        metrics = simcore.run(world, cfg.slots)
        rows.append((seed, mode, metrics.pdr(), metrics.delivered, metrics.generated))
        pdrs[mode].append(metrics.pdr())
    mean_mod = sum(pdrs["modified"]) / seeds
    mean_base = sum(pdrs["baseline"]) / seeds
    write_csv(
        outdir / "pdr.csv", ["seed", "mode", "pdr", "delivered", "generated"], rows
    )
    write_json(
        outdir / "summary.json",
        {
            "command": "route-compare",
            "seed": cfg.seed,
            "config": digest,
            "seeds": seeds,
            "slots": cfg.slots,
            "mean_pdr_modified": mean_mod,
            "mean_pdr_baseline": mean_base,
            "mean_improvement_pp": (mean_mod - mean_base) * 100.0,
            "modified_wins_every_seed": all(
                m >= b for m, b in zip(pdrs["modified"], pdrs["baseline"])
            ),
        },
    )


@cli.command("tradeoff")
@click.option("--weights", default="6,2", help="comma-separated utility weights")
@click.option("--costs", default="30,20", help="comma-separated energy costs (uJ)")
@click.option("--duty-energy", type=float, default=10.0)
@click.option("--duty-weight", type=float, default=0.5)
@click.option("--budget", type=float, default=40.0)
@click.option("--out", "outdir", required=True, type=click.Path())
def tradeoff_cmd(weights, costs, duty_energy, duty_weight, budget, outdir) -> None:
    """Export the optimal utility / residual-energy curve."""
    # Every input of the LP comes from the command line, so whatever
    # build_opt rejects is a usage error.
    try:
        w = tuple(float(x) for x in weights.split(",")) if weights else ()
        c = tuple(float(x) for x in costs.split(",")) if costs else ()
        lp = build_opt(w, c, duty_energy, duty_weight, budget)
    except (OptimizerError, ValueError) as exc:
        raise click.UsageError(f"tradeoff: {exc}") from exc
    curve = parametric_sweep(lp, 0.0, budget)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = curve.csv_rows()
    write_csv(outdir / "curve.csv", rows[0], rows[1:])
    write_json(
        outdir / "summary.json",
        {
            "command": "tradeoff",
            "weights": list(w),
            "costs": list(c),
            "duty_energy": duty_energy,
            "duty_weight": duty_weight,
            "budget": budget,
            "breakpoints": [list(bp) for bp in curve.breakpoints],
        },
    )


@cli.command("duty")
@click.option("--cycles", type=click.IntRange(min=1), default=1000)
@click.option("--out", "outdir", required=True, type=click.Path())
def duty_cmd(cycles, outdir) -> None:
    """Duty-factor realization table for both schedule modes."""
    rows = []
    for mode in ("formula", "paper-table"):
        cfg = mac.MacConfig(schedule_mode=mode)
        for delta in (0.05, 0.15, 0.25):
            sched = mac.schedule_from_delta(delta, cfg)
            measured = mac.measure_duty(sched, cycles)
            rows.append(
                (delta, mode, sched.wake_ms, sched.sleep_ms, sched.duty_fraction, measured)
            )
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        outdir / "duty.csv",
        ["delta", "mode", "wake_ms", "sleep_ms", "duty_nominal", "duty_measured"],
        rows,
    )
    write_json(
        outdir / "summary.json",
        {"command": "duty", "cycles": cycles, "rows": len(rows)},
    )


def main(argv=None) -> int:
    """Entry point with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except SchemaError as exc:
        click.echo("config rejected:", err=True)
        for violation in exc.violations:
            click.echo(f"  - {violation}", err=True)
        return EXIT_SCHEMA
    except click.UsageError as exc:
        click.echo(exc.format_message(), err=True)
        return EXIT_SCHEMA
    except (
        OptimizerError,
        EnergyError,
        ForecastError,
        MacError,
        ParseError,
        ScenarioError,
        ValueError,
    ) as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        return EXIT_RUNTIME
    except click.exceptions.Exit as exc:
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
