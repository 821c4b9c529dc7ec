"""harvestsim benchmark: one workload, one seed, one process, one thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tree --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the median
set-up time over repeated set-ups, then whole workload runs back to back (a
closed batch) for ``--seconds``, each checked and digested. ``run_s`` and
``setup_s`` are CPU seconds scaled to a reference host speed by slices of a
fixed reference load run between the set-ups and between simulated slots
(``calibrate.py``). That cancels the drift of a shared host's speed, which
moves raw times by tens of percent; the raw wall and CPU medians are printed
beside them. ``--trace 1``
alternates untraced and traced runs of the same seed for ``--seconds`` and
reports the per-layer metrics; a traced run must reproduce the untraced
digest and leave no wrapper behind. Human-readable lines come first; the
last line of standard output is the JSON result. Outputs go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path.cwd()
SETUP_SECONDS = 3.0
MIN_SETUPS = 10
MIN_RUNS = 3


def _import_program():
    """Import harvestsim from this checkout's ``src/``, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import harvestsim

    if Path(harvestsim.__file__).resolve().parent != (src / "harvestsim").resolve():
        raise ImportError(f"harvestsim imported from {harvestsim.__file__}, not {src}")
    return harvestsim


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from ``.git`` directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(pkg_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in pkg_dir.rglob("*") if p.suffix in (".py", ".yaml")):
        h.update(str(path.relative_to(pkg_dir)).encode() + b"\n" + path.read_bytes())
    return h.hexdigest()[:16]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    """One workload at one seed, with the correctness bookkeeping of its runs."""

    def __init__(self, wl, text: str, seed: int, outdir: Path):
        import workloads  # importable only once _import_program has found harvestsim

        self.w = workloads
        self.wl, self.text, self.seed, self.outdir = wl, text, seed, outdir
        self.attempted = self.failed = 0
        self.digest: str | None = None
        self.outcome = None

    def setup_times(self) -> tuple[list[float], list[float]]:
        """CPU seconds of each set-up, raw and scaled to the reference speed.

        Each set-up is scaled by the mean of the reference slices just
        before and just after it.
        """
        self.w.setup(self.wl, self.text, self.seed)  # warm-up: imports, regex and schema caches
        meter = calibrate.Meter()
        raw: list[float] = []
        scaled: list[float] = []
        before = meter.slice()
        deadline = time.perf_counter() + SETUP_SECONDS
        while len(raw) < MIN_SETUPS or time.perf_counter() < deadline:
            gc.collect()
            t0 = time.process_time()
            worlds = self.w.setup(self.wl, self.text, self.seed)
            cpu = time.process_time() - t0
            del worlds
            after = meter.slice()
            raw.append(cpu)
            scaled.append(cpu * calibrate.REFERENCE_S * 2 / (before + after))
            before = after
        return raw, scaled

    def timed_run(self, tracer=None, meter=None):
        """Set up and simulate once.

        Returns (wall seconds, CPU seconds, worlds) of the simulation, or None
        on failure. With a ``calibrate.Meter``, reference slices run before,
        between the slots of and after the simulation; their CPU time is
        taken out of the returned CPU seconds (the wall seconds keep it).
        """
        self.attempted += 1
        try:
            gc.collect()
            traced = tracer if tracer is not None else contextlib.nullcontext()
            with traced:
                worlds = self.w.setup(self.wl, self.text, self.seed)
                if meter is not None:
                    meter.slice()
                    sliced = meter.interleaved(self.w.simcore.World, "step_slot")
                else:
                    sliced = contextlib.nullcontext()
                with sliced:
                    cal0 = meter.cal_s if meter is not None else 0.0
                    t0, c0 = time.perf_counter(), time.process_time()
                    self.w.simulate(worlds, self.outdir)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                if meter is not None:
                    cpu -= meter.cal_s - cal0
                    meter.slice()
            leaks = tracer.leaks() if tracer is not None else []
            if leaks:
                return self._fail(f"tracer left {len(leaks)} wrapped attributes: {leaks[:5]}")
            outcome = self.w.check(worlds, self.outdir)
        except Exception:
            traceback.print_exc()
            return self._fail("run raised")
        if outcome.problems:
            return self._fail("; ".join(outcome.problems))
        if self.digest is None:
            self.digest, self.outcome = outcome.digest, outcome
        elif outcome.digest != self.digest:
            return self._fail(f"digest {outcome.digest} differs from {self.digest}")
        return wall, cpu, worlds

    def _fail(self, why: str):
        self.failed += 1
        print(f"FAILED run {self.attempted}: {why}", flush=True)
        return None


def measure(bench: Bench, seconds: float) -> dict:
    setup_raw, setup = bench.setup_times()
    walls: list[float] = []
    cpus: list[float] = []
    runs: list[float] = []
    start = time.perf_counter()
    while bench.failed < MIN_RUNS:
        meter = calibrate.Meter()
        got = bench.timed_run(meter=meter)
        if got is not None:
            wall, cpu, _worlds = got
            walls.append(wall)
            cpus.append(cpu)
            runs.append(meter.scaled(cpu))
        spent = time.perf_counter() - start
        # Stop when the next run, at the mean pace so far, would overrun.
        if len(runs) >= MIN_RUNS and spent * (bench.attempted + 1) / bench.attempted > seconds:
            break
    if not runs:
        return {}
    q1, med, q3 = _quartiles(runs)
    s1, s_med, s3 = _quartiles(setup)
    o = bench.outcome
    pdr = o.delivered / o.generated if o.generated else 0.0
    print(f"run_s: median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f}, n={len(runs)}: "
          + " ".join(f"{r:.4f}" for r in runs))
    print(f"  raw CPU median {statistics.median(cpus):.4f} s; "
          f"raw wall median {statistics.median(walls):.4f} s with reference slices")
    print(f"setup_s: median {s_med:.5f} s, quartiles {s1:.5f}..{s3:.5f}, n={len(setup)}; "
          f"raw CPU median {statistics.median(setup_raw):.5f} s")
    print(f"peak_rss_mb: {_peak_rss_mb():.1f} MB")
    print(f"pdr: {pdr:.4f} ({o.delivered} delivered / {o.generated} generated)")
    return {
        "run_s": _metric(med, "s"),
        "setup_s": _metric(s_med, "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "pdr": _metric(pdr, "ratio"),
    }


def measure_traced(bench: Bench, package, seconds: float) -> dict:
    import layers
    import tracer as tracing

    modules = tracing.program_modules(package)
    untraced: list[float] = []
    traced: list[float] = []
    samples: list[dict] = []
    start = time.perf_counter()
    while not samples or (
        (time.perf_counter() - start) * (len(samples) + 1) / len(samples) <= seconds
    ):
        got = bench.timed_run()
        if got is None:
            break
        untraced.append(got[0])
        tr = tracing.Tracer(modules, layers.OBSERVERS)
        got = bench.timed_run(tr)
        if got is None:
            break
        run_s, _cpu, worlds = got
        traced.append(run_s)
        node_slots = sum(
            sum(1 for n in w.cfg.nodes if n.role != "sink") * w.cfg.slots for w in worlds
        )
        samples.append(
            {
                "agg": tr.aggregate(),
                "counts": dict(tr.counts),
                "step_s": tr.durations("simcore.World.step_slot"),
                "charge_rows": sum(len(w.metrics.charges) for w in worlds),
                "node_slots": node_slots,
            }
        )
        del tr, worlds
    if not samples:
        return {}
    u_med, t_med = statistics.median(untraced), statistics.median(traced)
    print(f"untraced run_s median {u_med:.4f} s, traced {t_med:.4f} s, n={len(traced)}")
    values: dict[str, list[float]] = {}
    for s in samples:
        t = layers.Trace(
            s["agg"], s["counts"], s["step_s"], s["charge_rows"],
            u_med / s["node_slots"] * 1e6, t_med - u_med,
        )
        for name, _unit, _better, fn in layers.PER_LAYER:
            values.setdefault(name, []).append(float(fn(t)))
    out = {}
    for name, unit, _better, _fn in layers.PER_LAYER:
        v = statistics.median(values[name])
        out[name] = _metric(v, unit)
        print(f"{name}: {v:.6g} {unit}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        harvestsim = _import_program()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import harvestsim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        text = workloads.scenario_text(wl)
    except workloads.GridDrift as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "input": workloads.input_size(wl, text),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": _commit(),
        "source_sha256": _source_digest(Path(harvestsim.__file__).parent),
    }, sort_keys=True), flush=True)

    bench = Bench(wl, text, args.seed, ROOT / ".perfbench_out" / f"{wl.name}-{args.seed}")
    if args.trace:
        metrics = measure_traced(bench, harvestsim, args.seconds)
    else:
        metrics = measure(bench, args.seconds)
    print(f"digest {wl.name} seed={args.seed}: {bench.digest}")
    print(f"failed_share: {bench.failed / bench.attempted} "
          f"({bench.failed} failed / {bench.attempted} attempted)")
    correct = bench.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
