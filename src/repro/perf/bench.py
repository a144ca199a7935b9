"""``python -m repro bench`` — step-loop throughput harness.

Times the census-free (pure round-op-round) and census step loops per
scenario at the tuned preset precisions, plus a kernel microbenchmark:
the rate of census-free ``ctx.add(ctx.mul(a, b), c)`` pairs at a reduced
precision.  Results land in a
``BENCH_<stamp>.json`` so the repo accumulates a perf trajectory;
per-scenario speedups are reported against a recorded baseline
(``results/BENCH_baseline.json`` by default — numbers are only
meaningful on the machine that recorded the baseline).

Scenario timing jobs run through :class:`~repro.perf.sweep.SweepRunner`
but default to a single worker: concurrent timing on shared cores skews
steps/sec.  Set ``--workers``/``REPRO_WORKERS`` explicitly to trade
accuracy for sweep time.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..experiments.runcache import bench_stamp, write_json_atomic
from ..experiments.table1 import PRESET_PRECISIONS
from ..fp.context import FPContext
from ..workloads import SCENARIO_NAMES, build
from .sweep import SweepJob, SweepOutcome, SweepRunner

__all__ = ["BenchProtocol", "QUICK_SCENARIOS", "run_bench",
           "render_summary"]

#: Scenario subset for ``--quick`` (CI smoke); always includes the
#: paper's hardest mixed workload.
QUICK_SCENARIOS = ("continuous", "everything", "ragdoll")

DEFAULT_BASELINE = Path("results") / "BENCH_baseline.json"


@dataclass(frozen=True)
class BenchProtocol:
    """Warmup/timed step counts — must match the recorded baseline's
    protocol for speedups to be apples-to-apples."""

    census_free_warmup: int = 5
    census_free_steps: int = 20
    census_warmup: int = 2
    census_steps: int = 8
    # Per-phase wall-time breakdown pass (census-free, observer-timed).
    phase_warmup: int = 2
    phase_steps: int = 10
    kernel_shape: tuple = (4096, 12)
    kernel_iters: int = 50
    kernel_precision: int = 9
    kernel_mode: str = "jam"
    # Metrics-overhead assertion: tracing a census-free step loop must
    # cost less than ``obs_budget_pct`` of its throughput.
    obs_scenario: str = "everything"
    obs_warmup: int = 3
    obs_steps: int = 12
    obs_rounds: int = 3
    obs_budget_pct: float = 10.0


def _time_step_loop(scenario: str, census: bool, warmup: int,
                    steps: int) -> SweepOutcome:
    """Time one scenario's step loop at its tuned preset precisions."""
    ctx = FPContext(dict(PRESET_PRECISIONS[scenario]), census=census)
    world = build(scenario, ctx=ctx)
    for _ in range(warmup):
        world.step()
    start = time.perf_counter()
    for _ in range(steps):
        world.step()
    wall = time.perf_counter() - start
    return SweepOutcome(
        value={
            "steps_per_sec": round(steps / wall, 3) if wall else 0.0,
            "wall": round(wall, 4),
            "steps": steps,
        },
        ops=steps,
    )


class _PhaseAccumulator:
    """Minimal observer: sums the ``phase_done`` wall times per phase.

    No sink, no census deltas — just the hook the step loop already
    calls, so the breakdown pass stays within the metrics budget.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.steps = 0

    def begin_step(self, world) -> None:
        pass

    def phase_done(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def end_step(self, world, record) -> None:
        self.steps += 1


def _phase_breakdown(scenario: str, warmup: int, steps: int) -> dict:
    """Where the census-free step budget goes, phase by phase."""
    ctx = FPContext(dict(PRESET_PRECISIONS[scenario]), census=False)
    world = build(scenario, ctx=ctx)
    for _ in range(warmup):
        world.step()
    acc = _PhaseAccumulator()
    world.observer = acc
    for _ in range(steps):
        world.step()
    world.observer = None
    total = sum(acc.seconds.values())
    return {
        "steps": steps,
        "wall": round(total, 5),
        "phases": {
            name: {
                "wall": round(wall, 5),
                "pct": round(100.0 * wall / total, 1) if total else 0.0,
            }
            for name, wall in sorted(acc.seconds.items(),
                                     key=lambda item: -item[1])
        },
    }


def _kernel_bench(protocol: BenchProtocol) -> Dict[str, float]:
    """Census-free reduced binop pairs (mul then add) per second."""
    rng = np.random.default_rng(7)
    shape = tuple(protocol.kernel_shape)
    a = rng.standard_normal(shape).astype(np.float32)
    b = rng.standard_normal(shape).astype(np.float32)
    c = rng.standard_normal(shape).astype(np.float32)
    iters = protocol.kernel_iters

    ctx = FPContext({"lcp": protocol.kernel_precision},
                    mode=protocol.kernel_mode, census=False)
    ctx.phase = "lcp"
    for _ in range(max(2, iters // 10)):
        ctx.add(ctx.mul(a, b), c)
    start = time.perf_counter()
    for _ in range(iters):
        ctx.add(ctx.mul(a, b), c)
    wall = time.perf_counter() - start
    return {
        "binop_pairs_per_sec": round(iters / wall, 2) if wall else 0.0,
        "elements": int(a.size),
        "iterations": iters,
    }


def _time_obs_loop(scenario: str, warmup: int, steps: int,
                   trace_path: Optional[Path] = None) -> float:
    """Steps/sec of one census-free loop, optionally under a tracer."""
    from ..obs import JsonlWriter, Tracer

    ctx = FPContext(dict(PRESET_PRECISIONS[scenario]), census=False)
    world = build(scenario, ctx=ctx)
    tracer = None
    if trace_path is not None:
        tracer = Tracer(JsonlWriter(trace_path))
        tracer.attach(world=world)
    try:
        for _ in range(warmup):
            world.step()
        start = time.perf_counter()
        for _ in range(steps):
            world.step()
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.close()
    return steps / wall if wall else 0.0


def _obs_overhead(protocol: BenchProtocol) -> dict:
    """Measure the cost of enabling metrics/tracing on the step loop.

    Plain and traced loops run interleaved for ``obs_rounds`` rounds and
    the best rate of each side is compared — best-of-N damps scheduler
    noise, which matters because the real tracer cost (a handful of
    ``perf_counter`` calls and dict updates per millisecond-scale step)
    is far below the failure budget.
    """
    scenario = protocol.obs_scenario
    plain_best = traced_best = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "overhead_trace.jsonl"
        for _ in range(max(1, protocol.obs_rounds)):
            plain_best = max(plain_best, _time_obs_loop(
                scenario, protocol.obs_warmup, protocol.obs_steps))
            traced_best = max(traced_best, _time_obs_loop(
                scenario, protocol.obs_warmup, protocol.obs_steps,
                trace_path))
    if traced_best > 0:
        overhead_pct = (plain_best / traced_best - 1.0) * 100.0
    else:
        overhead_pct = float("inf")
    return {
        "scenario": scenario,
        "steps": protocol.obs_steps,
        "rounds": protocol.obs_rounds,
        "plain_steps_per_sec": round(plain_best, 3),
        "traced_steps_per_sec": round(traced_best, 3),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": protocol.obs_budget_pct,
        "ok": overhead_pct < protocol.obs_budget_pct,
    }


def _load_baseline(path: Optional[Path]) -> Optional[dict]:
    path = Path(path) if path is not None else DEFAULT_BASELINE
    if not path.exists():
        return None
    try:
        with path.open() as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    payload["_path"] = str(path)
    return payload


def run_bench(
    scenarios: Optional[Iterable[str]] = None,
    quick: bool = False,
    protocol: Optional[BenchProtocol] = None,
    output_dir: str = "results",
    baseline_path: Optional[str] = None,
    workers: Optional[int] = None,
    kernel: bool = True,
    compare: bool = True,
    obs_overhead: bool = True,
) -> dict:
    """Run the benchmark sweep and persist ``BENCH_<stamp>.json``.

    Returns the written payload (its ``"path"`` key holds the file).
    ``compare=False`` suppresses the baseline speedup columns — used when
    a non-default protocol makes them apples-to-oranges.
    ``obs_overhead`` measures the cost of enabling the observability
    tracer on the step loop and asserts it stays under the budget
    (payload key ``obs_overhead``, with an ``ok`` flag CI gates on).
    """
    protocol = protocol or BenchProtocol()
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else SCENARIO_NAMES
    scenarios = list(scenarios)
    unknown = [s for s in scenarios if s not in SCENARIO_NAMES]
    if unknown:
        raise ValueError(f"unknown scenarios: {unknown}")

    # Default to one worker for timing fidelity; REPRO_WORKERS or an
    # explicit --workers opts into concurrent (noisier) timing.
    runner = SweepRunner(workers if workers is not None else
                         int(os.environ.get("REPRO_WORKERS", "1") or 1))
    jobs = []
    for scenario in scenarios:
        jobs.append(SweepJob(
            key=(scenario, "census_free"), fn=_time_step_loop,
            args=(scenario, False, protocol.census_free_warmup,
                  protocol.census_free_steps)))
        jobs.append(SweepJob(
            key=(scenario, "census"), fn=_time_step_loop,
            args=(scenario, True, protocol.census_warmup,
                  protocol.census_steps)))
    results = runner.run(jobs)
    by_key = {r.key: r for r in results}

    scenario_rows: Dict[str, dict] = {}
    for scenario in scenarios:
        free = by_key[(scenario, "census_free")]
        cen = by_key[(scenario, "census")]
        scenario_rows[scenario] = {
            "census_free_steps_per_sec": free.value["steps_per_sec"],
            "census_steps_per_sec": cen.value["steps_per_sec"],
            "census_free_wall": free.value["wall"],
            "census_wall": cen.value["wall"],
        }

    baseline = _load_baseline(
        Path(baseline_path) if baseline_path else None) if compare else None
    speedups: Dict[str, dict] = {}
    warnings: List[str] = []
    if baseline is not None:
        base_scenarios = baseline.get("scenarios", {})
        for scenario, row in scenario_rows.items():
            base = base_scenarios.get(scenario) or {}
            entry = {}
            for loop in ("census_free", "census"):
                ours = row[f"{loop}_steps_per_sec"]
                theirs = base.get(f"{loop}_steps_per_sec")
                # A missing or zero baseline rate yields a null speedup
                # plus a warning — never a crash or a printed `inf`.
                if isinstance(theirs, (int, float)) and theirs > 0:
                    entry[loop] = round(ours / theirs, 3)
                else:
                    entry[loop] = None
                    warnings.append(
                        f"baseline has no usable {loop} rate for "
                        f"'{scenario}'; speedup reported as null")
            speedups[scenario] = entry

    stamp = bench_stamp()
    payload = {
        "kind": "repro-bench",
        "stamp": stamp,
        "quick": quick,
        "protocol": {
            "census_free": {"warmup": protocol.census_free_warmup,
                            "steps": protocol.census_free_steps},
            "census": {"warmup": protocol.census_warmup,
                       "steps": protocol.census_steps},
            "phases": {"warmup": protocol.phase_warmup,
                       "steps": protocol.phase_steps},
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "workers": runner.last_metrics.workers,
        },
        "scenarios": scenario_rows,
        "phase_breakdown": {
            scenario: _phase_breakdown(scenario, protocol.phase_warmup,
                                       protocol.phase_steps)
            for scenario in scenarios
        },
        "sweep": {
            "elapsed": round(runner.last_metrics.elapsed, 3),
            "busy_time": round(runner.last_metrics.busy_time, 3),
            "steps_executed": runner.last_metrics.ops,
        },
    }
    if kernel:
        payload["kernel"] = _kernel_bench(protocol)
        if baseline is not None and "kernel" in baseline:
            base_rate = baseline["kernel"].get("binop_pairs_per_sec")
            if isinstance(base_rate, (int, float)) and base_rate > 0:
                payload["kernel"]["speedup_vs_baseline"] = round(
                    payload["kernel"]["binop_pairs_per_sec"] / base_rate, 3)
            else:
                payload["kernel"]["speedup_vs_baseline"] = None
                warnings.append("baseline kernel rate missing or zero; "
                                "speedup reported as null")
    if obs_overhead:
        payload["obs_overhead"] = _obs_overhead(protocol)
        if not payload["obs_overhead"]["ok"]:
            warnings.append(
                "metrics overhead "
                f"{payload['obs_overhead']['overhead_pct']:.1f}% exceeds "
                f"the {protocol.obs_budget_pct:.0f}% budget")
    if baseline is not None:
        payload["baseline"] = {
            "path": baseline.get("_path"),
            "recorded": baseline.get("recorded") or baseline.get("stamp"),
            "note": baseline.get("note", ""),
        }
        payload["speedup_vs_baseline"] = speedups
    if warnings:
        payload["warnings"] = warnings

    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{stamp}.json"
    write_json_atomic(path, payload)
    payload["path"] = str(path)
    return payload


def _format_speedup(value) -> str:
    """``-`` for null speedups (missing/zero baseline entries)."""
    return f"{value:.2f}x" if isinstance(value, (int, float)) else "-"


def render_summary(payload: dict) -> str:
    """Human-readable bench summary for the CLI."""
    from ..experiments.report import render_table

    headers = ["scenario", "census-free steps/s", "census steps/s"]
    has_speedup = bool(payload.get("speedup_vs_baseline"))
    if has_speedup:
        headers += ["vs baseline (free)", "vs baseline (census)"]
    rows = []
    for scenario, row in payload["scenarios"].items():
        line = [scenario,
                f"{row['census_free_steps_per_sec']:.1f}",
                f"{row['census_steps_per_sec']:.1f}"]
        if has_speedup:
            sp = payload["speedup_vs_baseline"].get(scenario) or {}
            line += [_format_speedup(sp.get("census_free")),
                     _format_speedup(sp.get("census"))]
        rows.append(line)
    out = render_table(headers, rows, title="repro bench — step-loop "
                                            "throughput")
    for scenario, breakdown in payload.get("phase_breakdown",
                                           {}).items():
        parts = ", ".join(f"{name} {entry['pct']:.0f}%"
                          for name, entry in breakdown["phases"].items())
        out += f"\nphases[{scenario}]: {parts}"
    kernel = payload.get("kernel")
    if kernel:
        out += f"\nkernel: {kernel['binop_pairs_per_sec']:.0f} pairs/s"
        if kernel.get("speedup_vs_baseline") is not None:
            out += (f", {kernel['speedup_vs_baseline']:.2f}x vs recorded"
                    f" baseline")
    overhead = payload.get("obs_overhead")
    if overhead:
        out += (
            f"\nmetrics overhead: {overhead['overhead_pct']:.1f}% on "
            f"{overhead['scenario']} (budget "
            f"{overhead['budget_pct']:.0f}%) — "
            + ("OK" if overhead["ok"] else "REGRESSED"))
    for warning in payload.get("warnings", ()):
        out += f"\nwarning: {warning}"
    written = payload.get("path", f"BENCH_{payload['stamp']}.json")
    out += f"\nwritten: {Path(written).name}"
    return out
