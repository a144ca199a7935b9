"""``python -m repro bench`` — the census pair and the tracing-overhead gate.

Two measurements, each feeding a gate:

* per scenario, census-free and census steps/s at the tuned preset
  precisions and full size (the census gate asks for at least 0.15×
  the census-free rate on every scene);
* the cost of tracing a census-free step loop, best of interleaved
  rounds, which must stay under a 10 % budget (CI gates on the
  payload's ``obs_overhead.ok``).

Both run through one serial step-loop timer and land in a
``BENCH_<stamp>.json``.  Every other speed number (the reduced-op
kernel rate, per-layer times, repeated trials with spread) comes from
perfbench (``perfbench/README.md``); one scene's phase seconds come from
``repro trace SCENE --no-census --no-adaptive --summarize``.
"""

from __future__ import annotations

import os
import platform
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from ..experiments.runcache import bench_stamp, write_json_atomic
from ..experiments.table1 import PRESET_PRECISIONS
from ..fp.context import FPContext
from ..obs import JsonlWriter, Tracer
from ..workloads import SCENARIO_NAMES, build

__all__ = ["BenchProtocol", "QUICK_SCENARIOS", "run_bench",
           "render_summary"]

#: Scenario subset for ``--quick`` (CI smoke); always includes the
#: paper's hardest mixed workload.
QUICK_SCENARIOS = ("continuous", "everything", "ragdoll")


@dataclass(frozen=True)
class BenchProtocol:
    """Warmup/timed step counts of the two measurements."""

    census_free_warmup: int = 5
    census_free_steps: int = 20
    census_warmup: int = 2
    census_steps: int = 8
    # Metrics-overhead assertion: tracing a census-free step loop must
    # cost less than ``obs_budget_pct`` of its throughput.
    obs_scenario: str = "everything"
    obs_warmup: int = 3
    obs_steps: int = 12
    obs_rounds: int = 3
    obs_budget_pct: float = 10.0


def _time_step_loop(scenario: str, census: bool, warmup: int, steps: int,
                    trace_path: Optional[Path] = None) -> float:
    """Wall seconds of ``steps`` steps of a fresh full-size world at
    its tuned preset precisions, after ``warmup`` untimed ones; with
    ``trace_path``, a tracer streams to that file throughout."""
    ctx = FPContext(dict(PRESET_PRECISIONS[scenario]), census=census)
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
        return time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.close()


def _rate(steps: int, wall: float) -> float:
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
    warmup, steps = protocol.obs_warmup, protocol.obs_steps
    plain_best = traced_best = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "overhead_trace.jsonl"
        for _ in range(max(1, protocol.obs_rounds)):
            plain_best = max(plain_best, _rate(steps, _time_step_loop(
                scenario, False, warmup, steps)))
            traced_best = max(traced_best, _rate(steps, _time_step_loop(
                scenario, False, warmup, steps, trace_path)))
    if traced_best > 0:
        overhead_pct = (plain_best / traced_best - 1.0) * 100.0
    else:
        overhead_pct = float("inf")
    return {
        "scenario": scenario,
        "steps": steps,
        "rounds": protocol.obs_rounds,
        "plain_steps_per_sec": round(plain_best, 3),
        "traced_steps_per_sec": round(traced_best, 3),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": protocol.obs_budget_pct,
        "ok": overhead_pct < protocol.obs_budget_pct,
    }


def run_bench(
    scenarios: Optional[Iterable[str]] = None,
    quick: bool = False,
    protocol: Optional[BenchProtocol] = None,
    output_dir: str = "results",
    obs_overhead: bool = True,
) -> dict:
    """Time the census pair per scenario and persist ``BENCH_<stamp>.json``.

    Returns the written payload (its ``"path"`` key holds the file).
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

    scenario_rows = {}
    for scenario in scenarios:
        free = _time_step_loop(scenario, False, protocol.census_free_warmup,
                               protocol.census_free_steps)
        cen = _time_step_loop(scenario, True, protocol.census_warmup,
                              protocol.census_steps)
        scenario_rows[scenario] = {
            "census_free_steps_per_sec": round(
                _rate(protocol.census_free_steps, free), 3),
            "census_steps_per_sec": round(
                _rate(protocol.census_steps, cen), 3),
            "census_free_wall": round(free, 4),
            "census_wall": round(cen, 4),
        }

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
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "scenarios": scenario_rows,
    }
    if obs_overhead:
        payload["obs_overhead"] = _obs_overhead(protocol)
        if not payload["obs_overhead"]["ok"]:
            payload["warnings"] = [
                "metrics overhead "
                f"{payload['obs_overhead']['overhead_pct']:.1f}% exceeds "
                f"the {protocol.obs_budget_pct:.0f}% budget"]

    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{stamp}.json"
    write_json_atomic(path, payload)
    payload["path"] = str(path)
    return payload


def render_summary(payload: dict) -> str:
    """Human-readable bench summary for the CLI."""
    from ..experiments.report import render_table

    rows = [[scenario, f"{row['census_free_steps_per_sec']:.1f}",
             f"{row['census_steps_per_sec']:.1f}"]
            for scenario, row in payload["scenarios"].items()]
    out = render_table(["scenario", "census-free steps/s", "census steps/s"],
                       rows, title="repro bench — step-loop throughput")
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
