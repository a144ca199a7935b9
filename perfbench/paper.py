"""``paper``: cold regeneration of the researcher's and architect's artifacts.

Three artifacts at one fixed reduced size (``STEPS`` steps at scale
``SCALE``), each in a fresh process with a fresh, empty
``REPRO_CACHE_DIR``:

* Table 1 -- ``compute_table1(use_cache=False)``: 56 minimum-precision
  searches over the eight scenes, each many short runs from freshly
  built worlds;
* Table 4 -- ``compute_table4``: 16 census runs over the eight scenes
  (the ``fp`` op-for-op path and ``memo``);
* the default design search (scene ``continuous``) --
  ``repro.design.run_search`` without the cache: ``arch`` evaluations
  plus cold-verified fronts.

This is the only workload where the census, tuning searches and
``arch``/``design`` do their work.  It runs cold because the run cache
keys ignore the engine version, so a warm cache would time stale
lookups; ``experiments.runcache_hits`` must read 0.  Sweeps run with
one worker, so every span is recorded in the artifact's own process.

The inputs are fixed; the workload seed only sets the order the three
artifacts run in.  An "operation" is one search or census cell: a
Table 1 cell, a Table 4 census run, or a design evaluation or
verification.  The step figures come from a timer around every
``World.step`` the artifacts make.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import time
from pathlib import Path
from typing import Dict, List

from harness import (CheckFailed, end_to_end, host_info, peak_rss_mb,
                     run_child, scratch_dir, setup_samples)
from layers import (SCENES, instrument_physics, merge, per_layer,
                    physics_accum, physics_metrics, resolve)
from spans import Patcher, SpanRecorder

__all__ = ["ARTIFACTS", "SCALE", "STEPS", "check", "child", "compute",
           "order", "run", "setup_only"]

ARTIFACTS = ("table1", "table4", "design")
STEPS = 6
SCALE = 0.25
#: ``SweepRunner`` workers: one, so spans never leave the process.
SWEEP_WORKERS = 1
SETUP_REPEATS = 2
#: Tolerance on Table 4's memo hit-rate columns, in points: room for a
#: census that probes the memo tables in another operand order.
HITRATE_POINTS = 2.0
TRIVIAL_COLUMNS = ("trivial_add_full", "trivial_mul_full",
                   "trivial_add_reduced", "trivial_mul_reduced")
HITRATE_COLUMNS = ("memo_add_hitrate_full", "memo_mul_hitrate_full",
                   "memo_add_hitrate_reduced", "memo_mul_hitrate_reduced")


def order(seed: int) -> List[str]:
    artifacts = list(ARTIFACTS)
    random.Random(f"perfbench-paper:{seed}").shuffle(artifacts)
    return artifacts


def setup_only(seed: int, started: float) -> float:
    """Set-up of an artifact process: its imports."""
    _entry_points()
    return time.perf_counter() - started


def _entry_points():
    from repro.design import DesignQuery, run_search
    from repro.experiments.table1 import compute_table1
    from repro.experiments.table4 import compute_table4

    return compute_table1, compute_table4, DesignQuery, run_search


def design_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compute(artifact: str) -> dict:
    """Run one artifact; return its checked output, cells and counts."""
    compute_table1, compute_table4, DesignQuery, run_search = \
        _entry_points()
    if artifact == "table1":
        result = compute_table1(steps=STEPS, scale=SCALE, use_cache=False,
                                workers=SWEEP_WORKERS)
        cells = sum(len(modes) for phases in result.independent.values()
                    for modes in phases.values()) \
            + len(result.narrow_combined)
        return {"output": {"independent": result.independent,
                           "narrow_combined": result.narrow_combined},
                "cells": cells, "counts": {"tuning.probes": result.probes}}
    if artifact == "table4":
        rows = compute_table4(steps=STEPS, scale=SCALE,
                              workers=SWEEP_WORKERS)
        return {"output": {scene: {c: getattr(row, c)
                                   for c in TRIVIAL_COLUMNS
                                   + HITRATE_COLUMNS}
                           for scene, row in rows.items()},
                "cells": 2 * len(rows), "counts": {}}
    query = DesignQuery.from_mapping({"steps": STEPS, "scale": SCALE})
    result = run_search(query, workers=SWEEP_WORKERS, use_cache=False)
    payload = result.payload()
    stats = result.stats
    return {"output": {"sha256": design_digest(payload),
                       "front_size": payload["result"]["front_size"]},
            "cells": stats.evaluations + stats.verifications,
            "counts": {"design.evaluations": stats.evaluations,
                       "design.verifications": stats.verifications}}


def check(artifact: str, output: dict, expected: dict) -> None:
    """Outputs equal the recorded ones (memo hit rates within 2 points)."""
    want = expected[artifact]
    if artifact == "table4":
        for scene in SCENES:
            got, rec = output[scene], want[scene]
            for column in TRIVIAL_COLUMNS:
                if got[column] != rec[column]:
                    raise CheckFailed(
                        f"paper: Table 4 {scene} {column} {got[column]!r} "
                        f"!= recorded {rec[column]!r}")
            for column in HITRATE_COLUMNS:
                if abs(got[column] - rec[column]) > HITRATE_POINTS:
                    raise CheckFailed(
                        f"paper: Table 4 {scene} {column} {got[column]:.2f}"
                        f" is more than {HITRATE_POINTS} points from "
                        f"recorded {rec[column]:.2f}")
    elif output != want:
        raise CheckFailed(f"paper: {artifact} output {output} differs "
                          f"from recorded {want}")


# ----------------------------------------------------------------------
# The artifact process
# ----------------------------------------------------------------------
def child(artifact: str, trace: bool, started: float) -> dict:
    """Entry point of one artifact's fresh process; returns its result."""
    cache = Path(os.environ["REPRO_CACHE_DIR"])
    if any(cache.iterdir()):
        raise CheckFailed(f"paper: {cache} is not empty; runs must be cold")
    _entry_points()
    setup_s = time.perf_counter() - started

    recorder = SpanRecorder()
    counts: Dict[str, float] = {}
    with Patcher() as patcher:
        if trace:
            instrument_physics(recorder, patcher)
            _instrument_paper(recorder, patcher, counts)
        else:
            from repro.physics.world import World

            patcher.wrap(recorder, World, "step", "world.step")
        start = time.perf_counter()
        result = compute(artifact)
        wall = time.perf_counter() - start

    accum = {}
    if trace:
        accum = merge(physics_accum(recorder), counts, result["counts"],
                      {_WALL_METRIC[artifact]: wall})
        accum.update(_span_sums(recorder))
    return {"artifact": artifact, "wall_s": wall, "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(), "cells": result["cells"],
            "output": result["output"], "accum": accum,
            "latencies": [s.duration for s in recorder.named("world.step")]}


_WALL_METRIC = {"table1": "experiments.table1_s",
                "table4": "experiments.table4_s",
                "design": "design.search_s"}

#: span name -> ("module[:Class]", attribute), as the callers look them up
_SPANNED = {
    "tuning.probe": (("repro.tuning.believability", "energy_trace"),),
    "workloads.build": (("repro.tuning.believability", "build"),
                        ("repro.experiments.runcache", "build")),
    "memo.probe": (("repro.memo.memo_table:MemoBank", "probe"),),
    "arch.evaluate": (("repro.design.evaluate", "evaluate_config"),),
}


def _span_sums(recorder: SpanRecorder) -> Dict[str, float]:
    sums = {}
    for name in _SPANNED:
        spans = recorder.named(name)
        sums[f"{name}.calls"] = float(len(spans))
        sums[f"{name}.s"] = sum(s.duration for s in spans)
    return sums


def _instrument_paper(recorder: SpanRecorder, patcher: Patcher,
                      counts: Dict[str, float]) -> None:
    """Spans and counters for the tuning, census, memo, arch and sweep
    layers, plus the run-cache hit count."""
    import repro.design.evaluate as evaluate
    import repro.experiments.runcache as runcache
    import repro.experiments.table4 as table4
    from repro.perf import SweepRunner

    for name, targets in _SPANNED.items():
        for target, attr in targets:
            patcher.wrap(recorder, resolve(target), attr, name)

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0.0) + value

    run_sweep = SweepRunner.run

    def sweep(self, jobs, reraise=True):
        results = run_sweep(self, jobs, reraise)
        metrics = self.last_metrics
        add("perf.sweeps", 1)
        add("perf.busy_s", metrics.busy_time)
        add("perf.capacity_s", metrics.elapsed * metrics.workers)
        return results

    patcher.replace(SweepRunner, "run", sweep)

    # A run-cache hit is a lookup answered without computing, for a key
    # this process never computed: an entry from before the run.
    computed = set()
    builds = [0]
    census_signature = inspect.signature(runcache.census_stats)

    def counted_build(*args, **kwargs):
        builds[0] += 1
        return build(*args, **kwargs)

    build = runcache.build
    patcher.replace(runcache, "build", counted_build)

    def census_wrapper(census_stats):
        def census(*args, **kwargs):
            bound = census_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = ("census", json.dumps(bound.arguments, sort_keys=True,
                                        default=str))
            before = builds[0]
            start = time.perf_counter()
            stats = census_stats(*args, **kwargs)
            wall = time.perf_counter() - start
            if builds[0] == before:
                add("experiments.runcache_hits", key not in computed)
                return stats
            computed.add(key)
            scene = bound.arguments["scenario"]
            steps = bound.arguments["steps"]
            for prefix in (f"census.{scene}", "census"):
                add(f"{prefix}.runs", 1)
                add(f"{prefix}.steps", steps)
                add(f"{prefix}.s", wall)
            for counter in stats.values():
                add("fp.census_ops", counter.total)
                add("fp.census_trivial", counter.extended_trivial)
                add("memo.lookups", counter.memo_lookups)
                add("memo.hits", counter.memo_hits)
            return stats
        return census

    for owner in (table4, evaluate):
        patcher.replace(owner, "census_stats",
                        census_wrapper(owner.census_stats))

    cached_json = evaluate.cached_json

    def cached(kind, params, compute, use_cache=True):
        ran = []
        key = (kind, json.dumps(params, sort_keys=True))

        def tracked():
            ran.append(True)
            return compute()

        result = cached_json(kind, params, tracked, use_cache=use_cache)
        if ran:
            computed.add(key)
        else:
            add("experiments.runcache_hits", key not in computed)
        return result

    patcher.replace(evaluate, "cached_json", cached)
    counts.setdefault("experiments.runcache_hits", 0.0)


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return scale * a / b if b else 0.0


def paper_metrics(accum: Dict[str, float]) -> tuple:
    """Per-layer figures and their sample counts from the artifacts'
    merged raw sums."""
    get = lambda key: accum.get(key, 0.0)  # noqa: E731
    values = physics_metrics(accum)
    samples = {name: get("physics.steps") for name in values}
    runs = get("census.runs")

    def put(name: str, value: float, n: float) -> None:
        values[name] = value
        samples[name] = n

    put("tuning.probes", get("tuning.probes"), 1)
    put("tuning.probe_ms", _ratio(get("tuning.probe.s"),
                                  get("tuning.probe.calls"), 1e3),
        get("tuning.probe.calls"))
    put("workloads.build_ms", _ratio(get("workloads.build.s"),
                                     get("workloads.build.calls"), 1e3),
        get("workloads.build.calls"))
    put("perf.sweep_busy_frac", _ratio(get("perf.busy_s"),
                                       get("perf.capacity_s")),
        get("perf.sweeps"))
    put("fp.census_ops", get("fp.census_ops"), runs)
    put("fp.census_ns_per_op", _ratio(get("census.s"),
                                      get("fp.census_ops"), 1e9), runs)
    put("fp.trivial_frac", _ratio(get("fp.census_trivial"),
                                  get("fp.census_ops")), runs)
    put("memo.probe_ms", _ratio(get("memo.probe.s"), get("census.steps"),
                                1e3), get("memo.probe.calls"))
    put("memo.hit_rate", _ratio(get("memo.hits"), get("memo.lookups")),
        runs)
    for scene in SCENES:
        put(f"census.{scene}.steps_per_s",
            _ratio(get(f"census.{scene}.steps"), get(f"census.{scene}.s")),
            get(f"census.{scene}.runs"))
    put("design.evaluations", get("design.evaluations"), 1)
    put("design.verifications", get("design.verifications"), 1)
    put("arch.evaluate_ms", _ratio(get("arch.evaluate.s"),
                                   get("arch.evaluate.calls"), 1e3),
        get("arch.evaluate.calls"))
    put("experiments.runcache_hits", get("experiments.runcache_hits"), 1)
    for metric in _WALL_METRIC.values():
        put(metric, get(metric), 1)
    return values, samples


# ----------------------------------------------------------------------
# The parent
# ----------------------------------------------------------------------
def spawn(artifact: str, trace: bool, tag: str) -> dict:
    cache = scratch_dir(f"paper-{tag}-{artifact}")
    return run_child(["--workload", "paper", "--paper-task", artifact,
                      "--trace", str(int(trace))],
                     env={"REPRO_CACHE_DIR": str(cache)})


def run(seed: int, seconds: float, trace: bool, started: float,
        expected: Dict) -> tuple:
    """One run: returns (metrics, attempted, host).

    Untraced: whole rounds of the three artifacts, at least one; another
    starts only while the elapsed time plus one more round fits
    ``seconds``.  Traced: one round, each artifact run untraced and then
    traced, so the gap between them is the spans' own cost.
    """
    host = host_info(sweep_workers=SWEEP_WORKERS)
    plain: List[dict] = []
    traced: List[dict] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for artifact in order(seed):
            plain.append(spawn(artifact, False, str(rounds)))
            if trace:
                traced.append(spawn(artifact, True, str(rounds)))
        rounds += 1
        elapsed = time.perf_counter() - start
        if trace or elapsed * (rounds + 1) / rounds > seconds:
            break
    for result in plain + traced:
        check(result["artifact"], result["output"], expected["paper"])
    attempted = sum(r["cells"] for r in plain + traced)

    if not trace:
        latencies = [t for r in plain for t in r["latencies"]]
        metrics = end_to_end(
            len(latencies) / sum(r["wall_s"] for r in plain), len(plain),
            latencies,
            [r["setup_s"] for r in plain]
            + setup_samples("paper", seed, SETUP_REPEATS),
            max(r["peak_rss_mb"] for r in plain), len(plain))
        return metrics, attempted, host

    accum = merge(*(r["accum"] for r in traced))
    if accum.get("experiments.runcache_hits", 0.0) != 0:
        raise CheckFailed("paper: a cold run hit the run cache "
                          f"{accum['experiments.runcache_hits']:.0f} times")
    values, samples = paper_metrics(accum)
    values["bench.trace_overhead_pct"] = 100.0 * (
        sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain)
        - 1.0)
    samples["bench.trace_overhead_pct"] = len(plain) + len(traced)
    return per_layer(values, samples), attempted, host
