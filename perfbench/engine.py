"""``engine``: the library user's hot loop, scene by scene.

The eight PhysicsBench scenes at full size, census-free at the tuned
``PRESET_PRECISIONS`` -- the quantity behind the paper's Figure 5.
``physics`` and the ``fp`` fast kernel do nearly all the work; serving,
the census and tuning are bypassed.

Each scene settles for ``SETTLE_STEPS`` untimed steps (so a window
never times the near-empty first steps after a build), is checkpointed,
and then replays the same ``WINDOW_STEPS`` window from that checkpoint
every round.  One untimed pass over every window warms the interpreter
and the ``fp`` parameter caches before anything is timed.  Every window
must end on the recorded state digest.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

from harness import (CheckFailed, end_to_end, host_info, peak_rss_mb,
                     scratch_dir, setup_samples)
from layers import (SCENES, instrument_physics, per_layer, physics_accum,
                    physics_metrics)
from spans import Patcher, SpanRecorder
from stats import MIN_BEYOND, geomean, median

__all__ = ["SETTLE_STEPS", "WINDOW_STEPS", "rounds_for", "scene_seed",
           "setup", "setup_only", "settle", "window", "run"]

SETTLE_STEPS = 30
WINDOW_STEPS = 32
#: Scene seeds cycle through this many recorded variants.
SCENE_VARIANTS = 8
#: Rough wall of one round of all eight windows on a 2-vCPU host; only
#: used to turn ``--seconds`` into a fixed number of rounds.
ROUND_SECONDS = 3.0
#: Enough steps that the p99 step latency has ten samples beyond it.
MIN_STEPS = 100 * MIN_BEYOND
#: Set-up is repeated in this many fresh processes besides the run's own.
SETUP_REPEATS = 4
#: ``fp.kernel_pairs_per_s``: element-wise mul+add at the LCP width.
KERNEL_SHAPE = (4096, 12)
KERNEL_BITS = 9
KERNEL_ITERS = 40
KERNEL_REPEATS = 5
#: ``obs.tracer_overhead_pct`` is taken on the paper's mixed scene.
TRACER_SCENE = "everything"
TRACER_REPEATS = 3


def scene_seed(seed: int) -> int:
    """Scene seed for every build (only ``continuous`` draws from it)."""
    return seed % SCENE_VARIANTS


def rounds_for(seconds: float) -> int:
    per_round = len(SCENES) * WINDOW_STEPS
    return max(math.ceil(MIN_STEPS / per_round),
               round(seconds / ROUND_SECONDS))


def setup(seed: int) -> Dict[str, object]:
    """Build the eight worlds (the part of set-up after the imports)."""
    from repro.experiments.table1 import PRESET_PRECISIONS
    from repro.fp import FPContext
    from repro.workloads import build

    return {scene: build(scene, ctx=FPContext(
                dict(PRESET_PRECISIONS[scene]), census=False),
                seed=scene_seed(seed))
            for scene in SCENES}


def setup_only(seed: int, started: float) -> float:
    """Set-up alone: the imports and the eight builds."""
    setup(seed)
    return time.perf_counter() - started


def settle(world):
    """Step past the start-up transient; return the window checkpoint."""
    from repro.robustness import capture_world

    for _ in range(SETTLE_STEPS):
        world.step()
    return capture_world(world)


def window(world, checkpoint, latencies: List[float]) -> float:
    """Replay the window from ``checkpoint``; return its wall time."""
    from repro.robustness import restore_world

    restore_world(world, checkpoint)
    clock = time.perf_counter
    start = clock()
    for _ in range(WINDOW_STEPS):
        t0 = clock()
        world.step()
        latencies.append(clock() - t0)
    return clock() - start


def check(scene: str, world, digests: Dict[str, Dict[str, str]],
          seed: int) -> None:
    """The window must end on the digest recorded for this scene seed."""
    from repro.serve import state_digest

    want = digests[scene][str(scene_seed(seed))]
    got = state_digest(world)
    if got != want:
        raise CheckFailed(f"engine: {scene} window ended on digest "
                          f"{got[:16]}, recorded {want[:16]}")


def kernel_pairs_per_s() -> float:
    """Reduced ``FPContext.mul`` + ``add`` element pairs per second."""
    import numpy as np
    from repro.fp import FPContext

    rng = np.random.default_rng(7)
    a, b, c = (rng.standard_normal(KERNEL_SHAPE).astype(np.float32)
               for _ in range(3))
    ctx = FPContext({"lcp": KERNEL_BITS}, mode="jam", census=False)
    ctx.phase = "lcp"
    rates = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        for _ in range(KERNEL_ITERS):
            ctx.add(ctx.mul(a, b), c)
        rates.append(KERNEL_ITERS * a.size / (time.perf_counter() - start))
    return median(rates)


def tracer_overhead_pct(world, checkpoint, digests, seed) -> float:
    """Same window with and without a ``repro.obs.Tracer`` attached."""
    from repro.obs import JsonlWriter, Tracer

    plain: List[float] = []
    traced: List[float] = []
    sink = scratch_dir("tracer") / "trace.jsonl"
    for _ in range(TRACER_REPEATS):
        plain.append(window(world, checkpoint, []))
        tracer = Tracer(JsonlWriter(sink)).attach(world=world)
        try:
            traced.append(window(world, checkpoint, []))
        finally:
            world.observer = None
            tracer.close()
        check(TRACER_SCENE, world, digests, seed)
    return 100.0 * (median(traced) / median(plain) - 1.0)


def _rates(walls: Dict[str, List[float]]) -> Dict[str, float]:
    return {scene: WINDOW_STEPS / median(w) for scene, w in walls.items()}


def run(seed: int, seconds: float, trace: bool, started: float,
        expected: Dict) -> tuple:
    """One run: returns (metrics, attempted, host)."""
    digests = expected["engine"]
    build_start = time.perf_counter()
    worlds = setup(seed)
    build_ms = 1e3 * (time.perf_counter() - build_start) / len(SCENES)
    setup_s = time.perf_counter() - started

    checkpoints = {}
    for scene, world in worlds.items():  # untimed warm-up pass
        checkpoints[scene] = settle(world)
        window(world, checkpoints[scene], [])
        check(scene, world, digests, seed)

    rounds = rounds_for(seconds)
    walls: Dict[str, List[float]] = {scene: [] for scene in SCENES}
    if not trace:
        latencies: List[float] = []
        for _ in range(rounds):
            for scene in SCENES:
                walls[scene].append(window(worlds[scene],
                                           checkpoints[scene], latencies))
                check(scene, worlds[scene], digests, seed)
        metrics = end_to_end(
            geomean(list(_rates(walls).values())), len(SCENES) * rounds,
            latencies,
            [setup_s] + setup_samples("engine", seed, SETUP_REPEATS),
            peak_rss_mb(), 1)
        return metrics, len(latencies), host_info()

    # Traced run: untraced and traced windows alternate scene by scene,
    # so both see the same machine; the gap is the spans' own cost.
    recorder = SpanRecorder()
    traced_walls: Dict[str, List[float]] = {scene: [] for scene in SCENES}
    for _ in range(max(1, rounds // 2)):
        for scene in SCENES:
            walls[scene].append(window(worlds[scene], checkpoints[scene],
                                       []))
            check(scene, worlds[scene], digests, seed)
            with Patcher() as patcher:
                instrument_physics(recorder, patcher)
                traced_walls[scene].append(window(
                    worlds[scene], checkpoints[scene], []))
            check(scene, worlds[scene], digests, seed)
    rates = _rates(walls)
    windows = sum(len(w) for w in walls.values())
    values = physics_metrics(physics_accum(recorder))
    samples = {name: values["physics.steps"] for name in values}
    for scene, rate in rates.items():
        values[f"engine.{scene}.steps_per_s"] = rate
        samples[f"engine.{scene}.steps_per_s"] = len(walls[scene])
    values["fp.kernel_pairs_per_s"] = kernel_pairs_per_s()
    samples["fp.kernel_pairs_per_s"] = KERNEL_REPEATS
    values["obs.tracer_overhead_pct"] = tracer_overhead_pct(
        worlds[TRACER_SCENE], checkpoints[TRACER_SCENE], digests, seed)
    samples["obs.tracer_overhead_pct"] = TRACER_REPEATS
    values["workloads.build_ms"] = build_ms
    samples["workloads.build_ms"] = len(SCENES)
    values["bench.trace_overhead_pct"] = 100.0 * (
        geomean(list(rates.values()))
        / geomean(list(_rates(traced_walls).values())) - 1.0)
    samples["bench.trace_overhead_pct"] = 2 * windows
    return per_layer(values, samples), 2 * windows * WINDOW_STEPS, \
        host_info()
