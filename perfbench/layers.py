"""The per-layer metrics and the physics spans every workload shares.

Every traced run prints every metric below, whatever its workload: a
layer the workload does not exercise reads 0, which is itself the
evidence that the workload bypasses it (``serve.*`` on ``engine``,
``fp.census_*`` on ``serve``).  ``EXACT`` names the counts that repeat
exactly for a given seed and are compared exactly, not within bounds.

``physics.*`` comes from spans around ``World.step`` and the calls it
makes, so it is measured wherever a world steps on its own: every
engine window, the solo (non-fleet) sessions of ``serve``, every probe
and census run of ``paper``.  Fleet steps are one ``WorldBatch.step``
span (``physics.batch_step_ms``).
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from spans import Patcher, SpanRecorder, self_time

__all__ = ["EXACT", "PER_LAYER", "PHASES", "SCENES", "instrument_physics",
           "merge", "per_layer", "physics_accum", "physics_metrics",
           "resolve"]

#: PhysicsBench order (``repro.workloads.SCENARIO_NAMES``).
SCENES = ("breakable", "continuous", "deformable", "everything",
          "explosions", "highspeed", "periodic", "ragdoll")

#: World.step's phases: metric suffix -> (module or class, attribute)
#: as World.step looks them up.  Whatever World.step does outside these
#: calls is ``physics.step_other_ms``.
PHASES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "integrate": (("repro.physics.integrator", "apply_gravity"),
                  ("repro.physics.integrator", "integrate"),
                  ("repro.physics.body:BodyStore", "refresh_derived")),
    "broad": (("repro.physics.shapes:GeomStore", "world_aabbs"),
              ("repro.physics.broadphase", "candidate_pairs")),
    "narrow": (("repro.physics.narrowphase", "generate_contacts"),),
    "islands": (("repro.physics.world", "partition_islands"),),
    "lcp.build": (("repro.physics.lcp", "build_rows"),),
    "lcp.solve": (("repro.physics.lcp", "solve"),),
    "cloth": (("repro.physics.cloth:Cloth", "apply_gravity"),
              ("repro.physics.cloth:Cloth", "solve_constraints"),
              ("repro.physics.cloth:Cloth", "collide"),
              ("repro.physics.cloth:Cloth", "integrate")),
}

#: Calls whose result's length is a work count (pairs, contacts, rows).
_COUNTED = frozenset({"candidate_pairs", "generate_contacts", "build_rows"})

#: (name, unit) in print order.
PER_LAYER: List[Tuple[str, str]] = (
    [("physics.step_ms", "ms")]
    + [(f"physics.{phase}_ms", "ms") for phase in PHASES]
    + [("physics.step_other_ms", "ms"),
       ("physics.steps", "count"),
       ("physics.pairs_per_step", "count/step"),
       ("physics.contacts_per_step", "count/step"),
       ("physics.rows_per_step", "count/step"),
       ("physics.batch_step_ms", "ms")]
    + [(f"engine.{scene}.steps_per_s", "steps/s") for scene in SCENES]
    + [("fp.kernel_pairs_per_s", "pairs/s"),
       ("obs.tracer_overhead_pct", "%"),
       ("serve.codec_us", "us"),
       ("serve.digest_us", "us"),
       ("serve.queue_wait_ms.p50", "ms"),
       ("serve.queue_wait_ms.p99", "ms"),
       ("serve.execute_ms", "ms"),
       ("serve.batch_size", "requests"),
       ("serve.fleet_share", "ratio"),
       ("serve.batches", "count"),
       ("serve.snapshot_ms.p50", "ms"),
       ("serve.restore_ms.p50", "ms"),
       ("robustness.serialize_ms", "ms"),
       ("serve.journal_capture_ms", "ms"),
       ("tuning.controller_actions", "count"),
       ("tuning.probes", "count"),
       ("tuning.probe_ms", "ms"),
       ("workloads.build_ms", "ms"),
       ("perf.sweep_busy_frac", "ratio"),
       ("fp.census_ops", "count"),
       ("fp.census_ns_per_op", "ns"),
       ("fp.trivial_frac", "ratio"),
       ("memo.probe_ms", "ms"),
       ("memo.hit_rate", "ratio")]
    + [(f"census.{scene}.steps_per_s", "steps/s") for scene in SCENES]
    + [("design.evaluations", "count"),
       ("design.verifications", "count"),
       ("arch.evaluate_ms", "ms"),
       ("experiments.runcache_hits", "count"),
       ("experiments.table1_s", "s"),
       ("experiments.table4_s", "s"),
       ("design.search_s", "s"),
       ("bench.trace_overhead_pct", "%")])

#: Counts that repeat exactly for a given seed.
EXACT = frozenset({
    "physics.steps", "physics.pairs_per_step", "physics.contacts_per_step",
    "physics.rows_per_step", "serve.batches", "serve.fleet_share",
    "tuning.controller_actions", "tuning.probes", "fp.census_ops",
    "fp.trivial_frac", "memo.hit_rate", "design.evaluations",
    "design.verifications", "experiments.runcache_hits"})


def per_layer(values: Dict[str, float], samples: Dict[str, float]
              ) -> Dict[str, Tuple[float, str, int]]:
    """Every per-layer metric as (value, unit, samples); 0 (with 0
    samples) where this workload recorded nothing."""
    unknown = set(values) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit,
                   int(samples.get(name, 0)))
            for name, unit in PER_LAYER}


def merge(*accums: Dict[str, float]) -> Dict[str, float]:
    """Key-wise sum of raw accumulators (from several processes)."""
    total: Dict[str, float] = {}
    for accum in accums:
        for key, value in accum.items():
            total[key] = total.get(key, 0.0) + value
    return total


def resolve(target: str):
    """``"module"`` or ``"module:Class"`` -> the object to patch."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def instrument_physics(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Span ``World.step``, its phases, and ``WorldBatch.step``."""
    from repro.physics.batch import WorldBatch
    from repro.physics.world import World

    def count(span, result) -> None:
        span.count = len(result)

    patcher.wrap(recorder, World, "step", "world.step")
    patcher.wrap(recorder, WorldBatch, "step", "batch.step")
    for phase, targets in PHASES.items():
        for target, attr in targets:
            patcher.wrap(recorder, resolve(target), attr, phase,
                         count if attr in _COUNTED else None)


def physics_accum(recorder: SpanRecorder) -> Dict[str, float]:
    """Raw sums (seconds, counts) from the physics spans recorded."""
    kids = recorder.children()
    accum = {"physics.steps": 0.0, "physics.step_s": 0.0,
             "physics.other_s": 0.0, "physics.pairs": 0.0,
             "physics.contacts": 0.0, "physics.rows": 0.0}
    for phase in PHASES:
        accum[f"physics.{phase}_s"] = 0.0
    for step in recorder.named("world.step"):
        children = kids.get(id(step), [])
        accum["physics.steps"] += 1
        accum["physics.step_s"] += step.duration
        accum["physics.other_s"] += self_time(step, children)
        for child in children:
            accum[f"physics.{child.name}_s"] += child.duration
    for name, key in (("broad", "pairs"), ("narrow", "contacts"),
                      ("lcp.build", "rows")):
        accum[f"physics.{key}"] = float(sum(
            s.count for s in recorder.named(name, parent="world.step")
            if s.count is not None))
    batch = recorder.named("batch.step")
    accum["physics.batch_steps"] = float(len(batch))
    accum["physics.batch_step_s"] = sum(s.duration for s in batch)
    return accum


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def physics_metrics(accum: Dict[str, float]) -> Dict[str, float]:
    """Per-step figures from :func:`physics_accum` sums.

    The phases plus ``step_other_ms`` add up to ``step_ms``: each
    phase is the inclusive time of World.step's direct child spans and
    "other" is World.step's self time.
    """
    steps = accum.get("physics.steps", 0.0)
    parts = sum(accum.get(f"physics.{p}_s", 0.0) for p in PHASES)
    gap = abs(parts + accum.get("physics.other_s", 0.0)
              - accum.get("physics.step_s", 0.0))
    if gap > 1e-9 * max(1.0, steps):
        raise AssertionError(f"physics spans miss {gap:.3g}s of World.step")
    out = {"physics.step_ms": _per(accum.get("physics.step_s", 0.0),
                                   steps, 1e3),
           "physics.step_other_ms": _per(accum.get("physics.other_s", 0.0),
                                         steps, 1e3),
           "physics.steps": steps,
           "physics.batch_step_ms": _per(
               accum.get("physics.batch_step_s", 0.0),
               accum.get("physics.batch_steps", 0.0), 1e3)}
    for phase in PHASES:
        out[f"physics.{phase}_ms"] = _per(
            accum.get(f"physics.{phase}_s", 0.0), steps, 1e3)
    for key in ("pairs", "contacts", "rows"):
        out[f"physics.{key}_per_step"] = _per(
            accum.get(f"physics.{key}", 0.0), steps)
    return out
