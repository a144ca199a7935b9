"""The `Tracer`: one object observing every instrumented subsystem.

A tracer couples a :class:`~repro.obs.metrics.MetricsRegistry` (live
aggregates) with an optional event sink (JSONL stream).  Subsystems hold
an ``observer`` attribute that defaults to ``None``; the instrumentation
hooks cost a single ``is not None`` check when disabled, which keeps the
census-free fast path untouched — the bench harness asserts the enabled
cost stays under 10 % of step throughput.

Hook surface:

* ``World.step()`` calls ``begin_step`` / ``phase_done`` / ``end_step``;
* ``PrecisionController.observe()`` calls ``controller_event``;
* ``IncidentLog.record()`` calls ``incident``;
* the serve layer calls the ``serve_*`` hooks.  Its front ends always
  hold a tracer (a metrics-only one when nobody traces them), so these
  hooks are its only accounting path.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from ..memo import LOOKUP_PRECISION_LIMIT
from .metrics import MetricsRegistry
from .schema import SCHEMA_VERSION

__all__ = ["Tracer"]

#: Relative per-step energy difference above which a step event is
#: tagged ``violation`` (the paper's 10 % believability threshold).
VIOLATION_THRESHOLD = 0.10

#: Ops the LUT (and the memo tables) serve; div/sqrt never use either.
_LUT_OPS = ("add", "sub", "mul")


class Tracer:
    """Streams step/controller/recovery/serve events, keeps metrics.

    ``sink`` is the event target with ``write(dict)`` / ``close()`` — a
    :class:`~repro.obs.trace.JsonlWriter`, a
    :class:`~repro.obs.trace.NullSink`, or ``None`` for metrics-only
    operation.  Metrics land in the tracer's own fresh
    :class:`MetricsRegistry`, :attr:`registry`.
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self.registry = MetricsRegistry()
        self._step_start: Optional[float] = None
        self._phase_seconds: Dict[str, float] = {}
        self._census_prev: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
        # Metric handles are resolved once, not per step: registry
        # lookups (label-key formatting) would otherwise dominate the
        # per-step tracer cost on sub-millisecond scenarios.
        reg = self.registry
        self._m_steps = reg.counter("steps")
        self._m_step_hist = reg.histogram("step.seconds")
        self._m_violations = reg.counter("energy.violations")
        self._m_census = {
            field: reg.counter(f"census.{field}")
            for field in ("total", "trivial", "memo_hits", "lut_hits",
                          "nontrivial")
        }
        self._m_phase: Dict[str, tuple] = {}  # name -> (hist, gauge)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def emit(self, event: dict) -> None:
        if self.sink is not None:
            self.sink.write(event)

    def meta(self, **fields) -> None:
        """Emit the stream header describing the traced run."""
        event = {"kind": "meta", "schema": SCHEMA_VERSION}
        event.update(fields)
        self.emit(event)

    def attach(self, world=None, controller=None, log=None) -> "Tracer":
        """Install this tracer as the observer of the given components."""
        if world is not None:
            world.observer = self
        if controller is not None:
            controller.observer = self
        if log is not None:
            log.observer = self
        return self

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # World hooks
    # ------------------------------------------------------------------
    def begin_step(self, world) -> None:
        self._phase_seconds.clear()
        self._step_start = time.perf_counter()

    def phase_done(self, name: str, seconds: float) -> None:
        self._phase_seconds[name] = \
            self._phase_seconds.get(name, 0.0) + seconds

    def _census_delta(self, ctx) -> Dict[str, int]:
        total = trivial = memo_hits = lut_hits = 0
        prev = self._census_prev
        for key, counter in ctx.stats.items():
            now = (counter.total, counter.extended_trivial,
                   counter.memo_hits)
            before = prev.get(key, (0, 0, 0))
            d_total = now[0] - before[0]
            d_trivial = now[1] - before[1]
            total += d_total
            trivial += d_trivial
            memo_hits += now[2] - before[2]
            phase, op = key
            if (op in _LUT_OPS
                    and ctx.precision_for(phase) < LOOKUP_PRECISION_LIMIT):
                # Below the LUT coverage width every non-trivial add/mul
                # is table-satisfied ("100% of operations sent to the
                # look-up table will be satisfied").
                lut_hits += d_total - d_trivial
            prev[key] = now
        return {
            "total": total,
            "trivial": trivial,
            "memo_hits": memo_hits,
            "lut_hits": lut_hits,
            "nontrivial": total - trivial,
        }

    def end_step(self, world, record) -> None:
        wall = (time.perf_counter() - self._step_start
                if self._step_start is not None else 0.0)
        self._step_start = None
        ctx = world.ctx
        delta_rel = world.monitor.relative_step_difference()
        violation = (delta_rel is not None
                     and delta_rel > VIOLATION_THRESHOLD)
        phases = {
            name: {"seconds": round(seconds, 6),
                   "bits": ctx.precision_for(name)}
            for name, seconds in self._phase_seconds.items()
        }
        census = self._census_delta(ctx)
        event = {
            "kind": "step",
            "step": world.step_count - 1,
            "wall": round(wall, 6),
            "phases": phases,
            "energy": {
                "total": round(float(record.total), 6),
                "delta_rel": (round(float(delta_rel), 8)
                              if delta_rel is not None else None),
                "violation": violation,
            },
            "census": census,
            "contacts": int(world.last_contact_count),
            "islands": int(world.island_count),
        }
        self.emit(event)

        self._m_steps.inc()
        self._m_step_hist.observe(wall)
        for name, phase in phases.items():
            handles = self._m_phase.get(name)
            if handles is None:
                handles = self._m_phase[name] = (
                    self.registry.histogram("phase.seconds", phase=name),
                    self.registry.gauge("phase.bits", phase=name))
            handles[0].observe(phase["seconds"])
            handles[1].set(phase["bits"])
        for field, counter in self._m_census.items():
            counter.inc(census[field])
        if violation:
            self._m_violations.inc()

    # ------------------------------------------------------------------
    # Controller hook
    # ------------------------------------------------------------------
    def controller_event(self, step: int, action: str, violation: bool,
                         reexecuted: bool,
                         precisions: Dict[str, int]) -> None:
        self.emit({
            "kind": "controller",
            "step": step,
            "action": action,
            "violation": violation,
            "reexecuted": reexecuted,
            "precisions": dict(precisions),
        })
        self.registry.counter("controller.actions", action=action).inc()
        if reexecuted:
            self.registry.counter("controller.reexecutions").inc()

    # ------------------------------------------------------------------
    # Incident hook (detections + recovery-ladder transitions)
    # ------------------------------------------------------------------
    def incident(self, incident) -> None:
        if incident.kind == "detection":
            self.emit({
                "kind": "detection",
                "step": incident.step,
                "phase": incident.phase,
                "detail": incident.detail,
            })
            self.registry.counter("recovery.detections").inc()
        else:  # "recovery" | "abort"
            self.emit({
                "kind": "recovery",
                "step": incident.step,
                "rung": incident.rung,
                "action": incident.action,
                "outcome": incident.outcome,
                "detail": incident.detail,
                "islands": list(incident.islands),
            })
            self.registry.counter("recovery.actions",
                                  outcome=incident.outcome).inc()

    # ------------------------------------------------------------------
    # Serving-layer hooks (repro.serve)
    # ------------------------------------------------------------------
    def serve_request(self, op: str, session: Optional[str], ok: bool,
                      wall: float, error: Optional[str] = None) -> None:
        """One wire-protocol request outcome (schema v2)."""
        event = {
            "kind": "serve.request",
            "op": op,
            "session": session,
            "ok": ok,
            "wall": round(wall, 6),
        }
        if error:
            event["error"] = error
        self.emit(event)
        self.registry.counter("serve.requests", op=op).inc()
        if not ok:
            self.registry.counter("serve.rejections").inc()

    def serve_batch(self, batch: int, sessions: int, steps: int,
                    wall: float) -> None:
        """One fixed-tick batch dispatched by the scheduler."""
        self.emit({
            "kind": "serve.batch",
            "batch": batch,
            "sessions": sessions,
            "steps": steps,
            "wall": round(wall, 6),
        })
        self.registry.counter("serve.batches").inc()
        self.registry.counter("serve.steps").inc(steps)
        self.registry.histogram("serve.batch.seconds").observe(wall)

    def serve_evict(self, session: str, reason: str, step: int) -> None:
        """A session removed by admission control (not a clean close)."""
        self.emit({
            "kind": "serve.evict",
            "session": session,
            "reason": reason,
            "step": step,
        })
        self.registry.counter("serve.evictions", reason=reason).inc()

    def serve_recover(self, session: str, rung: int, outcome: str,
                      reason: str, wall: float, step: int) -> None:
        """One recovery-ladder transition for a served session
        (schema v3): rung 0 = full-precision re-execution, rung 1 =
        rollback/respawn from the journal, rung 2 = quarantine."""
        self.emit({
            "kind": "serve.recover",
            "session": session,
            "rung": rung,
            "outcome": outcome,
            "reason": reason,
            "wall": round(wall, 6),
            "step": step,
        })
        self.registry.counter("serve.recoveries", outcome=outcome).inc()
        self.registry.histogram("serve.recovery.seconds").observe(wall)

    def serve_drain(self, sessions: int, journaled: int,
                    completed: bool, wall: float) -> None:
        """One graceful shutdown (schema v3)."""
        self.emit({
            "kind": "serve.drain",
            "sessions": sessions,
            "journaled": journaled,
            "completed": completed,
            "wall": round(wall, 6),
        })
        self.registry.counter("serve.drains").inc()

    def serve_route(self, session: str, shard: int, reason: str) -> None:
        """A session pinned to a shard by the gateway (schema v4):
        at create, after crash recovery, or when a migration repoints
        its routing entry."""
        self.emit({
            "kind": "serve.route",
            "session": session,
            "shard": shard,
            "reason": reason,
        })
        self.registry.counter("serve.routes", reason=reason).inc()

    def serve_migrate(self, session: str, source: int, target: int,
                      step: int, ok: bool, wall: float) -> None:
        """One live-migration attempt between shards (schema v4)."""
        self.emit({
            "kind": "serve.migrate",
            "session": session,
            "source": source,
            "target": target,
            "step": step,
            "ok": ok,
            "wall": round(wall, 6),
        })
        self.registry.counter(
            "serve.migrations", outcome="ok" if ok else "failed").inc()
        self.registry.histogram("serve.migration.seconds").observe(wall)

    def serve_design(self, query: str, cached: bool, ok: bool,
                     front: int, wall: float) -> None:
        """One served design-space query (schema v6): the canonical
        query key, whether the server-side cache answered it, the front
        size and the wall cost (near zero on a cache hit)."""
        self.emit({
            "kind": "serve.design",
            "query": query,
            "cached": cached,
            "ok": ok,
            "front": front,
            "wall": round(wall, 6),
        })
        self.registry.counter(
            "serve.designs",
            source="cache" if cached else "search").inc()
        if not cached:
            self.registry.histogram("serve.design.seconds").observe(wall)
