"""Trace event schema (version 6) and its validator.

Every JSONL line is one event; ``kind`` discriminates.  The step record
carries the four signal families the paper's argument is built on:

* per-phase **precision** bits (the control-register state that actually
  executed — Section 4.2);
* the per-step **energy delta** against the 10 % believability
  threshold (Section 4.1);
* the trivialization/memoization **census totals** (Table 4);
* wall-clock **timing** per phase.

Controller and detection/recovery events share the stream so a single
timeline answers "what did the controller do when the energy spiked at
step 41, and what did recovery cost?".  Version 1's ``sweep_job`` and
``sweep`` kinds still validate, so older streams that carry them stay
valid, but nothing writes them any more.

Version 2 adds the serving layer's ``serve.*`` kinds (per-request
outcome, per-batch dispatch, session eviction) so a service trace and a
simulation trace interleave in one file.  Version 3 adds the
resilience kinds: ``serve.recover`` (one event per recovery-ladder
transition — rung, outcome, rollback step, wall cost) and
``serve.drain`` (one event per graceful shutdown).  Version 4 adds the
sharded-topology kinds emitted by the gateway (``repro.serve.shard``):
``serve.route`` (a session pinned to a shard — at create, crash
recovery, or after a migration repoints it) and ``serve.migrate`` (one
event per live migration attempt with source/target shard, the step the
snapshot moved at, digest verdict and wall cost).  Version 5 adds the
``recover`` controller action (the stable-path upward clamp back to the
register floor — a served ``restore`` carrying ``precisions`` or a
caller's ``set_precision`` can leave a phase below its floor, and the
controller repairs it instead of holding there).  Version 6 adds the design-space-optimizer kind:
``serve.design`` (one event per served design query — canonical query
key, whether the server-side cache answered it, front size, outcome and
wall cost) plus the ``design`` serve op.  Older streams stay valid:
``meta.schema`` may carry any version in
:data:`SUPPORTED_SCHEMA_VERSIONS`, and earlier kinds are unchanged.

The validator is deliberately structural (required keys + coarse
types), not exhaustive: the trace must stay writable from hot paths and
checkable in CI without a JSON-schema dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["SCHEMA_VERSION", "SUPPORTED_SCHEMA_VERSIONS", "EVENT_KINDS",
           "KINDS_SINCE", "SERVE_OPS", "validate_event", "validate_events"]

SCHEMA_VERSION = 6

#: Versions the validator accepts in ``meta.schema`` — a v1 trace (no
#: ``serve.*`` events), v2 trace (no resilience events), v3 trace (no
#: shard events), v4 trace (no ``recover`` controller actions) or v5
#: trace (no ``serve.design`` events) must keep validating after the
#: v6 bump.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6)

_NUM = (int, float)

#: kind -> {field: required python type(s)}
EVENT_KINDS: Dict[str, Dict[str, tuple]] = {
    "meta": {
        "schema": (int,),
        "scenario": (str,),
        "steps": (int,),
        "precision": (dict,),
        "mode": (str,),
        "census": (bool,),
    },
    "step": {
        "step": (int,),
        "wall": _NUM,
        "phases": (dict,),     # name -> {"seconds": float, "bits": int}
        "energy": (dict,),     # {"total", "delta_rel", "violation"}
        "census": (dict,),     # {"total", "trivial", "memo_hits",
                               #  "lut_hits", "nontrivial"}
        "contacts": (int,),
        "islands": (int,),
    },
    "controller": {
        "step": (int,),
        "action": (str,),      # "throttle" | "decay" | "hold" | "recover"
        "violation": (bool,),
        "reexecuted": (bool,),
        "precisions": (dict,),
    },
    "detection": {
        "step": (int,),
        "phase": (str,),
        "detail": (str,),
    },
    "recovery": {
        "step": (int,),
        "rung": (int,),
        "action": (str,),
        "outcome": (str,),
        "detail": (str,),
        "islands": (list,),
    },
    # v1 sweep records: no longer written, kept so old streams validate
    "sweep_job": {
        "key": (list,),
        "wall": _NUM,
        "ops": (int,),
        "ok": (bool,),
    },
    "sweep": {
        "jobs": (int,),
        "workers": (int,),
        "elapsed": _NUM,
        "busy": _NUM,
        "ops": (int,),
    },
    # --- schema v2: serving-layer events (repro.serve) ---
    "serve.request": {
        "op": (str,),
        "session": (str, type(None)),   # None before a session exists
        "ok": (bool,),
        "wall": _NUM,
    },
    "serve.batch": {
        "batch": (int,),
        "sessions": (int,),
        "steps": (int,),
        "wall": _NUM,
    },
    "serve.evict": {
        "session": (str,),
        "reason": (str,),
        "step": (int,),
    },
    # --- schema v3: resilience events (repro.serve.resilience) ---
    "serve.recover": {
        "session": (str,),
        "rung": (int,),        # 0 retry-full-precision, 1 rollback,
                               # 2 quarantine
        "outcome": (str,),     # "recovered" | "degraded" | "respawned"
                               # | "lost"
        "reason": (str,),
        "wall": _NUM,
        "step": (int,),        # the step the session resumed at
    },
    "serve.drain": {
        "sessions": (int,),
        "journaled": (int,),
        "completed": (bool,),  # False = grace period expired
        "wall": _NUM,
    },
    # --- schema v4: sharded-topology events (repro.serve.shard) ---
    "serve.route": {
        "session": (str,),
        "shard": (int,),
        "reason": (str,),      # "create" | "recover" | "migrate"
    },
    "serve.migrate": {
        "session": (str,),
        "source": (int,),
        "target": (int,),
        "step": (int,),        # step count the snapshot moved at
        "ok": (bool,),         # digest-verified and repointed
        "wall": _NUM,
    },
    # --- schema v6: design-space-optimizer events (repro.design) ---
    "serve.design": {
        "query": (str,),       # canonical query cache key
        "cached": (bool,),     # answered from the server-side cache
        "ok": (bool,),
        "front": (int,),       # front size (0 on failure)
        "wall": _NUM,
    },
}

#: Schema version -> the event kinds it introduced (version 5 added a
#: controller action, not a kind).
KINDS_SINCE: Dict[int, Tuple[str, ...]] = {
    1: ("meta", "step", "controller", "detection", "recovery",
        "sweep_job", "sweep"),
    2: ("serve.request", "serve.batch", "serve.evict"),
    3: ("serve.recover", "serve.drain"),
    4: ("serve.route", "serve.migrate"),
    6: ("serve.design",),
}

_RECOVER_OUTCOMES = ("recovered", "degraded", "respawned", "lost")

_ROUTE_REASONS = ("create", "recover", "migrate")

_CENSUS_FIELDS = ("total", "trivial", "memo_hits", "lut_hits",
                  "nontrivial")
_ENERGY_FIELDS = ("total", "delta_rel", "violation")
# "recover" is new in schema v5: the controller's stable-path clamp
# back up to the register floor.
_CONTROLLER_ACTIONS = ("throttle", "decay", "hold", "recover")

#: Wire-protocol operations (``repro.serve.protocol`` builds on this —
#: defined here so the validator needs no import from the serve layer).
SERVE_OPS = ("ping", "create", "step", "snapshot", "restore", "close",
             "stats",
             # schema v4: gateway admin ops (repro.serve.shard)
             "migrate", "drain_shard", "rebalance", "topology",
             # schema v6: design-space-optimizer queries (repro.design)
             "design")


def validate_event(event: dict) -> List[str]:
    """Return a list of schema problems (empty = valid)."""
    errors: List[str] = []
    kind = event.get("kind")
    spec = EVENT_KINDS.get(kind)
    if spec is None:
        return [f"unknown kind: {kind!r}"]
    for field, types in spec.items():
        if field not in event:
            errors.append(f"{kind}: missing field {field!r}")
        elif not isinstance(event[field], types):
            errors.append(
                f"{kind}.{field}: expected {'/'.join(t.__name__ for t in types)},"
                f" got {type(event[field]).__name__}")
    if errors:
        return errors

    if kind == "step":
        census = event["census"]
        for field in _CENSUS_FIELDS:
            if not isinstance(census.get(field), int):
                errors.append(f"step.census.{field}: missing or non-int")
        energy = event["energy"]
        for field in _ENERGY_FIELDS:
            if field not in energy:
                errors.append(f"step.energy.{field}: missing")
        if not isinstance(energy.get("violation"), bool):
            errors.append("step.energy.violation: must be bool")
        for name, phase in event["phases"].items():
            if not isinstance(phase, dict) or \
                    not isinstance(phase.get("seconds"), _NUM) or \
                    not isinstance(phase.get("bits"), int):
                errors.append(f"step.phases[{name}]: needs seconds+bits")
    elif kind == "controller":
        if event["action"] not in _CONTROLLER_ACTIONS:
            errors.append(f"controller.action: {event['action']!r} not in "
                          f"{_CONTROLLER_ACTIONS}")
    elif kind == "meta" and \
            event["schema"] not in SUPPORTED_SCHEMA_VERSIONS:
        errors.append(f"meta.schema: {event['schema']} not in "
                      f"{SUPPORTED_SCHEMA_VERSIONS}")
    elif kind == "serve.request" and event["op"] not in SERVE_OPS:
        errors.append(f"serve.request.op: {event['op']!r} not in "
                      f"{SERVE_OPS}")
    elif kind == "serve.recover" and \
            event["outcome"] not in _RECOVER_OUTCOMES:
        errors.append(f"serve.recover.outcome: {event['outcome']!r} "
                      f"not in {_RECOVER_OUTCOMES}")
    elif kind == "serve.route" and event["reason"] not in _ROUTE_REASONS:
        errors.append(f"serve.route.reason: {event['reason']!r} not in "
                      f"{_ROUTE_REASONS}")
    return errors


def validate_events(events: Sequence[dict]) -> Tuple[int, List[str]]:
    """Validate a whole stream; returns ``(invalid_count, first_errors)``.

    ``first_errors`` keeps at most ten messages so a corrupt trace does
    not flood CI logs.
    """
    invalid = 0
    messages: List[str] = []
    for i, event in enumerate(events):
        errors = validate_event(event)
        if errors:
            invalid += 1
            for err in errors:
                if len(messages) < 10:
                    messages.append(f"event {i}: {err}")
    return invalid, messages
