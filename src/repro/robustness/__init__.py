"""Fault injection and guarded recovery for the precision-reduced pipeline.

The paper keeps one fail-safe — re-execute the previous step at full
precision.  This package grows that into a resilience layer:

- :mod:`~repro.robustness.checkpoint` — the shared world snapshot/restore
  utility (single source of truth for rollback state);
- :mod:`~repro.robustness.injector` — deterministic, seedable soft-error
  injection targeting the reduced mantissa datapath;
- :mod:`~repro.robustness.guards` — phase-boundary invariant checks with
  structured violation records;
- :mod:`~repro.robustness.ladder` — the one recovery ladder (checkpoint,
  attempt, full-precision retry, escalation, cooldown, controller feed)
  that the precision controller, ``repro health`` and guarded served
  sessions all compose;
- :mod:`~repro.robustness.recovery` — ``repro health``'s composition
  (retry → rollback → quarantine → abort) and campaign harness;
- :mod:`~repro.robustness.incidents` — deterministic incident log and the
  ``python -m repro health`` report.
"""

from .checkpoint import (
    CheckpointRing,
    WorldCheckpoint,
    capture_world,
    deserialize_checkpoint,
    restore_world,
    serialize_checkpoint,
)
from .guards import GuardConfig, PhaseGuards, Violation
from .incidents import HealthReport, Incident, IncidentLog
from .injector import FaultEvent, FaultInjector
from .ladder import RecoveryLadder, RecoveryPolicy
from .recovery import GuardedSimulation, SimulationAborted, run_campaign

__all__ = [
    "CheckpointRing",
    "WorldCheckpoint",
    "capture_world",
    "restore_world",
    "serialize_checkpoint",
    "deserialize_checkpoint",
    "GuardConfig",
    "PhaseGuards",
    "Violation",
    "HealthReport",
    "Incident",
    "IncidentLog",
    "FaultEvent",
    "FaultInjector",
    "GuardedSimulation",
    "RecoveryLadder",
    "RecoveryPolicy",
    "SimulationAborted",
    "run_campaign",
]
