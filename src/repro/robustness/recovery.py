"""Guarded execution: ``repro health``'s composition of the ladder.

:class:`GuardedSimulation` steps a world under phase guards and an
optional fault injector through the shared
:class:`~repro.robustness.ladder.RecoveryLadder`.  Rung 0 is the paper's
fail-safe (retry-full-precision); then come rollback-replay (rewind up to
N checkpointed steps and replay them at full precision, for corruption
that latched several steps ago), quarantine-island (sleep the offending
island for good and keep the rest of the world running) and abort (a
controlled shutdown with a post-mortem report).  After a rung-r recovery
the next ``backoff_steps × (r + 1)`` steps run at full precision with
injection suspended.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

import numpy as np

from ..physics.island import islands_of
from .checkpoint import capture_world, restore_world
from .guards import GuardConfig, PhaseGuards, Violation
from .incidents import HealthReport, IncidentLog
from .injector import FaultInjector
from .ladder import RecoveryLadder, RecoveryPolicy, describe_failure

__all__ = ["RecoveryPolicy", "SimulationAborted", "GuardedSimulation",
           "run_campaign", "campaign_summary"]


class SimulationAborted(RuntimeError):
    """Rung 3: the ladder ran out — controlled abort with a post-mortem."""

    def __init__(self, message: str, log: IncidentLog,
                 violations: Sequence[Violation]) -> None:
        super().__init__(message)
        self.log = log
        self.violations = list(violations)

    def post_mortem(self) -> str:
        lines = [f"Simulation aborted: {self}", "Unrecovered violations:"]
        lines += [f"  {v.describe()}" for v in self.violations]
        lines.append("Incident history:")
        lines += [f"  {line}" for line in self.log.lines()]
        return "\n".join(lines)


class GuardedSimulation:
    """Couples a world to guards, a fault injector, and the ladder.

    Parameters
    ----------
    world:
        The :class:`~repro.physics.World` to drive (its ``guards`` hook
        and its context's ``injector`` hook are installed here).
    guards:
        Phase-boundary invariants; a default :class:`PhaseGuards` is
        created when omitted.
    injector:
        Optional :class:`FaultInjector` for soft-error campaigns.
    controller:
        Optional :class:`~repro.tuning.PrecisionController`; fed the
        energy signal of every *accepted* step so dynamic precision
        adaptation keeps working under guarded execution.
    policy:
        Escalation-ladder tunables.
    observer:
        Optional :class:`~repro.obs.Tracer`; installed on the world,
        the controller, and the incident log so step telemetry,
        controller actions, and every recovery-ladder rung transition
        land on one timeline.
    """

    def __init__(
        self,
        world,
        guards: Optional[PhaseGuards] = None,
        injector: Optional[FaultInjector] = None,
        controller=None,
        policy: Optional[RecoveryPolicy] = None,
        observer=None,
    ) -> None:
        self.world = world
        self.guards = guards or PhaseGuards()
        self.injector = injector
        self.controller = controller
        self.policy = policy or RecoveryPolicy()
        self.log = IncidentLog()
        self.observer = observer

        if observer is not None:
            world.observer = observer
            self.log.observer = observer
            if controller is not None:
                controller.observer = observer

        self.detections = 0
        self.detections_by_guard: Counter = Counter()
        self.aborted = False
        self.ladder = RecoveryLadder(
            world, self.policy, guards=self.guards, injector=injector,
            controller=controller,
            rungs=(self._replay, self._quarantine, self._abort),
            on_event=self._event)

    @property
    def recoveries(self) -> int:
        return self.ladder.recoveries

    @property
    def step_attempts(self) -> int:
        return self.ladder.attempts

    # ------------------------------------------------------------------
    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.ladder.step()

    def step(self) -> None:
        """One guarded timestep: checkpoint, attempt, recover if needed."""
        self.ladder.step()

    def _event(self, step: int, rung: int, outcome: str, detail: str,
               violations: List[Violation]) -> None:
        if outcome != "detected":
            self.log.recovery(step, rung, outcome, detail)
            return
        labels = self.world.island_labels
        for v in violations:
            self.detections += 1
            self.detections_by_guard[v.guard] += 1
            self.log.detection(v.step, v.phase, v.describe(),
                               tuple(islands_of(labels, v.bodies)))

    # ------------------------------------------------------------------
    def _replay(self, violations: List[Violation]) -> List[Violation]:
        """Rung 1: rewind N checkpointed steps, replay at full precision."""
        world, ring = self.world, self.ladder.ring
        failed_step = self.ladder.failed_step
        target = ring.rollback_target(self.policy.rollback_depth)
        if target is None or target.step_count >= failed_step:
            return violations
        restore_world(world, target)
        ring.truncate_after(target.step_count)
        while world.step_count <= failed_step:
            ring.push(capture_world(world))
            replay = self.ladder.reexecute()
            if replay:
                self.log.recovery(failed_step, 1, "failed",
                                  describe_failure(replay))
                return replay
        self.log.recovery(failed_step, 1, "recovered",
                          f"replayed from step {target.step_count}")
        return []

    def _quarantine(self, violations: List[Violation]) -> List[Violation]:
        """Rung 2: quarantine the offending island(s), keep the rest."""
        world = self.world
        islands = tuple(islands_of(world.island_labels,
                                   (b for v in violations for b in v.bodies)))
        if not islands:
            return violations
        checkpoint = self.ladder.ring.latest()
        restore_world(world, checkpoint)
        members = world.quarantine_islands(islands)
        verify = self.ladder.reexecute()
        if verify:
            self.log.recovery(checkpoint.step_count, 2, "failed",
                              describe_failure(verify), islands)
            return verify
        self.log.recovery(checkpoint.step_count, 2, "recovered",
                          f"slept {len(members)} body(ies)", islands)
        return []

    def _abort(self, violations: List[Violation]) -> List[Violation]:
        """Rung 3: controlled abort with a post-mortem."""
        self.aborted = True
        incident = self.log.recovery(self.ladder.failed_step, 3, "aborted",
                                     describe_failure(violations))
        raise SimulationAborted(incident.detail, self.log, violations)

    # ------------------------------------------------------------------
    def health_report(self, scenario: str = "") -> HealthReport:
        world = self.world
        n = world.bodies.count
        finite = True
        if n:
            finite = bool(
                np.isfinite(world.bodies.pos[:n]).all()
                and np.isfinite(world.bodies.linvel[:n]).all())
        finite = finite and all(
            np.isfinite(c.pos).all() and np.isfinite(c.vel).all()
            for c in world.cloths)
        rungs = Counter(
            r.rung for r in self.log.records
            if r.kind == "recovery" and r.outcome == "recovered")
        return HealthReport(
            scenario=scenario,
            steps=world.step_count,
            bodies=n,
            faults_injected=(self.injector.injected
                             if self.injector else 0),
            detections=self.detections,
            recoveries=self.recoveries,
            recoveries_by_rung=rungs,
            detections_by_guard=Counter(self.detections_by_guard),
            quarantined_bodies=len(getattr(world, "quarantined", ())),
            aborted=self.aborted,
            final_state_finite=finite,
            log=self.log,
        )


def run_campaign(
    scenario: str,
    steps: int = 90,
    scale: float = 1.0,
    inject_rate: float = 1e-4,
    seed: int = 0,
    phase_precision: Optional[dict] = None,
    mode: str = "jam",
    guard_config: Optional[GuardConfig] = None,
    policy: Optional[RecoveryPolicy] = None,
    adaptive: bool = True,
    observer=None,
) -> GuardedSimulation:
    """Run one seeded fault-injection campaign and return the harness.

    Builds ``scenario`` (seeded, so the workload itself is reproducible),
    installs a :class:`FaultInjector` over the precision-tuned phases and
    a :class:`GuardedSimulation` around the world, then drives ``steps``
    timesteps.  A :class:`SimulationAborted` escape means even the full
    ladder could not stabilize the run; the exception carries the
    post-mortem.
    """
    from ..fp.context import FPContext
    from ..workloads import build

    precision = (dict(phase_precision) if phase_precision is not None
                 else {"narrow": 12, "lcp": 10})
    ctx = FPContext(dict(precision), mode=mode, census=False)
    world = build(scenario, ctx=ctx, scale=scale, seed=seed)
    controller = None
    if adaptive and precision:
        from ..tuning.controller import PrecisionController

        controller = PrecisionController(ctx, precision)
    injector = FaultInjector(rate=inject_rate, seed=seed)
    sim = GuardedSimulation(
        world,
        guards=PhaseGuards(guard_config),
        injector=injector,
        controller=controller,
        policy=policy,
        observer=observer,
    )
    sim.run(steps)
    return sim


def campaign_summary(
    scenario: str,
    steps: int = 90,
    scale: float = 1.0,
    inject_rate: float = 1e-4,
    seed: int = 0,
    phase_precision: Optional[dict] = None,
    mode: str = "jam",
) -> dict:
    """One seed's :func:`run_campaign` condensed to a picklable dict.

    The :class:`GuardedSimulation` itself holds a live world and numpy
    checkpoint ring, so multi-seed sweeps ship this summary across the
    process boundary instead.  An aborted campaign is reported as data
    (``aborted: True``) rather than an exception, so one doomed seed
    cannot sink the rest of the sweep.
    """
    try:
        sim = run_campaign(
            scenario, steps=steps, scale=scale, inject_rate=inject_rate,
            seed=seed, phase_precision=phase_precision, mode=mode)
    except SimulationAborted as aborted:
        return {
            "seed": seed,
            "aborted": True,
            "faults": -1,  # injector lost with the aborted world
            "detections": aborted.log.count("detection"),
            "recoveries": aborted.log.count("recovery",
                                            outcome="recovered"),
            "quarantined": 0,
            "final_finite": False,
            "post_mortem": str(aborted),
        }
    report = sim.health_report(scenario)
    return {
        "seed": seed,
        "aborted": False,
        "faults": report.faults_injected,
        "detections": report.detections,
        "recoveries": report.recoveries,
        "quarantined": report.quarantined_bodies,
        "final_finite": bool(report.final_state_finite),
        "post_mortem": "",
    }
