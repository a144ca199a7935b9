"""The one recovery ladder: the paper's Section 4.2 fail-safe, escalated.

:class:`~repro.tuning.ControlledSimulation`, ``repro health``'s
:class:`~repro.robustness.GuardedSimulation` and guarded served sessions
each compose :class:`RecoveryLadder` from a trigger, the rungs after
rung 0, and where events go.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..fp.rounding import FULL_PRECISION
from .checkpoint import CheckpointRing, capture_world, restore_world

__all__ = ["RecoveryPolicy", "RecoveryLadder", "describe_failure"]


@dataclass
class RecoveryPolicy:
    """Escalation-ladder tunables."""

    #: rung-0 re-execution attempts before escalating
    max_retries: int = 2
    #: how many checkpointed steps ring replay rewinds (0 disables it)
    rollback_depth: int = 3
    #: full-precision cool-down steps after a rung-r recovery: r+1 times this
    backoff_steps: int = 5


def describe_failure(failure: Sequence) -> str:
    """One line for a failure: its first violation or message, + count."""
    head = failure[0] if isinstance(failure[0], str) else \
        failure[0].describe()
    extra = len(failure) - 1
    return head if not extra else f"{head} (+{extra} more)"


class RecoveryLadder:
    """Checkpoint, attempt, re-execute at full precision, escalate.

    ``guards`` and ``injector`` are installed on the world.  A failure
    is a non-empty list: the guards' violations (with guards, a raised
    exception is one; without, it propagates), else
    ``trigger(primary, elapsed)``.  Rung 0 rewinds and re-executes the
    step at full precision with injection off, up to
    ``policy.max_retries`` times; then each of ``rungs`` takes the
    failure and returns ``[]`` (recovered), a failure to pass on, or
    raises.  If every rung passes it on, the retried step stands.  After
    a rung-r recovery exactly the next ``policy.backoff_steps × (r + 1)``
    steps run at full precision with injection off.  ``controller`` is
    fed once per accepted step; ``on_event(step, rung, outcome, detail,
    failure)`` hears the detection (rung -1) and rung 0's outcomes.
    """

    def __init__(self, world, policy: RecoveryPolicy, guards=None,
                 injector=None, controller=None,
                 trigger: Optional[Callable] = None,
                 rungs: Sequence[Callable] = (),
                 on_event: Optional[Callable] = None) -> None:
        self.world = world
        self.policy = policy
        self.guards = guards
        self.injector = injector
        if guards is not None:
            world.guards = guards
        if injector is not None:
            world.ctx.injector = injector
        self.controller = controller
        self.trigger = trigger
        self.rungs = tuple(rungs)
        self.on_event = on_event or (lambda *event: None)
        self.ring = CheckpointRing(policy.rollback_depth + 1)
        #: every attempt, re-executions and replays included
        self.attempts = 0
        self.recoveries = 0
        #: step count of the step being recovered
        self.failed_step: Optional[int] = None
        self._cooldown = 0

    def step(self) -> None:
        """One timestep: checkpoint, attempt, recover if needed."""
        world = self.world
        self.ring.push(capture_world(world))
        if self.injector is not None:
            self.injector.step = world.step_count
        full = self._cooldown > 0
        if full:
            self._cooldown -= 1
        failure = self._attempt(full, primary=True)
        if failure:
            self.failed_step = self.ring.latest().step_count
            self.on_event(self.failed_step, -1, "detected", "", failure)
            self._recover(failure)
        self._observe(reexecuted=bool(failure))

    def reexecute(self) -> list:
        """Attempt the step at full precision with injection off."""
        return self._attempt(True, primary=False)

    def recovered(self, rung: int) -> None:
        """Count a rung-``rung`` recovery and start its cooldown."""
        self.recoveries += 1
        self._cooldown = max(self._cooldown,
                             self.policy.backoff_steps * (rung + 1))

    # ------------------------------------------------------------------
    def _attempt(self, full: bool, primary: bool) -> list:
        world, ctx = self.world, self.world.ctx
        self.attempts += 1
        if self.injector is not None:
            self.injector.enabled = not full
        saved = dict(ctx.phase_precision) if full else {}
        for phase in saved:
            ctx.set_precision(phase, FULL_PRECISION)
        start = time.perf_counter()
        try:
            # Injected NaN/Inf propagating through numpy is expected; the
            # guards or the trigger catch it, so keep the attempt quiet.
            with np.errstate(invalid="ignore", over="ignore",
                             divide="ignore"):
                world.step()
        except Exception as exc:  # noqa: BLE001 — a crash is a fault symptom
            if self.guards is None:
                raise
            self.guards._report(world.step_count, "step", "exception",
                                f"{type(exc).__name__}: {exc}")
        finally:
            # Through set_precision, so the range validation applies.
            for phase, bits in saved.items():
                ctx.set_precision(phase, bits)
            if self.injector is not None:
                self.injector.enabled = True
        elapsed = time.perf_counter() - start
        failure = self.guards.drain() if self.guards is not None else []
        if not failure and self.trigger is not None:
            failure = self.trigger(primary, elapsed)
        return failure

    def _recover(self, failure: list) -> None:
        # Rung 0: the paper's fail-safe — re-execute at full precision.
        for attempt in range(1, self.policy.max_retries + 1):
            restore_world(self.world, self.ring.latest())
            retry = self.reexecute()
            if not retry:
                self.on_event(self.failed_step, 0, "recovered",
                           f"attempt {attempt}", failure)
                self.recovered(0)
                return
            self.on_event(self.failed_step, 0, "failed",
                       describe_failure(retry), retry)
            failure = retry
        for rung, climb in enumerate(self.rungs, start=1):
            failure = climb(failure)
            if not failure:
                self.recovered(rung)
                return

    def _observe(self, reexecuted: bool) -> None:
        if self.controller is None:
            return
        diff = self.world.monitor.relative_step_difference()
        self.controller.observe(diff, self.world.step_count - 1, reexecuted)
        if reexecuted:
            self.controller.reexecutions += 1
