"""Dynamic precision adaptation (paper Section 4.2).

Hardware/software co-design, modelled end to end:

* At development time the programmer profiles the application and stores
  the minimum believable precision per phase in a *control register*
  (:attr:`PrecisionController.register`).
* At run time the application monitors its own simulation quality via the
  per-step energy difference.  On a violation of the threshold (10 %),
  the significand precision throttles **up to full** to prevent blow-up;
  once the simulation stabilizes, precision is reduced by one bit per
  simulation step until it reaches the register minimum.
* Fail-safe: if the simulation blows up without warning, the previous
  step is re-executed at full precision ("functional correctness is
  maintained by re-executing the previous simulation step at full
  precision").  :class:`ControlledSimulation` runs it as rung 0 of the
  shared :class:`~repro.robustness.ladder.RecoveryLadder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..fp.context import FPContext
from ..fp.rounding import FULL_PRECISION
from ..robustness.ladder import RecoveryLadder, RecoveryPolicy

__all__ = ["PrecisionController", "ControlledSimulation"]


@dataclass
class _StepLog:
    step: int
    precisions: Dict[str, int]
    violation: bool
    reexecuted: bool


class PrecisionController:
    """Adapts per-phase FP precision from the energy-difference signal."""

    def __init__(
        self,
        ctx: FPContext,
        register: Mapping[str, int],
        threshold: float = 0.10,
        blowup_threshold: float = 1.0,
    ) -> None:
        """
        Parameters
        ----------
        ctx:
            The context whose phase precisions this controller drives.
        register:
            The control register: minimum mantissa bits per phase, chosen
            by static profiling (e.g. Table 1 values).
        threshold:
            Relative per-step energy difference that triggers throttling
            to full precision (the paper uses 10 %).
        blowup_threshold:
            Relative difference treated as an outright blow-up, invoking
            the re-execution fail-safe.
        """
        self.ctx = ctx
        self.register = dict(register)
        self.threshold = threshold
        self.blowup_threshold = blowup_threshold
        self.history: List[_StepLog] = []
        self.violations = 0
        self.reexecutions = 0
        #: optional :class:`~repro.obs.Tracer`; every :meth:`observe`
        #: call streams the throttle/decay/hold/recover action it took.
        self.observer = None
        # Start at the steady-state setting: the register minimum.
        for phase, bits in self.register.items():
            ctx.set_precision(phase, bits)

    # ------------------------------------------------------------------
    def observe(self, relative_difference: Optional[float],
                step: int, reexecuted: bool = False) -> None:
        """Feed one post-step energy observation and retune precision.

        ``None`` means "no signal yet" (the monitor needs two samples
        before a delta exists) and is treated as stable: precision keeps
        decaying toward the register floor rather than throttling.
        """
        violation = (
            relative_difference is not None
            and relative_difference > self.threshold
        )
        action = "hold"
        if violation:
            self.violations += 1
            action = "throttle"
            for phase in self.register:
                self.ctx.set_precision(phase, FULL_PRECISION)
        else:
            # Stable: step precision back down, one bit per step,
            # toward the register minimum.
            for phase, minimum in self.register.items():
                current = self.ctx.precision_for(phase)
                if current > minimum:
                    self.ctx.set_precision(phase, current - 1)
                    action = "decay"
                elif current < minimum:
                    # An external write (a caller's set_precision, or a
                    # served restore carrying ``precisions``) left this
                    # phase below its profiled floor; recover to the
                    # minimum instead of holding there forever.
                    self.ctx.set_precision(phase, minimum)
                    action = "recover"
        self.history.append(
            _StepLog(step, dict(self.ctx.phase_precision), violation,
                     reexecuted))
        if self.observer is not None:
            self.observer.controller_event(
                step=step, action=action, violation=violation,
                reexecuted=reexecuted,
                precisions=dict(self.ctx.phase_precision))

    def current_precision(self, phase: str) -> int:
        return self.ctx.precision_for(phase)


class ControlledSimulation:
    """Couples a world to a controller, with the re-execution fail-safe.

    A blow-up (non-finite bodies, or an energy difference above
    ``blowup_threshold``) re-executes the step once at full precision;
    the retried step stands even if it blows up again.
    """

    def __init__(self, world, controller: PrecisionController) -> None:
        self.world = world
        self.controller = controller
        # No cooldown: the controller's throttle-and-decay is the paper's.
        self.ladder = RecoveryLadder(
            world,
            RecoveryPolicy(max_retries=1, rollback_depth=0,
                           backoff_steps=0),
            controller=controller, trigger=self._blew_up)

    def _blew_up(self, primary: bool, elapsed: float) -> List[str]:
        """Trigger: non-finite bodies, or an energy jump past the
        controller's ``blowup_threshold``."""
        bodies, n = self.world.bodies, self.world.bodies.count
        finite = not n or (np.isfinite(bodies.pos[:n]).all()
                           and np.isfinite(bodies.linvel[:n]).all())
        diff = self.world.monitor.relative_step_difference()
        jumped = diff is not None and diff > self.controller.blowup_threshold
        return [] if finite and not jumped else [
            f"blow-up (relative energy difference {diff})"]

    def step(self) -> None:
        """One timestep with quality monitoring and the fail-safe."""
        self.ladder.step()

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.ladder.step()
