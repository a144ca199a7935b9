"""Semi-implicit Euler integration of rigid-body state.

Integration runs in the ``integrate`` phase, which the paper leaves at
full precision (only the massively parallel Narrow-phase and LCP phases
are precision-tuned), but it still flows through the context so op-mix
accounting stays complete.
"""

from __future__ import annotations

import numpy as np

from ..fp.context import FPContext
from . import math3d
from .body import BodyStore

__all__ = ["apply_gravity", "integrate"]


def apply_gravity(
    ctx: FPContext, bodies: BodyStore, gravity: np.ndarray, dt: float
) -> None:
    """Accumulate gravity into linear velocities (dynamic, awake bodies).

    ``gravity`` is one vector for every body, or one row per body (a
    stack of worlds whose gravities differ).
    """
    n = bodies.count
    if n == 0:
        return
    active = (bodies.invmass[:n] > 0) & ~bodies.asleep[:n]
    dv = np.where(
        active[:, None],
        np.asarray(gravity, dtype=np.float32) * np.float32(dt),
        np.float32(0.0),
    )
    kern = ctx.kernel()
    bodies.linvel[:n] = kern.binop(np.add, kern.enter(bodies.linvel[:n]),
                                   kern.enter(dv))


def integrate(ctx: FPContext, bodies: BodyStore, dt: float) -> None:
    """Advance positions and orientations by the (post-solve) velocities.

    This is the last FP work of a step, so it ends by flushing the
    context's queued memo probes: the step's census is complete when
    the step returns, and the probing is part of the step.
    """
    n = bodies.count
    if n:
        kern = ctx.kernel()
        awake = ~bodies.asleep[:n]
        step = math3d.scale(ctx, bodies.linvel[:n], np.float32(dt))
        new_pos = kern.binop(np.add, kern.enter(bodies.pos[:n]), step)
        bodies.pos[:n] = np.where(awake[:, None], new_pos, bodies.pos[:n])
        new_quat = math3d.quat_integrate(ctx, bodies.quat[:n],
                                         bodies.angvel[:n], dt)
        bodies.quat[:n] = np.where(awake[:, None], new_quat,
                                   bodies.quat[:n])
    ctx.flush()
