"""Fleet-batched stepping: advance K worlds as stacked-array passes.

A :class:`WorldBatch` steps many independent worlds through the one
step pipeline, :func:`~repro.physics.world.step_worlds`, that
:meth:`World.step` runs for a single world.  The embarrassingly
parallel phases (derived-state refresh, gravity, the LCP relaxation
and body integration) then run as *single* stacked-array calls over
every world at once.  With eight small worlds, the per-step ufunc count
collapses by roughly the fleet size: one reduced-precision kernel
dispatch now touches every body in the fleet instead of one world's
worth.  This module holds only the fleet's admission checks.

Bit-identity contract: a batch step leaves every member world in exactly
the state K separate ``world.step()`` calls would have produced.  That
holds because every stacked phase is elementwise over bodies/rows (a
float32 op on a longer array produces the same bits per element) and the
merged LCP solve concatenates row sets with disjoint body-slot offsets,
so each body's impulse-application order is preserved by the solver's
stable incidence sort.  The serve layer leans on this: coalescing
sessions into a fleet must not perturb a single digest.

The fleet runs every op on one shared context, so fleet stepping only
engages census-free and without fault injection (a census and a fault
stream belong to one world's context), without guards, tracers,
per-step hooks, Gauss-Seidel or warm starting, and all members must
agree on timestep, solver parameters and precision configuration.
Anything else raises :class:`BatchIncompatible` — callers fall back to
per-world stepping.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .world import step_worlds

__all__ = ["WorldBatch", "BatchIncompatible", "fleet_ineligibility"]


class BatchIncompatible(ValueError):
    """These worlds cannot be fleet-stepped together."""


def fleet_ineligibility(world) -> Optional[str]:
    """Why this world cannot join any fleet, or ``None`` if it can."""
    if world.ctx.census:
        return "census enabled"
    if world.ctx.injector is not None:
        return "fault injection enabled"
    if world.guards is not None:
        return "phase guards installed"
    if world.observer is not None:
        return "tracer attached"
    if world.solver.scheme != "jacobi":
        return f"solver scheme {world.solver.scheme!r}"
    if world.solver.warm_start:
        return "warm starting enabled"
    return None


class WorldBatch:
    """K worlds advanced in lockstep with stacked-array phases."""

    def __init__(self, worlds: Sequence) -> None:
        if not worlds:
            raise BatchIncompatible("empty world list")
        for world in worlds:
            reason = fleet_ineligibility(world)
            if reason is not None:
                raise BatchIncompatible(reason)
        head = worlds[0]
        hctx = head.ctx
        for world in worlds[1:]:
            if world.dt != head.dt:
                raise BatchIncompatible("timestep mismatch")
            if world.solver != head.solver:
                raise BatchIncompatible("solver parameter mismatch")
            ctx = world.ctx
            if (ctx.phase_precision != hctx.phase_precision
                    or ctx.mode != hctx.mode
                    or ctx.jam_guard_bits != hctx.jam_guard_bits):
                raise BatchIncompatible("precision configuration mismatch")
        self.worlds: List = list(worlds)

    def step(self) -> None:
        """Advance every member world by one timestep."""
        step_worlds(self.worlds)
