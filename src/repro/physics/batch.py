"""Fleet-batched stepping: advance K worlds as stacked-array passes.

A :class:`WorldBatch` steps many independent worlds through the same
phase pipeline :meth:`World.step` runs, but executes the embarrassingly
parallel phases — derived-state refresh, gravity, the LCP relaxation and
final integration — as *single* stacked-array calls over every world at
once.  With eight small worlds, the per-step ufunc count collapses by
roughly the fleet size: one reduced-precision kernel dispatch now
touches every body in the fleet instead of one world's worth.

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
per-step hooks or warm starting, and all members must agree on
timestep, solver parameters and precision configuration.  Anything
else raises :class:`BatchIncompatible` — callers fall back to per-world
stepping.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from . import broadphase, lcp, math3d, narrowphase
from .island import partition_islands

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
    if world.on_step is not None:
        return "on_step hook installed"
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
        #: shared op semantics — every member's context is census-free
        #: with identical precision/mode, so one context serves the fleet
        self.ctx = hctx

    def __len__(self) -> int:
        return len(self.worlds)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance every member world by one timestep."""
        ctx = self.ctx
        worlds = self.worlds
        for world in worlds:
            world.bodies.ensure_world_row()
            for explosion in world.explosions:
                if explosion.trigger_step == world.step_count:
                    explosion.apply(world)

        with ctx.in_phase("integrate"):
            self._refresh_and_gravity(ctx)

        all_contacts = []
        for world in worlds:
            aabbs = world.geoms.world_aabbs(
                world.bodies.view("pos"), world.bodies.view("rot"))
            pairs = broadphase.candidate_pairs(world.geoms, aabbs)
            with ctx.in_phase("narrow"):
                contacts = narrowphase.generate_contacts(
                    ctx, world.bodies, world.geoms, pairs)
            world.last_contact_count = len(contacts)
            world.penetration_series.append(
                float(contacts.depth.max()) if len(contacts) else 0.0)
            all_contacts.append(contacts)

        for world, contacts in zip(worlds, all_contacts):
            jp = world.joints.packed()
            edges_a = np.concatenate([
                np.asarray(contacts.body_a, dtype=np.int64),
                jp["ball_a"], jp["hinge_a"],
            ])
            edges_b = np.concatenate([
                np.asarray(contacts.body_b, dtype=np.int64),
                jp["ball_b"], jp["hinge_b"],
            ])
            world.island_labels = partition_islands(
                world.bodies.count, world.bodies.dynamic_mask(),
                edges_a, edges_b)

        with ctx.in_phase("lcp"):
            rows_list = [
                lcp.build_rows(ctx, world.bodies, contacts, world.joints,
                               world.dt, world.solver)
                for world, contacts in zip(worlds, all_contacts)
            ]
            self._solve_merged(ctx, rows_list)
            for world in worlds:
                for cloth in world.cloths:
                    cloth.solve_constraints(ctx, world.dt,
                                            world.solver.iterations)
                    cloth.collide(ctx, world)

        for world, contacts in zip(worlds, all_contacts):
            world._update_sleep_state(contacts)

        with ctx.in_phase("integrate"):
            self._integrate_all(ctx)

        for world in worlds:
            world.monitor.measure(world, world.step_count)
            world.step_count += 1

    # ------------------------------------------------------------------
    def _refresh_and_gravity(self, ctx) -> None:
        """Stacked ``refresh_derived`` + gravity kick for every world."""
        live = [(w, w.bodies.count) for w in self.worlds
                if w.bodies.count > 0]
        if live:
            quats = np.concatenate([w.bodies.quat[:n] for w, n in live])
            rot = math3d.quat_rotate_matrix(ctx, quats)
            inv_ib = np.concatenate(
                [w.bodies.inv_inertia_body[:n] for w, n in live])
            scaled = ctx.mul(rot, inv_ib[:, None, :])
            out = np.empty((len(quats), 3, 3), dtype=np.float32)
            for i in range(3):
                for j in range(3):
                    out[:, i, j] = math3d.dot(ctx, scaled[:, i, :],
                                              rot[:, j, :])
            dvs = []
            for world, n in live:
                bodies = world.bodies
                active = (bodies.invmass[:n] > 0) & ~bodies.asleep[:n]
                dvs.append(np.where(
                    active[:, None],
                    np.asarray(world.gravity, dtype=np.float32)[None, :]
                    * np.float32(world.dt),
                    np.float32(0.0),
                ))
            linvel = np.concatenate(
                [w.bodies.linvel[:n] for w, n in live])
            new_linvel = ctx.add(linvel, np.concatenate(dvs))
            base = 0
            for world, n in live:
                bodies = world.bodies
                bodies.rot[:n] = rot[base:base + n]
                bodies.inv_inertia_world[:n] = out[base:base + n]
                bodies.inv_inertia_world[n] = 0.0
                bodies.linvel[:n] = new_linvel[base:base + n]
                bodies.linvel[n] = 0.0
                bodies.angvel[n] = 0.0
                bodies.invmass[n] = 0.0
                base += n

        cloths = [(w, c) for w in self.worlds for c in w.cloths]
        if cloths:
            vel = np.concatenate([c.vel for _, c in cloths])
            dvs = [
                np.where(
                    (c.invmass > 0)[:, None],
                    np.asarray(w.gravity, dtype=np.float32)[None, :]
                    * np.float32(w.dt),
                    np.float32(0.0),
                )
                for w, c in cloths
            ]
            new_vel = ctx.add(vel, np.concatenate(dvs))
            base = 0
            for _, cloth in cloths:
                count = len(cloth.vel)
                cloth.vel = new_vel[base:base + count].copy()
                base += count

    # ------------------------------------------------------------------
    def _solve_merged(self, ctx, rows_list) -> None:
        """One Jacobi relaxation over the concatenated row sets.

        Body slots of world ``k`` are offset by the total slot count of
        worlds ``0..k-1`` (each world contributes ``count + 1`` slots,
        its virtual world body included), friction rows' normal indices
        by the running row count, and every world body lands in
        ``pinned`` — so :func:`~repro.physics.lcp.solve_rows` relaxes
        the fleet exactly as K independent solves would.
        """
        active = [(world, rows)
                  for world, rows in zip(self.worlds, rows_list)
                  if len(rows) and world.solver.iterations > 0]
        if not active:
            return
        if len(active) == 1:
            world, rows = active[0]
            lcp.solve(ctx, world.bodies, rows, world.solver)
            return

        params = active[0][0].solver
        slot_base: List[int] = []
        vels = []
        base = 0
        for world, _ in active:
            slot_base.append(base)
            vels.append(np.concatenate(
                [world.bodies.view("linvel"), world.bodies.view("angvel")],
                axis=1).astype(np.float32))
            base += world.bodies.world_index + 1
        vel = np.concatenate(vels, axis=0)

        row_counts = [len(rows) for _, rows in active]
        row_base = np.concatenate(
            [[0], np.cumsum(row_counts[:-1])]).astype(np.int64)
        adjusted_ni = []
        for (_, rows), rbase in zip(active, row_base):
            ni = rows.normal_index.copy()
            ni[ni >= 0] += np.int32(rbase)
            adjusted_ni.append(ni)

        def _cat(attr):
            return np.concatenate([getattr(rows, attr)
                                   for _, rows in active])

        merged = lcp.ConstraintRows(
            ia=np.concatenate([rows.ia.astype(np.int64) + sbase
                               for (_, rows), sbase
                               in zip(active, slot_base)]),
            ib=np.concatenate([rows.ib.astype(np.int64) + sbase
                               for (_, rows), sbase
                               in zip(active, slot_base)]),
            jla=None, jaa=None, jlb=None, jab=None,
            rhs=_cat("rhs"), lo=_cat("lo"), hi=_cat("hi"), mu=_cat("mu"),
            normal_index=np.concatenate(adjusted_ni),
        )
        merged.inv_d = _cat("inv_d")
        merged.lam = _cat("lam")
        merged.jacobian = _cat("jacobian")
        merged.inv_mass_jt = _cat("inv_mass_jt")
        pinned = np.array(
            [sbase + world.bodies.world_index
             for (world, _), sbase in zip(active, slot_base)],
            dtype=np.int64)

        lcp.solve_rows(ctx, vel, merged, params, pinned)

        for (world, rows), sbase, rbase, rcount in zip(
                active, slot_base, row_base, row_counts):
            slots = world.bodies.world_index + 1
            sub = vel[sbase:sbase + slots]
            world.bodies.view("linvel")[:] = sub[:, :3]
            world.bodies.view("angvel")[:] = sub[:, 3:]
            rows.lam = merged.lam[rbase:rbase + rcount]

    # ------------------------------------------------------------------
    def _integrate_all(self, ctx) -> None:
        """Stacked semi-implicit Euler over every world's bodies."""
        live = [(w, w.bodies.count) for w in self.worlds
                if w.bodies.count > 0]
        if live:
            dt32 = np.float32(live[0][0].dt)
            pos = np.concatenate([w.bodies.pos[:n] for w, n in live])
            quat = np.concatenate([w.bodies.quat[:n] for w, n in live])
            linvel = np.concatenate(
                [w.bodies.linvel[:n] for w, n in live])
            angvel = np.concatenate(
                [w.bodies.angvel[:n] for w, n in live])
            awake = np.concatenate(
                [~w.bodies.asleep[:n] for w, n in live])

            step = math3d.scale(ctx, linvel, dt32)
            new_pos = ctx.add(pos, step)
            pos = np.where(awake[:, None], new_pos, pos)
            new_quat = math3d.quat_integrate(ctx, quat, angvel,
                                             live[0][0].dt)
            quat = np.where(awake[:, None], new_quat, quat)
            base = 0
            for world, n in live:
                world.bodies.pos[:n] = pos[base:base + n]
                world.bodies.quat[:n] = quat[base:base + n]
                base += n

        cloths = [(w, c) for w in self.worlds for c in w.cloths]
        if cloths:
            dt32 = np.float32(cloths[0][0].dt)
            vel = np.concatenate([c.vel for _, c in cloths])
            cpos = np.concatenate([c.pos for _, c in cloths])
            moving = np.concatenate(
                [(c.invmass > 0) for _, c in cloths])[:, None]
            step = math3d.scale(ctx, vel, dt32)
            cpos = np.where(moving, ctx.add(cpos, step), cpos)
            base = 0
            for _, cloth in cloths:
                count = len(cloth.pos)
                cloth.pos = cpos[base:base + count].copy()
                base += count
