"""The simulation world: ODE-like phase pipeline with per-phase precision.

``World.step()`` runs the paper's Figure 1 flow for one 0.01 s timestep:

1. **broad**  — AABB pair culling (serial bookkeeping, full precision);
2. **narrow** — contact generation (massively parallel, precision-tuned);
3. islands    — union-find grouping (integer work);
4. **lcp**    — constraint relaxation, 20 iterations (precision-tuned);
5. **integrate** — semi-implicit Euler + energy monitoring.

The flow exists once, in :func:`step_worlds`: a world's step is a fleet
of one, and :class:`~repro.physics.batch.WorldBatch` runs the same
function over K worlds, with the refresh/gravity kick, the constraint
solve and the integration stacked across them.

The world owns one :class:`~repro.fp.FPContext`; phases switch the
context's label so the narrow/LCP work executes at whatever mantissa
width the tuner (or an experiment) installed, while everything else stays
at full precision — exactly the paper's per-phase control-register design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..fp.context import FPContext
from . import broadphase, integrator, lcp, math3d, narrowphase
from .body import BodyStore
from .cloth import Cloth
from .energy import EnergyMonitor
from .explosion import Explosion
from .island import partition_islands
from .joints import JointStore
from .series import BoundedSeries
from .shapes import GeomStore, box_inertia, capsule_inertia, sphere_inertia

__all__ = ["World", "SleepParams", "step_worlds"]

DEFAULT_TIMESTEP = 0.01
STEPS_PER_FRAME = 3


@dataclass
class SleepParams:
    """Object disabling (the paper's Table 4 runs use object-disabling)."""

    enabled: bool = True
    linear_threshold: float = 0.03
    angular_threshold: float = 0.05
    steps_to_sleep: int = 15


class World:
    """A complete rigid-body + cloth simulation world."""

    def __init__(
        self,
        ctx: Optional[FPContext] = None,
        gravity=(0.0, -9.8, 0.0),
        dt: float = DEFAULT_TIMESTEP,
        solver: Optional[lcp.SolverParams] = None,
        sleep: Optional[SleepParams] = None,
    ) -> None:
        self.ctx = ctx if ctx is not None else FPContext()
        self.gravity = np.asarray(gravity, dtype=np.float32)
        self.dt = float(dt)
        self.solver = solver or lcp.SolverParams()
        self.sleep = sleep or SleepParams()

        self.bodies = BodyStore()
        self.geoms = GeomStore()
        self.joints = JointStore()
        self.cloths: List[Cloth] = []
        self.explosions: List[Explosion] = []
        self.monitor = EnergyMonitor(self.gravity)
        self.contact_cache = lcp.ContactCache()

        self.step_count = 0
        self.island_labels = np.empty(0, dtype=np.int32)
        self.last_contact_count = 0
        #: per-step max contact penetration depth (believability input);
        #: windowed so long-lived serve sessions don't leak memory, with
        #: a running max preserving the believability peak statistic
        self.penetration_series = BoundedSeries(track_max=True)
        #: optional :class:`~repro.robustness.PhaseGuards`; when set,
        #: invariants are checked at every phase boundary of ``step()``
        self.guards = None
        #: optional :class:`~repro.obs.Tracer`; when set, ``step()``
        #: reports per-phase wall time and a per-step telemetry record.
        #: The ``None`` default keeps the fast path untouched.
        self.observer = None
        #: post-solve contact-normal residual (only computed under guards)
        self.last_lcp_residual = 0.0
        #: bodies slept permanently by the recovery engine (rung 2)
        self.quarantined: set = set()

    # ------------------------------------------------------------------
    # Scene construction conveniences
    # ------------------------------------------------------------------
    def add_ground_plane(self, y: float = 0.0, **props) -> int:
        return self.geoms.add_plane([0.0, 1.0, 0.0], y, **props)

    def add_sphere(self, pos, radius: float, mass: float = 1.0,
                   **props) -> int:
        velocity_props = {
            k: props.pop(k) for k in ("linvel", "angvel") if k in props
        }
        body = self.bodies.add_body(
            pos, mass, sphere_inertia(max(mass, 1e-9), radius),
            **velocity_props)
        self.geoms.add_sphere(body, radius, **props)
        return body

    def add_box(self, pos, half_extents, mass: float = 1.0, quat=None,
                **props) -> int:
        velocity_props = {
            k: props.pop(k) for k in ("linvel", "angvel") if k in props
        }
        body = self.bodies.add_body(
            pos, mass, box_inertia(max(mass, 1e-9), half_extents),
            quat=quat, **velocity_props)
        self.geoms.add_box(body, half_extents, **props)
        return body

    def add_capsule(self, pos, radius: float, half_height: float,
                    mass: float = 1.0, quat=None, **props) -> int:
        velocity_props = {
            k: props.pop(k) for k in ("linvel", "angvel") if k in props
        }
        body = self.bodies.add_body(
            pos, mass, capsule_inertia(max(mass, 1e-9), radius,
                                       half_height),
            quat=quat, **velocity_props)
        self.geoms.add_capsule(body, radius, half_height, **props)
        return body

    def add_cloth(self, cloth: Cloth) -> Cloth:
        self.cloths.append(cloth)
        return cloth

    def schedule_explosion(self, explosion: Explosion) -> Explosion:
        self.explosions.append(explosion)
        return explosion

    def apply_impulse(self, body: int, impulse, point=None) -> float:
        """Inject an impulse; returns (and records) the energy added."""
        impulse = np.asarray(impulse, dtype=np.float64)
        m = float(self.bodies.mass[body])
        if m <= 0 or body in self.quarantined:
            return 0.0
        v0 = self.bodies.linvel[body].astype(np.float64)
        v1 = v0 + impulse / m
        self.bodies.linvel[body] = v1.astype(np.float32)
        if point is not None:
            r = np.asarray(point, np.float64) - self.bodies.pos[body]
            torque_impulse = np.cross(r, impulse)
            rot = self.bodies.rot[body].astype(np.float64)
            inv_i = np.where(self.bodies.inertia_body[body] > 0,
                             1.0 / self.bodies.inertia_body[body], 0.0)
            dw = rot @ (inv_i * (rot.T @ torque_impulse))
            self.bodies.angvel[body] = (
                self.bodies.angvel[body].astype(np.float64) + dw
            ).astype(np.float32)
        self.bodies.asleep[body] = False
        self.bodies.low_motion_steps[body] = 0
        injected = 0.5 * m * (float(v1 @ v1) - float(v0 @ v0))
        self.monitor.note_injection(injected)
        return injected

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the world by one ``dt`` timestep."""
        step_worlds((self,))

    def step_frame(self) -> None:
        """Advance one rendered frame (3 substeps, the paper's setting)."""
        for _ in range(STEPS_PER_FRAME):
            self.step()

    # ------------------------------------------------------------------
    def _update_sleep_state(self, contacts) -> None:
        """Object disabling: quiet bodies stop simulating until disturbed."""
        if not self.sleep.enabled:
            return
        n = self.bodies.count
        if n == 0:
            return
        lin = np.linalg.norm(self.bodies.linvel[:n], axis=1)
        ang = np.linalg.norm(self.bodies.angvel[:n], axis=1)
        quiet = (lin < self.sleep.linear_threshold) & (
            ang < self.sleep.angular_threshold)
        self.bodies.low_motion_steps[:n] = np.where(
            quiet, self.bodies.low_motion_steps[:n] + 1, 0)
        dynamic = self.bodies.invmass[:n] > 0
        going_to_sleep = dynamic & (
            self.bodies.low_motion_steps[:n] >= self.sleep.steps_to_sleep)
        if going_to_sleep.any():
            self.bodies.asleep[:n] |= going_to_sleep
            self.bodies.linvel[:n][going_to_sleep] = 0.0
            self.bodies.angvel[:n][going_to_sleep] = 0.0

        # Wake anything touched by a moving body (vectorized: the old
        # per-contact Python loop walked every contact every step).
        if len(contacts):
            moving = ~self.bodies.asleep[:n]
            fast = moving & ((lin + ang) > 0.2)
            a = np.asarray(contacts.body_a, dtype=np.int64)
            b = np.asarray(contacts.body_b, dtype=np.int64)
            in_a = a < n
            in_b = b < n
            # Clamped gather keeps out-of-range (world-body) indices safe;
            # the in_* masks discard their lanes.
            a_live = in_a & fast[np.minimum(a, n - 1)]
            b_live = in_b & fast[np.minimum(b, n - 1)]
            targets = np.concatenate([b[a_live & in_b], a[b_live & in_a]])
            if len(targets):
                targets = np.unique(targets)
                if self.quarantined:
                    keep = ~np.isin(targets,
                                    np.fromiter(self.quarantined, np.int64))
                    targets = targets[keep]
                self.bodies.asleep[targets] = False
                self.bodies.low_motion_steps[targets] = 0

    def _wake(self, body: int) -> None:
        if body in self.quarantined:
            return  # quarantined bodies stay dormant until released
        if self.bodies.asleep[body]:
            self.bodies.asleep[body] = False
        self.bodies.low_motion_steps[body] = 0

    # ------------------------------------------------------------------
    # Quarantine (graceful degradation, driven by the recovery engine)
    # ------------------------------------------------------------------
    def quarantine_bodies(self, indices) -> List[int]:
        """Permanently sleep bodies; they ignore wakes and impulses."""
        members = []
        for body in indices:
            body = int(body)
            if not 0 <= body < self.bodies.count:
                continue
            self.quarantined.add(body)
            self.bodies.asleep[body] = True
            self.bodies.linvel[body] = 0.0
            self.bodies.angvel[body] = 0.0
            self.bodies.low_motion_steps[body] = 0
            members.append(body)
        return members

    def quarantine_islands(self, islands) -> List[int]:
        """Quarantine every body of the given island labels."""
        wanted = set(int(i) for i in islands)
        labels = self.island_labels
        members = [
            body for body in range(min(len(labels), self.bodies.count))
            if int(labels[body]) in wanted
        ]
        return self.quarantine_bodies(members)

    def release_quarantine(self, indices=None) -> None:
        """Lift quarantine (all bodies, or the given ones) and wake them."""
        targets = (list(self.quarantined) if indices is None
                   else [int(i) for i in indices])
        for body in targets:
            self.quarantined.discard(body)
            self._wake(body)

    # ------------------------------------------------------------------
    @property
    def island_count(self) -> int:
        labels = self.island_labels
        return int(labels.max()) + 1 if len(labels) and labels.max() >= 0 \
            else 0


# ----------------------------------------------------------------------
# The step pipeline
# ----------------------------------------------------------------------
def step_worlds(worlds: Sequence[World]) -> None:
    """Advance each of ``worlds`` by one timestep: the one step pipeline.

    :meth:`World.step` runs it for one world and
    :meth:`~repro.physics.batch.WorldBatch.step` for a fleet.  Broad
    phase, narrow phase, islands, row building, cloth and sleep run
    world by world; the derived-state refresh with the gravity kick,
    the constraint solve (:func:`~repro.physics.lcp.solve_worlds`) and
    the body integration each run once over every world's bodies: a
    lone world's own store, or a fleet's bodies stacked into one.
    Every op runs on the first world's context, so the worlds must
    agree on ``dt``, solver parameters and op semantics (``WorldBatch``
    checks this).  Each hook runs for every world that has it; an
    observer is told a stacked phase's time for the whole group.
    """
    head = worlds[0]
    ctx = head.ctx
    timed = False
    for world in worlds:
        if world.observer is not None:
            world.observer.begin_step(world)
            timed = True
        world.bodies.ensure_world_row()
        for explosion in world.explosions:
            if explosion.trigger_step == world.step_count:
                explosion.apply(world)

    t0 = time.perf_counter() if timed else 0.0
    with ctx.in_phase("integrate"):
        bodies, stacked = _stacked_bodies(worlds)
        bodies.refresh_derived(ctx)
        gravity = head.gravity
        if stacked:  # per body: a fleet may mix gravities
            gravity = np.repeat([world.gravity for world in stacked],
                                [world.bodies.count for world in stacked],
                                axis=0)
        integrator.apply_gravity(ctx, bodies, gravity, head.dt)
        for world in worlds:
            for cloth in world.cloths:
                cloth.apply_gravity(ctx, world.gravity, world.dt)
    if stacked:
        stores = [world.bodies for world in stacked]
        bodies.unstack(stores, "rot", "inv_inertia_world", "linvel")
        for store in stores:
            store.clear_world_row()
    if timed:
        _phase_done(worlds, "integrate", t0)

    all_contacts = []
    for world in worlds:
        obs = world.observer
        if obs is not None:
            t0 = time.perf_counter()
        # --- collision detection -------------------------------------
        bodies = world.bodies
        aabbs = world.geoms.world_aabbs(bodies.view("pos"),
                                        bodies.view("rot"))
        pairs = broadphase.candidate_pairs(world.geoms, aabbs)
        if obs is not None:
            obs.phase_done("broad", time.perf_counter() - t0)
            t0 = time.perf_counter()

        with ctx.in_phase("narrow"):
            contacts = narrowphase.generate_contacts(
                ctx, bodies, world.geoms, pairs)
        if obs is not None:
            obs.phase_done("narrow", time.perf_counter() - t0)
        world.last_contact_count = count = len(contacts)
        world.penetration_series.append(
            float(contacts.depth.max()) if count else 0.0)
        if world.guards is not None:
            world.guards.after_narrow(world, contacts)

        # --- islands ---------------------------------------------------
        if obs is not None:
            t0 = time.perf_counter()
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
            bodies.count, bodies.dynamic_mask(), edges_a, edges_b)
        if obs is not None:
            obs.phase_done("islands", time.perf_counter() - t0)
        all_contacts.append(contacts)

    # --- constraint solve ------------------------------------------------
    t0 = time.perf_counter() if timed else 0.0
    with ctx.in_phase("lcp"):
        all_rows = []
        for world, contacts in zip(worlds, all_contacts):
            rows = lcp.build_rows(ctx, world.bodies, contacts, world.joints,
                                  world.dt, world.solver)
            if world.solver.warm_start and world.contact_cache.warm_start(
                    contacts, rows, world.solver):
                lcp.apply_warm_start_impulses(ctx, world.bodies, rows)
            all_rows.append(rows)
        lcp.solve_worlds(ctx, [world.bodies for world in worlds], all_rows,
                         head.solver)
        for world, contacts, rows in zip(worlds, all_contacts, all_rows):
            if world.solver.warm_start:
                world.contact_cache.store(contacts, rows)
            for cloth in world.cloths:
                cloth.solve_constraints(ctx, world.dt,
                                        world.solver.iterations)
                cloth.collide(ctx, world)
    if timed:
        _phase_done(worlds, "lcp", t0)

    for world, contacts, rows in zip(worlds, all_contacts, all_rows):
        if world.guards is not None:
            world.last_lcp_residual = lcp.solver_residual(world.bodies, rows)
            world.guards.after_lcp(world, world.last_lcp_residual)
        # Sleep bookkeeping uses post-solve velocities (pre-solve ones
        # carry the just-applied gravity kick even for resting bodies).
        world._update_sleep_state(contacts)

    # --- integration ----------------------------------------------------
    t0 = time.perf_counter() if timed else 0.0
    with ctx.in_phase("integrate"):
        for world in worlds:
            for cloth in world.cloths:
                cloth.integrate(ctx, world.dt)
        bodies, stacked = _stacked_bodies(worlds)
        # Last: it ends the step's FP work (see its docstring).
        integrator.integrate(ctx, bodies, head.dt)
    if stacked:
        bodies.unstack([world.bodies for world in stacked], "pos", "quat")
    if timed:
        _phase_done(worlds, "integrate", t0)

    for world in worlds:
        record = world.monitor.measure(world, world.step_count)
        if world.guards is not None:
            world.guards.after_integrate(world, record)
        world.step_count += 1
        if world.observer is not None:
            world.observer.end_step(world, record)


def _stacked_bodies(worlds) -> Tuple[BodyStore, Sequence[World]]:
    """The store a stacked pass runs on, and the worlds stacked into it.

    A lone world's own store, with nothing to copy back; for a fleet, a
    new store of its non-empty worlds' bodies (:meth:`BodyStore.stack`).
    """
    if len(worlds) == 1:
        return worlds[0].bodies, ()
    stacked = [world for world in worlds if world.bodies.count]
    if not stacked:
        return BodyStore(), ()
    return BodyStore.stack([world.bodies for world in stacked]), stacked


def _phase_done(worlds, phase: str, t0: float) -> None:
    """Tell every world's observer the time since ``t0`` in ``phase``."""
    seconds = time.perf_counter() - t0
    for world in worlds:
        if world.observer is not None:
            world.observer.phase_done(phase, seconds)
