"""Mass-spring cloth (the Deformable workload's substrate).

The paper's modified ODE adds cloth simulation; here a rectangular patch
of particles is held together by structural and shear distance constraints
relaxed with the same Jacobi iteration as the rigid-body LCP — cloth rows
are just extra loosely-coupled relaxation work inside the ``lcp`` phase.
Collisions against the ground plane and against spheres are resolved by
projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..fp.context import FPContext
from . import math3d

__all__ = ["Cloth"]


class Cloth:
    """A (rows x cols) particle grid with distance constraints."""

    def __init__(
        self,
        origin,
        rows: int,
        cols: int,
        spacing: float,
        particle_mass: float = 0.05,
        pinned: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.spacing = float(spacing)
        origin = np.asarray(origin, dtype=np.float32)

        grid = np.stack(
            np.meshgrid(
                np.arange(cols, dtype=np.float32) * spacing,
                np.arange(rows, dtype=np.float32) * -spacing,
                indexing="xy",
            ),
            axis=-1,
        ).reshape(-1, 2)
        self.pos = np.zeros((rows * cols, 3), dtype=np.float32)
        self.pos[:, 0] = origin[0] + grid[:, 0]
        self.pos[:, 1] = origin[1]
        self.pos[:, 2] = origin[2] + grid[:, 1]
        self.vel = np.zeros_like(self.pos)
        self.mass = np.full(rows * cols, particle_mass, dtype=np.float32)
        self.invmass = 1.0 / self.mass
        for r, c in pinned or []:
            self.invmass[self.index(r, c)] = 0.0

        self._build_constraints()

    def index(self, row: int, col: int) -> int:
        return row * self.cols + col

    def _build_constraints(self) -> None:
        pa, pb = [], []
        for r in range(self.rows):
            for c in range(self.cols):
                i = self.index(r, c)
                if c + 1 < self.cols:  # structural horizontal
                    pa.append(i)
                    pb.append(self.index(r, c + 1))
                if r + 1 < self.rows:  # structural vertical
                    pa.append(i)
                    pb.append(self.index(r + 1, c))
                if r + 1 < self.rows and c + 1 < self.cols:  # shear
                    pa.append(i)
                    pb.append(self.index(r + 1, c + 1))
                    pa.append(self.index(r, c + 1))
                    pb.append(self.index(r + 1, c))
        self.edge_a = np.array(pa, dtype=np.int64)
        self.edge_b = np.array(pb, dtype=np.int64)
        rest = np.linalg.norm(
            self.pos[self.edge_a].astype(np.float64)
            - self.pos[self.edge_b].astype(np.float64),
            axis=1,
        )
        self.rest_length = rest.astype(np.float32)

    @property
    def particle_count(self) -> int:
        return len(self.pos)

    # ------------------------------------------------------------------
    # Simulation (called by World inside the appropriate phases)
    # ------------------------------------------------------------------
    def apply_gravity(self, ctx: FPContext, gravity, dt: float) -> None:
        dv = np.where(
            (self.invmass > 0)[:, None],
            np.asarray(gravity, dtype=np.float32)[None, :] * np.float32(dt),
            np.float32(0.0),
        )
        kern = ctx.kernel()
        self.vel = kern.binop(np.add, kern.enter(self.vel), kern.enter(dv))

    def solve_constraints(self, ctx: FPContext, dt: float,
                          iterations: int, beta: float = 0.2) -> None:
        """Velocity-level Jacobi relaxation of the distance constraints.

        Runs as whole-array passes through the context's kernel.
        Positions don't move during the velocity solve, so the edge
        geometry (direction, rest-length error, bias) is computed once
        before the iterations; its census is replayed at the start of
        every later iteration, where hardware recomputes it.
        """
        if iterations <= 0:
            return
        kern = ctx.kernel()
        ea, eb = self.edge_a, self.edge_b
        wa = self.invmass[ea]
        wb = self.invmass[eb]
        w_sum = np.maximum(wa + wb, 1e-9).astype(np.float32)

        with kern.record() as geometry:
            pa = kern.enter(self.pos[ea])
            pb = kern.enter(self.pos[eb])
            delta = kern.binop(np.subtract, pb, pa)
            prod = kern.binop(np.multiply, delta, delta)
            d2 = kern.binop(np.add, kern.binop(np.add, prod[:, 0],
                                               prod[:, 1]), prod[:, 2])
            length = kern.sqrt(d2)
            safe = np.where(length > 1e-12, length, np.float32(1.0))
            dir_r = kern.enter(kern.div(delta, safe[:, None]))
            error = kern.binop(np.subtract, kern.enter(length),
                               kern.enter(self.rest_length))
            biased = kern.binop(np.multiply,
                                kern.enter(np.float32(beta / dt)), error)

        degree = np.zeros(len(self.pos), dtype=np.float32)
        np.add.at(degree, ea, 1.0)
        np.add.at(degree, eb, 1.0)
        degree = np.maximum(degree, 1.0)[:, None]
        wa_col = wa[:, None]
        wb_col = wb[:, None]

        velr = kern.enter(self.vel)
        for iteration in range(iterations):
            if iteration:
                kern.replay(geometry)
            vd = kern.binop(np.subtract, velr[eb], velr[ea])
            p = kern.binop(np.multiply, dir_r, vd)
            rel = kern.binop(np.add, kern.binop(np.add, p[:, 0], p[:, 1]),
                             p[:, 2])
            target = kern.binop(np.add, rel, biased)
            lam = kern.div(target, w_sum)  # impulse magnitude along edge
            impulse = kern.binop(np.multiply, dir_r,
                                 kern.enter(lam)[:, None])
            # Jacobi accumulate with averaging by particle degree.
            acc = np.zeros_like(self.vel)
            np.add.at(acc, ea, impulse * wa_col)
            np.add.at(acc, eb, -impulse * wb_col)
            velr = kern.binop(np.add, velr, kern.enter(acc / degree))
        self.vel = velr

    def collide(self, ctx: FPContext, world) -> None:
        """Resolve particle collisions with the ground plane and spheres.

        Detection (distances, directions, depths) runs in the ``narrow``
        phase — it *is* narrow-phase collision detection — while the
        velocity/position response applies at the surrounding (``lcp``)
        phase precision, mirroring the rigid-body pipeline split.
        """
        from .shapes import ShapeType  # local import avoids a cycle

        for geom in world.geoms.geoms:
            if geom.shape is ShapeType.PLANE:
                n = geom.params.astype(np.float32)
                with ctx.in_phase("narrow"):
                    narrow = ctx.kernel()
                    height = narrow.binop(
                        np.subtract, math3d.dot(ctx, n[None, :], self.pos),
                        narrow.enter(np.float32(geom.offset)))
                below = height < 0
                if below.any():
                    kern = ctx.kernel()
                    nr = kern.enter(n[None, :])
                    push = math3d.scale_r(kern, nr, kern.enter(-height))
                    self.pos = np.where(
                        below[:, None],
                        kern.binop(np.add, kern.enter(self.pos), push),
                        self.pos)
                    velr = kern.enter(self.vel)
                    vn = math3d.dot_r(kern, nr, velr)
                    correction = math3d.scale_r(kern, nr, vn)
                    stopped = kern.binop(np.subtract, velr, correction)
                    self.vel = np.where(below[:, None] & (vn < 0)[:, None],
                                        stopped, self.vel)
            elif geom.shape is ShapeType.SPHERE:
                center = world.bodies.pos[geom.body]
                radius = np.float32(geom.params[0] * 1.02)
                with ctx.in_phase("narrow"):
                    narrow = ctx.kernel()
                    delta = narrow.binop(np.subtract, narrow.enter(self.pos),
                                         narrow.enter(center[None, :]))
                    direction, dist = math3d.normalize_r(narrow, delta)
                    depth = narrow.binop(np.subtract, narrow.enter(radius),
                                         narrow.enter(dist))
                inside = dist < radius
                if inside.any():
                    kern = ctx.kernel()
                    dir_r = kern.enter(direction)
                    push = math3d.scale_r(kern, dir_r, kern.enter(depth))
                    self.pos = np.where(
                        inside[:, None],
                        kern.binop(np.add, kern.enter(self.pos), push),
                        self.pos)
                    velr = kern.enter(self.vel)
                    vn = math3d.dot_r(kern, dir_r, velr)
                    correction = math3d.scale_r(kern, dir_r, vn)
                    damped = kern.binop(np.subtract, velr, correction)
                    self.vel = np.where(inside[:, None] & (vn < 0)[:, None],
                                        damped, self.vel)

    def integrate(self, ctx: FPContext, dt: float) -> None:
        kern = ctx.kernel()
        step = math3d.scale(ctx, self.vel, np.float32(dt))
        moving = (self.invmass > 0)[:, None]
        self.pos = np.where(moving,
                            kern.binop(np.add, kern.enter(self.pos), step),
                            self.pos)
