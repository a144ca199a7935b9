"""Rigid-body state storage (struct-of-arrays, float32 throughout).

Bodies live in a :class:`BodyStore` so the solver and integrator can work
on whole arrays at once.  A virtual "world" body with zero inverse mass is
kept at index ``store.world_index`` — constraints against static geometry
(the ground plane, anchors) reference it, which keeps every constraint row
two-sided and branch-free.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..fp.context import FPContext
from . import math3d

__all__ = ["BodyStore"]

_IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)

#: every per-body array of a store
_ARRAYS = ("pos", "quat", "linvel", "angvel", "invmass", "mass",
           "inv_inertia_body", "inertia_body", "asleep", "low_motion_steps",
           "rot", "inv_inertia_world")


class BodyStore:
    """Growable struct-of-arrays container for rigid bodies."""

    def __init__(self, capacity: int = 16) -> None:
        self._n = 0
        self._alloc(capacity)

    def _alloc(self, capacity: int) -> None:
        self.pos = np.zeros((capacity, 3), dtype=np.float32)
        self.quat = np.tile(_IDENTITY_QUAT, (capacity, 1))
        self.linvel = np.zeros((capacity, 3), dtype=np.float32)
        self.angvel = np.zeros((capacity, 3), dtype=np.float32)
        self.invmass = np.zeros(capacity, dtype=np.float32)
        self.mass = np.zeros(capacity, dtype=np.float32)
        self.inv_inertia_body = np.zeros((capacity, 3), dtype=np.float32)
        self.inertia_body = np.zeros((capacity, 3), dtype=np.float32)
        self.asleep = np.zeros(capacity, dtype=bool)
        self.low_motion_steps = np.zeros(capacity, dtype=np.int32)
        # Derived per step:
        self.rot = np.tile(np.eye(3, dtype=np.float32), (capacity, 1, 1))
        self.inv_inertia_world = np.zeros((capacity, 3, 3), dtype=np.float32)

    def _grow(self) -> None:
        old_n = self._n
        snapshot = {name: getattr(self, name)[:old_n].copy()
                    for name in _ARRAYS}
        self._alloc(max(2 * old_n, 16))
        for name, data in snapshot.items():
            getattr(self, name)[:old_n] = data

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_body(
        self,
        pos,
        mass: float,
        inertia_diag,
        quat=None,
        linvel=None,
        angvel=None,
    ) -> int:
        """Append a dynamic body; ``mass <= 0`` creates a static body."""
        if self._n >= len(self.invmass):
            self._grow()
        i = self._n
        self._n += 1
        self.pos[i] = np.asarray(pos, dtype=np.float32)
        self.quat[i] = (
            _IDENTITY_QUAT if quat is None else np.asarray(quat, np.float32)
        )
        self.linvel[i] = 0.0 if linvel is None else np.asarray(
            linvel, np.float32)
        self.angvel[i] = 0.0 if angvel is None else np.asarray(
            angvel, np.float32)
        inertia = np.asarray(inertia_diag, dtype=np.float32)
        if mass > 0:
            self.mass[i] = mass
            self.invmass[i] = 1.0 / mass
            self.inertia_body[i] = inertia
            with np.errstate(divide="ignore"):
                self.inv_inertia_body[i] = np.where(
                    inertia > 0, 1.0 / inertia, 0.0
                )
        else:
            self.mass[i] = 0.0
            self.invmass[i] = 0.0
            self.inertia_body[i] = 0.0
            self.inv_inertia_body[i] = 0.0
        return i

    # ------------------------------------------------------------------
    # Views (the live prefix plus the virtual world body)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of real bodies (the virtual world body is extra)."""
        return self._n

    @property
    def world_index(self) -> int:
        """Index of the virtual, immovable world body."""
        return self._n

    def view(self, name: str) -> np.ndarray:
        """Live slice of a state array including the world body row.

        The world row is always zero velocity / zero inverse mass, so
        gathers with ``world_index`` are safe.
        """
        return getattr(self, name)[: self._n + 1]

    def dynamic_mask(self) -> np.ndarray:
        return self.invmass[: self._n] > 0

    # ------------------------------------------------------------------
    # Per-step derived state
    # ------------------------------------------------------------------
    def refresh_derived(self, ctx: FPContext) -> None:
        """Recompute rotation matrices and world inverse inertia tensors."""
        self.ensure_world_row()
        n = self._n
        if n == 0:
            return
        kern = ctx.kernel()
        rot = math3d.quat_rotate_matrix_r(kern, kern.enter(self.quat[:n]))
        self.rot[:n] = rot
        # I_w^-1 = R diag(I_b^-1) R^T, computed as (R * invI) @ R^T.
        scaled = kern.binop(np.multiply, rot,
                            kern.enter(self.inv_inertia_body[:n, None, :]))
        out = np.empty((n, 3, 3), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                out[:, i, j] = math3d.dot_r(kern, scaled[:, i, :],
                                            rot[:, j, :])
        self.inv_inertia_world[:n] = out
        self.clear_world_row()

    def clear_world_row(self) -> None:
        """Keep the world-body row inert."""
        n = self._n
        self.inv_inertia_world[n] = 0.0
        self.linvel[n] = 0.0
        self.angvel[n] = 0.0
        self.invmass[n] = 0.0

    def ensure_world_row(self) -> None:
        """Guarantee capacity for the virtual world body row."""
        if self._n >= len(self.invmass):
            self._grow()

    # ------------------------------------------------------------------
    # Stacking (one pass over many worlds' bodies)
    # ------------------------------------------------------------------
    @classmethod
    def stack(cls, stores: Sequence["BodyStore"]) -> "BodyStore":
        """A new store holding the bodies of ``stores`` back to back.

        Every array is a copy; the last store's world row becomes the
        stack's, so each store must have one (:meth:`ensure_world_row`).
        A single-store pass run on the stack equals running it on each
        store, because the passes are elementwise over bodies;
        :meth:`unstack` copies its results back.
        """
        stacked = cls.__new__(cls)
        stacked._n = sum(store.count for store in stores)
        head, last = stores[:-1], stores[-1]
        for name in _ARRAYS:
            parts = [getattr(store, name)[:store.count] for store in head]
            parts.append(last.view(name))
            setattr(stacked, name, np.concatenate(parts))
        return stacked

    def unstack(self, stores: Sequence["BodyStore"], *names: str) -> None:
        """Copy the arrays ``names`` back to the stores :meth:`stack` read."""
        base = 0
        for store in stores:
            n = store.count
            for name in names:
                getattr(store, name)[:n] = getattr(self, name)[base:base + n]
            base += n
