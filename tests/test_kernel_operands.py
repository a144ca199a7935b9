"""The census-free kernel's operand invariant, checked on every engine pass.

:class:`~repro.fp.rounding.ReducedKernel` rounds only op results: every
operand of ``binop``/``binop_at``/``add_waves`` must come from ``enter``
or from an earlier result of the same kernel.  A raw operand (body
state, another phase's result, a geometry parameter, a plain-numpy
intermediate, an inexact constant) would silently run unrounded.  Here
a checking subclass replaces ``ReducedKernel`` in ``repro.fp.context``
and asserts, before every op, that each operand is float32 and is left
unchanged by the kernel's own rounding.
"""

import numpy as np
import pytest

from repro.experiments.table1 import PRESET_PRECISIONS
from repro.fp import FPContext, context
from repro.fp.rounding import ReducedKernel, RoundingMode
from repro.physics import Cloth, SolverParams, World, math3d
from repro.workloads import SCENARIO_NAMES, build

STEPS = 6

#: (label, scene, SolverParams overrides): every paper scene, the
#: capsule paths (no golden reaches them), the Gauss-Seidel sweep, the
#: warm-started solve and :func:`contact_zoo` (scene ``None``), once
#: with no solver iterations, so cloth collision meets the velocities
#: the integrate phase left.
RUNS = ([(scene, scene, {}) for scene in SCENARIO_NAMES]
        + [("ragdoll_capsules", "ragdoll_capsules", {}),
           ("ragdoll_gauss_seidel", "ragdoll", {"scheme": "gauss_seidel"}),
           ("breakable_warm_start", "breakable", {"warm_start": True}),
           ("contact_zoo", None, {}),
           ("contact_zoo_unsolved", None, {"iterations": 0})])


def contact_zoo(ctx: FPContext, solver=None) -> World:
    """The contact paths no scene reaches in its first steps, touching
    from the first step: sphere-plane, capsule-plane, sphere-box
    (outside and inside the box), capsule-box, capsule-sphere, box-box
    edge on edge, and a cloth's responses to a sphere and to the ground.
    Extents, offsets and the tilted plane's normal are inexact at every
    reduced width, so a parameter that skips ``enter`` is off the grid.
    """
    half = [0.45, 0.55, 0.6]
    world = World(ctx=ctx, solver=solver)
    world.add_ground_plane(0.0)
    # Below every body but the capsule at x = -6, above the second
    # cloth.
    world.geoms.add_plane([0.1, 1.0, 0.05], -0.45)
    world.add_sphere([12.0, 0.29, 0.0], 0.3)
    world.add_capsule([14.0, 0.38, 0.0], 0.1, 0.3)
    world.add_capsule([-6.0, 0.527, 0.0], 0.1, 0.3)
    world.add_box([0.0, 0.55, 0.0], half)
    # Spinning from the start (here and at x = 6, on both sides of a
    # contact): contact rows meet the builder's raw angular velocity
    # before any solve has rounded it.
    world.add_sphere([0.1, 1.38, 0.05], 0.3, angvel=[0.3, -1.1, 0.7])
    world.add_box([3.0, 0.55, 0.0], half)
    world.add_sphere([3.1, 0.6, 0.0], 0.1)
    world.add_box([-3.0, 0.55, 0.0], half, quat=[0.99875, 0.0, 0.04998, 0.0])
    world.add_capsule([-3.0, 1.49, 0.0], 0.1, 0.3)
    world.add_capsule([6.0, 0.6, 0.0], 0.1, 0.3, angvel=[-0.7, 0.2, 0.9])
    world.add_sphere([6.25, 0.6, 0.0], 0.2)
    # Edge on edge: a static cube turned 45 degrees about z under one
    # turned 45 degrees about x.
    world.add_box([20.0, 0.9, 0.0], [0.45] * 3, 0.0,
                  quat=[0.92388, 0.0, 0.0, 0.382683])
    world.add_box([20.0, 2.1528, 0.0], [0.45] * 3,
                  quat=[0.92388, 0.382683, 0.0, 0.0])
    world.add_sphere([10.0, 0.5, 0.0], 0.5, 0.0)
    world.add_cloth(Cloth(origin=(9.8, 0.6, 0.2), rows=3, cols=3,
                          spacing=0.2))
    world.add_cloth(Cloth(origin=(-8.0, -0.02, 0.0), rows=2, cols=2,
                          spacing=0.2))
    return world


class OffGrid(AssertionError):
    """An operand the kernel's rounding would change."""


class CheckingKernel(ReducedKernel):
    """A :class:`ReducedKernel` that checks every operand it is handed."""

    checked = 0

    def _check(self, *operands) -> None:
        for operand in operands:
            # Python scalars only: np.float64 subclasses float, but as a
            # numpy scalar it would promote the op to float64.
            if type(operand) in (int, float):
                operand = np.float32(operand)
            arr = np.asarray(operand)
            if arr.dtype != np.float32:
                raise OffGrid(f"{arr.dtype} operand at {self.precision} "
                              f"bits ({self.mode.value})")
            rounded = self._round(np.array(arr, order="C"))
            moved = rounded.view(np.uint32) != np.ascontiguousarray(
                arr).view(np.uint32)
            if moved.any():
                raise OffGrid(
                    f"{int(moved.sum())} of {arr.size} operand lanes off "
                    f"the {self.precision}-bit grid ({self.mode.value}), "
                    f"e.g. {arr.reshape(-1)[moved.reshape(-1)][:3]}")
        CheckingKernel.checked += 1

    def binop(self, ufunc, a, b):
        self._check(a, b)
        return super().binop(ufunc, a, b)

    def binop_at(self, ufunc, a, b, out):
        self._check(a, b)
        return super().binop_at(ufunc, a, b, out)

    def add_waves(self, waves):
        for wave in waves:
            acc, _bits, inc, _scratch = wave
            self._check(acc, inc)
            super().add_waves([wave])


@pytest.fixture
def checking(monkeypatch):
    monkeypatch.setattr(context, "ReducedKernel", CheckingKernel)
    CheckingKernel.checked = 0
    return CheckingKernel


#: A register whose grids nest against the pipeline: a narrow-phase
#: result is off the ``lcp`` grid and an ``lcp`` result off the
#: ``integrate`` grid, so a value carried into the next phase without
#: ``enter`` is caught.  (At a preset, ``integrate`` runs at full
#: precision, which catches body state carried into either tuned phase.)
CROSSED = {"narrow": 14, "lcp": 8, "integrate": 3}

#: (register, rounding mode): every mode at the presets, jamming crossed.
REGISTERS = ([("preset", mode.value) for mode in RoundingMode]
             + [("crossed", "jam")])


def _precisions(register, scene):
    """The run's precision map (scenes without a preset borrow
    ragdoll's)."""
    if register == "crossed":
        return dict(CROSSED)
    return dict(PRESET_PRECISIONS.get(scene, PRESET_PRECISIONS["ragdoll"]))


@pytest.mark.parametrize("register, mode", REGISTERS,
                         ids=[f"{r}-{m}" for r, m in REGISTERS])
@pytest.mark.parametrize("label, scene, solver", RUNS,
                         ids=[label for label, _, _ in RUNS])
def test_every_operand_is_entered(checking, label, scene, solver, register,
                                  mode):
    ctx = FPContext(_precisions(register, scene), mode=mode, census=False)
    params = SolverParams(**solver) if solver else None
    world = (contact_zoo(ctx, params) if scene is None
             else build(scene, ctx=ctx, solver=params))
    for _ in range(STEPS):
        world.step()
    assert checking.checked > 0


def test_math3d_public_forms_enter_their_operands(checking):
    ctx = FPContext({"lcp": 6}, census=False)
    rng = np.random.default_rng(3)
    v, w = rng.normal(size=(2, 5, 3)).astype(np.float32)
    m = rng.normal(size=(5, 3, 3)).astype(np.float32)
    q, p = rng.normal(size=(2, 5, 4)).astype(np.float32)
    with ctx.in_phase("lcp"):
        math3d.dot(ctx, v, w)
        math3d.cross(ctx, v, w)
        math3d.skew_apply(ctx, v, w)
        math3d.scale(ctx, v, rng.normal(size=5))
        math3d.norm(ctx, v)
        math3d.normalize(ctx, v)
        math3d.matvec(ctx, m, v)
        math3d.quat_mul(ctx, q, p)
        math3d.quat_normalize(ctx, q)
        math3d.quat_rotate_matrix(ctx, q)
        math3d.quat_integrate(ctx, q, v, 0.01)
    assert checking.checked > 0


class TestTheCheck:
    """The checking kernel sees what it is meant to see."""

    def test_raw_operand_fails(self, checking):
        ctx = FPContext({"lcp": 6}, census=False)
        with ctx.in_phase("lcp"):
            kern = ctx.kernel()
            assert isinstance(kern, CheckingKernel)
            raw = np.array([1.2345678, 0.5], dtype=np.float32)
            with pytest.raises(OffGrid):
                kern.binop(np.add, raw, kern.enter(raw))
            kern.binop(np.add, kern.enter(raw), kern.enter(raw))

    def test_other_phase_result_fails(self, checking):
        ctx = FPContext({"lcp": 6, "narrow": 12}, census=False)
        values = np.array([1.2345678, 3.3], dtype=np.float32)
        with ctx.in_phase("narrow"):
            narrow = ctx.kernel()
            wide = narrow.binop(np.multiply, narrow.enter(values),
                                narrow.enter(values))
        with ctx.in_phase("lcp"):
            kern = ctx.kernel()
            with pytest.raises(OffGrid):
                kern.binop(np.add, wide, kern.enter(values))

    def test_float64_and_inexact_scalar_fail(self, checking):
        ctx = FPContext({"lcp": 6}, census=False)
        with ctx.in_phase("lcp"):
            kern = ctx.kernel()
            ok = kern.enter(np.array([1.5, 2.0]))
            with pytest.raises(OffGrid):
                kern.binop(np.add, ok, np.array([1.5, 2.0]))
            with pytest.raises(OffGrid):
                kern.binop(np.multiply, ok, 0.1)
            with pytest.raises(OffGrid):
                kern.binop(np.multiply, ok, np.float64(2.0))
            kern.binop(np.multiply, ok, 2.0)
            kern.binop(np.multiply, -ok, np.abs(ok))
