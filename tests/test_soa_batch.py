"""Bit-identity suite for the SoA hot path and fleet-batched stepping.

The structure-of-arrays passes (fused whole-array kernels in the
integrator, narrow phase, LCP sweep, joints, cloth and sleep/wake
bookkeeping) must keep the exact bits of the 20-step trajectory goldens
(``tests/engine_goldens.py``) on every scenario, and
:class:`~repro.physics.WorldBatch` — K worlds stepped as stacked-array
passes — must equal per-world ``World.step()``.
"""

import pytest

from repro.experiments.table1 import PRESET_PRECISIONS
from repro.fp.census import CensusKernel
from repro.fp.context import FPContext
from repro.physics import (BatchIncompatible, Cloth, World, WorldBatch,
                           fleet_ineligibility)
from repro.physics import lcp, narrowphase
from repro.workloads import SCENARIO_NAMES, build

from .engine_goldens import load, requires_golden_host
from .engine_goldens import world_digest as _digest

#: Enough steps for every scenario to reach contact-rich states (the
#: explosions scenario detonates at step 10, ragdolls hit the ground).
TRAJECTORY_STEPS = 20

#: Steps before a fleet test starts: the continuous spheres land at step
#: 20, bounce, and rest on the ground from step 31.
FLEET_SETTLE_STEPS = {"continuous": 30}


def _build_world(name, census=False):
    ctx = FPContext(dict(PRESET_PRECISIONS[name]), census=census)
    return build(name, ctx=ctx)


def _trajectory(world, steps=TRAJECTORY_STEPS):
    digests = []
    for _ in range(steps):
        world.step()
        digests.append(_digest(world))
    return digests


class TestSoaBitIdentity:
    """Vectorized step == the recorded op-for-op trajectory, bit for bit."""

    @requires_golden_host
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_fast_matches_reference_trajectory(self, scenario):
        assert (_trajectory(_build_world(scenario))
                == load()["census_free"][scenario])

    def test_census_runs_the_stacked_passes(self, monkeypatch):
        # Census worlds take the whole-array passes every run takes: the
        # batched box-box pass over many pairs at once and the stacked
        # joint rows over many joints, on the census kernel.
        batch_sizes = {}

        def spy(module, name, items):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                batch_sizes.setdefault(name, []).append(len(args[items]))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(narrowphase, "_box_box", 3)
        spy(lcp, "_joint_rows", 2)
        for scenario in ("breakable", "ragdoll"):
            world = _build_world(scenario, census=True)
            assert isinstance(world.ctx.kernel(), CensusKernel)
            for _ in range(3):
                world.step()
        assert max(batch_sizes["_box_box"]) > 1
        assert max(batch_sizes["_joint_rows"]) > 1


class TestWorldBatch:
    def test_k1_equals_world_step(self):
        solo = _build_world("everything")
        member = _build_world("everything")
        fleet = WorldBatch([member])
        for _ in range(10):
            solo.step()
            fleet.step()
            assert _digest(member) == _digest(solo)

    # explosions and periodic have pinned world slots that out-degree
    # every dynamic body (108 vs 24 and 18 vs 9); in everything and
    # ragdoll dynamic bodies are the busiest.
    @pytest.mark.parametrize("scenario", ["continuous", "everything",
                                          "explosions", "periodic",
                                          "ragdoll"])
    def test_same_family_batch_equals_sequential(self, scenario,
                                                 monkeypatch):
        # Members settle until they rest on contacts, then desynchronized
        # starts put member i i steps ahead, so the merged solve sees
        # four genuinely different row sets.
        sequential = [_build_world(scenario) for _ in range(4)]
        batched = [_build_world(scenario) for _ in range(4)]
        for i in range(4):
            for _ in range(FLEET_SETTLE_STEPS.get(scenario, 0) + i):
                sequential[i].step()
                batched[i].step()

        merged = []
        solve_rows = lcp.solve_rows

        def spy(ctx, vel, rows, params, pinned):
            if len(pinned) > 1:
                merged.append(len(rows))
            return solve_rows(ctx, vel, rows, params, pinned)
        monkeypatch.setattr(lcp, "solve_rows", spy)

        fleet = WorldBatch(batched)
        for _ in range(8):
            for world in sequential:
                world.step()
            fleet.step()
        for ours, theirs in zip(batched, sequential):
            assert _digest(ours) == _digest(theirs)
        assert merged, "the fleet never ran a merged solve"

    def test_mixed_family_batch_equals_sequential(self):
        # Different scenarios can share a fleet as long as they agree
        # on precision configuration (and dt/solver parameters).
        names = ["continuous", "ragdoll", "highspeed", "deformable"]
        precision = {"narrow": 13, "lcp": 10, "integrate": 16}

        def mk(name):
            return build(name,
                         ctx=FPContext(dict(precision), census=False))

        sequential = [mk(name) for name in names]
        batched = [mk(name) for name in names]
        fleet = WorldBatch(batched)
        for _ in range(8):
            for world in sequential:
                world.step()
            fleet.step()
        for ours, theirs in zip(batched, sequential):
            assert _digest(ours) == _digest(theirs)

    def test_mixed_gravity_batch_equals_sequential(self, monkeypatch):
        # Gravity is applied per body (and per cloth), so members whose
        # gravities differ each keep their own through the stacked kick.
        gravities = [(0.0, -9.8, 0.0), (0.0, -3.7, 0.0),
                     (1.5, -9.8, -0.5), (0.0, 0.0, 0.0)]

        def mk(gravity):
            world = World(FPContext({"narrow": 12, "lcp": 9},
                                    census=False), gravity=gravity)
            world.add_ground_plane()
            # Every body starts in contact, so each member has rows.
            world.add_sphere((0.0, 0.29, 0.0), 0.3, linvel=(0.2, 0.0, 0.0))
            world.add_box((1.0, 0.29, 0.0), (0.3, 0.3, 0.3))
            world.add_box((0.95, 0.78, 0.05), (0.2, 0.2, 0.2))
            world.add_cloth(Cloth((-1.0, 1.5, -1.0), 4, 4, 0.2,
                                  pinned=[(0, 0)]))
            return world

        sequential = [mk(g) for g in gravities]
        batched = [mk(g) for g in gravities]
        merged = []
        solve_rows = lcp.solve_rows

        def spy(ctx, vel, rows, params, pinned):
            merged.append(len(pinned))
            return solve_rows(ctx, vel, rows, params, pinned)
        monkeypatch.setattr(lcp, "solve_rows", spy)

        fleet = WorldBatch(batched)
        for _ in range(25):
            for world in sequential:
                world.step()
            fleet.step()
            for ours, theirs in zip(batched, sequential):
                assert _digest(ours) == _digest(theirs)
        assert max(merged) == len(gravities), \
            "the fleet never ran a merged solve over every member"

    def test_census_world_is_ineligible(self):
        world = _build_world("continuous", census=True)
        assert fleet_ineligibility(world) is not None
        with pytest.raises(BatchIncompatible):
            WorldBatch([world])

    def test_observer_makes_world_ineligible(self):
        world = _build_world("continuous")
        assert fleet_ineligibility(world) is None
        world.observer = object()
        assert fleet_ineligibility(world) == "tracer attached"

    def test_precision_mismatch_is_incompatible(self):
        a = _build_world("continuous")
        b = build("continuous",
                  ctx=FPContext({"lcp": 7}, census=False))
        with pytest.raises(BatchIncompatible):
            WorldBatch([a, b])

    def test_empty_fleet_is_incompatible(self):
        with pytest.raises(BatchIncompatible):
            WorldBatch([])
