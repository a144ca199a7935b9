"""Property-based tests on physics invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import FPContext
from repro.physics import SleepParams, SolverParams, World

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   width=32)
masses = st.floats(min_value=0.125, max_value=10.0, allow_nan=False,
                   width=32)
speeds = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                   width=32)
precisions = st.integers(min_value=4, max_value=23)


def _finite_world(world):
    n = world.bodies.count
    assert np.isfinite(world.bodies.pos[:n]).all()
    assert np.isfinite(world.bodies.linvel[:n]).all()
    assert np.isfinite(world.bodies.angvel[:n]).all()


class TestSolverInvariants:
    @given(st.lists(st.tuples(coords, coords, masses), min_size=1,
                    max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_random_drops_stay_finite(self, bodies):
        world = World(ctx=FPContext(census=False))
        world.add_ground_plane(0.0)
        for k, (x, z, m) in enumerate(bodies):
            world.add_sphere([x, 1.0 + 0.7 * k, z], 0.3, m)
        for _ in range(40):
            world.step()
        _finite_world(world)

    @given(precisions, st.sampled_from(["rn", "jam", "trunc"]))
    @settings(max_examples=15, deadline=None)
    def test_reduced_runs_stay_finite(self, precision, mode):
        world = World(ctx=FPContext({"lcp": precision,
                                     "narrow": precision},
                                    mode=mode, census=False))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.8, 0], [0.4, 0.4, 0.4], 2.0)
        world.add_sphere([0.2, 1.8, 0.1], 0.3, 1.0)
        for _ in range(40):
            world.step()
        _finite_world(world)

    @given(st.tuples(speeds, speeds, speeds), masses)
    @settings(max_examples=25, deadline=None)
    def test_zero_gravity_free_body_momentum(self, velocity, mass):
        # Object disabling zeroes bodies slower than its threshold, which
        # is not the property under test.
        world = World(ctx=FPContext(census=False), gravity=(0, 0, 0),
                      sleep=SleepParams(enabled=False))
        world.add_sphere([0, 0, 0], 0.3, mass, linvel=list(velocity))
        momentum0 = mass * np.array(velocity, dtype=np.float64)
        for _ in range(30):
            world.step()
        momentum1 = float(world.bodies.mass[0]) * \
            world.bodies.linvel[0].astype(np.float64)
        assert np.allclose(momentum0, momentum1, atol=1e-3)

    @given(st.tuples(speeds, speeds), masses, masses)
    @settings(max_examples=25, deadline=None)
    def test_two_body_collision_conserves_momentum(self, vels, m1, m2):
        world = World(ctx=FPContext(census=False), gravity=(0, 0, 0))
        world.monitor.gravity[:] = 0.0
        v1, v2 = vels
        world.add_sphere([-1.0, 0, 0], 0.3, m1, linvel=[abs(v1) + 0.5, 0, 0],
                         friction=0.0)
        world.add_sphere([1.0, 0, 0], 0.3, m2, linvel=[-abs(v2), 0, 0],
                         friction=0.0)
        p0 = (m1 * world.bodies.linvel[0] + m2 * world.bodies.linvel[1])
        for _ in range(60):
            world.step()
        p1 = (m1 * world.bodies.linvel[0] + m2 * world.bodies.linvel[1])
        assert np.allclose(p0, p1, atol=0.05 * (m1 + m2) + 0.05)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_iteration_count_never_destabilizes(self, iterations):
        world = World(ctx=FPContext(census=False),
                      solver=SolverParams(iterations=iterations))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.6, 0], [0.5, 0.5, 0.5], 2.0)
        for _ in range(30):
            world.step()
        _finite_world(world)
        assert world.bodies.pos[0, 1] < 2.0  # no launch into orbit


class TestEnergyInvariants:
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_dissipative_scene_energy_never_grows(self, positions):
        world = World(ctx=FPContext(census=False))
        world.add_ground_plane(0.0, restitution=0.0, friction=0.9)
        for k, (x, z) in enumerate(positions):
            world.add_sphere([x, 0.6 + 0.8 * k, z], 0.25, 1.0,
                             restitution=0.0, friction=0.9)
        for _ in range(60):
            world.step()
        energy = world.monitor.totals()
        # allow tiny numerical wiggle (<2% of initial + absolute slack)
        assert energy.max() <= energy[0] + 0.02 * abs(energy[0]) + 0.5

    @given(masses, st.floats(min_value=1.0, max_value=6.0, width=32))
    @settings(max_examples=20, deadline=None)
    def test_impulse_energy_bookkeeping(self, mass, impulse):
        world = World(ctx=FPContext(census=False), gravity=(0, 0, 0))
        world.monitor.gravity[:] = 0.0
        world.add_sphere([0, 0, 0], 0.3, mass)
        injected = world.apply_impulse(0, [impulse, 0, 0])
        expected = 0.5 * impulse ** 2 / mass
        assert injected == pytest.approx(expected, rel=1e-4)
        world.step()
        record = world.monitor.records[-1]
        assert record.conserved == pytest.approx(0.0, abs=0.01 * expected
                                                 + 1e-6)


class TestSamePrecisionDeterminism:
    @given(precisions)
    @settings(max_examples=10, deadline=None)
    def test_identical_runs_bitwise_equal(self, precision):
        def run():
            world = World(ctx=FPContext({"lcp": precision},
                                        census=False))
            world.add_ground_plane(0.0)
            world.add_box([0, 0.8, 0], [0.4, 0.4, 0.4], 2.0)
            world.add_sphere([0.3, 1.6, 0], 0.3, 1.0)
            for _ in range(25):
                world.step()
            return world.bodies.pos[:2].copy()

        assert np.array_equal(run(), run())
