"""Tests for the world pipeline, energy monitoring, islands, sleeping,
cloth and explosions."""

import numpy as np
import pytest

from repro.fp import FPContext
from repro.physics import Cloth, Explosion, SleepParams, World
from repro.physics.island import UnionFind, partition_islands
from repro.physics.joints import WORLD


def make_world(**kwargs):
    return World(ctx=FPContext(census=False), **kwargs)


class TestEnergyMonitor:
    def test_free_fall_conserves_total_energy(self):
        world = make_world()
        world.add_sphere([0, 10.0, 0], 0.2, 1.0)
        for _ in range(50):
            world.step()
        energies = world.monitor.totals()
        assert abs(energies[-1] - energies[0]) < 0.01 * abs(energies[0])

    def test_kinetic_potential_split(self):
        world = make_world()
        world.add_sphere([0, 10.0, 0], 0.2, 2.0)
        world.step()
        record = world.monitor.records[-1]
        assert record.potential == pytest.approx(2.0 * 9.8 * 10.0, rel=0.01)
        assert record.kinetic == pytest.approx(
            0.5 * 2.0 * (9.8 * 0.01) ** 2, rel=0.05)

    def test_rotational_kinetic_energy_counted(self):
        world = make_world()
        world.add_sphere([0, 0.0, 0], 0.5, 2.0, angvel=[0, 10.0, 0])
        world.step()
        inertia = 0.4 * 2.0 * 0.25
        assert world.monitor.records[-1].kinetic == pytest.approx(
            0.5 * inertia * 100.0, rel=0.02)

    def test_injection_accounted(self):
        world = make_world()
        world.add_sphere([0, 0.0, 0], 0.5, 1.0)
        world.gravity[:] = 0.0
        world.monitor.gravity[:] = 0.0
        injected = world.apply_impulse(0, [3.0, 0, 0])
        assert injected == pytest.approx(4.5, rel=1e-5)
        world.step()
        record = world.monitor.records[-1]
        assert record.injected_total == pytest.approx(4.5, rel=1e-5)
        assert record.conserved == pytest.approx(0.0, abs=0.01)

    def test_step_difference_signal(self):
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_sphere([0, 0.5, 0], 0.5, 1.0)
        world.step()
        assert world.monitor.relative_step_difference() is None
        world.step()
        assert world.monitor.relative_step_difference() is not None

    def test_instruction_overhead_formula(self):
        world = make_world()
        assert world.monitor.instruction_overhead(10, 100) == \
            67 * 10 + 27 * 100

    def test_static_bodies_excluded(self):
        world = make_world()
        world.add_box([0, 5.0, 0], [1, 1, 1], 0.0)  # static
        world.step()
        assert world.monitor.records[-1].total == 0.0


class TestIslands:
    def test_union_find_basics(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(1)
        assert uf.find(0) != uf.find(3)
        assert uf.find(2) == 2

    def test_partition_labels(self):
        dynamic = np.array([True] * 4)
        labels = partition_islands(4, dynamic, [0, 2], [1, 3])
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_static_bodies_do_not_merge(self):
        dynamic = np.array([True, False, True])
        labels = partition_islands(3, dynamic, [0, 1], [1, 2])
        assert labels[1] == -1
        assert labels[0] != labels[2]

    def test_world_body_ignored(self):
        dynamic = np.array([True, True])
        labels = partition_islands(2, dynamic, [0, 1], [5, -1])
        assert labels[0] != labels[1]

    def test_world_islands_two_piles(self):
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_box([0, 0.45, 0], [0.5, 0.5, 0.5])
        world.add_box([0, 1.4, 0], [0.5, 0.5, 0.5])
        world.add_box([10, 0.45, 0], [0.5, 0.5, 0.5])
        world.step()
        assert world.island_count == 2
        labels = world.island_labels
        assert labels[0] == labels[1] != labels[2]


class TestSleeping:
    def test_quiet_body_falls_asleep(self):
        world = make_world(sleep=SleepParams(steps_to_sleep=10))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.499, 0], [0.5, 0.5, 0.5], 1.0)
        for _ in range(100):
            world.step()
        assert world.bodies.asleep[0]

    def test_sleep_disabled(self):
        world = make_world(sleep=SleepParams(enabled=False))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.499, 0], [0.5, 0.5, 0.5], 1.0)
        for _ in range(100):
            world.step()
        assert not world.bodies.asleep[0]

    def test_impulse_wakes_body(self):
        world = make_world(sleep=SleepParams(steps_to_sleep=10))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.499, 0], [0.5, 0.5, 0.5], 1.0)
        for _ in range(100):
            world.step()
        world.apply_impulse(0, [5.0, 0.0, 0.0])
        assert not world.bodies.asleep[0]

    def test_projectile_wakes_sleeper(self):
        world = make_world(sleep=SleepParams(steps_to_sleep=10))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.499, 0], [0.5, 0.5, 0.5], 1.0)
        for _ in range(80):
            world.step()
        assert world.bodies.asleep[0]
        world.add_sphere([-3.0, 0.6, 0], 0.3, 2.0, linvel=[8.0, 0, 0])
        for _ in range(80):
            world.step()
        assert not world.bodies.asleep[0]
        assert world.bodies.pos[0, 0] > 0.05  # it actually moved


class TestExplosion:
    def test_explosion_pushes_bodies_apart(self):
        world = make_world()
        world.add_ground_plane(0.0)
        a = world.add_box([-0.5, 0.5, 0], [0.4, 0.4, 0.4], 1.0)
        b = world.add_box([0.5, 0.5, 0], [0.4, 0.4, 0.4], 1.0)
        world.schedule_explosion(
            Explosion(center=[0, 0.5, 0], impulse=6.0, radius=3.0,
                      trigger_step=2))
        for _ in range(60):
            world.step()
        assert world.bodies.pos[a, 0] < -0.6
        assert world.bodies.pos[b, 0] > 0.6

    def test_explosion_energy_recorded_as_injection(self):
        world = make_world()
        world.add_box([0.4, 0.5, 0], [0.4, 0.4, 0.4], 1.0)
        world.schedule_explosion(
            Explosion(center=[0, 0.5, 0], impulse=6.0, radius=3.0,
                      trigger_step=1))
        world.step()
        world.step()
        assert world.monitor.injected_total > 0.0

    def test_out_of_radius_untouched(self):
        world = make_world()
        world.add_ground_plane(0.0)
        far = world.add_box([10.0, 0.4, 0], [0.4, 0.4, 0.4], 1.0)
        world.schedule_explosion(
            Explosion(center=[0, 0, 0], impulse=6.0, radius=2.0,
                      trigger_step=0))
        world.step()
        assert abs(world.bodies.linvel[far, 0]) < 1e-6

    def test_falloff_with_distance(self):
        world = make_world()
        near = world.add_box([0.5, 0.0, 0], [0.2, 0.2, 0.2], 1.0)
        far_b = world.add_box([2.0, 0.0, 0], [0.2, 0.2, 0.2], 1.0)
        world.gravity[:] = 0.0
        world.monitor.gravity[:] = 0.0
        world.schedule_explosion(
            Explosion(center=[0, 0, 0], impulse=6.0, radius=3.0,
                      trigger_step=0))
        world.step()
        assert world.bodies.linvel[near, 0] > world.bodies.linvel[far_b, 0]


class TestCloth:
    def test_grid_construction(self):
        cloth = Cloth(origin=(0, 1, 0), rows=4, cols=5, spacing=0.2)
        assert cloth.particle_count == 20
        # structural: 4*4 + 3*5 = 31; shear: 3*4*2 = 24
        assert len(cloth.edge_a) == 31 + 24

    def test_pinned_particles_static(self):
        cloth = Cloth(origin=(0, 2, 0), rows=3, cols=3, spacing=0.2,
                      pinned=[(0, 0)])
        world = make_world()
        world.add_cloth(cloth)
        start = cloth.pos[cloth.index(0, 0)].copy()
        for _ in range(50):
            world.step()
        assert np.allclose(cloth.pos[cloth.index(0, 0)], start, atol=1e-5)

    def test_hanging_cloth_does_not_stretch_much(self):
        cloth = Cloth(origin=(0, 2, 0), rows=4, cols=4, spacing=0.25,
                      pinned=[(0, 0), (0, 3)])
        world = make_world()
        world.add_cloth(cloth)
        for _ in range(150):
            world.step()
        lengths = np.linalg.norm(
            cloth.pos[cloth.edge_a] - cloth.pos[cloth.edge_b], axis=1)
        assert lengths.max() < 1.6 * cloth.rest_length.max()

    def test_cloth_rests_on_ground(self):
        cloth = Cloth(origin=(0, 0.5, 0), rows=4, cols=4, spacing=0.25)
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_cloth(cloth)
        for _ in range(150):
            world.step()
        assert cloth.pos[:, 1].min() > -0.01
        assert cloth.pos[:, 1].max() < 0.2

    def test_cloth_drapes_over_sphere(self):
        cloth = Cloth(origin=(-0.4, 1.5, 0.4), rows=5, cols=5,
                      spacing=0.2)
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_sphere([0, 0.6, 0], 0.6, 0.0)  # static ball
        world.add_cloth(cloth)
        for _ in range(150):
            world.step()
        center = cloth.pos[:, 1].max()
        assert center > 0.9  # held up by the sphere
        dists = np.linalg.norm(cloth.pos - np.array([0, 0.6, 0]), axis=1)
        assert dists.min() > 0.55  # not inside the sphere

    def test_cloth_energy_monitored(self):
        cloth = Cloth(origin=(0, 1.0, 0), rows=3, cols=3, spacing=0.2)
        world = make_world()
        world.add_cloth(cloth)
        world.step()
        assert world.monitor.records[-1].total != 0.0


class TestWorldPlumbing:
    def test_step_frame_is_three_steps(self):
        world = make_world()
        world.step_frame()
        assert world.step_count == 3

    def test_penetration_series_tracked(self):
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_sphere([0, 0.2, 0], 0.5, 1.0)
        world.step()
        assert world.penetration_series[0] > 0.1

    def test_phase_stats_partitioned(self):
        world = World(ctx=FPContext())
        world.add_ground_plane(0.0)
        world.add_sphere([0, 0.4, 0], 0.5, 1.0)
        world.step()
        phases = {phase for phase, _op in world.ctx.stats}
        assert {"narrow", "lcp", "integrate"} <= phases
